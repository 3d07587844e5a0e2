"""The package's exports: the same names as the modules define, each loaded
on first use, so ``import penair`` loads none of penair's modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import penair

EXPORTS = {  # defining module -> the names the package exports from it
    "errors": ["DegenerateDataError", "EmptyCohortError", "EmptyInputError", "ExactSizeError",
               "InsufficientDataError", "ManifestError", "ParseError", "PenAirError",
               "SynthSpecError", "TimestampOrderError"],
    "features": ["AnomalyPolicy", "CohortSummary", "Feature", "FeatureVector",
                 "aggregate_cohort", "feature_vector", "relative_times"],
    "ingest": ["ManifestRecord", "ParseOptions", "ParseWarning", "SampleStream",
               "load_manifest", "parse_session", "read_manifest", "read_session",
               "serialize_session"],
    "report": ["RunConfig", "TableFormat", "render_p_table", "render_time_table",
               "render_trajectories"],
    "segmentation": ["Gap", "SegmentationConfig", "SessionSegmentation", "Stroke",
                     "StrokeClass", "detect_gaps", "nominal_period", "segment"],
    "stats": ["ALPHA", "RankTestResult", "UStat", "approx_p", "compare_cohorts", "exact_p",
              "mann_whitney_u"],
    "synth": ["CohortSpec", "CorpusSpec", "GroundTruth", "IntRange", "PlanDistribution",
              "SynthSpec", "file_seed", "generate_corpus", "generate_session",
              "load_corpus_spec", "read_corpus_spec"],
}


def test_all_lists_every_export_once():
    names = [name for names in EXPORTS.values() for name in names] + ["__version__"]
    assert len(penair.__all__) == len(set(penair.__all__)) == len(names) == 58
    assert set(penair.__all__) == set(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"penair.{module}")
    for name in EXPORTS[module]:
        assert getattr(penair, name) is getattr(defining, name), name


def test_dir_lists_every_export():
    assert set(penair.__all__) <= set(dir(penair))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from penair import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(penair.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'penair' has no attribute 'no_such_name'"):
        getattr(penair, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from penair import no_such_name", {})


def test_submodules_still_import_by_name():
    from penair import stats, synth

    assert stats is sys.modules["penair.stats"]
    assert synth.generate_corpus is penair.generate_corpus


def test_bare_import_loads_no_penair_module():
    code = ("import sys, penair\n"
            "print(' '.join(m for m in sys.modules if m.startswith('penair')))")
    env = {**os.environ, "PYTHONPATH": str(Path(penair.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert done.stdout.split() == ["penair"]

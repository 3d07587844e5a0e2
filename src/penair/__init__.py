"""Analysis of pen digitizer recordings: on-surface versus in-air behavior.

The pipeline: parse raw recordings (ingest), split them into on-surface,
short in-air, and long in-air strokes (segmentation), reduce each file to six
timing/count features (features), aggregate cohorts and compare them with
rank tests (stats), generate synthetic corpora with exact ground truth
(synth), and render tables and trajectory plots (report).

Importing the package loads none of these modules: each export below loads
its module on first use (PEP 562), so a command pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "DegenerateDataError EmptyCohortError EmptyInputError ExactSizeError "
              "InsufficientDataError ManifestError ParseError PenAirError SynthSpecError "
              "TimestampOrderError",
    "features": "AnomalyPolicy CohortSummary Feature FeatureVector aggregate_cohort "
                "feature_vector relative_times",
    "ingest": "ManifestRecord ParseOptions ParseWarning SampleStream load_manifest "
              "parse_session read_manifest read_session serialize_session",
    "report": "RunConfig TableFormat render_p_table render_time_table render_trajectories",
    "segmentation": "Gap SegmentationConfig SessionSegmentation Stroke StrokeClass "
                    "detect_gaps nominal_period segment",
    "stats": "ALPHA RankTestResult UStat approx_p compare_cohorts exact_p mann_whitney_u",
    "synth": "CohortSpec CorpusSpec GroundTruth IntRange PlanDistribution SynthSpec "
             "file_seed generate_corpus generate_session load_corpus_spec read_corpus_spec",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})

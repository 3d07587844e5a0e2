"""Every documented boundary, inverted by one edit of the source, fails the
tests named for it.

A row is ``(module, source text, replacement, killing test ids)``. The text
occurs exactly once in the ``penair`` package, in ``module``. The test
copies the package, applies the replacement and runs the killers on the copy
in a new pytest process, which must report each of them failed: exit code 1,
not a collection or usage error. The same killers pass on the unmutated
package. A refactor that moves a boundary updates its row; a change that adds
a boundary adds one.

The children run ``python -m pytest`` itself, not ``tests/fresh.py``, whose
``-S`` leaves pytest out of reach, two at a time and with plugin autoload
off, which takes one from about 1.6 s to 0.4 s.
"""

import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import penair

PACKAGE = Path(penair.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

ROWS = {
    # "gap strictly exceeds the threshold": intervals are integers, so one lower is ">="
    "gap_limit": ("segmentation", "limit = floor(cfg.gap_threshold(period))",
                  "limit = floor(cfg.gap_threshold(period)) - 1",
                  ["tests/test_segmentation.py::test_gap_threshold_is_strict"]),
    # "anomalous strictly above the threshold", in features.py and through the CLI
    "anomaly_strict": ("features", "t_air_long * self.threshold.denominator > self",
                       "t_air_long * self.threshold.denominator >= self",
                       ["tests/test_features.py::test_anomaly_boundary_is_strict",
                        "tests/test_cli.py::test_features_anomaly_threshold_is_strict"]),
    "gap_factor_over_one": ("segmentation", "if not self.gap_factor > 1:",
                            "if not self.gap_factor >= 1:",
                            ["tests/test_segmentation.py::test_config_validation"]),
    "anomaly_threshold_up_to_one": ("features", "if not 0 < thr <= 1:", "if not 0 < thr < 1:",
                                    ["tests/test_features.py::test_anomaly_threshold_validation"]),
    "period_tie_to_smaller": ("segmentation", "period = min(d for d, c in counts.items()",
                              "period = max(d for d, c in counts.items()",
                              ["tests/test_segmentation.py::test_nominal_period_tie_takes_smaller"]),
    "min_gap_ticks_positive": ("segmentation", "self.min_gap_ticks < 1:",
                               "self.min_gap_ticks < 0:",
                               ["tests/test_segmentation.py::test_config_validation"]),
    # "p < 0.05 strictly"
    "alpha_strict": ("stats", "significant=p < ALPHA", "significant=p <= ALPHA",
                     ["tests/test_stats.py::test_p_of_exactly_alpha_is_not_significant",
                      "tests/test_cli.py::test_compare_p_of_exactly_alpha_is_not_significant"]),
    # "exact up to --exact-limit"
    "exact_up_to_limit": ("stats", "if len(xs) + len(ys) <= exact_limit:",
                          "if len(xs) + len(ys) < exact_limit:",
                          ["tests/test_stats.py::test_compare_is_exact_up_to_exact_limit",
                           "tests/test_cli.py::test_compare_is_exact_up_to_exact_limit"]),
    "exact_p_up_to_limit": ("stats", "if n > exact_limit:", "if n >= exact_limit:",
                            ["tests/test_stats.py::test_exact_p_size_limit"]),
    # its killer prints the approximate p of one tied pool to the last digit
    "continuity_half": ("stats", "abs(u.u_a - mu) - 0.5", "abs(u.u_a - mu) - 0.4",
                        ["tests/test_cli.py::test_compare_is_exact_up_to_exact_limit"]),
    "cells_half_to_even": ("report", "q = round(Fraction(x) * scale)",
                           "q = int(Fraction(x) * scale + Fraction(1, 2))",
                           ["tests/test_report.py::test_cells_round_exact_ties_half_to_even"]),
    # a text's "\r\n" and "\r" line ends reach the JSON scanner as "\n"
    "line_ends_to_lf": ("ingest", 'chunk = chunk.replace(b"\\r\\n", b"\\n").replace(b"\\r", b"\\n")',
                        "pass",
                        ["tests/test_ingest.py::test_canonical_text_never_leaves_the_scanner[True]",
                         "tests/test_ingest.py::test_canonical_text_never_leaves_the_scanner[False]"]),
}
KILLERS = sorted({test for *_, ids in ROWS.values() for test in ids})


def run_killers(package_parent, ids):
    """pytest run on ``ids`` with ``package_parent`` first on the path: its
    exit code and its last line of output."""
    env = {**os.environ, "PYTHONPATH": str(package_parent), "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, env=env, capture_output=True, text=True, encoding="utf-8",
                          timeout=120)
    return done.returncode, done.stdout.rstrip().rpartition("\n")[2]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each row's killers run on its mutated copy of the package, and every
    killer on an unmutated copy (row None), two children at a time: the
    futures of run_killers, by row."""
    rows = {None: (None, None, None, KILLERS), **ROWS}
    with ThreadPoolExecutor(2) as pool:
        futures = {}
        for row, (module, text, replacement, killers) in rows.items():
            parent = tmp_path_factory.mktemp("mutant")
            shutil.copytree(PACKAGE, parent / "penair", ignore=shutil.ignore_patterns("__pycache__"))
            if module:
                path = parent / "penair" / f"{module}.py"
                path.write_text(path.read_text(encoding="utf-8").replace(text, replacement),
                                encoding="utf-8")
            futures[row] = pool.submit(run_killers, parent, killers)
        yield futures


@pytest.mark.parametrize("row", ROWS)
def test_mutant_fails_its_killers(row, runs):
    module, text, _, killers = ROWS[row]
    found = [path.stem for path in PACKAGE.glob("*.py")
             for _ in range(path.read_text(encoding="utf-8").count(text))]
    assert found == [module]
    code, summary = runs[row].result()
    assert code == 1 and re.match(rf"{len(killers)} failed[ ,]", summary), summary


def test_killers_pass_unmutated(runs):
    code, summary = runs[None].result()
    assert code == 0 and re.match(rf"{len(KILLERS)} passed[ ,]", summary), summary

"""Benchmark workloads: seeded corpus specs, CLI commands and output checks.

Every workload writes its corpus with ``penair synth`` and then runs one CLI
command over it. Outputs are checked against ground truth rebuilt through the
public generator API (``file_seed``, ``PlanDistribution.build_plan``,
``generate_session``), never against the CLI's own earlier output.

Sizes are fixed per workload and do not depend on the seed: the seed changes
the drawn durations, positions and values, so run-to-run differences in
corpus size stay small.
"""

from __future__ import annotations

import bisect
import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from penair import (
    AnomalyPolicy,
    Feature,
    FeatureVector,
    ManifestRecord,
    StrokeClass,
    SynthSpec,
    file_seed,
    generate_session,
    load_corpus_spec,
)

MANIFEST = "manifest.csv"
EXACT_LIMIT = 60
ALPHA = Fraction(1, 20)  # the paper's significance level, p < 0.05 strictly


@dataclass(frozen=True)
class SynthJob:
    """One ``penair synth`` call: spec text, master seed, output subdirectory."""

    spec: str
    seed: int
    subdir: str


@dataclass(frozen=True)
class FileTruth:
    """Ground truth of one generated file, keyed by its manifest labels."""

    record: ManifestRecord
    strokes: tuple[tuple[StrokeClass, int, int], ...]
    class_times: dict
    class_counts: dict
    n_samples: int


def _spec_text(corpus: dict, cohorts: dict[str, dict]) -> str:
    lines = ["[corpus]"] + [f"{k} = {v}" for k, v in corpus.items()]
    for name, keys in cohorts.items():
        lines += ["", f"[cohort {name}]"] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def build_truth(job: SynthJob) -> list[FileTruth]:
    """Regenerate every session of one synth job in memory, in manifest order.

    Mirrors ``generate_corpus``: one plan rng and one session seed per
    cohort member, both derived from the master seed with ``file_seed``.
    """
    spec = load_corpus_spec(job.spec)
    out = []
    for cohort_name, cohort in spec.cohorts.items():
        for i in range(cohort.n_files):
            plan_rng = random.Random(file_seed(job.seed, f"{cohort_name}:{i}:plan"))
            session = SynthSpec(
                nominal_period=spec.nominal_period,
                jitter=spec.jitter,
                stroke_plan=cohort.plan.build_plan(plan_rng),
                seed=file_seed(job.seed, f"{cohort_name}:{i}:session"),
                gap_factor=spec.gap_factor,
            )
            stream, gt = generate_session(session)
            name = f"{cohort_name}_{i:03d}"
            path = Path(job.subdir, f"{name}.svc") if job.subdir else Path(f"{name}.svc")
            record = ManifestRecord(path, spec.database, spec.task, name, cohort_name)
            out.append(FileTruth(record, gt.strokes, gt.class_times, gt.class_counts,
                                 len(stream.samples)))
    return out


def _truth_vector(ft: FileTruth) -> FeatureVector:
    t = ft.class_times
    c = ft.class_counts
    s, a, l = StrokeClass.ON_SURFACE, StrokeClass.IN_AIR_SHORT, StrokeClass.IN_AIR_LONG
    return FeatureVector(
        time_on_surface=t[s],
        time_in_air_short=t[a],
        time_in_air_long=t[l],
        strokes_on_surface=c[s],
        strokes_in_air_short=c[a],
        strokes_in_air_long=c[l],
        anomalous=AnomalyPolicy().is_anomalous(t[s], t[a], t[l]),
        source=ft.record,
    )


FEATURE_HEADER = ("path", "database", "task", "subject", "cohort") + tuple(
    f.value for f in Feature) + ("anomalous",)
COMPARE_HEADER = ("task", "feature", "n_A", "n_B", "U_A", "p", "method", "significant")


def feature_row(v: FeatureVector) -> list[str]:
    """One row of ``penair features`` output, formatted as the CLI formats it."""
    rec = v.source
    return ([str(rec.path), rec.database, rec.task, rec.subject, rec.cohort]
            + [str(v.value(f)) for f in Feature]
            + ["true" if v.anomalous else "false"])


def compare_row(r) -> list[str]:
    """One row of ``penair compare`` csv output, formatted as the CLI formats it."""
    return [r.task, r.feature.value, str(r.u.n_a), str(r.u.n_b), _number(r.u.u_a),
            repr(float(r.p)), r.method, "true" if r.significant else "false"]


def _number(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def reference_exact_test(xs: list[int], ys: list[int]) -> tuple[float, Fraction]:
    """U_A and the exact two-sided Mann-Whitney p, computed without ``penair.stats``.

    U_A counts the pairs with x > y plus half the tied pairs. The null
    distribution of A's doubled rank sum is a generating function: each pooled
    value, at its doubled midrank r, adds x^r to every way of choosing k values
    so far. Each polynomial is packed into one Python int, one fixed-width slot
    per coefficient, so a step is a shift and an add.
    """
    n_a, n_b = len(xs), len(ys)
    u_a = sum((x > y) + (x == y) / 2 for x in xs for y in ys)
    pooled = sorted(xs + ys)
    r2 = {v: bisect.bisect_left(pooled, v) + bisect.bisect_right(pooled, v) + 1
          for v in pooled}
    # no partial count exceeds C(n, n/2), so no slot overflows into the next
    slot = 64 * (comb(len(pooled), len(pooled) // 2).bit_length() // 64 + 1)
    ways = [1] + [0] * n_a  # ways[k]: packed counts of k-subsets by doubled rank sum
    for v in pooled:
        for k in range(n_a, 0, -1):
            ways[k] += ways[k - 1] << (slot * r2[v])
    counts = ways[n_a].to_bytes((ways[n_a].bit_length() + slot) // 8, "little")
    width = slot // 8
    deviation = abs(sum(r2[x] for x in xs) - n_a * (n_a + 1) - n_a * n_b)
    extreme = sum(
        int.from_bytes(counts[s * width:(s + 1) * width], "little")
        for s in range(len(counts) // width)
        if abs(s - n_a * (n_a + 1) - n_a * n_b) >= deviation
    )
    return u_a, Fraction(extreme, comb(len(pooled), n_a))


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _diff_rows(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if list(g) != list(w):
            return [f"row {i}: got {g}, expected {w}"]
    return []


class Workload:
    """A seeded corpus plus the CLI command that reads it."""

    name: str

    def __init__(self, scale: str):
        self.scale = scale

    def jobs(self, seed: int) -> list[SynthJob]:
        raise NotImplementedError

    def argv(self) -> list[str]:
        """CLI arguments, run with the corpus directory as working directory."""
        raise NotImplementedError

    def output_path(self) -> str | None:
        """File the command writes (``--out``); None when it writes stdout."""
        return None

    def merge(self, corpus: Path, jobs: list[SynthJob]) -> None:
        """Combine per-job manifests into one; single-job corpora need nothing."""

    def expected(self, truth: list[FileTruth]) -> object:
        """What ``check`` compares against; computed once per run."""
        return truth

    def check(self, output: bytes, expected) -> list[str]:
        raise NotImplementedError


class CorpusFeatures(Workload):
    """``penair features`` over two cohorts of mid-size files: the paper's
    batch path. Ingest and segmentation do nearly all the work; stats none."""

    name = "corpus_features"

    def jobs(self, seed):
        files, strokes = (12, 17) if self.scale == "full" else (2, 3)
        common = dict(surface_strokes=strokes, surface_ticks="800..1200",
                      air_ticks="300..700", gaps=6)
        spec = _spec_text(
            dict(period=4, jitter=1, database="bench", task="spiral"),
            {
                "control": dict(files=files, gap_ticks="60..200", **common),
                "patient": dict(files=files, gap_ticks="200..600", **common),
            },
        )
        return [SynthJob(spec, seed, "")]

    def argv(self):
        return ["features", MANIFEST]

    def check(self, output, truth):
        want = [list(FEATURE_HEADER)] + [feature_row(_truth_vector(ft)) for ft in truth]
        return _diff_rows(_csv_rows(output), want)


# (control files, patient files) per task: every pooled size lies in 40..60
# and no two tasks share a size pair, so no task reuses another's exact null
# distribution.
_COMPARE_SIZES = ((20, 20), (24, 21), (22, 25), (27, 23), (26, 30))
_COMPARE_SIZES_TINY = ((3, 4), (4, 3))


class CompareExact(Workload):
    """``penair compare`` over several tasks of small files, each task its own
    synth run. Every test takes the exact path, so ``stats.exact_p``
    dominates; the many small files stress ingest's per-file overhead."""

    name = "compare_exact"

    def _sizes(self):
        return _COMPARE_SIZES if self.scale == "full" else _COMPARE_SIZES_TINY

    def jobs(self, seed):
        out = []
        for k, (n_a, n_b) in enumerate(self._sizes()):
            common = dict(surface_strokes=6, surface_ticks="30..50",
                          air_ticks="15..30", gaps="0..2")
            spec = _spec_text(
                dict(period=2, jitter=1, database="bench", task=f"task{k:02d}"),
                {
                    "control": dict(files=n_a, gap_ticks="20..60", **common),
                    "patient": dict(files=n_b, gap_ticks="40..120", **common),
                },
            )
            out.append(SynthJob(spec, file_seed(seed, f"task{k:02d}") % 2**31, f"task{k:02d}"))
        return out

    def argv(self):
        return ["compare", MANIFEST, "--cohort-a", "control", "--cohort-b", "patient",
                "--exact-limit", str(EXACT_LIMIT)]

    def merge(self, corpus, jobs):
        with open(corpus / MANIFEST, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["path", "database", "task", "subject", "cohort"])
            for job in jobs:
                text = (corpus / job.subdir / MANIFEST).read_text(encoding="utf-8")
                for row in list(csv.reader(text.splitlines()))[1:]:
                    writer.writerow([f"{job.subdir}/{row[0]}"] + row[1:])

    def expected(self, truth):
        """Rows from the truth-built vectors, with the test computed by
        ``reference_exact_test``: a defect in ``penair.stats`` cannot also
        change what the output is checked against."""
        vectors = [v for v in map(_truth_vector, truth) if not v.anomalous]
        rows = [list(COMPARE_HEADER)]
        for task in sorted({v.source.task for v in vectors}):
            for feature in Feature:
                xs, ys = ([v.value(feature) for v in vectors
                           if v.source.task == task and v.source.cohort == cohort]
                          for cohort in ("control", "patient"))
                u_a, p = reference_exact_test(xs, ys)
                rows.append([task, feature.value, str(len(xs)), str(len(ys)), _number(u_a),
                             repr(float(p)), "exact", "true" if p < ALPHA else "false"])
        return rows

    def check(self, output, rows):
        got = _csv_rows(output)
        errors = _diff_rows(got, rows)
        inexact = [r for r in got[1:] if len(r) > 6 and r[6] != "exact"]
        if inexact:
            errors.append(f"{len(inexact)} rows not on the exact path, first {inexact[0]}")
        return errors


class LongRecording(Workload):
    """``penair render`` on one long recording with many strokes and gaps: no
    per-file overhead, the whole stream in memory, and an SVG of real size."""

    name = "long_recording"

    def jobs(self, seed):
        strokes, gaps = (600, 120) if self.scale == "full" else (12, 3)
        spec = _spec_text(
            dict(period=2, jitter=1, database="bench", task="long"),
            {"solo": dict(files=1, surface_strokes=strokes, surface_ticks="300..500",
                          air_ticks="100..200", gaps=gaps, gap_ticks="40..400")},
        )
        return [SynthJob(spec, seed, "")]

    def argv(self):
        return ["render", "solo_000.svc", "--out", "out.svg"]

    def output_path(self):
        return "out.svg"

    def check(self, output, truth):
        """The SVG parses, has one polyline per sampled stroke of each class,
        and one tick and duration label per long in-air stroke, placed on the
        timeline at the stroke's start."""
        from xml.etree import ElementTree as ET  # only this workload's check needs it

        (ft,) = truth
        try:
            root = ET.fromstring(output)
        except ET.ParseError as exc:
            return [f"SVG does not parse: {exc}"]
        ns = "{http://www.w3.org/2000/svg}"
        panels = root.findall(f"{ns}svg")
        strip = root.find(f"{ns}g")
        if len(panels) != 2 or strip is None:
            return [f"expected 2 panels and a timeline, got {len(panels)} panels"]
        errors = []
        for panel, cls in zip(panels, (StrokeClass.ON_SURFACE, StrokeClass.IN_AIR_SHORT)):
            n_lines = len(panel.findall(f"{ns}polyline"))
            if n_lines != ft.class_counts[cls]:
                errors.append(f"{cls.value}: {n_lines} polylines, expected "
                              f"{ft.class_counts[cls]}")
        axis, *ticks = strip.findall(f"{ns}line")
        labels = [t.text for t in strip.findall(f"{ns}text")][:-1]  # last is the caption
        longs = [(a, b) for cls, a, b in ft.strokes if cls is StrokeClass.IN_AIR_LONG]
        if [str(b - a) for a, b in longs] != labels:
            errors.append(f"timeline labels {labels[:5]}..., expected durations of "
                          f"{len(longs)} long strokes")
        if len(ticks) != len(longs):
            errors.append(f"{len(ticks)} timeline ticks, expected {len(longs)}")
        else:
            left, right = float(axis.get("x1")), float(axis.get("x2"))
            t0, t1 = ft.strokes[0][1], ft.strokes[-1][2]
            for tick, (a, _) in zip(ticks, longs):
                want = left + (right - left) * (a - t0) / (t1 - t0)
                if abs(float(tick.get("x1")) - want) > 1e-3 * (right - left):
                    errors.append(f"tick at {tick.get('x1')}, expected {want:.3f}")
                    break
        return errors


WORKLOADS = {w.name: w for w in (CorpusFeatures, CompareExact, LongRecording)}

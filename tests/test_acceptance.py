"""Acceptance gate: one test per release criterion, run with pytest -v.

Each test states its tolerance and time budget inline. The suite leans on
independently written oracles (a literal assignment enumerator for the exact
test, generator ground truth for segmentation) rather than re-deriving
expected values from the code under test.
"""

import random
import time
from fractions import Fraction

from penair import (
    AnomalyPolicy,
    Feature,
    IntRange,
    PlanDistribution,
    StrokeClass,
    SynthSpec,
    approx_p,
    compare_cohorts,
    exact_p,
    feature_vector,
    file_seed,
    generate_session,
    mann_whitney_u,
    parse_session,
    relative_times,
    segment,
    serialize_session,
)

from fresh import run_penair
from oracles import enumerated_p

S = StrokeClass.ON_SURFACE
A = StrokeClass.IN_AIR_SHORT
L = StrokeClass.IN_AIR_LONG


# reference cohort rows: absolute per-class times and their known
# percentage splits, reproduced to within 0.1 percentage points
REFERENCE_SPLITS = [
    ((2857.6, 715.4, 17.5), (79.6, 19.9, 0.5)),
    ((5447.9, 2373.4, 128.5), (68.5, 29.9, 1.6)),
    ((110445.1, 76454.0, 10644.4), (55.9, 38.7, 5.4)),
    ((3677.3, 3071.1, 117.0), (53.6, 44.7, 1.7)),
    ((73608.8, 47756.2, 14073.4), (54.4, 35.3, 10.4)),
]


def test_reference_percentage_splits():
    start = time.monotonic()
    for times, expected in REFERENCE_SPLITS:
        computed = relative_times(*times)
        for got, want in zip(computed, expected):
            assert abs(got - want) <= 0.1, (times, computed, expected)
    assert time.monotonic() - start < 1.0


def test_exact_p_matches_brute_force_enumeration():
    start = time.monotonic()
    rng = random.Random(20260819)
    for _ in range(1000):
        n_a = rng.randint(1, 9)
        n_b = rng.randint(1, 10 - n_a)
        a = [rng.randint(1, 5) for _ in range(n_a)]
        b = [rng.randint(1, 5) for _ in range(n_b)]
        assert exact_p(a, b) == enumerated_p(a, b), (a, b)
    assert time.monotonic() - start < 30.0


def test_normal_approximation_tracks_exact():
    start = time.monotonic()
    rng = random.Random(31337)
    for _ in range(200):
        pooled = rng.sample(range(1, 10**6), 30)  # tie-free by construction
        a, b = pooled[:15], pooled[15:]
        p_exact = float(exact_p(a, b, exact_limit=30))
        p_approx = approx_p(mann_whitney_u(a, b))
        assert abs(p_approx - p_exact) <= 0.02, (p_approx, p_exact)
    assert time.monotonic() - start < 120.0


_SESSIONS = []


def synthetic_sessions():
    if not _SESSIONS:
        dist = PlanDistribution(
            surface_strokes=IntRange(1, 6),
            surface_ticks=IntRange(40, 160),
            air_ticks=IntRange(25, 100),
            gaps=IntRange(0, 10),
            gap_ticks=IntRange(15, 70),
        )
        for i in range(1000):
            plan_rng = random.Random(9000 + i)
            spec = SynthSpec(
                nominal_period=3,
                jitter=1,
                stroke_plan=dist.build_plan(plan_rng),
                seed=17000 + i,
            )
            _SESSIONS.append(generate_session(spec))
    return _SESSIONS


def test_segmentation_recovers_synthetic_ground_truth():
    start = time.monotonic()
    for stream, gt in synthetic_sessions():
        reread = parse_session(serialize_session(stream))
        seg = segment(reread)
        assert seg.class_times == gt.class_times
        assert seg.class_counts == gt.class_counts
        assert tuple((s.cls, s.start_t, s.end_t) for s in seg.strokes) == gt.strokes
    assert time.monotonic() - start < 30.0


def test_stroke_times_tile_every_recording():
    for stream, gt in synthetic_sessions():
        seg = segment(stream)
        assert sum(seg.class_times.values()) == stream.t_last - stream.t_first
        assert sum(gt.class_times.values()) == stream.t_last - stream.t_first


def test_anomaly_threshold_boundary():
    # plans built so each session realizes exactly the target long-air share
    # of a 10000-tick total; the flag must use a strict greater-than
    cases = [
        (2000, 6898, 1102, Fraction(69, 100), False),
        (2000, 6998, 1002, Fraction(70, 100), False),
        (2000, 7098, 902, Fraction(71, 100), True),
    ]
    for lead, gap, tail, share, expected in cases:
        spec = SynthSpec(2, 0, ((S, lead), (L, gap), (S, tail)), seed=1)
        stream, _ = generate_session(spec)
        fv = feature_vector(segment(stream), AnomalyPolicy())
        total = fv.time_on_surface + fv.time_in_air_short + fv.time_in_air_long
        assert total == 10000
        assert Fraction(fv.time_in_air_long, total) == share
        assert fv.anomalous is expected, (share, fv)


def cohort_features(dist, master_seed, label, n_files=15):
    vectors = []
    for i in range(n_files):
        plan_rng = random.Random(file_seed(master_seed, f"{label}:{i}:plan"))
        spec = SynthSpec(
            nominal_period=2,
            jitter=1,
            stroke_plan=dist.build_plan(plan_rng),
            seed=file_seed(master_seed, f"{label}:{i}:session"),
        )
        stream, _ = generate_session(spec)
        vectors.append(feature_vector(segment(stream)))
    return vectors


def test_cohort_shift_detected_end_to_end():
    start = time.monotonic()
    base = dict(
        surface_strokes=IntRange(4, 6),
        surface_ticks=IntRange(100, 250),
        air_ticks=IntRange(60, 160),
        gaps=IntRange(2, 4),
    )
    plain = PlanDistribution(gap_ticks=IntRange(60, 120), **base)
    shifted = PlanDistribution(gap_ticks=IntRange(180, 360), **base)
    agreements = 0
    for master_seed in range(1, 21):
        side_a = cohort_features(plain, master_seed, "a")
        side_shift = cohort_features(shifted, master_seed, "b")
        side_same = cohort_features(plain, master_seed, "c")
        hit = compare_cohorts(side_a, side_shift, "t", Feature.TIME_IN_AIR_LONG)
        null = compare_cohorts(side_a, side_same, "t", Feature.TIME_IN_AIR_LONG)
        assert hit.method == "approx"  # pooled 30 exceeds the exact limit
        if hit.significant and not null.significant:
            agreements += 1
    assert agreements >= 18, agreements
    assert time.monotonic() - start < 60.0


def test_exact_p_invariant_under_monotone_relabeling():
    rng = random.Random(271828)
    for _ in range(200):
        n_a = rng.randint(1, 6)
        n_b = rng.randint(1, 6)
        a = [rng.randint(1, 8) for _ in range(n_a)]
        b = [rng.randint(1, 8) for _ in range(n_b)]
        assert exact_p(a, b) == exact_p([2 * x + 1 for x in a], [2 * x + 1 for x in b])


DETERMINISM_SPEC = """
[corpus]
period = 2
jitter = 1
database = det
task = copy

[cohort a]
files = 5
surface_strokes = 2..4
surface_ticks = 80..200
air_ticks = 40..120
gaps = 1..2
gap_ticks = 30..80

[cohort b]
files = 5
surface_strokes = 2..4
surface_ticks = 80..200
air_ticks = 40..120
gaps = 1..2
gap_ticks = 30..80
"""


def run_cli(args, hash_seed, workers):
    # a fresh interpreter with its own hash seed, where a file the CLI leaves
    # open fails the run: at one worker, every file it reads or writes
    proc = run_penair(args, workers, env={"PYTHONHASHSEED": str(hash_seed)})
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_aggregate_and_compare_outputs_are_deterministic(tmp_path):
    # each hash seed with another worker count: one reads and generates every
    # file in the main process, two fork a worker for each share
    spec = tmp_path / "corpus.ini"
    spec.write_text(DETERMINISM_SPEC, encoding="utf-8")
    corpora = []
    for seed, workers in ((0, 1), (5, 2)):
        out = tmp_path / f"corpus{workers}"
        run_cli(["synth", "--spec", str(spec), "--seed", "42", "--out", str(out)], seed, workers)
        corpora.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert corpora[0] == corpora[1]
    manifest = str(tmp_path / "corpus1" / "manifest.csv")
    agg = [run_cli(["aggregate", manifest], seed, workers) for seed, workers in ((1, 1), (2, 2))]
    assert agg[0] == agg[1]
    compare_args = ["compare", manifest, "--cohort-a", "a", "--cohort-b", "b"]
    cmp_runs = [run_cli(compare_args, seed, workers) for seed, workers in ((3, 1), (4, 2))]
    assert cmp_runs[0] == cmp_runs[1]
    assert agg[0].startswith(b"database,cohort,task,")
    assert cmp_runs[0].startswith(b"task,feature,")

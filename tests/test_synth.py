import random
from fractions import Fraction

import pytest

from penair import (
    CohortSpec,
    CorpusSpec,
    IntRange,
    PlanDistribution,
    StrokeClass,
    SynthSpec,
    SynthSpecError,
    file_seed,
    generate_corpus,
    generate_session,
    load_corpus_spec,
    read_manifest,
    read_session,
    segment,
    serialize_session,
)

S = StrokeClass.ON_SURFACE
A = StrokeClass.IN_AIR_SHORT
L = StrokeClass.IN_AIR_LONG


def spec(plan, period=2, jitter=0, seed=1, gap_factor=3.0):
    return SynthSpec(period, jitter, tuple(plan), seed, gap_factor)


def test_single_surface_entry_counts():
    stream, gt = generate_session(spec([(S, 100)]))
    assert len(stream.samples) == 51
    assert stream.t == tuple(range(0, 102, 2))
    assert stream.status == (1,) * 51
    assert gt.strokes == ((S, 0, 100),)
    assert gt.class_times[S] == 100
    assert gt.class_counts == {S: 1, A: 0, L: 0}


def test_long_entry_leaves_one_oversized_diff():
    stream, gt = generate_session(spec([(S, 100), (L, 50), (S, 100)]))
    diffs = [b - a for a, b in zip(stream.t, stream.t[1:])]
    assert diffs.count(52) == 1  # the planned 50 plus one sampling step
    assert all(d == 2 for d in diffs if d != 52)
    long = [st for st in gt.strokes if st[0] is L]
    assert len(long) == 1
    _, start, end = long[0]
    assert end - start == 52


def test_same_seed_is_byte_identical():
    plan = [(S, 80), (A, 40), (S, 60), (L, 30), (S, 50)]
    one = serialize_session(generate_session(spec(plan, jitter=1, seed=9))[0])
    two = serialize_session(generate_session(spec(plan, jitter=1, seed=9))[0])
    assert one == two
    other = serialize_session(generate_session(spec(plan, jitter=1, seed=10))[0])
    assert other != one


def test_jitter_bounds_every_step():
    stream, gt = generate_session(spec([(S, 400), (A, 200), (S, 300)], period=5, jitter=2, seed=3))
    diffs = [b - a for a, b in zip(stream.t, stream.t[1:])]
    assert all(3 <= d <= 7 for d in diffs)
    assert gt.class_counts == {S: 2, A: 1, L: 0}


def test_ground_truth_tiles_stream():
    rng = random.Random(12888)
    dist = PlanDistribution(IntRange(1, 5), IntRange(30, 120), IntRange(20, 90),
                            IntRange(0, 4), IntRange(15, 60))
    for i in range(100):
        stream, gt = generate_session(spec(dist.build_plan(rng), jitter=1, seed=1000 + i))
        assert sum(gt.class_times.values()) == stream.t_last - stream.t_first
        assert gt.strokes[0][1] == stream.t_first
        assert gt.strokes[-1][2] == stream.t_last
        for (_, _, prev_end), (_, cur_start, _) in zip(gt.strokes, gt.strokes[1:]):
            assert prev_end == cur_start


def test_segmentation_recovers_ground_truth():
    rng = random.Random(45290)
    dist = PlanDistribution(IntRange(1, 6), IntRange(40, 160), IntRange(25, 100),
                            IntRange(0, 5), IntRange(15, 80))
    for i in range(100):
        stream, gt = generate_session(spec(dist.build_plan(rng), period=3, jitter=1, seed=i))
        seg = segment(stream)
        assert tuple((s.cls, s.start_t, s.end_t) for s in seg.strokes) == gt.strokes
        assert seg.class_times == gt.class_times
        assert seg.class_counts == gt.class_counts


def test_air_samples_have_zero_pressure():
    stream, _ = generate_session(spec([(S, 100), (A, 60), (S, 80)], jitter=1, seed=4))
    for status, pressure in zip(stream.status, stream.pressure):
        if status == 0:
            assert pressure == 0
        else:
            assert pressure >= 150


def test_eleven_planned_gaps_detected():
    plan = []
    for k in range(11):
        plan.append((S if k % 2 == 0 else A, 40))
        plan.append((L, 25))
    plan.append((S, 40))
    stream, gt = generate_session(spec(plan, jitter=1, seed=77))
    assert gt.class_counts[L] == 11
    seg = segment(stream)
    assert seg.class_counts[L] == 11
    assert seg.class_times[L] == gt.class_times[L]


def test_spec_validation():
    with pytest.raises(SynthSpecError):
        spec([])
    with pytest.raises(SynthSpecError):
        spec([(S, 100)], period=0)
    with pytest.raises(SynthSpecError):
        spec([(S, 100)], gap_factor=1.0)
    with pytest.raises(SynthSpecError):
        spec([(S, 100)], jitter=2)  # period - jitter would hit zero
    with pytest.raises(SynthSpecError):
        spec([(S, 100)], period=3, jitter=2)  # 3 + 2 > 3 * (3 - 2)
    with pytest.raises(SynthSpecError):
        spec([(S, 0)])
    with pytest.raises(SynthSpecError):
        spec([(S, 100), (L, 6), (S, 100)])  # long entry under the threshold
    with pytest.raises(SynthSpecError):
        spec([(S, 100), (S, 100)])
    with pytest.raises(SynthSpecError):
        spec([(L, 50), (S, 100)])
    with pytest.raises(SynthSpecError):
        spec([(S, 100), (L, 50)])
    with pytest.raises(SynthSpecError):
        spec([("surface", 100)])


def test_file_seed_is_stable_and_label_separated():
    assert file_seed(5, "a:0:plan") == file_seed(5, "a:0:plan")
    assert file_seed(5, "a:0:plan") != file_seed(5, "a:0:session")
    assert file_seed(5, "a:0:plan") != file_seed(6, "a:0:plan")
    assert 0 <= file_seed(0, "") < 2**64


def test_int_range():
    rng = random.Random(1)
    r = IntRange(3, 7)
    assert all(3 <= r.draw(rng) <= 7 for _ in range(50))
    assert IntRange(4, 4).draw(rng) == 4
    with pytest.raises(SynthSpecError):
        IntRange(5, 4)


def test_plan_distribution_shape():
    rng = random.Random(9917)
    dist = PlanDistribution(IntRange(1, 6), IntRange(30, 90), IntRange(20, 60),
                            IntRange(0, 8), IntRange(15, 40))
    for _ in range(200):
        plan = dist.build_plan(rng)
        assert plan[0][0] is S
        assert plan[-1][0] is S
        for (a, _), (b, _) in zip(plan, plan[1:]):
            assert a is not b
        surface = sum(1 for cls, _ in plan if cls is S)
        assert 1 <= surface <= 6


def test_plan_distribution_validation():
    with pytest.raises(SynthSpecError):
        PlanDistribution(IntRange(0, 2), IntRange(1, 2), IntRange(1, 2),
                         IntRange(0, 1), IntRange(1, 2))
    with pytest.raises(SynthSpecError):
        PlanDistribution(IntRange(1, 2), IntRange(1, 2), IntRange(1, 2),
                         IntRange(-1, 1), IntRange(1, 2))


def small_corpus_spec():
    dist = PlanDistribution(IntRange(2, 4), IntRange(60, 150), IntRange(30, 80),
                            IntRange(1, 2), IntRange(20, 50))
    return CorpusSpec(
        nominal_period=2,
        jitter=1,
        cohorts={"control": CohortSpec(3, dist), "patient": CohortSpec(3, dist)},
        database="demo",
        task="copy",
    )


def test_generate_corpus_round_trip(tmp_path):
    manifest_path = generate_corpus(small_corpus_spec(), tmp_path / "c", master_seed=11)
    manifest = read_manifest(manifest_path)
    assert len(manifest) == 6
    cohorts = [r.cohort for r in manifest]
    assert cohorts.count("control") == 3
    assert cohorts.count("patient") == 3
    for record in manifest:
        assert record.database == "demo"
        assert record.task == "copy"
        stream = read_session(record.path)
        assert len(stream.samples) > 10


def test_generate_corpus_deterministic(tmp_path):
    m1 = generate_corpus(small_corpus_spec(), tmp_path / "one", master_seed=31)
    m2 = generate_corpus(small_corpus_spec(), tmp_path / "two", master_seed=31)
    assert m1.read_bytes() == m2.read_bytes()
    for rec in read_manifest(m1):
        twin = m2.parent / rec.path.name
        assert rec.path.read_bytes() == twin.read_bytes()
    m3 = generate_corpus(small_corpus_spec(), tmp_path / "three", master_seed=32)
    changed = [
        rec.path.read_bytes() != (m3.parent / rec.path.name).read_bytes()
        for rec in read_manifest(m1)
    ]
    assert any(changed)


def test_load_corpus_spec():
    text = """
[corpus]
period = 4
jitter = 1
gap_factor = 2.5
database = clinic
task = spiral

[cohort control]
files = 5
surface_strokes = 2..6
surface_ticks = 300
air_ticks = 100..200
gaps = 0..3
gap_ticks = 40..90
"""
    cs = load_corpus_spec(text)
    assert cs.nominal_period == 4
    assert cs.jitter == 1
    assert cs.gap_factor == 2.5
    assert (cs.database, cs.task) == ("clinic", "spiral")
    cohort = cs.cohorts["control"]
    assert cohort.n_files == 5
    assert cohort.plan.surface_ticks == IntRange(300, 300)
    assert cohort.plan.surface_strokes == IntRange(2, 6)


def test_load_corpus_spec_defaults():
    text = """
[corpus]
period = 2

[cohort only]
files = 1
surface_strokes = 1
surface_ticks = 50
air_ticks = 20
gaps = 0
gap_ticks = 30
"""
    cs = load_corpus_spec(text)
    assert cs.jitter == 0
    assert cs.gap_factor == 3.0
    assert (cs.database, cs.task) == ("synth", "synth")


def test_load_corpus_spec_errors():
    with pytest.raises(SynthSpecError):
        load_corpus_spec("[cohort x]\nfiles = 1\n")
    with pytest.raises(SynthSpecError):
        load_corpus_spec("[corpus]\njitter = 1\n")
    with pytest.raises(SynthSpecError):
        load_corpus_spec("[corpus]\nperiod = 2\n\n[weird]\nfiles = 1\n")
    with pytest.raises(SynthSpecError):
        load_corpus_spec("[corpus]\nperiod = 2\n\n[cohort c]\nfiles = 1\n")
    with pytest.raises(SynthSpecError):
        load_corpus_spec(
            "[corpus]\nperiod = 2\n\n[cohort c]\nfiles = 1\n"
            "surface_strokes = 1\nsurface_ticks = bad\nair_ticks = 20\n"
            "gaps = 0\ngap_ticks = 30\n")
    with pytest.raises(SynthSpecError):
        load_corpus_spec("not ini at all [")


def test_corpus_spec_needs_cohorts():
    with pytest.raises(SynthSpecError):
        CorpusSpec(nominal_period=2, jitter=0, cohorts={})
    with pytest.raises(SynthSpecError):
        CohortSpec(0, small_corpus_spec().cohorts["control"].plan)


def test_corpus_spec_gap_factor_is_exact():
    text = "[corpus]\nperiod = 100\ngap_factor = 4.35\n"
    assert load_corpus_spec(text + "\n[cohort c]\nfiles = 1\nsurface_strokes = 1\n"
                            "surface_ticks = 500\nair_ticks = 200\ngaps = 0\n"
                            "gap_ticks = 500\n").gap_factor == Fraction(87, 20)
    with pytest.raises(SynthSpecError):
        load_corpus_spec(text.replace("4.35", "1/0"))


def test_corpus_labels_are_literal_and_checked():
    text = """
[corpus]
period = 2
database = 50% sample
task = %(x)s

[cohort only]
files = 1
surface_strokes = 1
surface_ticks = 50
air_ticks = 20
gaps = 0
gap_ticks = 30
"""
    cs = load_corpus_spec(text)
    assert (cs.database, cs.task) == ("50% sample", "%(x)s")
    # the manifest refuses empty labels, and a cohort name starts file names
    for old, new in (("50% sample", ""), ("%(x)s", " "), ("[cohort only]", "[cohort   ]"),
                     ("[cohort only]", "[cohort ../up]"), ("[cohort only]", "[cohort a\x00b]"),
                     ("[cohort only]", "[cohort a\\b]")):
        with pytest.raises(SynthSpecError):
            load_corpus_spec(text.replace(old, new))
    with pytest.raises(SynthSpecError, match="must not be empty"):
        CorpusSpec(nominal_period=2, jitter=0, cohorts=small_corpus_spec().cohorts, task="")

import random
from fractions import Fraction

import pytest

from penair import (
    InsufficientDataError,
    RunConfig,
    SampleStream,
    SegmentationConfig,
    StrokeClass,
    detect_gaps,
    nominal_period,
    segment,
)


def stream_from(times, statuses):
    index = range(len(times))
    return SampleStream.from_columns(index, index, times, statuses)


def stream_from_diffs(diffs, status=1):
    times = [0]
    for d in diffs:
        times.append(times[-1] + d)
    return stream_from(times, [status] * len(times))


def test_nominal_period_constant():
    assert nominal_period(stream_from_diffs([2, 2, 2, 2])) == 2


def test_nominal_period_ignores_outlier():
    assert nominal_period(stream_from_diffs([2, 2, 2, 150, 2])) == 2


def test_nominal_period_tie_takes_smaller():
    assert nominal_period(stream_from_diffs([2, 2, 3, 3])) == 2


def test_nominal_period_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        nominal_period(stream_from([5], [1]))
    with pytest.raises(InsufficientDataError):
        detect_gaps(stream_from([5], [1]))


def test_no_gaps_in_constant_stream():
    assert detect_gaps(stream_from_diffs([2] * 10)) == ()


def test_single_gap_at_seven_periods():
    stream = stream_from_diffs([2, 2, 2, 14, 2, 2])
    gaps = detect_gaps(stream)
    assert len(gaps) == 1
    assert gaps[0].index == 3
    assert (gaps[0].start_t, gaps[0].end_t) == (6, 20)


def test_gap_threshold_is_strict():
    # period 2, factor 3: threshold 6; a diff of exactly 6 is not a gap
    assert detect_gaps(stream_from_diffs([2, 2, 6, 2, 2])) == ()
    assert len(detect_gaps(stream_from_diffs([2, 2, 7, 2, 2]))) == 1


def test_gap_floor_blocks_small_period_false_positives():
    # period 1: threshold 3 * 1 = 3, so a diff of 3 stays a step
    assert detect_gaps(stream_from_diffs([1, 1, 3, 1, 1])) == ()
    assert len(detect_gaps(stream_from_diffs([1, 1, 4, 1, 1]))) == 1


def test_custom_min_gap_ticks():
    cfg = SegmentationConfig(gap_factor=3.0, min_gap_ticks=50)
    assert detect_gaps(stream_from_diffs([2, 2, 40, 2]), cfg) == ()
    assert len(detect_gaps(stream_from_diffs([2, 2, 51, 2]), cfg)) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SegmentationConfig(gap_factor=1.0)
    with pytest.raises(ValueError):
        SegmentationConfig(min_gap_ticks=0)
    # text means what it means on Python 3.10, whose Fraction refuses these
    for text in ("3_0", "3 / 2", "1e4301"):
        with pytest.raises(ValueError):
            SegmentationConfig(gap_factor=text)


def test_all_surface_run_is_one_stroke():
    stream = stream_from_diffs([3] * 99, status=1)
    seg = segment(stream)
    assert len(seg.strokes) == 1
    stroke = seg.strokes[0]
    assert stroke.cls == StrokeClass.ON_SURFACE
    assert stroke.duration == 99 * 3
    assert stroke.n_samples == 100
    assert seg.class_counts == {
        StrokeClass.ON_SURFACE: 1,
        StrokeClass.IN_AIR_SHORT: 0,
        StrokeClass.IN_AIR_LONG: 0,
    }


def test_status_runs_partition():
    # intervals take the class of their earlier sample; the trailing sample
    # with a fresh status contributes a zero-duration stroke
    stream = stream_from([0, 2, 4, 6, 8], [1, 1, 0, 0, 1])
    seg = segment(stream)
    assert [s.cls for s in seg.strokes] == [
        StrokeClass.ON_SURFACE, StrokeClass.IN_AIR_SHORT, StrokeClass.ON_SURFACE]
    assert [(s.start_t, s.end_t) for s in seg.strokes] == [(0, 4), (4, 8), (8, 8)]
    assert seg.class_counts[StrokeClass.ON_SURFACE] == 2
    assert seg.class_counts[StrokeClass.IN_AIR_SHORT] == 1
    assert seg.class_counts[StrokeClass.IN_AIR_LONG] == 0


def test_gap_splits_air_run():
    times = [0, 2, 4, 6, 8, 58, 60, 62, 64, 66]
    seg = segment(stream_from(times, [0] * 10))
    assert [s.cls for s in seg.strokes] == [
        StrokeClass.IN_AIR_SHORT, StrokeClass.IN_AIR_LONG, StrokeClass.IN_AIR_SHORT]
    assert [(s.start_t, s.end_t) for s in seg.strokes] == [(0, 8), (8, 58), (58, 66)]
    assert seg.class_counts[StrokeClass.IN_AIR_SHORT] == 2
    assert seg.class_counts[StrokeClass.IN_AIR_LONG] == 1


def test_gap_between_differing_statuses():
    stream = stream_from([0, 2, 4, 60, 62, 64], [1, 1, 1, 0, 0, 0])
    seg = segment(stream)
    assert [s.cls for s in seg.strokes] == [
        StrokeClass.ON_SURFACE, StrokeClass.IN_AIR_LONG, StrokeClass.IN_AIR_SHORT]
    assert [(s.start_t, s.end_t) for s in seg.strokes] == [(0, 4), (4, 60), (60, 64)]


def test_single_sample_stream():
    seg = segment(stream_from([7], [0]))
    assert len(seg.strokes) == 1
    assert seg.strokes[0].cls == StrokeClass.IN_AIR_SHORT
    assert seg.strokes[0].duration == 0
    assert seg.strokes[0].n_samples == 1
    assert seg.nominal_period == 0
    assert sum(seg.class_times.values()) == 0


def test_long_strokes_own_no_samples():
    stream = stream_from([0, 2, 4, 60, 62], [1, 1, 1, 1, 1])
    seg = segment(stream)
    long = [s for s in seg.strokes if s.cls == StrokeClass.IN_AIR_LONG]
    assert len(long) == 1
    assert long[0].n_samples == 0
    assert sum(s.n_samples for s in seg.strokes) == len(stream.samples)


def random_stream(rng):
    n = rng.randint(1, 200)
    period = rng.randint(1, 6)
    t = rng.randint(0, 50)
    times, statuses = [], []
    for _ in range(n):
        times.append(t)
        statuses.append(rng.randint(0, 1))
        if rng.random() < 0.08:
            t += period * 7 + rng.randint(0, 30)
        else:
            t += period
    return stream_from(times, statuses)


def test_strokes_tile_recording():
    rng = random.Random(40221)
    for _ in range(300):
        stream = random_stream(rng)
        seg = segment(stream)
        assert sum(seg.class_times.values()) == stream.t_last - stream.t_first
        assert seg.strokes[0].start_t == stream.t_first
        assert seg.strokes[-1].end_t == stream.t_last
        for prev, cur in zip(seg.strokes, seg.strokes[1:]):
            assert prev.end_t == cur.start_t
        for cls in StrokeClass:
            strokes = [s for s in seg.strokes if s.cls == cls]
            assert len(strokes) == seg.class_counts[cls]
            assert sum(s.duration for s in strokes) == seg.class_times[cls]


def test_sample_ranges_partition_stream():
    rng = random.Random(50417)
    for _ in range(200):
        stream = random_stream(rng)
        seg = segment(stream)
        cursor = 0
        for stroke in seg.strokes:
            lo, hi = stroke.sample_range
            assert lo == cursor
            assert hi >= lo
            if stroke.cls == StrokeClass.IN_AIR_LONG:
                assert hi == lo
            cursor = hi
        assert cursor == len(stream.samples)


def test_raising_gap_factor_never_adds_gaps():
    rng = random.Random(60901)
    for _ in range(200):
        stream = random_stream(rng)
        if len(stream.samples) < 2:
            continue
        tight = len(detect_gaps(stream, SegmentationConfig(gap_factor=2.0)))
        loose = len(detect_gaps(stream, SegmentationConfig(gap_factor=5.0)))
        assert loose <= tight


def test_gap_factor_boundary_is_exact():
    # in binary floating point 4.35 * 100 is 434.99999999999994
    cfg = SegmentationConfig(gap_factor=4.35)
    assert cfg.gap_factor == Fraction(87, 20)
    assert cfg.gap_threshold(100) == 435
    stream = stream_from_diffs([100] * 5 + [435] + [100] * 5 + [436] + [100] * 5)
    assert [g.end_t - g.start_t for g in detect_gaps(stream, cfg)] == [436]
    assert segment(stream, cfg).class_counts[StrokeClass.IN_AIR_LONG] == 1
    assert RunConfig(gap_factor=4.35).gap_factor == Fraction(87, 20)
    assert RunConfig(gap_factor=4.35).segmentation_config() == cfg
    assert RunConfig(anomaly_threshold=0.7) == RunConfig()

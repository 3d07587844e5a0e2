"""Hypothesis properties of ``segment`` on generated columns."""

from fractions import Fraction
from itertools import accumulate
from math import floor

from hypothesis import assume, example, given, settings, strategies as st

from penair import (
    AnomalyPolicy,
    Feature,
    SampleStream,
    SegmentationConfig,
    StrokeClass,
    compare_cohorts,
    detect_gaps,
    feature_vector,
    nominal_period,
    segment,
)


@st.composite
def streams(draw, min_size=1, period=None):
    n = draw(st.integers(min_size, 80))
    period = period or draw(st.integers(1, 5))
    # mostly the period, some jitter, some jumps far above any threshold
    step = st.one_of(st.just(period), st.integers(1, 3 * period), st.integers(1, 60 * period))
    diffs = draw(st.lists(step, min_size=n - 1, max_size=n - 1))
    t = list(accumulate(diffs, initial=draw(st.integers(-1000, 1000))))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return SampleStream.from_columns(range(n), range(n), t, status)


gap_factors = st.integers(101, 2000).map(lambda k: Fraction(k, 100))
min_gap_ticks = st.one_of(st.none(), st.integers(1, 300))


@settings(max_examples=150, deadline=None)
@given(streams(), gap_factors, min_gap_ticks)
def test_strokes_are_contiguous_in_time(stream, factor, floor_ticks):
    strokes = segment(stream, SegmentationConfig(factor, floor_ticks)).strokes
    assert strokes[0].start_t == stream.t_first
    assert strokes[-1].end_t == stream.t_last
    for prev, cur in zip(strokes, strokes[1:]):
        assert prev.end_t == cur.start_t


@settings(max_examples=150, deadline=None)
@given(streams(), gap_factors, min_gap_ticks)
def test_sample_ranges_tile_the_stream(stream, factor, floor_ticks):
    strokes = segment(stream, SegmentationConfig(factor, floor_ticks)).strokes
    cursor = 0
    for stroke in strokes:
        lo, hi = stroke.sample_range
        assert lo == cursor
        # long in-air strokes own no samples, every other stroke owns some
        assert (hi > lo) == (stroke.cls != StrokeClass.IN_AIR_LONG)
        cursor = hi
    assert cursor == len(stream.t)


@settings(max_examples=150, deadline=None)
@given(streams(), gap_factors, gap_factors, min_gap_ticks)
def test_long_strokes_never_rise_with_gap_factor(stream, f1, f2, floor_ticks):
    low, high = sorted((f1, f2))

    def long_strokes(factor):
        seg = segment(stream, SegmentationConfig(factor, floor_ticks))
        return seg.class_counts[StrokeClass.IN_AIR_LONG]

    assert long_strokes(high) <= long_strokes(low)


@settings(max_examples=150, deadline=None)
@given(streams(min_size=2), gap_factors, min_gap_ticks)
def test_period_and_gaps_agree_with_segment(stream, factor, floor_ticks):
    cfg = SegmentationConfig(factor, floor_ticks)
    seg = segment(stream, cfg)
    assert nominal_period(stream) == seg.nominal_period
    long_strokes = [s for s in seg.strokes if s.cls == StrokeClass.IN_AIR_LONG]
    assert list(detect_gaps(stream, cfg)) == [
        (s.sample_range[0] - 1, s.start_t, s.end_t) for s in long_strokes
    ]


def features(stream, cfg, policy=None):
    return feature_vector(segment(stream, cfg), policy)


# intervals 1 1 1 2 1 1: at gap_factor 3/2 the step of 2 is a gap in any tick unit
SEVEN_SAMPLES = SampleStream.from_columns(range(7), range(7), [0, 1, 2, 3, 5, 6, 7], [1] * 7)
TIMES = (Feature.TIME_ON_SURFACE, Feature.TIME_IN_AIR_SHORT, Feature.TIME_IN_AIR_LONG)


@settings(max_examples=150, deadline=None)
@given(streams(), gap_factors, min_gap_ticks, st.integers(-10**6, 10**6))
@example(SEVEN_SAMPLES, Fraction(3, 2), None, 10**6)
def test_translating_time_keeps_every_feature(stream, factor, floor_ticks, shift):
    moved = SampleStream.from_columns(stream.x, stream.y, [t + shift for t in stream.t],
                                      stream.status)
    cfg = SegmentationConfig(factor, floor_ticks)
    assert features(moved, cfg) == features(stream, cfg)


@settings(max_examples=150, deadline=None)
@given(streams(), gap_factors, st.integers(1, 1000))
@example(SEVEN_SAMPLES, Fraction(3, 2), 1000)
def test_scaling_time_scales_every_time_and_keeps_every_count(stream, factor, k):
    scaled = SampleStream.from_columns(stream.x, stream.y, [t * k for t in stream.t],
                                       stream.status)
    cfg = SegmentationConfig(factor)
    base, big = features(stream, cfg), features(scaled, cfg)
    assert [big.value(f) for f in Feature] == [
        base.value(f) * (k if f in TIMES else 1) for f in Feature
    ]
    assert big.anomalous == base.anomalous


@settings(max_examples=100, deadline=None)
@given(streams(), gap_factors, min_gap_ticks, st.data())
def test_features_ignore_position_angles_and_pressure(stream, factor, floor_ticks, data):
    # status comes from its own column, so pressure is one more ignored column
    def column(lo):
        return data.draw(st.lists(st.integers(lo, 10**6), min_size=len(stream.t),
                                  max_size=len(stream.t)))

    other = SampleStream.from_columns(column(-10**6), column(-10**6), stream.t, stream.status,
                                      column(-10**6), column(-10**6), column(0))
    cfg = SegmentationConfig(factor, floor_ticks)
    assert features(other, cfg) == features(stream, cfg)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda p: st.tuples(streams(2, p), streams(2, p))),
       gap_factors, min_gap_ticks, st.integers(1, 10**6))
def test_joining_two_streams_by_a_gap_adds_their_features_and_one_long_stroke(
        pair, factor, floor_ticks, beyond):
    first, second = pair
    cfg = SegmentationConfig(factor, floor_ticks)
    period = segment(first, cfg).nominal_period
    assume(segment(second, cfg).nominal_period == period)
    jump = floor(cfg.gap_threshold(period)) + beyond  # strictly above the threshold
    shift = first.t_last + jump - second.t_first
    joined = SampleStream.from_columns(
        first.x + second.x, first.y + second.y,
        first.t + tuple(t + shift for t in second.t), first.status + second.status)
    assume(segment(joined, cfg).nominal_period == period)
    a, b, ab = features(first, cfg), features(second, cfg), features(joined, cfg)
    extra = {Feature.TIME_IN_AIR_LONG: jump, Feature.STROKES_IN_AIR_LONG: 1}
    assert [ab.value(f) for f in Feature] == [
        a.value(f) + b.value(f) + extra.get(f, 0) for f in Feature
    ]


cohorts = st.lists(streams(), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(cohorts, cohorts, gap_factors, st.sampled_from(Feature), st.integers(2, 20))
def test_swapping_cohorts_swaps_u_and_keeps_p_and_verdict(side_a, side_b, factor, feature,
                                                           exact_limit):
    # at threshold 1 no file is anomalous, so every file takes part
    cfg, policy = SegmentationConfig(factor), AnomalyPolicy(1)
    a = [features(s, cfg, policy) for s in side_a]
    b = [features(s, cfg, policy) for s in side_b]
    ab = compare_cohorts(a, b, "t", feature, exact_limit)
    ba = compare_cohorts(b, a, "t", feature, exact_limit)
    assert (ba.p, ba.significant, ba.method) == (ab.p, ab.significant, ab.method)
    assert (ba.u.u_a, ba.u.u_b, ba.u.n_a, ba.u.n_b) == (ab.u.u_b, ab.u.u_a, ab.u.n_b, ab.u.n_a)

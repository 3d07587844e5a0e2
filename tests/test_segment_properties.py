"""Hypothesis properties of ``segment`` on generated columns."""

from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings, strategies as st

from penair import SampleStream, SegmentationConfig, StrokeClass, segment


@st.composite
def streams(draw):
    n = draw(st.integers(1, 80))
    period = draw(st.integers(1, 5))
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

"""Splitting a recording into on-surface, short in-air, and long in-air strokes.

A digitizer reports hover samples only while the pen stays within tracking
range of the surface. Once the pen moves beyond that range the device records
nothing, so a long in-air movement survives only as an oversized jump between
consecutive timestamps. Segmentation therefore works on inter-sample
intervals: a detected gap becomes a long in-air stroke, and every other
interval takes the class of its earlier sample. Maximal runs of same-class
intervals form strokes, which tile [t_first, t_last] exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, count, islice
from math import floor
from operator import ne, sub
from typing import NamedTuple

from .errors import InsufficientDataError
from .ingest import SampleStream


def as_fraction(value) -> Fraction:
    """Exact rational for a config value. Floats go through their decimal
    repr, so 0.7 means 7/10 and 4.35 means 87/20, not the nearest binary
    double."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


class StrokeClass(Enum):
    ON_SURFACE = "on_surface"
    IN_AIR_SHORT = "in_air_short"
    IN_AIR_LONG = "in_air_long"


# the class of a run of samples, indexed by their status value
_STATUS_CLASS = (StrokeClass.IN_AIR_SHORT, StrokeClass.ON_SURFACE)


class Gap(NamedTuple):
    """Oversized interval between samples ``index`` and ``index + 1``."""

    index: int
    start_t: int
    end_t: int


@dataclass(frozen=True)
class SegmentationConfig:
    """Gap detection knobs.

    An interval is a gap when it exceeds
    ``max(gap_factor * modal_period, min_gap_ticks)`` strictly.
    ``min_gap_ticks`` defaults to modal_period + 1, so at the default settings
    nothing under twice the sampling period can ever be a gap. ``gap_factor``
    is held as an exact Fraction, so the boundary is exact.
    """

    gap_factor: Fraction = Fraction(3)
    min_gap_ticks: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "gap_factor", as_fraction(self.gap_factor))
        if not self.gap_factor > 1:
            raise ValueError(f"gap_factor must be > 1, got {self.gap_factor}")
        if self.min_gap_ticks is not None and self.min_gap_ticks < 1:
            raise ValueError("min_gap_ticks must be >= 1")

    def gap_threshold(self, period: int) -> Fraction | int:
        floor_ticks = self.min_gap_ticks if self.min_gap_ticks is not None else period + 1
        return max(self.gap_factor * period, floor_ticks)


@dataclass(frozen=True)
class Stroke:
    """A maximal same-class span. ``sample_range`` is a half-open index
    interval into the source stream; empty for IN_AIR_LONG strokes, which own
    no samples."""

    cls: StrokeClass
    start_t: int
    end_t: int
    sample_range: tuple[int, int]

    @property
    def duration(self) -> int:
        return self.end_t - self.start_t

    @property
    def n_samples(self) -> int:
        return self.sample_range[1] - self.sample_range[0]


@dataclass(frozen=True)
class SessionSegmentation:
    """Ordered strokes plus per-class totals; strokes tile the recording."""

    strokes: tuple[Stroke, ...]
    nominal_period: int
    class_times: dict[StrokeClass, int]
    class_counts: dict[StrokeClass, int]

    @property
    def total_time(self) -> int:
        return sum(self.class_times.values())


def _intervals(stream: SampleStream) -> tuple[int, ...]:
    t = stream.t
    return tuple(map(sub, islice(t, 1, None), t))


def _modal_period(intervals: tuple[int, ...], source_id: str) -> int:
    if not intervals:
        raise InsufficientDataError(f"{source_id}: nominal period needs at least 2 samples")
    counts = Counter(intervals)
    best = max(counts.values())
    return min(d for d, c in counts.items() if c == best)


def _gap_indices(intervals: tuple[int, ...], threshold: Fraction | int) -> list[int]:
    # intervals are integers, so "> threshold" is "> floor(threshold)"
    return list(compress(count(), map(floor(threshold).__lt__, intervals)))


def nominal_period(stream: SampleStream) -> int:
    """Modal inter-sample difference; ties resolve to the smaller value."""
    return _modal_period(_intervals(stream), stream.source_id)


def detect_gaps(
    stream: SampleStream, config: SegmentationConfig | None = None
) -> tuple[Gap, ...]:
    """Ordered oversized intervals, each strictly above the gap threshold."""
    cfg = config or SegmentationConfig()
    intervals = _intervals(stream)
    threshold = cfg.gap_threshold(_modal_period(intervals, stream.source_id))
    t = stream.t
    return tuple(Gap(i, t[i], t[i + 1]) for i in _gap_indices(intervals, threshold))


def segment(
    stream: SampleStream, config: SegmentationConfig | None = None
) -> SessionSegmentation:
    """Partition a recording into maximal same-class strokes.

    Every inter-sample interval belongs to exactly one stroke: a detected gap
    becomes an IN_AIR_LONG stroke, any other interval takes the class of its
    earlier sample. A gap splits a surrounding same-status run in two. A final
    sample whose status differs from the last interval's class yields one
    zero-duration stroke, as does a single-sample stream. Per-class times sum
    exactly to t_last - t_first.
    """
    cfg = config or SegmentationConfig()
    t, status = stream.t, stream.status
    strokes: list[Stroke] = []
    period = 0
    gaps: set[int] = set()
    if len(t) > 1:
        intervals = _intervals(stream)
        period = _modal_period(intervals, stream.source_id)
        gaps = set(_gap_indices(intervals, cfg.gap_threshold(period)))
    changes = compress(count(), map(ne, status, islice(status, 1, None)))
    run_start = 0
    # a run of same-status samples ends at a gap or before a status change
    for i in sorted(gaps.union(changes)):
        # the run's span ends where the gap starts or where the next run starts
        end_t = t[i] if i in gaps else t[i + 1]
        strokes.append(Stroke(_STATUS_CLASS[status[run_start]], t[run_start], end_t,
                              (run_start, i + 1)))
        if i in gaps:
            strokes.append(Stroke(StrokeClass.IN_AIR_LONG, t[i], t[i + 1], (i + 1, i + 1)))
        run_start = i + 1
    last = len(t) - 1
    strokes.append(Stroke(_STATUS_CLASS[status[run_start]], t[run_start], t[last],
                          (run_start, last + 1)))
    times = {c: 0 for c in StrokeClass}
    counts = {c: 0 for c in StrokeClass}
    for s in strokes:
        times[s.cls] += s.duration
        counts[s.cls] += 1
    return SessionSegmentation(tuple(strokes), period, times, counts)

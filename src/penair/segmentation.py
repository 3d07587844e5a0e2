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

    An interval is a gap when it strictly exceeds ``gap_factor`` times the
    modal period, raised to ``min_gap_ticks`` only when that is given; without
    it the strokes do not depend on the tick unit. ``gap_factor > 1`` keeps
    one-period steps out of the gaps, and is held as an exact Fraction, so
    the boundary is exact.
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
        threshold = self.gap_factor * period
        return threshold if self.min_gap_ticks is None else max(threshold, self.min_gap_ticks)


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


def _period_and_gaps(stream: SampleStream, cfg: SegmentationConfig) -> tuple[int, list[int]]:
    """The modal inter-sample interval, ties resolving to the smaller value,
    and the indices of the intervals strictly above its gap threshold."""
    t = stream.t
    intervals = tuple(map(sub, islice(t, 1, None), t))
    if not intervals:
        raise InsufficientDataError(f"{stream.source_id}: nominal period needs at least 2 samples")
    counts = Counter(intervals)
    best = max(counts.values())
    period = min(d for d, c in counts.items() if c == best)
    # intervals are integers, so "> threshold" is "> floor(threshold)"
    above = floor(cfg.gap_threshold(period)).__lt__
    return period, list(compress(count(), map(above, intervals)))


def nominal_period(stream: SampleStream) -> int:
    """Modal inter-sample difference; ties resolve to the smaller value."""
    return _period_and_gaps(stream, SegmentationConfig())[0]


def detect_gaps(
    stream: SampleStream, config: SegmentationConfig | None = None
) -> tuple[Gap, ...]:
    """Ordered oversized intervals, each strictly above the gap threshold."""
    t = stream.t
    gaps = _period_and_gaps(stream, config or SegmentationConfig())[1]
    return tuple(Gap(i, t[i], t[i + 1]) for i in gaps)


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
    period, found = _period_and_gaps(stream, cfg) if len(t) > 1 else (0, ())
    gaps = set(found)
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

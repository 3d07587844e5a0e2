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

import re
import sys
from collections import Counter, namedtuple
from enum import Enum
from fractions import Fraction
from itertools import compress, count, islice, repeat
from math import floor
from operator import lt, sub

from .errors import InsufficientDataError
from .frozen import Frozen
from .ingest import SampleStream


def as_fraction(value) -> Fraction:
    """Exact rational for a config value. Floats go through their decimal
    repr, so 0.7 means 7/10 and 4.35 means 87/20, not the nearest binary
    double.

    Text means the same on every supported Python: it is stripped and read by
    Python 3.10's Fraction grammar, so ``_`` and inner whitespace, which
    later versions accept, are refused. So is an exponent above
    sys.get_int_max_str_digits(), as Fraction would compute ten to its power
    in full. Refused text is a ValueError."""
    if isinstance(value, float):
        return Fraction(str(value))
    if not isinstance(value, str):
        return Fraction(value)
    text = value.strip()
    if "_" in text or text.split() != [text]:
        raise ValueError(f"not a number: {value!r}")
    limit = sys.get_int_max_str_digits()
    if limit and (exponent := re.search(r"[eE][-+]?(\d+)\Z", text)) and (
            len(exponent[1]) > limit or int(exponent[1]) > limit):
        raise ValueError(f"exponent of {value!r} exceeds the integer digit limit of {limit}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {value!r}") from None


class StrokeClass(Enum):
    ON_SURFACE = "on_surface"
    IN_AIR_SHORT = "in_air_short"
    IN_AIR_LONG = "in_air_long"


# the class of a run of samples, indexed by their status value
_STATUS_CLASS = (StrokeClass.IN_AIR_SHORT, StrokeClass.ON_SURFACE)


class Gap(namedtuple("Gap", "index start_t end_t")):
    """Oversized interval between samples ``index`` and ``index + 1``."""

    __slots__ = ()


class SegmentationConfig(Frozen):
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


class Stroke(namedtuple("Stroke", "cls start_t end_t sample_range")):
    """A maximal same-class span: its StrokeClass ``cls`` over ticks
    ``start_t`` to ``end_t``. ``sample_range`` is a half-open index
    interval into the source stream; empty for IN_AIR_LONG strokes, which own
    no samples."""

    __slots__ = ()

    @property
    def duration(self) -> int:
        return self.end_t - self.start_t

    @property
    def n_samples(self) -> int:
        return self.sample_range[1] - self.sample_range[0]


class SessionSegmentation(Frozen):
    """Ordered strokes plus per-class totals; strokes tile the recording."""

    strokes: tuple[Stroke, ...]
    nominal_period: int
    class_times: dict[StrokeClass, int]
    class_counts: dict[StrokeClass, int]


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
    limit = floor(cfg.gap_threshold(period))
    return period, list(compress(count(), map(lt, repeat(limit), intervals)))


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
    run_start = 0
    # a run of same-status samples ends at a gap or before a status change
    for i in sorted(gaps.union(status_changes(status))):
        # the run's span ends where the gap starts or where the next run starts
        end_t = t[i] if i in gaps else t[i + 1]
        strokes.append(Stroke(_STATUS_CLASS[status[run_start]], t[run_start], end_t,
                              (run_start, i + 1)))
        if i in gaps:
            strokes.append(Stroke(StrokeClass.IN_AIR_LONG, t[i], t[i + 1], (i + 1, i + 1)))
        run_start = i + 1
    strokes.append(Stroke(_STATUS_CLASS[status[run_start]], t[run_start], t[-1],
                          (run_start, len(t))))
    return SessionSegmentation(tuple(strokes), period,
                               *class_totals((s.cls, s.start_t, s.end_t) for s in strokes))


def status_changes(status) -> list[int]:
    """Each ``i`` whose sample's status differs from sample ``i + 1``'s:
    status is 0 or 1, so each change is one C search for the other value."""
    flags = bytes(status)
    changes = []
    i = flags.find(1 - flags[0])
    while i > 0:
        changes.append(i - 1)
        i = flags.find(flags[i - 1], i)
    return changes


def class_totals(spans) -> tuple[dict[StrokeClass, int], dict[StrokeClass, int]]:
    """Per-class total time and count of ``(cls, start_t, end_t)`` spans."""
    times = {c: 0 for c in StrokeClass}
    counts = {c: 0 for c in StrokeClass}
    for cls, start, end in spans:
        times[cls] += end - start
        counts[cls] += 1
    return times, counts

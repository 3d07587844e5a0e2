"""Per-file timing features and cohort-level aggregation.

Six features per recording: total time and stroke count for each of the three
stroke classes. A file whose long in-air share of total time exceeds the
anomaly threshold (strictly) is flagged anomalous and excluded from cohort
means, but still counted in ``n_files``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateDataError, EmptyCohortError
from .ingest import ManifestRecord
from .segmentation import SessionSegmentation, StrokeClass, as_fraction


class Feature(Enum):
    """The six per-file features; values are the wire/CSV labels."""

    TIME_ON_SURFACE = "T_S"
    TIME_IN_AIR_SHORT = "T_AS"
    TIME_IN_AIR_LONG = "T_AL"
    STROKES_ON_SURFACE = "Strokes_S"
    STROKES_IN_AIR_SHORT = "Strokes_AS"
    STROKES_IN_AIR_LONG = "Strokes_AL"


_FEATURE_ATTR = {f: f.name.lower() for f in Feature}


@dataclass(frozen=True)
class AnomalyPolicy:
    """Flag a file anomalous when long in-air time exceeds ``threshold`` of
    the total, strictly. Exactly at the threshold is not anomalous."""

    threshold: Fraction = Fraction(7, 10)

    def __post_init__(self):
        thr = as_fraction(self.threshold)
        object.__setattr__(self, "threshold", thr)
        if not 0 < thr <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {thr}")

    def is_anomalous(self, t_surface: int, t_air_short: int, t_air_long: int) -> bool:
        total = t_surface + t_air_short + t_air_long
        # integer cross-multiplication keeps the boundary exact
        return t_air_long * self.threshold.denominator > self.threshold.numerator * total


@dataclass(frozen=True)
class FeatureVector:
    time_on_surface: int
    time_in_air_short: int
    time_in_air_long: int
    strokes_on_surface: int
    strokes_in_air_short: int
    strokes_in_air_long: int
    anomalous: bool
    source: ManifestRecord | None = None

    @property
    def total_time(self) -> int:
        return self.time_on_surface + self.time_in_air_short + self.time_in_air_long

    def value(self, feature: Feature) -> int:
        return getattr(self, _FEATURE_ATTR[feature])


def feature_vector(
    seg: SessionSegmentation,
    policy: AnomalyPolicy | None = None,
    source: ManifestRecord | None = None,
) -> FeatureVector:
    pol = policy or AnomalyPolicy()
    t_s = seg.class_times[StrokeClass.ON_SURFACE]
    t_as = seg.class_times[StrokeClass.IN_AIR_SHORT]
    t_al = seg.class_times[StrokeClass.IN_AIR_LONG]
    return FeatureVector(
        time_on_surface=t_s,
        time_in_air_short=t_as,
        time_in_air_long=t_al,
        strokes_on_surface=seg.class_counts[StrokeClass.ON_SURFACE],
        strokes_in_air_short=seg.class_counts[StrokeClass.IN_AIR_SHORT],
        strokes_in_air_long=seg.class_counts[StrokeClass.IN_AIR_LONG],
        anomalous=pol.is_anomalous(t_s, t_as, t_al),
        source=source,
    )


def relative_times(t_surface, t_air_short, t_air_long):
    """Percentage split of total time across the three classes.

    Exact for exact inputs (ints or Fractions give Fractions); float inputs
    give floats. Raises DegenerateDataError when the total is zero.
    """
    total = t_surface + t_air_short + t_air_long
    if total == 0:
        raise DegenerateDataError("total time is zero; percentages undefined")
    # int / int would fall to float division; keep exact inputs exact
    hundred = 100.0 if isinstance(total, float) else Fraction(100)
    return (
        hundred * t_surface / total,
        hundred * t_air_short / total,
        hundred * t_air_long / total,
    )


@dataclass(frozen=True)
class CohortSummary:
    """Means over the non-anomalous files of one (database, task, cohort).

    Percentages are computed from the mean times (ratio of means), not
    averaged per file. All numeric fields are exact rationals.
    """

    database: str
    task: str
    cohort: str
    n_files: int
    n_anomalous: int
    mean_time_on_surface: Fraction
    mean_time_in_air_short: Fraction
    mean_time_in_air_long: Fraction
    pct_on_surface: Fraction
    pct_in_air_short: Fraction
    pct_in_air_long: Fraction
    mean_strokes_on_surface: Fraction
    mean_strokes_in_air_short: Fraction
    mean_strokes_in_air_long: Fraction


def aggregate_cohort(vectors: Iterable[FeatureVector]) -> CohortSummary:
    """Aggregate one cohort's files.

    Anomalous files are excluded from every mean but counted in ``n_files``
    and ``n_anomalous``. Raises EmptyCohortError when no files are given or
    none survive the exclusion (naming the group's labels, if any), and
    ValueError when sources carry mixed (database, task, cohort) labels.
    """
    vecs = list(vectors)
    if not vecs:
        raise EmptyCohortError("no files to aggregate")
    labels = {
        (v.source.database, v.source.task, v.source.cohort)
        for v in vecs
        if v.source is not None
    }
    if len(labels) > 1:
        raise ValueError(f"mixed cohort labels: {sorted(labels)}")
    if labels and any(v.source is None for v in vecs):
        raise ValueError("cannot mix labeled and unlabeled feature vectors")
    database, task, cohort = next(iter(labels), ("", "", ""))
    kept = [v for v in vecs if not v.anomalous]
    if not kept:
        group = f"database {database!r}, cohort {cohort!r}, task {task!r}: " if labels else ""
        raise EmptyCohortError(f"{group}all {len(vecs)} files excluded as anomalous")
    n = len(kept)

    def mean(attr: str) -> Fraction:
        return Fraction(sum(getattr(v, attr) for v in kept), n)

    mean_t_s = mean("time_on_surface")
    mean_t_as = mean("time_in_air_short")
    mean_t_al = mean("time_in_air_long")
    pct_s, pct_as, pct_al = relative_times(mean_t_s, mean_t_as, mean_t_al)
    return CohortSummary(
        database=database,
        task=task,
        cohort=cohort,
        n_files=len(vecs),
        n_anomalous=len(vecs) - n,
        mean_time_on_surface=mean_t_s,
        mean_time_in_air_short=mean_t_as,
        mean_time_in_air_long=mean_t_al,
        pct_on_surface=pct_s,
        pct_in_air_short=pct_as,
        pct_in_air_long=pct_al,
        mean_strokes_on_surface=mean("strokes_on_surface"),
        mean_strokes_in_air_short=mean("strokes_in_air_short"),
        mean_strokes_in_air_long=mean("strokes_in_air_long"),
    )

import random
from fractions import Fraction
from pathlib import Path

import pytest

from penair import (
    AnomalyPolicy,
    DegenerateDataError,
    EmptyCohortError,
    Feature,
    FeatureVector,
    ManifestRecord,
    SampleStream,
    StrokeClass,
    aggregate_cohort,
    feature_vector,
    relative_times,
    segment,
)


def vec(t_s, t_as, t_al, s_s=1, s_as=0, s_al=0, anomalous=False, source=None):
    return FeatureVector(t_s, t_as, t_al, s_s, s_as, s_al, anomalous, source)


def record(database="db", task="sig", subject="s01", cohort="control"):
    return ManifestRecord(Path("a.svc"), database, task, subject, cohort)


def test_anomaly_above_threshold():
    assert AnomalyPolicy().is_anomalous(100, 100, 500)


def test_anomaly_boundary_is_strict():
    policy = AnomalyPolicy()
    assert not policy.is_anomalous(30, 0, 70)
    assert policy.is_anomalous(29, 0, 70)


def test_anomaly_zero_total():
    assert not AnomalyPolicy().is_anomalous(0, 0, 0)


def test_anomaly_float_threshold_is_exact():
    policy = AnomalyPolicy(0.7)
    assert policy.threshold == Fraction(7, 10)
    assert not policy.is_anomalous(3, 0, 7)
    assert policy.is_anomalous(2999999, 0, 7000001)


def test_anomaly_threshold_validation():
    with pytest.raises(ValueError):
        AnomalyPolicy(0)
    with pytest.raises(ValueError):
        AnomalyPolicy(Fraction(3, 2))
    AnomalyPolicy(1)


def test_feature_vector_from_segmentation():
    index = range(6)
    stream = SampleStream.from_columns(index, index, [0, 2, 4, 6, 40, 42], [1, 1, 0, 0, 0, 0])
    fv = feature_vector(segment(stream))
    assert fv.value(Feature.TIME_ON_SURFACE) == 4
    assert fv.value(Feature.TIME_IN_AIR_SHORT) == 4
    assert fv.value(Feature.TIME_IN_AIR_LONG) == 34
    assert fv.value(Feature.STROKES_ON_SURFACE) == 1
    assert fv.value(Feature.STROKES_IN_AIR_SHORT) == 2
    assert fv.value(Feature.STROKES_IN_AIR_LONG) == 1
    assert fv.time_on_surface + fv.time_in_air_short + fv.time_in_air_long == 42
    assert fv.anomalous  # 34/42 > 0.7


def test_single_sample_session_not_anomalous():
    fv = feature_vector(segment(SampleStream.from_columns([0], [0], [5], [1])))
    assert fv.time_on_surface + fv.time_in_air_short + fv.time_in_air_long == 0
    assert not fv.anomalous


def test_relative_times_exact():
    assert relative_times(50, 30, 20) == (50, 30, 20)
    assert relative_times(0, 0, 42) == (0, 0, 100)
    parts = relative_times(1, 1, 1)
    assert sum(parts) == 100
    assert parts[0] == Fraction(100, 3)


def test_relative_times_floats_pass_through():
    parts = relative_times(2857.6, 715.4, 17.5)
    assert all(isinstance(p, float) for p in parts)
    assert abs(parts[0] - 79.6) <= 0.1


def test_relative_times_zero_total():
    with pytest.raises(DegenerateDataError):
        relative_times(0, 0, 0)


def test_aggregate_two_files():
    summary = aggregate_cohort([vec(10, 10, 0), vec(30, 10, 0)])
    assert summary.mean_time_on_surface == 20
    assert summary.mean_time_in_air_short == 10
    assert summary.mean_time_in_air_long == 0
    assert summary.pct_on_surface == Fraction(200, 3)
    assert summary.pct_in_air_short == Fraction(100, 3)
    assert summary.pct_in_air_long == 0
    assert summary.n_files == 2
    assert summary.n_anomalous == 0


def test_aggregate_excludes_anomalous_but_counts_them():
    normal = vec(60, 30, 10, 4, 3, 1)
    weird = vec(5, 5, 90, 1, 1, 1, anomalous=True)
    summary = aggregate_cohort([normal, weird])
    assert summary.n_files == 2
    assert summary.n_anomalous == 1
    assert summary.mean_time_on_surface == 60
    assert summary.mean_time_in_air_long == 10
    assert summary.mean_strokes_on_surface == 4


def test_aggregate_percentages_are_ratio_of_means():
    # two files whose per-file splits differ; the summary reflects the
    # split of the mean times, not the mean of the per-file splits
    summary = aggregate_cohort([vec(90, 10, 0), vec(10, 90, 0)])
    assert summary.pct_on_surface == 50
    assert summary.pct_in_air_short == 50


def test_aggregate_empty_inputs():
    with pytest.raises(EmptyCohortError):
        aggregate_cohort([])
    with pytest.raises(EmptyCohortError):
        aggregate_cohort([vec(1, 1, 8, anomalous=True)])


def test_aggregate_label_consistency():
    a = vec(10, 0, 0, source=record(cohort="control"))
    b = vec(10, 0, 0, source=record(cohort="patient"))
    with pytest.raises(ValueError):
        aggregate_cohort([a, b])
    with pytest.raises(ValueError):
        aggregate_cohort([a, vec(10, 0, 0)])


def test_aggregate_labels_flow_through():
    summary = aggregate_cohort([vec(10, 5, 0, source=record())])
    assert (summary.database, summary.task, summary.cohort) == ("db", "sig", "control")
    unlabeled = aggregate_cohort([vec(10, 5, 0)])
    assert (unlabeled.database, unlabeled.task, unlabeled.cohort) == ("", "", "")


def test_aggregate_means_are_exact_over_many_files():
    rng = random.Random(77001)
    vectors = []
    totals = [0] * 6
    for _ in range(50):
        draws = [rng.randint(0, 400), rng.randint(0, 400), rng.randint(0, 80),
                 rng.randint(1, 9), rng.randint(0, 9), rng.randint(0, 9)]
        for i, d in enumerate(draws):
            totals[i] += d
        vectors.append(FeatureVector(*draws, anomalous=False))
    summary = aggregate_cohort(vectors)
    assert summary.mean_time_on_surface == Fraction(totals[0], 50)
    assert summary.mean_time_in_air_short == Fraction(totals[1], 50)
    assert summary.mean_time_in_air_long == Fraction(totals[2], 50)
    assert summary.mean_strokes_on_surface == Fraction(totals[3], 50)
    assert summary.mean_strokes_in_air_short == Fraction(totals[4], 50)
    assert summary.mean_strokes_in_air_long == Fraction(totals[5], 50)
    assert summary.pct_on_surface + summary.pct_in_air_short + summary.pct_in_air_long == 100


def test_feature_wire_labels():
    assert [f.value for f in Feature] == [
        "T_S", "T_AS", "T_AL", "Strokes_S", "Strokes_AS", "Strokes_AL"]


def test_stroke_class_wire_labels():
    assert [c.value for c in StrokeClass] == ["on_surface", "in_air_short", "in_air_long"]

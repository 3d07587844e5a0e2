"""One contract for every exported value class: how it is built, its
defaults and refusals, equality, hashing, immutability, repr and pickling.

Each case names a constructor, one instance's fields in declaration order
(``fields``), the same instance as positional arguments (``args``), the
keyword arguments of a different instance (``other``), the defaults a
minimal build (``required``) gets, and the refusals with their messages.
"""

import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from penair import (AnomalyPolicy, CohortSpec, CohortSummary, CorpusSpec, EmptyInputError, Feature,
                    FeatureVector, Gap, GroundTruth, IntRange, ManifestRecord, ParseOptions,
                    ParseWarning, PlanDistribution, RankTestResult, RunConfig, SampleStream,
                    SegmentationConfig, SessionSegmentation, Stroke, StrokeClass, SynthSpec,
                    SynthSpecError, UStat)

S, A, L = StrokeClass.ON_SURFACE, StrokeClass.IN_AIR_SHORT, StrokeClass.IN_AIR_LONG
RECORD = dict(path=Path("a.svc"), database="db", task="copy", subject="s1", cohort="control")
STROKES = (Stroke(S, 0, 4, (0, 3)), Stroke(L, 4, 40, (3, 3)), Stroke(S, 40, 42, (3, 5)))
TIMES = {S: 6, A: 0, L: 36}
COUNTS = {S: 2, A: 0, L: 1}
USTAT = dict(u_a=4.5, u_b=11.5, n_a=4, n_b=4, tie_profile=(2, 1, 1, 1, 1, 1, 1))
PLAN = dict(surface_strokes=IntRange(2, 4), surface_ticks=IntRange(100, 300),
            air_ticks=IntRange(50, 150), gaps=IntRange(1, 2), gap_ticks=IntRange(40, 100))
COHORT = CohortSpec(4, PlanDistribution(**PLAN))
SUMMARY = dict(database="db", task="copy", cohort="control", n_files=4, n_anomalous=1,
               mean_time_on_surface=Fraction(401, 3), mean_time_in_air_short=Fraction(50),
               mean_time_in_air_long=Fraction(20), pct_on_surface=Fraction(401, 6),
               pct_in_air_short=Fraction(25), pct_in_air_long=Fraction(10),
               mean_strokes_on_surface=Fraction(3), mean_strokes_in_air_short=Fraction(2),
               mean_strokes_in_air_long=Fraction(1, 3))
COLUMNS = dict(x=(1, 2), y=(3, 4), t=(0, 2), status=(1, 0), azimuth=(5, 6), altitude=(7, 8),
               pressure=(9, 0))


def case(make, fields, other, args=None, kwargs=None, required=None, defaults=None,
         hashable=True, refusals=()):
    """``args`` and ``kwargs`` build the instance whose ``fields`` are given;
    they default to the fields' values. ``required`` defaults to ``kwargs``."""
    kwargs = fields if kwargs is None else kwargs
    return dict(make=make, cls=getattr(make, "__self__", make), fields=fields,
                args=tuple(fields.values()) if args is None else args, kwargs=kwargs,
                other=other, required=kwargs if required is None else required,
                defaults=defaults or {}, hashable=hashable, refusals=refusals)


CASES = {
    "ParseWarning": case(ParseWarning, dict(line=3, message="duplicate timestamp 2 dropped"),
                         other=dict(line=4, message="duplicate timestamp 2 dropped")),
    "ParseOptions": case(ParseOptions, dict(derive_status_from_pressure=True),
                         other=dict(derive_status_from_pressure=False), required={},
                         defaults=dict(derive_status_from_pressure=False)),
    "ManifestRecord": case(ManifestRecord, RECORD, other={**RECORD, "cohort": "patient"}),
    # built by from_columns: the columns (positional or by keyword) and a source_id
    "SampleStream": case(SampleStream.from_columns,
                         {**COLUMNS, "source_id": "<stream>", "warnings": ()},
                         {**COLUMNS, "pressure": (9, 1)}, args=tuple(COLUMNS.values()),
                         kwargs=COLUMNS,
                         required=dict(x=[1, 2], y=[3, 4], t=[0, 2], status=[1, 0]),
                         defaults=dict(azimuth=(0, 0), altitude=(0, 0), pressure=(0, 0)),
                         refusals=[(dict(t=[]), EmptyInputError, "<stream>: no samples"),
                                   (dict(status=[1, 2]), ValueError,
                                    "<stream>: sample 1: status must be 0 or 1, got 2"),
                                   (dict(t=[2, 2]), ValueError,
                                    "<stream>: sample 1: timestamp 2 after 2"),
                                   (dict(pressure=[1]), ValueError,
                                    "<stream>: columns differ in length")]),
    "SegmentationConfig": case(SegmentationConfig,
                               dict(gap_factor=Fraction(4), min_gap_ticks=10),
                               other=dict(gap_factor=Fraction(5), min_gap_ticks=10), required={},
                               defaults=dict(gap_factor=Fraction(3), min_gap_ticks=None),
                               refusals=[(dict(gap_factor=1), ValueError,
                                          "gap_factor must be > 1, got 1"),
                                         (dict(min_gap_ticks=0), ValueError,
                                          "min_gap_ticks must be >= 1")]),
    "Gap": case(Gap, dict(index=3, start_t=6, end_t=200),
                other=dict(index=3, start_t=6, end_t=201)),
    "Stroke": case(Stroke, dict(cls=S, start_t=0, end_t=4, sample_range=(0, 3)),
                   other=dict(cls=A, start_t=0, end_t=4, sample_range=(0, 3))),
    "SessionSegmentation": case(SessionSegmentation,
                                dict(strokes=STROKES, nominal_period=2, class_times=TIMES,
                                     class_counts=COUNTS),
                                other=dict(strokes=STROKES[:1], nominal_period=2,
                                           class_times=TIMES, class_counts=COUNTS),
                                hashable=False),
    "AnomalyPolicy": case(AnomalyPolicy, dict(threshold=Fraction(1, 2)),
                          other=dict(threshold=Fraction(3, 5)), required={},
                          defaults=dict(threshold=Fraction(7, 10)),
                          refusals=[(dict(threshold=0), ValueError,
                                     "threshold must be in (0, 1], got 0"),
                                    (dict(threshold=Fraction(3, 2)), ValueError,
                                     "threshold must be in (0, 1], got 3/2")]),
    "FeatureVector": case(FeatureVector,
                          dict(time_on_surface=6, time_in_air_short=0, time_in_air_long=36,
                               strokes_on_surface=2, strokes_in_air_short=0,
                               strokes_in_air_long=1, anomalous=True,
                               source=ManifestRecord(**RECORD)),
                          other=dict(time_on_surface=7, time_in_air_short=0,
                                     time_in_air_long=36, strokes_on_surface=2,
                                     strokes_in_air_short=0, strokes_in_air_long=1,
                                     anomalous=True, source=ManifestRecord(**RECORD)),
                          required=dict(time_on_surface=6, time_in_air_short=0,
                                        time_in_air_long=36, strokes_on_surface=2,
                                        strokes_in_air_short=0, strokes_in_air_long=1,
                                        anomalous=True),
                          defaults=dict(source=None)),
    "CohortSummary": case(CohortSummary, SUMMARY, other={**SUMMARY, "n_anomalous": 0}),
    "RunConfig": case(RunConfig,
                      dict(gap_factor=Fraction(4), min_gap_ticks=10,
                           anomaly_threshold=Fraction(1, 2), exact_limit=30, table_format="md"),
                      other=dict(exact_limit=31), required={},
                      defaults=dict(gap_factor=Fraction(3), min_gap_ticks=None,
                                    anomaly_threshold=Fraction(7, 10), exact_limit=20,
                                    table_format="csv"),
                      refusals=[(dict(gap_factor=1), ValueError, "gap_factor must be > 1, got 1"),
                                (dict(min_gap_ticks=0), ValueError,
                                 "min_gap_ticks must be >= 1"),
                                (dict(anomaly_threshold=2), ValueError,
                                 "threshold must be in (0, 1], got 2"),
                                (dict(exact_limit=1), ValueError,
                                 "exact limit must be >= 2, got 1"),
                                (dict(table_format="tsv"), ValueError,
                                 "unknown table format 'tsv'")]),
    "UStat": case(UStat, USTAT, other={**USTAT, "u_a": 5.5, "u_b": 10.5}),
    "RankTestResult": case(RankTestResult,
                           dict(task="copy", feature=Feature.TIME_ON_SURFACE, u=UStat(**USTAT),
                                p=Fraction(1, 35), method="exact", significant=True),
                           other=dict(task="copy", feature=Feature.TIME_ON_SURFACE,
                                      u=UStat(**USTAT), p=0.25, method="approx",
                                      significant=False)),
    # the synthetic-corpus spec classes
    "IntRange": case(IntRange, dict(lo=1, hi=3), other=dict(lo=1, hi=4),
                     refusals=[(dict(lo=3, hi=1), SynthSpecError, "empty range 3..1")]),
    "PlanDistribution": case(PlanDistribution, PLAN, other={**PLAN, "gaps": IntRange(0, 2)},
                             refusals=[(dict(surface_strokes=IntRange(0, 2)), SynthSpecError,
                                        "plans need at least one on-surface stroke"),
                                       (dict(gaps=IntRange(-1, 2)), SynthSpecError,
                                        "gap count cannot be negative")]),
    "CohortSpec": case(CohortSpec, dict(n_files=4, plan=PlanDistribution(**PLAN)),
                       other=dict(n_files=5, plan=PlanDistribution(**PLAN)),
                       refusals=[(dict(n_files=0), SynthSpecError,
                                  "cohort needs at least one file, got 0")]),
    "CorpusSpec": case(CorpusSpec,
                       dict(nominal_period=2, jitter=1, cohorts={"control": COHORT},
                            database="demo", task="copy", gap_factor=Fraction(4)),
                       other=dict(nominal_period=3, jitter=1, cohorts={"control": COHORT}),
                       required=dict(nominal_period=2, jitter=1, cohorts={"control": COHORT}),
                       defaults=dict(database="synth", task="synth", gap_factor=Fraction(3)),
                       hashable=False,
                       refusals=[(dict(cohorts={}), SynthSpecError,
                                  "corpus spec declares no cohorts"),
                                 (dict(task=" "), SynthSpecError,
                                  "database, task and cohort names must not be empty")]),
    "SynthSpec": case(SynthSpec,
                      dict(nominal_period=2, jitter=0, stroke_plan=((S, 10), (A, 5)), seed=1,
                           gap_factor=Fraction(4)),
                      other=dict(nominal_period=2, jitter=0, stroke_plan=((S, 10), (A, 5)),
                                 seed=2),
                      required=dict(nominal_period=2, jitter=0, stroke_plan=((S, 10), (A, 5)),
                                    seed=1),
                      defaults=dict(gap_factor=Fraction(3)),
                      refusals=[(dict(nominal_period=0), SynthSpecError,
                                 "nominal_period must be >= 1, got 0"),
                                (dict(stroke_plan=()), SynthSpecError, "stroke plan is empty")]),
    "GroundTruth": case(GroundTruth,
                        dict(strokes=((S, 0, 4), (L, 4, 40), (S, 40, 42)), class_times=TIMES,
                             class_counts=COUNTS),
                        other=dict(strokes=((S, 0, 42),), class_times=TIMES,
                                   class_counts=COUNTS),
                        hashable=False),
}


def build(c):
    return c["make"](**c["kwargs"])


@pytest.fixture(params=CASES.values(), ids=CASES)
def c(request):
    return request.param


def test_positional_and_keyword_construction_agree(c):
    by_position = c["make"](*c["args"])
    by_keyword = build(c)
    assert type(by_position) is type(by_keyword) is c["cls"]
    for name, value in c["fields"].items():
        assert getattr(by_position, name) == getattr(by_keyword, name) == value, name


def test_defaults_of_a_minimal_build_and_on_the_class(c):
    built = c["make"](**c["required"])
    for name, value in c["defaults"].items():
        assert getattr(built, name) == value, name
        if c["cls"] is not SampleStream:  # zero-fill is from_columns's, not a field default
            assert getattr(c["cls"], name) == value, name


def test_refusals_name_their_cause(c):
    for change, error, message in c["refusals"]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            c["make"](**{**c["kwargs"], **change})


def test_wrong_arguments_are_type_errors(c):
    kwargs = c["kwargs"]
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        c["make"](*c["args"], 0)  # one positional argument too many
    with pytest.raises(TypeError):
        c["make"](**kwargs, no_such_field=0)
    with pytest.raises(TypeError):
        c["make"](*c["args"][:1], **{first: c["args"][0]})  # one field twice
    required = [name for name in kwargs if name not in c["defaults"]]
    if required:
        with pytest.raises(TypeError):
            c["make"](**{k: v for k, v in kwargs.items() if k != required[-1]})


def test_equality(c):
    a, b = build(c), c["make"](*c["args"])
    other = c["make"](**c["other"])
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()


def test_hash(c):
    a, b = build(c), c["make"](*c["args"])
    if c["hashable"]:
        assert hash(a) == hash(b)
        assert len({a, b, c["make"](**c["other"])}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_assignment_and_deletion_raise_attribute_error(c):
    value = build(c)
    first = next(iter(c["fields"]))
    with pytest.raises(AttributeError):
        setattr(value, first, c["fields"][first])
    with pytest.raises(AttributeError):
        setattr(value, "no_such_field", 0)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert getattr(value, first) == c["fields"][first]


# the records that are named tuples, as README documents: each equals the
# plain tuple of its fields; an instance of any other class equals only an
# instance of its own class
TUPLES = {ParseWarning, Gap, Stroke, UStat, RankTestResult}


def test_only_the_documented_records_are_tuples(c):
    value = build(c)
    values = tuple(getattr(value, name) for name in c["fields"])
    if c["cls"] in TUPLES:
        assert isinstance(value, tuple) and value == values and tuple(value) == values
    else:
        assert not isinstance(value, tuple) and value != values


def test_repr_names_every_field_in_order(c):
    fields = ", ".join(f"{name}={value!r}" for name, value in c["fields"].items())
    assert repr(build(c)) == c["cls"].__name__ + f"({fields})"


def test_pickle_round_trip(c):
    # the manifest commands' workers send FeatureVectors holding ManifestRecords
    value = build(c)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value
        for name in c["fields"]:
            assert getattr(back, name) == getattr(value, name), (protocol, name)

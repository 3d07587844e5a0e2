import random
from fractions import Fraction
from math import comb, isclose
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from penair import (
    ALPHA,
    EmptyCohortError,
    ExactSizeError,
    Feature,
    FeatureVector,
    ManifestRecord,
    approx_p,
    compare_cohorts,
    exact_p,
    mann_whitney_u,
    render_p_table,
)
from penair.stats import _doubled_u

from oracles import enumerated_p, normal_p, pairwise_u


def doubled_midranks(values):
    """Twice each value's midrank in the pool ``values``, so tied ranks stay
    integers, read off _doubled_u with the value alone in group A (its
    doubled U is its doubled midrank minus 2), and the pool's tie profile."""
    ranks = [_doubled_u([v], values[:i] + values[i + 1:])[0] + 2 for i, v in enumerate(values)]
    return ranks, mann_whitney_u(values[:1], values[1:]).tie_profile


def test_midranks_no_ties():
    assert doubled_midranks([5, 1, 3]) == ([6, 2, 4], (1, 1, 1))


def test_midranks_tie_pair():
    assert doubled_midranks([2, 2]) == ([3, 3], (2,))


def test_midranks_three_tie_groups():
    assert doubled_midranks([1, 1, 2, 2, 3, 3]) == ([3, 3, 7, 7, 11, 11], (2, 2, 2))


def test_u_complete_separation():
    u = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert (u.u_a, u.u_b) == (0, 9)
    assert (u.n_a, u.n_b) == (3, 3)
    assert u.tie_profile == (1, 1, 1, 1, 1, 1)


def test_u_identical_groups():
    u = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert u.u_a == u.u_b == 4.5
    assert u.tie_profile == (2, 2, 2)


def test_u_single_vs_pair():
    u = mann_whitney_u([3], [1, 2])
    assert (u.u_a, u.u_b) == (2, 0)


def test_u_complement_identity():
    rng = random.Random(30109)
    for _ in range(300):
        n_a = rng.randint(1, 8)
        n_b = rng.randint(1, 8)
        a = [rng.randint(1, 5) for _ in range(n_a)]
        b = [rng.randint(1, 5) for _ in range(n_b)]
        u = mann_whitney_u(a, b)
        assert u.u_a + u.u_b == n_a * n_b
        assert u.u_a == pairwise_u(a, b)


def test_tie_profile_is_run_lengths_of_sorted_pool():
    # a tuple, since callers hash it
    rng = random.Random(20032)
    for _ in range(300):
        top = rng.choice([1, 3, 50])
        a = [rng.randint(-top, top) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(-top, top) for _ in range(rng.randint(1, 12))]
        pool = sorted(a + b)
        starts = [i for i in range(len(pool)) if i == 0 or pool[i] != pool[i - 1]]
        runs = [end - start for start, end in zip(starts, starts[1:] + [len(pool)])]
        profile = mann_whitney_u(a, b).tie_profile
        assert type(profile) is tuple
        assert profile == tuple(runs)


def test_u_requires_values():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1])


def test_exact_p_complete_separation():
    assert exact_p([1, 2, 3], [4, 5, 6]) == Fraction(1, 10)


def test_exact_p_identical_groups():
    assert exact_p([1, 2, 3], [1, 2, 3]) == 1


def test_exact_p_two_values():
    assert exact_p([1], [2]) == 1


def test_exact_p_single_vs_pair():
    assert exact_p([3], [1, 2]) == Fraction(2, 3)
    # deviation 1, and the two tails hold all C(3, 1) = 3 = 2**2 - 1 assignments:
    # the tail sum fills its 2-bit slot
    assert exact_p([5], [5, 0]) == 1


def test_exact_p_returns_fraction():
    p = exact_p([1, 1, 2], [2, 3, 3])
    assert isinstance(p, Fraction)
    assert 0 < p <= 1


def test_exact_p_matches_enumeration_with_ties():
    rng = random.Random(88421)
    for _ in range(150):
        n_a = rng.randint(1, 7)
        n_b = rng.randint(1, 8 - n_a) if n_a < 8 else 1
        a = [rng.randint(1, 4) for _ in range(n_a)]
        b = [rng.randint(1, 4) for _ in range(n_b)]
        assert exact_p(a, b) == enumerated_p(a, b)


def test_exact_p_symmetric_in_groups():
    rng = random.Random(91233)
    for _ in range(100):
        a = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        b = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        assert exact_p(a, b) == exact_p(b, a)


def test_exact_p_rank_invariant():
    rng = random.Random(17704)
    for _ in range(60):
        a = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
        b = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
        mapped_a = [2 * x + 1 for x in a]
        mapped_b = [2 * x + 1 for x in b]
        assert exact_p(a, b) == exact_p(mapped_a, mapped_b)


def test_exact_p_size_limit():
    a = list(range(11))
    b = list(range(11, 22))
    with pytest.raises(ExactSizeError):
        exact_p(a, b)
    assert exact_p(a, b, exact_limit=22) < Fraction(1, 1000)
    # refused before it is ranked: values that cannot be sorted never reach the sort
    with pytest.raises(ExactSizeError):
        exact_p([1j] * 11, [2j] * 11)


def test_approx_p_at_null_mean():
    assert approx_p(mann_whitney_u([1, 4], [2, 3])) == 1.0


def test_approx_p_degenerate_variance():
    assert approx_p(mann_whitney_u([5, 5], [5, 5])) == 1.0


def test_approx_p_decreases_with_separation():
    base = list(range(1, 16))
    mild = approx_p(mann_whitney_u(base, [x + 3 for x in base]))
    strong = approx_p(mann_whitney_u(base, [x + 40 for x in base]))
    assert 0 < strong < mild < 1
    assert strong < 0.001


def test_approx_p_close_to_exact_midsize():
    rng = random.Random(55012)
    for _ in range(30):
        pooled = rng.sample(range(10000), 16)
        a, b = pooled[:8], pooled[8:]
        gap = abs(approx_p(mann_whitney_u(a, b)) - float(exact_p(a, b)))
        assert gap <= 0.03


def test_approx_p_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(66300)
    for _ in range(50):
        a = [rng.randint(1, 30) for _ in range(rng.randint(3, 12))]
        b = [rng.randint(1, 30) for _ in range(rng.randint(3, 12))]
        ours = approx_p(mann_whitney_u(a, b))
        ref = stats.mannwhitneyu(a, b, alternative="two-sided",
                                 method="asymptotic", use_continuity=True)
        # scipy does not clamp p at 1 the same way; compare capped values
        assert abs(min(ours, 1.0) - min(ref.pvalue, 1.0)) < 1e-12


# few distinct values, so most pools are tied; at most 12 a side keeps p
# above 1e-5, where the reference's 1 + erf(-x) still holds nine digits
tied_side = st.lists(st.integers(0, 5), min_size=1, max_size=12)


@given(tied_side, tied_side)
@example([0, 0, 2], [4, 3, 3, 6, 1, 5, 1])
@example([1, 2, 2, 3], [2, 3, 3, 3, 7])
@example(list(range(1, 16)), list(range(4, 19)))
@example([1, 4], [2, 3])
@example([5, 5], [5, 5])
def test_approx_p_matches_normal_reference(a, b):
    assert isclose(approx_p(mann_whitney_u(a, b)), normal_p(a, b), rel_tol=1e-9)


def test_significance_level_is_strict():
    assert ALPHA == Fraction(1, 20)
    assert not Fraction(1, 20) < ALPHA
    assert not 0.05 < ALPHA  # the float literal sits just above 1/20
    assert Fraction(49, 1000) < ALPHA


def labeled(value, task="sig", anomalous=False, cohort="c"):
    source = ManifestRecord(Path("x.svc"), "db", task, "s", cohort)
    return FeatureVector(value, 0, 0, 1, 0, 0, anomalous, source)


def test_compare_identical_cohorts():
    a = [labeled(v) for v in (3, 5, 7)]
    result = compare_cohorts(a, list(a), "sig", Feature.TIME_ON_SURFACE)
    assert result.p == 1
    assert not result.significant
    assert result.method == "exact"


def test_compare_is_symmetric():
    a = [labeled(v) for v in (3, 5, 7, 9)]
    b = [labeled(v) for v in (4, 6, 8)]
    r_ab = compare_cohorts(a, b, "sig", Feature.TIME_ON_SURFACE)
    r_ba = compare_cohorts(b, a, "sig", Feature.TIME_ON_SURFACE)
    assert r_ab.p == r_ba.p


def test_compare_switches_to_approximation():
    a = [labeled(v) for v in range(1, 12)]
    b = [labeled(v) for v in range(20, 31)]
    result = compare_cohorts(a, b, "sig", Feature.TIME_ON_SURFACE)
    assert result.method == "approx"
    assert isinstance(result.p, float)
    assert result.significant
    small = compare_cohorts(a[:5], b[:5], "sig", Feature.TIME_ON_SURFACE)
    assert small.method == "exact"
    assert isinstance(small.p, Fraction)


# a pool of ten whose exact p is 1/20 exactly: the level itself
AT_ALPHA = ([0, 0, 2], [4, 3, 3, 6, 1, 5, 1])


def test_p_of_exactly_alpha_is_not_significant():
    a, b = ([labeled(v) for v in side] for side in AT_ALPHA)
    result = compare_cohorts(a, b, "sig", Feature.TIME_ON_SURFACE)
    assert result.p == Fraction(1, 20)
    assert result.method == "exact"
    assert result.significant is False
    assert render_p_table([result]).splitlines()[1] == "sig,0.0500,,,,,"


def test_compare_is_exact_up_to_exact_limit():
    a, b = ([labeled(v) for v in side] for side in AT_ALPHA)
    at_limit = compare_cohorts(a, b, "sig", Feature.TIME_ON_SURFACE, exact_limit=10)
    assert (at_limit.method, at_limit.p) == ("exact", Fraction(1, 20))
    past_limit = compare_cohorts(a, b, "sig", Feature.TIME_ON_SURFACE, exact_limit=9)
    assert past_limit.method == "approx"
    assert isinstance(past_limit.p, float)


def test_compare_excludes_anomalous_and_filters_task():
    a = [labeled(1), labeled(2), labeled(900, anomalous=True), labeled(50, task="spiral")]
    b = [labeled(3), labeled(4)]
    result = compare_cohorts(a, b, "sig", Feature.TIME_ON_SURFACE)
    assert (result.u.n_a, result.u.n_b) == (2, 2)
    assert result.task == "sig"
    assert result.feature == Feature.TIME_ON_SURFACE


def test_compare_empty_side():
    a = [labeled(1, anomalous=True)]
    b = [labeled(2)]
    with pytest.raises(EmptyCohortError):
        compare_cohorts(a, b, "sig", Feature.TIME_ON_SURFACE)
    with pytest.raises(EmptyCohortError):
        compare_cohorts(b, b, "other_task", Feature.TIME_ON_SURFACE)


def unlabeled(value, anomalous=False):
    return FeatureVector(value, 0, 0, 1, 0, 0, anomalous)


@pytest.mark.parametrize("a, b, message", [
    ([labeled(1)], [labeled(2, task="sig")], "task 't': cohort 'c' has no file for it"),
    ([labeled(1, task="t")],
     [labeled(2, task="t", anomalous=True), labeled(3, task="t", anomalous=True), labeled(4)],
     "task 't': cohort 'c' is empty after anomaly exclusion: all 2 of its files are anomalous"),
    ([unlabeled(1, anomalous=True)], [unlabeled(2)],
     "task 't': a cohort is empty after anomaly exclusion: all 1 of its files are anomalous"),
    ([], [unlabeled(2)], "task 't': a cohort has no file for it"),
    ([labeled(1, cohort="ca")], [labeled(2, cohort="cb")],
     "task 't': cohort 'ca' has no file for it"),
    ([labeled(1, task="t", anomalous=True, cohort="ca")], [labeled(2, cohort="cb")],
     "task 't': cohort 'ca' is empty after anomaly exclusion: all 1 of its files are anomalous"),
], ids=["no-file", "all-anomalous", "unlabeled", "unlabeled-none", "both-empty",
        "both-empty-anomalous"])
def test_compare_empty_side_message(a, b, message):
    with pytest.raises(EmptyCohortError) as info:
        compare_cohorts(a, b, "t", Feature.TIME_ON_SURFACE)
    assert str(info.value) == message

import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

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
)
from penair.stats import _doubled_ranks


def pairwise_u(a, b):
    # U by its pairwise-win definition, kept rational for exactness
    u = Fraction(0)
    for x in a:
        for y in b:
            if x > y:
                u += 1
            elif x == y:
                u += Fraction(1, 2)
    return u


def enumerated_p(a, b):
    # literal two-sided tail over every assignment of the pooled values
    pooled = list(a) + list(b)
    n_a = len(a)
    mu = Fraction(n_a * len(b), 2)
    observed = abs(pairwise_u(a, b) - mu)
    extreme = 0
    total = 0
    for picked in itertools.combinations(range(len(pooled)), n_a):
        chosen = set(picked)
        side_a = [pooled[i] for i in picked]
        side_b = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if abs(pairwise_u(side_a, side_b) - mu) >= observed:
            extreme += 1
    return Fraction(extreme, total)


# _doubled_ranks gives twice each midrank, so tied ranks stay integers
def test_midranks_no_ties():
    assert _doubled_ranks([5, 1, 3]) == ([6, 2, 4], (1, 1, 1))


def test_midranks_tie_pair():
    assert _doubled_ranks([2, 2]) == ([3, 3], (2,))


def test_midranks_three_tie_groups():
    assert _doubled_ranks([1, 1, 2, 2, 3, 3]) == ([3, 3, 7, 7, 11, 11], (2, 2, 2))


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


def test_significance_level_is_strict():
    assert ALPHA == Fraction(1, 20)
    assert not Fraction(1, 20) < ALPHA
    assert not 0.05 < ALPHA  # the float literal sits just above 1/20
    assert Fraction(49, 1000) < ALPHA


def labeled(value, task="sig", anomalous=False):
    source = ManifestRecord(Path("x.svc"), "db", task, "s", "c")
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

"""Rank statistics for comparing feature distributions between two cohorts.

Mann-Whitney U with midranks for ties, kept as integer doubled midranks so
U_A is exact. Two routes to a two-sided p-value:

* exact_p: the probability, over all C(n_a + n_b, n_a) assignments of the
  pooled values to the two groups, of a U at least as far from the null mean
  n_a * n_b / 2 as observed, as an exact rational. The null distribution
  comes from the shift algorithm of Streitberg & Roehmel (1986) on Python
  integers. One integer per subset size k packs the counts per doubled
  U-statistic (doubled rank sum minus k(k+1)) into slots as wide as
  C(n, n_a) in bits; taking values of a tie group shifts it up, and sizes
  that can no longer reach n_a are not updated.
* approx_p: normal approximation with continuity correction 0.5 and the
  tie-corrected variance n_a*n_b/12 * ((N+1) - sum(t^3 - t) / (N * (N-1))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb
from typing import Sequence

from .errors import EmptyCohortError, ExactSizeError
from .features import Feature, FeatureVector

# fixed significance level; exact Fraction so p == 0.05 is never significant
ALPHA = Fraction(1, 20)

DEFAULT_EXACT_LIMIT = 20


@dataclass(frozen=True)
class UStat:
    """U statistics for both groups plus the pooled tie structure.

    ``tie_profile`` holds the size of every tie group in the pooled sample,
    in ascending value order; untied values contribute groups of size 1.
    """

    u_a: float
    u_b: float
    n_a: int
    n_b: int
    tie_profile: tuple[int, ...]


@dataclass(frozen=True)
class RankTestResult:
    task: str
    feature: Feature
    u: UStat
    p: Fraction | float
    method: str  # "exact" or "approx"
    significant: bool


def _doubled_ranks(values: Sequence) -> tuple[list[int], tuple[int, ...]]:
    """Twice the midrank of every value, in input order, and the tie-group
    sizes in ascending value order (untied values are groups of size 1). A
    group of t values after ``offset`` smaller ones has doubled midrank
    2*offset + t + 1."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks2 = [0] * len(values)
    sizes = []
    offset = 0
    for _, group in groupby(order, key=values.__getitem__):
        members = list(group)
        for i in members:
            ranks2[i] = 2 * offset + len(members) + 1
        sizes.append(len(members))
        offset += len(members)
    return ranks2, tuple(sizes)


def _doubled_u(a: Sequence, b: Sequence) -> tuple[int, tuple[int, ...]]:
    """2*U_A = 2*R_A - n_a(n_a+1), exact, and the pooled tie profile."""
    n_a = len(a)
    if n_a < 1 or len(b) < 1:
        raise ValueError("both groups need at least one value")
    ranks2, sizes = _doubled_ranks(list(a) + list(b))
    return sum(ranks2[:n_a]) - n_a * (n_a + 1), sizes


def mann_whitney_u(a: Sequence, b: Sequence) -> UStat:
    """U for both groups via the rank-sum formula U_A = R_A - n_a(n_a+1)/2."""
    u2, sizes = _doubled_u(a, b)
    n_a, n_b = len(a), len(b)
    u_a = u2 / 2
    return UStat(u_a=u_a, u_b=n_a * n_b - u_a, n_a=n_a, n_b=n_b, tie_profile=sizes)


def _doubled_u_counts(sizes: tuple[int, ...], n_a: int) -> tuple[int, int]:
    """Null distribution of 2*U_A over all n_a-subsets of a pooled multiset,
    packed into one integer.

    Only the tie-group sizes matter. Slot s of ``dp[k]``, ``slot`` bits wide,
    counts the k-subsets of the groups so far whose doubled rank sum is
    s + k(k+1), the smallest doubled sum k values can have; so slot s of
    ``dp[n_a]`` is 2*U_A = s. A group of t values after ``before`` smaller
    ones has doubled midrank 2*before + t + 1, so adding j of its values to a
    (k-j)-subset, in C(t, j) ways, moves it j*(2*(before - k) + t + j) slots
    up, never down since k - j <= before. Per group, k runs from high to low
    so that dp[k - j] still lacks the group; an untied group shifts dp[k - 1]
    without a multiply. Sizes k below n_a minus the values still to come can
    no longer reach n_a; they are neither updated nor read again.

    Each k-subset a kept ``dp[k]`` counts extends to an n_a-subset of the
    pool, so its counts sum to at most C(n, n_a), whose bit length is the slot
    width: no count ever spills into the next slot. Returns (packed, slot):
    slot u2 of ``packed`` counts the subsets with doubled U_A = u2, for u2
    from 0 to 2*n_a*n_b; the counts sum to C(n, n_a).
    """
    n = sum(sizes)
    slot = comb(n, n_a).bit_length()
    dp = [1] + [0] * n_a
    before = 0
    for size in sizes:
        after = before + size
        for k in range(min(n_a, after), max(n_a - n + after, 1) - 1, -1):
            if size == 1:
                dp[k] += dp[k - 1] << (slot * 2 * (before - k + 1))
                continue
            acc = dp[k]
            for j in range(max(k - before, 1), min(size, k) + 1):
                acc += (dp[k - j] * comb(size, j)) << (slot * j * (2 * (before - k) + size + j))
            dp[k] = acc
        before = after
    return dp[n_a], slot


def exact_p(a: Sequence, b: Sequence, exact_limit: int = DEFAULT_EXACT_LIMIT) -> Fraction:
    """Exact two-sided p over every group assignment of the pooled values.

    p = P(|U - n_a*n_b/2| >= observed deviation) with ties kept as they are
    in the pooled multiset. Raises ExactSizeError when n_a + n_b exceeds
    ``exact_limit``.
    """
    u2, sizes = _doubled_u(a, b)
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    if n > exact_limit:
        raise ExactSizeError(f"pooled size {n} exceeds exact limit {exact_limit}")
    center = n_a * n_b  # doubled null mean
    deviation = abs(u2 - center)
    if deviation == 0:  # every assignment counts; the tails below would overlap
        return Fraction(1)
    packed, slot = _doubled_u_counts(sizes, n_a)
    # Lay the upper tail (slots center + deviation .. 2*center) onto the lower
    # one (slots 0 .. center - deviation), then fold the upper half of the
    # slots onto the lower half until one is left. No slot carries: the sum
    # of all of them is at most C(n, n_a), which fits one slot.
    span = center - deviation + 1
    tails = (packed & ((1 << slot * span) - 1)) + (packed >> slot * (center + deviation))
    while span > 1:
        half = (span + 1) // 2
        tails = (tails & ((1 << slot * half) - 1)) + (tails >> slot * half)
        span = half
    return Fraction(tails, comb(n, n_a))


def approx_p(u: UStat) -> float:
    """Two-sided normal approximation with continuity correction.

    z is clamped at zero, so a U at (or within half a tick of) the null mean
    gives p = 1.0; an all-tied pool has zero variance and also gives 1.0.
    """
    n_a, n_b = u.n_a, u.n_b
    n = n_a + n_b
    mu = n_a * n_b / 2
    tie_sum = sum(t**3 - t for t in u.tie_profile)
    variance = (n_a * n_b / 12) * ((n + 1) - tie_sum / (n * (n - 1)))
    if variance <= 0:
        return 1.0
    z = (abs(u.u_a - mu) - 0.5) / math.sqrt(variance)
    if z < 0:
        z = 0.0
    return math.erfc(z / math.sqrt(2))


def compare_cohorts(
    features_a: Sequence[FeatureVector],
    features_b: Sequence[FeatureVector],
    task: str,
    feature: Feature,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> RankTestResult:
    """Mann-Whitney test on one feature between two cohorts.

    Anomalous files are excluded; vectors with a source are filtered to the
    given task, unlabeled vectors are taken as already filtered. Uses the
    exact p while the pooled size stays within ``exact_limit``, the normal
    approximation beyond it. Raises EmptyCohortError when either side ends up
    empty.
    """
    xs = _extract(features_a, task, feature)
    ys = _extract(features_b, task, feature)
    if not xs or not ys:
        raise EmptyCohortError(
            f"task {task!r}: a cohort is empty after anomaly exclusion"
        )
    u = mann_whitney_u(xs, ys)
    if len(xs) + len(ys) <= exact_limit:
        p: Fraction | float = exact_p(xs, ys, exact_limit)
        method = "exact"
    else:
        p = approx_p(u)
        method = "approx"
    return RankTestResult(
        task=task,
        feature=feature,
        u=u,
        p=p,
        method=method,
        significant=p < ALPHA,
    )


def _extract(vectors: Sequence[FeatureVector], task: str, feature: Feature) -> list[int]:
    out = []
    for v in vectors:
        if v.anomalous:
            continue
        if v.source is not None and v.source.task != task:
            continue
        out.append(v.value(feature))
    return out

"""Rank statistics for comparing feature distributions between two cohorts.

Mann-Whitney U with midranks for ties, kept as integer doubled midranks so
U_A is exact; _doubled_u computes them and sizes the tie groups. On the
exact path compare_cohorts ranks each pool twice, in mann_whitney_u and
again in exact_p, because bench/trace_child.py times and counts the two by
name. Two routes to a two-sided p-value:

* exact_p: the probability, over all C(n_a + n_b, n_a) assignments of the
  pooled values to the two groups, of a U at least as far from the null mean
  n_a * n_b / 2 as observed, as an exact rational. The null distribution
  comes from the shift algorithm of Streitberg & Roehmel (1986) on Python
  integers, which counts the n_a-subsets of any ascending integer scores by
  their sum. One integer per subset size k packs those counts into slots as
  wide as C(n, n_a) in bits. Each score, in ascending order, adds the
  (k-1)-subset counts shifted by it to the k-subset counts; sizes that can
  no longer reach n_a are not updated. exact_p feeds it the doubled midranks.
* approx_p: normal approximation with continuity correction 0.5 and the
  tie-corrected variance n_a*n_b/12 * ((N+1) - sum(t^3 - t) / (N * (N-1))).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import groupby
from math import comb

from .errors import EmptyCohortError, ExactSizeError
from .features import Feature, FeatureVector
from .report import RunConfig

# fixed significance level; exact Fraction so p == 0.05 is never significant
ALPHA = Fraction(1, 20)

DEFAULT_EXACT_LIMIT = RunConfig.exact_limit  # the CLI's default, written once


class UStat(namedtuple("UStat", "u_a u_b n_a n_b tie_profile")):
    """U statistics for both groups (floats) and the group sizes, plus the
    pooled tie structure.

    ``tie_profile`` holds the size of every tie group in the pooled sample,
    in ascending value order; untied values contribute groups of size 1.
    """

    __slots__ = ()


class RankTestResult(namedtuple("RankTestResult", "task feature u p method significant")):
    """One task's test of one Feature: its UStat ``u``, ``p`` (a Fraction
    when ``method`` is "exact", a float when "approx") and whether p < ALPHA."""

    __slots__ = ()


def _doubled_u(a: Sequence, b: Sequence) -> tuple[int, list[int], tuple[int, ...]]:
    """2*U_A = 2*R_A - n_a(n_a+1), exact, every pooled value's doubled
    midrank in ascending order (a tie group of t values after ``before``
    smaller ones scores 2*before + t + 1) and every tie group's size."""
    n_a = len(a)
    if n_a < 1 or len(b) < 1:
        raise ValueError("both groups need at least one value")
    pooled = list(a) + list(b)
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    sizes = [len(list(group)) for _, group in groupby(order, key=pooled.__getitem__)]
    scores: list[int] = []
    for t in sizes:
        scores += [2 * len(scores) + t + 1] * t
    r2_a = sum(score for score, i in zip(scores, order) if i < n_a)
    return r2_a - n_a * (n_a + 1), scores, tuple(sizes)


def mann_whitney_u(a: Sequence, b: Sequence) -> UStat:
    """U for both groups via the rank-sum formula U_A = R_A - n_a(n_a+1)/2."""
    u2, _, sizes = _doubled_u(a, b)
    n_a, n_b = len(a), len(b)
    u_a = u2 / 2
    return UStat(u_a=u_a, u_b=n_a * n_b - u_a, n_a=n_a, n_b=n_b, tie_profile=sizes)


def _subset_sum_counts(scores: Sequence[int], n_a: int) -> tuple[int, int]:
    """How many n_a-subsets of ``scores``, ascending integers, have each sum,
    packed into one integer.

    Slot s of ``dp[k]``, ``slot`` bits wide, counts the k-subsets of the
    scores so far whose sum is s + scores[0] + ... + scores[k-1], the
    smallest sum k of them can have. Score i joins every (k-1)-subset,
    moving it scores[i] - scores[k-1] slots up, never down since i >= k - 1;
    k runs from high to low so that dp[k - 1] still lacks score i. Choosing
    j of t equal scores one at a time counts their C(t, j) ways. Sizes k
    below n_a minus the scores still to come can no longer reach n_a; they
    are neither updated nor read again.

    Each k-subset a kept ``dp[k]`` counts extends to an n_a-subset, so its
    counts sum to at most C(n, n_a), whose bit length is the slot width: no
    count ever spills into the next slot. Returns (packed, slot): slot s of
    ``packed`` counts the n_a-subsets whose sum is s + sum(scores[:n_a]);
    the counts sum to C(n, n_a).
    """
    n = len(scores)
    slot = comb(n, n_a).bit_length()
    dp = [1] + [0] * n_a
    for i, score in enumerate(scores):
        for k in range(min(n_a, i + 1), max(n_a - n + i + 1, 1) - 1, -1):
            dp[k] += dp[k - 1] << slot * (score - scores[k - 1])
    return dp[n_a], slot


def exact_p(a: Sequence, b: Sequence, exact_limit: int = DEFAULT_EXACT_LIMIT) -> Fraction:
    """Exact two-sided p over every group assignment of the pooled values.

    p = P(|U - n_a*n_b/2| >= observed deviation) with ties kept as they are
    in the pooled multiset. Raises ExactSizeError when n_a + n_b exceeds
    ``exact_limit``.
    """
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    if n > exact_limit:
        raise ExactSizeError(f"pooled size {n} exceeds exact limit {exact_limit}")
    u2, scores, _ = _doubled_u(a, b)
    center = n_a * n_b  # doubled null mean
    deviation = abs(u2 - center)
    if deviation == 0:  # every assignment counts; the tails below would overlap
        return Fraction(1)
    packed, slot = _subset_sum_counts(scores, n_a)
    # slot 0 sits at the n_a smallest scores' sum; move it to 2*U_A = 0, a sum of n_a(n_a+1)
    packed <<= slot * (sum(scores[:n_a]) - n_a * (n_a + 1))
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
    empty, naming its cohort when its vectors are labeled and saying whether
    it has no file for the task or only anomalous ones.
    """
    sides = []
    for vectors in (features_a, features_b):
        files = [v for v in vectors if v.source is None or v.source.task == task]
        values = [v.value(feature) for v in files if not v.anomalous]
        if not values:
            raise EmptyCohortError(_empty_side(vectors, files, task))
        sides.append(values)
    xs, ys = sides
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


def _empty_side(vectors: Sequence[FeatureVector], files: list[FeatureVector], task: str) -> str:
    # why a side with these files for task has no values: no file, or only anomalous ones
    cohorts = {v.source.cohort for v in vectors if v.source is not None}
    side = f"cohort {cohorts.pop()!r}" if len(cohorts) == 1 else "a cohort"
    if not files:
        return f"task {task!r}: {side} has no file for it"
    return (f"task {task!r}: {side} is empty after anomaly exclusion: "
            f"all {len(files)} of its files are anomalous")

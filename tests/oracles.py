"""Independent oracles shared by the tests; pytest does not collect this module.

U by its pairwise-win definition, the exact two-sided p by literally
walking every assignment of the pooled values to the two groups, and the
normal approximation's p from its textbook formula.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from statistics import NormalDist


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


def normal_p(a, b):
    # two-sided normal approximation: the tie-corrected variance of U, a
    # continuity correction of one half, and z clamped at zero
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    ties = sum(t**3 - t for t in Counter(list(a) + list(b)).values())
    variance = Fraction(n_a * n_b, 12) * (n + 1 - Fraction(ties, n * (n - 1)))
    if variance <= 0:
        return 1.0
    distance = abs(pairwise_u(a, b) - Fraction(n_a * n_b, 2)) - Fraction(1, 2)
    z = max(float(distance) / math.sqrt(variance), 0.0)
    return 2 * NormalDist().cdf(-z)

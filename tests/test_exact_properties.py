"""Property tests for the exact Mann-Whitney p-value.

``reference_exact_p`` is the dictionary knapsack that the packed-integer
shift algorithm in ``stats._subset_sum_counts`` replaced, kept here as the
oracle: on every generated pair of groups both must return the same
``Fraction``. The pools are drawn tie-heavy and lopsided: ties put many
subsets on one rank sum, so the final counts come closest to filling a slot,
and n_a far from n/2 makes the slot, C(n, n_a) in bits, narrow.
``reference_counts`` also checks ``_subset_sum_counts`` itself, slot by
slot, on the doubled midranks of tie profiles drawn directly, and a
brute-force count over ``itertools.combinations`` checks it on arbitrary
ascending integer scores, negative ones included.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

from hypothesis import example, given, settings, strategies as st

from penair import exact_p
from penair.stats import _subset_sum_counts


def reference_counts(sizes, n_a):
    """(doubled U, count) pairs of the null distribution of 2*U_A."""
    dp = [{} for _ in range(n_a + 1)]
    dp[0][0] = 1
    offset = 0
    for size in sizes:
        m2 = 2 * offset + size + 1
        ndp = [{} for _ in range(n_a + 1)]
        for k, row in enumerate(dp):
            if not row:
                continue
            top = min(size, n_a - k)
            for j in range(top + 1):
                weight = comb(size, j)
                shift = j * m2
                target = ndp[k + j]
                for s2, ways in row.items():
                    key = s2 + shift
                    target[key] = target.get(key, 0) + ways * weight
        dp = ndp
        offset += size
    base = n_a * (n_a + 1)
    return sorted((s2 - base, ways) for s2, ways in dp[n_a].items())


def reference_exact_p(a, b):
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    pooled = sorted(list(a) + list(b))
    value_m2 = {}
    sizes = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1] == pooled[i]:
            j += 1
        value_m2[pooled[i]] = i + j + 2
        sizes.append(j - i + 1)
        i = j + 1
    u2_obs = sum(value_m2[v] for v in a) - n_a * (n_a + 1)
    deviation = abs(u2_obs - n_a * n_b)
    counts = reference_counts(tuple(sizes), n_a)
    extreme = sum(ways for u2, ways in counts if abs(u2 - n_a * n_b) >= deviation)
    return Fraction(extreme, comb(n, n_a))


@st.composite
def pools(draw):
    """Two groups from at most 60 pooled values with heavy ties: a small
    value range, or each side all one value; n_a of 1, n - 1, above n/2, or
    anything in between."""
    n = draw(st.integers(2, 60))
    n_a = draw(st.one_of(
        st.just(1),
        st.just(n - 1),
        st.integers(min(n // 2 + 1, n - 1), n - 1),
        st.integers(1, n - 1),
    ))
    if draw(st.booleans()):
        top = draw(st.integers(0, 6))
        values = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        return values[:n_a], values[n_a:]
    x, y = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return [x] * n_a, [y] * (n - n_a)


@settings(max_examples=300, deadline=None)
@given(pools())
def test_exact_p_matches_reference(groups):
    a, b = groups
    assert exact_p(a, b, exact_limit=60) == reference_exact_p(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_p_matches_reference_untied(data):
    # mostly distinct values: many slots, the widest packed integers
    n = data.draw(st.integers(2, 30))
    n_a = data.draw(st.integers(1, n - 1))
    values = data.draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n))
    a, b = values[:n_a], values[n_a:]
    assert exact_p(a, b, exact_limit=60) == reference_exact_p(a, b)


def unpack(packed, slot, last):
    """{slot index: count} of the nonzero slots 0 .. last of ``packed``,
    after checking that no bit lies above slot ``last``."""
    assert packed >> (slot * (last + 1)) == 0
    mask = (1 << slot) - 1
    counts = {s: (packed >> (slot * s)) & mask for s in range(last + 1)}
    return {s: ways for s, ways in counts.items() if ways}


def assert_counts_match_reference(sizes, n_a):
    """Every slot of ``_subset_sum_counts`` on the profile's doubled midranks
    equals the reference count, no bit lies above the slot of the top
    2*U_A = 2*n_a*n_b, and the counts sum to C(n, n_a)."""
    n = sum(sizes)
    scores = []
    for t in sizes:
        scores += [2 * len(scores) + t + 1] * t
    packed, slot = _subset_sum_counts(scores, n_a)
    # slot s counts the rank sum s + sum(scores[:n_a]); 2*U_A is that sum minus n_a(n_a+1)
    shift = n_a * (n_a + 1) - sum(scores[:n_a])
    counts = unpack(packed, slot, 2 * n_a * (n - n_a) + shift)
    assert counts == {u2 + shift: ways for u2, ways in reference_counts(sizes, n_a)}
    assert sum(counts.values()) == comb(n, n_a)


@st.composite
def tie_profiles(draw):
    """Tie-group sizes and n_a: one tie group, all distinct values up to
    n = 40, or groups of 1 to 5 values up to n = 50; n_a of 1, n - 1, above
    n/2, or anything in between."""
    kind = draw(st.sampled_from(["one group", "distinct", "mixed"]))
    if kind == "one group":
        sizes = (draw(st.integers(2, 50)),)
    elif kind == "distinct":
        sizes = (1,) * draw(st.integers(2, 40))
    else:
        sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=10)))
    n = sum(sizes)
    n_a = draw(st.one_of(
        st.just(1),
        st.just(n - 1),
        st.integers(min(n // 2 + 1, n - 1), n - 1),
        st.integers(1, n - 1),
    ))
    return sizes, n_a


@settings(max_examples=150, deadline=None)
@given(tie_profiles())
def test_subset_sum_counts_match_reference_slot_by_slot(profile):
    assert_counts_match_reference(*profile)


def test_subset_sum_counts_pinned_edges():
    # n = 40 all distinct and split evenly is the widest packed integer above;
    # the last three have C(n, n_a) = 3, 15 and 3, each 2**slot - 1: their
    # counts sum to a full slot
    for sizes, n_a in [((1,) * 40, 20), ((1,) * 40, 1), ((1,) * 40, 39), ((40,), 25),
                       ((3, 1, 4, 1, 5), 9), ((2,) * 10, 13), ((1, 1), 1),
                       ((3,), 1), ((6,), 2), ((1, 2), 1)]:
        assert_counts_match_reference(sizes, n_a)


# (n, n_a) whose counts fill a slot, C(n, n_a) = 2**slot - 1: every such pair
# with n <= 12 and 0 < n_a < n (C = 3, 7 or 15), and two with C = 1
FULL_SLOT = [(3, 1), (3, 2), (6, 2), (6, 4), (7, 1), (7, 6), (5, 0), (5, 5)]


@st.composite
def ascending_scores(draw):
    """Ascending integer scores, negative ones and ties included, n <= 12,
    and a subset size n_a from 0 to n, often one whose counts fill a slot."""
    if draw(st.booleans()):
        n, n_a = draw(st.sampled_from(FULL_SLOT))
    else:
        n = draw(st.integers(1, 12))
        n_a = draw(st.integers(0, n))
    top = draw(st.sampled_from([0, 2, 40]))
    scores = sorted(draw(st.lists(st.integers(-top, top), min_size=n, max_size=n)))
    return scores, n_a


@settings(max_examples=300, deadline=None)
@given(ascending_scores())
@example(([4, 4, 4], 1))  # all three subsets on one sum: a full slot
@example(([-3] * 6, 2))
@example(([-7, -7, 0, 2, 2, 2, 9], 6))
def test_subset_sum_counts_match_brute_force(case):
    scores, n_a = case
    packed, slot = _subset_sum_counts(scores, n_a)
    assert slot == comb(len(scores), n_a).bit_length()
    low, high = sum(scores[:n_a]), sum(scores[len(scores) - n_a:])
    expected = Counter(sum(subset) - low for subset in combinations(scores, n_a))
    assert unpack(packed, slot, high - low) == expected


"""Exact factor-count tallies: sieve route vs trial-division oracle."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primepoisson import (
    CapError,
    CountMode,
    DomainError,
    PrimeSet,
    SetSpec,
    Pmf,
    joint_factor_counts,
    oracle_factor_counts,
    primes_in_interval,
    sieve_primes,
    smooth_part_distribution,
    tv_distance_keys,
)
from primepoisson import factorstats
from primepoisson.primesets import legendre_table


def dspec(*primes):
    return SetSpec(PrimeSet(tuple(sorted(primes))), CountMode.DISTINCT)


def mspec(*primes):
    return SetSpec(PrimeSet(tuple(sorted(primes))), CountMode.WITH_MULTIPLICITY)


def test_distinct_hand_case_inclusion_exclusion():
    # multiples of 2 or 3 up to 100: 50 + 33 - 16 = 67; both: 16; neither: 33
    counts = joint_factor_counts(100, (dspec(2, 3),)).counts
    assert counts == {(0,): 33, (1,): 51, (2,): 16}


def test_multiplicity_hand_cases():
    assert joint_factor_counts(16, (mspec(2),)).counts == {
        (0,): 8, (1,): 4, (2,): 2, (3,): 1, (4,): 1,
    }
    assert joint_factor_counts(8, (mspec(2),)).counts == {
        (0,): 4, (1,): 2, (2,): 1, (3,): 1,
    }


def test_single_multiple_in_range():
    assert joint_factor_counts(30, (dspec(29),)).counts == {(0,): 29, (1,): 1}


def test_x_equals_one_is_all_zeros():
    counts = joint_factor_counts(1, (dspec(2), mspec(3))).counts
    assert counts == {(0, 0): 1}


def test_total_is_x_and_tuples_nonnegative():
    jc = joint_factor_counts(5000, (dspec(2, 3, 5), mspec(7, 11)))
    assert jc.total() == 5000
    assert all(all(k >= 0 for k in key) for key in jc.counts)


def test_oracle_agrees_on_spec_example():
    specs = (dspec(2, 3, 5), mspec(7, 11))
    assert joint_factor_counts(10**4, specs).counts == oracle_factor_counts(10**4, specs).counts


def test_first_moment_identities():
    # sum of distinct counts = sum_p floor(x/p); with multiplicity adds prime powers
    x = 2000
    ps = (2, 3, 5, 7)
    jc = joint_factor_counts(x, (dspec(*ps),))
    total_d = sum(k[0] * c for k, c in jc.counts.items())
    assert total_d == sum(x // p for p in ps)

    jm = joint_factor_counts(x, (mspec(*ps),))
    total_m = sum(k[0] * c for k, c in jm.counts.items())
    expected = 0
    for p in ps:
        q = p
        while q <= x:
            expected += x // q
            q *= p
    assert total_m == expected


def test_marginal_matches_single_set_run():
    specs = (dspec(2, 3), mspec(5))
    jc = joint_factor_counts(3000, specs)
    marg = jc.marginal(1)
    alone = joint_factor_counts(3000, (mspec(5),))
    assert marg == {k[0]: c for k, c in alone.counts.items()}


def test_segment_size_invariance():
    specs = (dspec(2, 3, 5), mspec(7))
    base = joint_factor_counts(10**4, specs, segment_size=1 << 20).counts
    for seg in (64, 1000, 4096):
        assert joint_factor_counts(10**4, specs, segment_size=seg).counts == base


@pytest.mark.parametrize("seg", [7, 128, 1 << 20])
def test_joint_counts_arrays(seg):
    x = 5000
    specs = (dspec(2, 3, 5), mspec(7, 11), dspec(*sieve_primes(3000).primes[5:]))
    jc = joint_factor_counts(x, specs, segment_size=seg)
    assert jc.keys.dtype == np.uint8 and jc.keys.shape == (jc.tallies.size, 3)
    assert jc.tallies.dtype == np.int64 and jc.tallies.sum() == x
    rows = jc.keys.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly increasing, lexicographic
    assert not jc.keys.flags.writeable and not jc.tallies.flags.writeable
    for i in range(3):
        expected: dict = {}
        for key, c in jc.counts.items():
            expected[key[i]] = expected.get(key[i], 0) + c
        assert jc.marginal(i) == expected
    slow = oracle_factor_counts(x, specs)
    assert np.array_equal(slow.keys, jc.keys) and np.array_equal(slow.tallies, jc.tallies)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.randoms(use_true_random=False))
def test_randomized_oracle_equivalence(x, rng):
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 1)
    a, b = sorted(pool[:cut])[: rng.randint(1, 4)], sorted(pool[cut:])[: rng.randint(1, 4)]
    if not a or not b:
        return
    specs = (
        SetSpec(PrimeSet(tuple(sorted(a))), rng.choice(list(CountMode))),
        SetSpec(PrimeSet(tuple(sorted(b))), rng.choice(list(CountMode))),
    )
    specs = tuple(s for s in specs if all(p <= x for p in s.primes))
    if not specs:
        return
    assert joint_factor_counts(x, specs).counts == oracle_factor_counts(x, specs).counts


def test_overlapping_sets_are_counted():
    # disjointness is a hypothesis of Theorems 1 and 2, not a counting rule:
    # a prime in two sets bumps both counts
    specs = (dspec(2, 3), mspec(3, 5))
    jc = joint_factor_counts(100, specs)
    slow = oracle_factor_counts(100, specs)
    assert np.array_equal(jc.keys, slow.keys) and np.array_equal(jc.tallies, slow.tallies)
    twice = joint_factor_counts(100, (dspec(2, 3), dspec(2, 3))).counts
    assert twice == {(0, 0): 33, (1, 1): 51, (2, 2): 16}


def test_validation_messages_name_the_prime():
    with pytest.raises(DomainError, match="prime 11 exceeds x=10"):
        joint_factor_counts(10, (dspec(2, 11, 13),))
    # overlapping sets pass, and every set is still checked against x
    with pytest.raises(DomainError, match="prime 11 exceeds x=10"):
        joint_factor_counts(10, (dspec(3), dspec(3), dspec(11)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=4),
    st.randoms(use_true_random=False),
)
def test_overlapping_random_specs_match_the_oracle(x, m, rng):
    # each prime <= x joins any number of the m sets, so sets overlap below and
    # above sqrt(x), and a prime may sit in every set
    primes = sieve_primes(max(x, 2)).array.tolist()
    sets = [[p for p in primes if p <= x and rng.random() < 0.5] for _ in range(m)]
    specs = tuple(SetSpec(PrimeSet(ps), rng.choice(list(CountMode))) for ps in sets)
    slow = oracle_factor_counts(x, specs)
    for seg in (7, 64, 1 << 20):
        jc = joint_factor_counts(x, specs, segment_size=seg)
        assert np.array_equal(jc.keys, slow.keys) and np.array_equal(jc.tallies, slow.tallies)


def test_prime_above_x_rejected():
    with pytest.raises(DomainError):
        joint_factor_counts(10, (dspec(11),))


def test_caps_refused():
    with pytest.raises(CapError):
        joint_factor_counts(2**40 + 1, (dspec(2),))
    with pytest.raises(CapError):
        joint_factor_counts(100, tuple(dspec(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)))
    with pytest.raises(CapError):
        oracle_factor_counts(10**6 + 1, (dspec(2),))


def test_joint_pmf_normalization():
    jc = joint_factor_counts(100, (dspec(2, 3),))
    probs = jc.tallies / jc.x
    assert jc.keys.tolist() == [[0], [1], [2]]
    assert probs.tolist() == [0.33, 0.51, 0.16]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
    same = tv_distance_keys(jc.keys, probs, [Pmf(probs)])
    assert (same.value, same.uncertainty) == (0.0, 3 * math.ulp(1.0))  # (m + 2) ulp of rounding


def test_smooth_part_hand_case():
    assert smooth_part_distribution(10, 2) == {1: 5, 2: 3, 4: 1, 8: 1}


def test_smooth_part_y_at_least_x_is_identity():
    dist = smooth_part_distribution(20, 20)
    assert dist == {n: 1 for n in range(1, 21)}


def test_smooth_part_is_partition_and_matches_factorization():
    x, y = 500, 7
    dist = smooth_part_distribution(x, y)
    assert sum(dist.values()) == x

    def smooth_part(n):
        s = 1
        for p in (2, 3, 5, 7):
            while n % p == 0:
                n //= p
                s *= p
        return s

    direct: dict = {}
    for n in range(1, x + 1):
        s = smooth_part(n)
        direct[s] = direct.get(s, 0) + 1
    assert dist == direct


# ------------------------------------------------- kernel edge cases vs oracle


def _edge_specs(x):
    """Mixed-mode specs around sqrt(x): one set with members on both sides,
    one whose members all lie above sqrt(x), one of small primes counted with
    multiplicity.  Empty sets are dropped."""
    primes = [p for p in sieve_primes(max(x, 2)).primes if p <= x] or [2, 3]
    small = [p for p in primes if p * p <= x]
    large = [p for p in primes if p * p > x]
    sets = (
        (small[::2] + large[::2], CountMode.DISTINCT),
        (large[1::2], CountMode.WITH_MULTIPLICITY),
        (small[1::2], CountMode.WITH_MULTIPLICITY),
    )
    return tuple(SetSpec(PrimeSet(tuple(sorted(ps))), mode) for ps, mode in sets if ps)


EDGE_XS = [1, 2, 3, 4] + [p * p + d for p in (2, 3, 31, 97) for d in (-1, 0, 1)]


@pytest.mark.parametrize("x", EDGE_XS)
def test_kernel_matches_oracle_at_square_edges(x):
    specs = _edge_specs(x)
    slow = oracle_factor_counts(x, specs).counts
    for seg in (1, 7, 64, 1 << 20):
        if seg == 1 and x > 1000:
            continue  # one pair per block: covered at the smaller squares
        assert joint_factor_counts(x, specs, segment_size=seg).counts == slow, seg


def test_x_below_four_counts_two_as_a_large_prime():
    # sqrt(x) < 2 for x = 2, 3: prime 2 must be counted once, not twice
    for x in (2, 3):
        for mode in CountMode:
            specs = (SetSpec(PrimeSet((2,)), mode), SetSpec(PrimeSet((3,) if x == 3 else ()), mode))
            assert joint_factor_counts(x, specs).counts == oracle_factor_counts(x, specs).counts


@pytest.mark.parametrize("seg", [64, 1 << 20])
def test_large_prime_pass_matches_oracle(seg):
    x = 97 * 97 + 1
    primes = sieve_primes(x).primes
    large = [p for p in primes if p > 97]
    many = (dspec(*primes[:10]), mspec(*large))
    few = (mspec(2, 3, 5), dspec(*large[:3]), dspec(97, large[-1]))
    for specs in (many, few):
        counts = joint_factor_counts(x, specs, segment_size=seg).counts
        assert counts == oracle_factor_counts(x, specs).counts


def test_large_prime_pass_at_one_million_matches_first_moment():
    # (T, complement): the complement's primes above sqrt(x) are counted in bulk by their cofactor
    x = 10**6
    full = sieve_primes(x)
    t = sieve_primes(100)
    specs = (SetSpec(t, CountMode.DISTINCT), SetSpec(full.difference(t), CountMode.DISTINCT))
    counts = joint_factor_counts(x, specs).counts
    assert sum(counts.values()) == x
    assert sum(k[1] * c for k, c in counts.items()) == sum(x // p for p in full.primes if p > 100)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=8),
    st.randoms(use_true_random=False),
)
def test_large_prime_pass_matches_oracle_on_random_specs(x, m, rng):
    # each prime <= x joins one of m sets or none, so sets straddle sqrt(x);
    # node blocks of 1, 7, 64 and isqrt(x) - 1 (node, prime) pairs split the
    # children of one node across blocks
    sets: list[list[int]] = [[] for _ in range(m)]
    for p in sieve_primes(max(x, 2)).primes:
        if p <= x and rng.random() < 0.8:
            sets[rng.randrange(m)].append(p)
    specs = tuple(SetSpec(PrimeSet(tuple(ps)), rng.choice(list(CountMode))) for ps in sets)
    slow = oracle_factor_counts(x, specs)
    for seg in (1, 7, 64, max(1, math.isqrt(x) - 1), 1 << 20):
        if seg == 1 and x > 1000:
            continue  # one pair per block: kept to the smaller x
        jc = joint_factor_counts(x, specs, segment_size=seg)
        assert np.array_equal(jc.keys, slow.keys) and np.array_equal(jc.tallies, slow.tallies), seg


SQUARE_EDGES = [p * p + d for p in sieve_primes(53).primes for d in (-1, 0, 1)]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(SQUARE_EDGES),
    st.integers(min_value=2, max_value=3),
    st.randoms(use_true_random=False),
)
def test_shared_large_primes_match_the_oracle(x, m, rng):
    # x at a prime square or one off it; the first prime above sqrt(x) is in
    # every set and each other prime joins each set with chance 1/2, so the
    # large primes fall into increment groups of one, two and three sets;
    # node blocks of 1, 7 and 64 pairs split the children of one node
    root = math.isqrt(x)
    primes = sieve_primes(x).array.tolist()
    first = next(p for p in primes if p > root)
    sets = [[p for p in primes if p == first or rng.random() < 0.5] for _ in range(m)]
    specs = tuple(SetSpec(PrimeSet(ps), rng.choice(list(CountMode))) for ps in sets)
    steps = factorstats._plan(x, specs)[2]  # the increment groups' key increments
    assert any(bin(int(d)).count("1") == m for d in steps)
    slow = oracle_factor_counts(x, specs)
    for seg in (1, 7, 64):
        jc = joint_factor_counts(x, specs, segment_size=seg)
        assert np.array_equal(jc.keys, slow.keys) and np.array_equal(jc.tallies, slow.tallies), seg


# --------------------------------------------- seeded faults vs the invariants


def _lower_end_off_by_one(bulk):
    """_bulk counting the primes in [lo, x // m]: q = lo is counted too."""
    return lambda pi, m, t, lo: bulk(pi, m, t, lo - 1)


def _unclipped(bulk):
    """_bulk without its clip: where x // m < lo, pi_G(x // m) - pi_G(lo) is negative."""

    def faulty(pi, m, t, lo):
        r = pi.shape[0] // 2
        counts = pi[np.where(t <= r, t, 2 * r + 1 - m)] - pi[lo]
        rows, cols = np.nonzero(counts)
        return rows, cols, counts[rows, cols]

    return faulty


def _skipped_power(plan):
    """_plan whose further powers add nothing: e stops at 1 in multiplicity mode."""

    def faulty(*args):
        small, pi, steps, one, more = plan(*args)
        return small, pi, steps, one, 0 * more

    return faulty


def _dropped_group(plan):
    """_plan without its last increment group: those primes never count."""

    def faulty(*args):
        small, pi, steps, one, more = plan(*args)
        return small, pi[:, :-1], steps[:-1], one, more

    return faulty


FAULT_X = 20000
FAULTS = {
    "lower-end": ("_bulk", _lower_end_off_by_one),
    "unclipped": ("_bulk", _unclipped),
    "power": ("_plan", _skipped_power),
    "group": ("_plan", _dropped_group),
}


def _fault_specs(x):
    # primes <= 2 sqrt(x) with multiplicity and primes in (sqrt(x), x] distinct:
    # groups of set 0 alone, of both sets and of set 1 alone, across sqrt(x)
    root = math.isqrt(x)
    return (
        SetSpec(sieve_primes(2 * root), CountMode.WITH_MULTIPLICITY),
        SetSpec(primes_in_interval(root, x), CountMode.DISTINCT),
    )


@pytest.mark.parametrize("x", [FAULT_X, 10**7])
@pytest.mark.parametrize("fault", FAULTS)
def test_seeded_node_faults_are_caught(fault, x):
    # _tally is the route without the checks: each fault changes its counts,
    # and the total, tally or first-moment check refuses them
    target, seed = FAULTS[fault]
    specs = _fault_specs(x)
    clean = factorstats._tally(x, specs, 1 << 12)
    with mock.patch.object(factorstats, target, seed(getattr(factorstats, target))):
        keys, tallies = factorstats._tally(x, specs, 1 << 12)
        with pytest.raises(RuntimeError, match="total|tally|first moment"):
            joint_factor_counts(x, specs)
    assert not (np.array_equal(keys, clean[0]) and np.array_equal(tallies, clean[1]))


def test_smooth_parts_above_sqrt_x_match_factorization():
    # y > sqrt(x): the smooth part takes the cofactor when that is <= y;
    # blocks of 3 (p, k) pairs split the slices of one k in smooth_parts
    x, y = 3000, 300
    primes = sieve_primes(y).primes

    def smooth_part(n):
        s = 1
        for p in primes:
            while n % p == 0:
                n //= p
                s *= p
        return s

    direct: dict = {}
    for s in map(smooth_part, range(1, x + 1)):
        direct[s] = direct.get(s, 0) + 1
    assert smooth_part_distribution(x, y) == direct
    with mock.patch.object(factorstats, "_BLOCK", 3):
        assert smooth_part_distribution(x, y) == direct


def _counts_off_the_table(x, primes):
    """{s: count} from smooth_parts, and R as a dict over V off legendre_table:
    R(v) = 1 + S(v) - #{p in primes : p <= v}, exact at every v."""
    parts, counts = map(np.concatenate, zip(*factorstats.smooth_parts(x, primes)))
    v, s = legendre_table(x, primes)
    rough = 1 + s - np.searchsorted(primes, v, "right")
    return dict(zip(parts.tolist(), counts.tolist())), dict(zip(v.tolist(), rough.tolist()))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 3000),
    st.integers(0, 12),
    st.sampled_from(["last", "next", "free"]),
    st.integers(0, 2 * 10**5),
)
def test_smooth_part_counts_are_read_off_the_legendre_table(y, a, target, x):
    # the parts with x // s <= primes[-1] get count 1 without the table; each
    # count must still be R(x // s).  "last" and "next" put x // s = primes[-1]
    # and the next prime on the part 2^a; y prime or composite, below or
    # above sqrt(x) (the k-major branch)
    primes = sieve_primes(2 * y + 10).array
    last, nxt = primes[primes <= y][-1], primes[primes > y][0]
    if target != "free":
        x = (1 << a) * int(last if target == "last" else nxt) + x % (1 << a)
    assume(y <= x <= 2 * 10**5)
    counts, table = _counts_off_the_table(x, factorstats.smooth_primes(x, y))
    assert counts == {s: table[x // s] for s in counts}
    if target != "free":
        assert counts[1 << a] == (1 if target == "last" else 2)


def test_a_count_of_1_from_one_prime_too_early_fails_the_total():
    # the fault: every part with x // s <= 1013, the least prime above y, read
    # as count 1, as if the table were read only for s <= x // (1013 + 1).  The
    # part 1010 has x // s = 1013, whose count is 2, so the total falls short
    x, y = 1013 * 1010, 1009
    primes = factorstats.smooth_primes(x, y)
    counts, _ = _counts_off_the_table(x, primes)
    assert counts[1010] == 2

    def faulty(x, primes):  # S = pi(y), so that R(t) = S(t) + 1 - pi(y) reads 1
        v, s = legendre_table(x, primes)
        s[(v > primes[-1]) & (v <= 1013)] = primes.size
        return v, s

    with mock.patch.object(factorstats, "legendre_table", faulty):
        with pytest.raises(RuntimeError, match="total"):
            list(factorstats.smooth_parts(x, primes))


# ----------------------------------------------------------- segment_size


@pytest.mark.parametrize("seg", [0, -5])
def test_segment_size_below_one_is_a_domain_error(seg):
    with pytest.raises(DomainError, match="segment_size"):
        joint_factor_counts(100, (dspec(2),), segment_size=seg)

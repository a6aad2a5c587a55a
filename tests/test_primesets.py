"""Prime enumeration, harmonic sums, and doubly exponential cutoffs."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primepoisson import (
    DomainError,
    PrimeSet,
    count_primes,
    expexp_block,
    expexp_cutoff,
    harmonic_sums,
    is_prime,
    primes_in_interval,
    sieve_primes,
)


def naive_primes(limit):
    """Trial-division oracle, independent of the sieve."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def test_sieve_small():
    assert sieve_primes(10).primes == (2, 3, 5, 7)
    assert sieve_primes(2).primes == (2,)


def test_sieve_matches_trial_division():
    for limit in [2, 3, 4, 30, 97, 100, 541, 1000]:
        assert list(sieve_primes(limit)) == naive_primes(limit)


def test_prime_count_at_one_million():
    assert count_primes(10**6) == 78498
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_rejects_tiny_limit():
    with pytest.raises(DomainError):
        sieve_primes(1)


def test_interval_small():
    assert primes_in_interval(10, 30).primes == (11, 13, 17, 19, 23, 29)


def test_interval_empty_at_a_point():
    assert primes_in_interval(13, 13).primes == ()


def test_interval_agrees_with_sieve():
    lo, hi = 500, 2000
    expected = tuple(p for p in sieve_primes(hi) if p > lo)
    assert primes_in_interval(lo, hi).primes == expected


def test_is_prime_spans_table_boundary():
    # the implementation switches strategy above its cached table; straddle it
    for n in [2, 3, 4, 2**21 - 1, 2**21, 2**21 + 19, 2_097_593]:
        d = 2
        truth = n >= 2
        while d * d <= n:
            if n % d == 0:
                truth = False
                break
            d += 1
        assert is_prime(n) == truth, n


def test_primality_is_refused_at_the_certified_bound():
    # psi_12 is a strong pseudoprime to all twelve bases 2..37
    psi12 = 399165290221 * 798330580441
    for check in (is_prime, lambda n: PrimeSet((n,))):
        with pytest.raises(DomainError, match="certified primality bound"):
            check(psi12)
    big = 2**64 + 13  # a prime far above the table, below the bound
    assert is_prime(big) and PrimeSet((2, big)).primes == (2, big)


def test_harmonic_hand_case():
    hs = harmonic_sums(PrimeSet((2, 3, 5)))
    assert hs.h == pytest.approx(31 / 30, abs=1e-15)
    assert hs.h1 == 1.75
    assert hs.h2 == pytest.approx(1 / 4 + 1 / 9 + 1 / 25, abs=1e-15)


def test_harmonic_empty_set():
    hs = harmonic_sums(PrimeSet(()))
    assert (hs.h, hs.h1, hs.h2) == (0.0, 0.0, 0.0)


def test_harmonic_primes_up_to_100_high_precision():
    ps = sieve_primes(100)
    with mpmath.workdps(60):
        expected = float(mpmath.fsum(mpmath.mpf(1) / p for p in ps))
    hs = harmonic_sums(ps)
    assert hs.h == pytest.approx(expected, abs=1e-15)
    assert round(hs.h, 6) == 1.802817


@given(st.sets(st.sampled_from(naive_primes(300)), min_size=0, max_size=20))
def test_harmonic_sum_ordering(primes):
    hs = harmonic_sums(PrimeSet(tuple(sorted(primes))))
    assert 0 <= hs.h <= hs.h1
    assert hs.h1 <= hs.h + 2 * hs.h2 + 1e-15


@given(
    st.sets(st.sampled_from(naive_primes(300)), min_size=0, max_size=15),
    st.sets(st.sampled_from(naive_primes(300)), min_size=0, max_size=15),
)
def test_harmonic_additive_over_disjoint_sets(a, b):
    b = b - a
    hs_a = harmonic_sums(PrimeSet(tuple(sorted(a))))
    hs_b = harmonic_sums(PrimeSet(tuple(sorted(b))))
    hs_ab = harmonic_sums(PrimeSet(tuple(sorted(a | b))))
    assert hs_ab.h == pytest.approx(hs_a.h + hs_b.h, abs=1e-14)
    assert hs_ab.h1 == pytest.approx(hs_a.h1 + hs_b.h1, abs=1e-14)
    assert hs_ab.h2 == pytest.approx(hs_a.h2 + hs_b.h2, abs=1e-14)


def test_expexp_cutoffs():
    assert [expexp_cutoff(k) for k in range(5)] == [
        2,
        15,
        1618,
        528491311,
        514843556263457213182265,
    ]


def test_expexp_cutoff_matches_direct_formula():
    for k in range(4):
        assert expexp_cutoff(k) == int(math.floor(math.exp(math.exp(k))))


def test_expexp_block_one():
    block = expexp_block(1)
    assert block.primes == primes_in_interval(15, 1618).primes
    assert block.primes[0] == 17 and block.primes[-1] == 1613


def test_prime_set_validation():
    with pytest.raises(DomainError):
        PrimeSet((4,))
    with pytest.raises(DomainError):
        PrimeSet((3, 2))
    with pytest.raises(DomainError):
        PrimeSet((2, 2))
    # a non-integral member is refused by name, not truncated to an integer
    for members, bad in [((2.0, 3.7), "2.0"), (np.array([2.9, 5.2]), "2.9"), ([2, "3"], "3")]:
        with pytest.raises(DomainError, match=f"^prime set members must be integers, got {bad}$"):
            PrimeSet(members)


def test_the_sieve_output_is_not_validated_again(monkeypatch):
    from primepoisson import primesets

    checked = []
    check = primesets._check_members
    monkeypatch.setattr(primesets, "_check_members", lambda arr: checked.append(arr.size) or check(arr))
    ps = sieve_primes(10**7)
    assert len(ps) == 664_579 and not ps.array.flags.writeable
    assert len(primes_in_interval(10**6, 2 * 10**6)) == 70_435
    assert checked == []
    with pytest.raises(DomainError, match="^4 is not prime$"):
        PrimeSet([4])
    assert checked == [1]


def test_prime_set_membership_and_difference():
    ps = sieve_primes(30)
    assert 29 in ps and 28 not in ps
    rest = ps.difference(PrimeSet((2, 3, 5)))
    assert rest.primes == (7, 11, 13, 17, 19, 23, 29)


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=500))
def test_interval_decomposes_sieve(mid):
    full = sieve_primes(1000)
    low = sieve_primes(mid) if mid >= 2 else PrimeSet(())
    high = primes_in_interval(mid, 1000)
    assert low.primes + high.primes == full.primes


# ------------------------------------------------- validation above 2^21


def test_dense_block_above_table_is_sieved_and_names_the_composite():
    # the block comes from the sieve; as a PrimeSet each member is checked again
    block = primes_in_interval(2**21, 2**21 + 200_000).primes
    assert PrimeSet(block).primes == block
    # 2^21 + 1 = 3 * 699051; 1451 * 1453 has no factor below 1451
    for composite in (2**21 + 1, 1451 * 1453):
        with pytest.raises(DomainError, match=f"^{composite} is not prime$"):
            PrimeSet(tuple(sorted(block + (composite,))))


def test_sparse_members_above_table_use_miller_rabin(monkeypatch):
    from primepoisson import primesets

    monkeypatch.setattr(primesets, "_sieve", lambda *a: pytest.fail("a 10^9 span must not be sieved"))
    assert PrimeSet((1000000007, 2000000011)).primes == (1000000007, 2000000011)
    assert PrimeSet((3, 4294967311)).primes == (3, 4294967311)  # a prime above 2^32
    # 151 * 751 * 28351: a strong pseudoprime to bases 2, 3, 5 and 7
    with pytest.raises(DomainError, match="^3215031751 is not prime$"):
        PrimeSet((1000000007, 3215031751))


def test_order_errors_name_the_offending_members():
    with pytest.raises(DomainError, match="got 1000000007 after 2000000011"):
        PrimeSet((2000000011, 1000000007))
    with pytest.raises(DomainError, match="got 1000000007 after 1000000007"):
        PrimeSet((2, 1000000007, 1000000007))
    with pytest.raises(DomainError, match="got 3 after 2097169"):
        PrimeSet((2097169, 3))
    with pytest.raises(DomainError, match="got 1 after 1"):
        PrimeSet((1, 1))
    # a member below 2 in order is refused as not prime, and never indexes the table
    for members, bad in [((1,), 1), ((0,), 0), ((-3, 2), -3), ((-(2**62), -5, 2), -(2**62))]:
        with pytest.raises(DomainError, match=f"^{bad} is not prime$"):
            PrimeSet(members)


def test_count_primes_across_segment_sizes(monkeypatch):
    from primepoisson import primesets

    for seg in (1, 7, 64):
        monkeypatch.setattr(primesets, "SEGMENT_SIZE", seg)
        assert len(list(primesets._sieve(1, 1000))) == -(-499 // seg)  # the odd 3..999
        assert sieve_primes(1000).primes == tuple(naive_primes(1000))
        for lo in range(-1, 5):  # ends around 1, which is not prime, and 2, which no segment holds
            for hi in range(lo, 61):
                got = primesets.prime_array(lo, hi)
                assert got.dtype == np.int64, (seg, lo, hi)
                assert got.tolist() == [p for p in naive_primes(hi) if p > lo], (seg, lo, hi)
    assert count_primes(1000) == 168
    assert count_primes(1) == count_primes(0) == count_primes(-7) == 0


# sha256 of the byte table below 2^21; a sieve over every integer gave these bytes too
PRIME_TABLE_SHA256 = "f70b83240417cca1ce717ab62764a7cc2c5f63a98accd6ef7c7f2da2f980749a"


def test_the_byte_table_is_pinned():
    from primepoisson import primesets

    assert hashlib.sha256(primesets._prime_table()).hexdigest() == PRIME_TABLE_SHA256


PRIME_SQUARES = [p * p + d for p in (2, 3, 5, 7, 11, 31, 997, 1009) for d in (-1, 0, 1)]
# x = c^3 is where the Legendre table's last lone prime step meets its batch
CUBES = [c**3 + d for c in (2, 3, 4, 5, 7, 10, 12, 101, 113, 125) for d in (-1, 0, 1)]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.integers(0, 4),
        st.sampled_from(PRIME_SQUARES),
        st.sampled_from(CUBES),
        st.integers(0, 2 * 10**6),
    )
)
def test_count_primes_is_the_length_of_the_sieve(n):
    assert count_primes(n) == (len(sieve_primes(n)) if n >= 2 else 0)


def lucy_counts(x, primes):
    """S(v) for v = 0..x, the m in [2, v] that are prime or have no listed
    factor, off a sieve that strikes the listed primes' multiples but not the
    primes: the oracle of legendre_table, with no recursion."""
    kept = np.ones(x + 1, dtype=bool)
    kept[:2] = False
    for p in primes:
        kept[2 * p :: p] = False
    return np.cumsum(kept)


def table_values(x):
    """V: [0, r], then x // d for d = r..1."""
    r = math.isqrt(x)
    return [*range(r + 1), *(x // d for d in range(r, 0, -1))]


def icbrt(x):
    c = round(x ** (1 / 3))
    while c**3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def prime_list_ends(x):
    """Prime lists ending just below, at (if prime) and just above the
    integer cube root and square root of x."""
    primes = naive_primes(1000)
    for a in (icbrt(x), math.isqrt(x)):
        yield [p for p in primes if p < a]
        yield [p for p in primes if p <= a]
        yield [p for p in primes if p <= a] + [min(p for p in primes if p > a)]


# cubes of primes and of composites, prime squares, each with its neighbours
LEGENDRE_X = sorted(
    {c**3 + d for c in range(2, 59) for d in (-1, 0, 1)}
    | {p * p + d for p in naive_primes(447) for d in (-1, 0, 1)}
)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LEGENDRE_X), st.integers(0, 5))
@example(26, 4)  # 3^3 - 1, the list ending at sqrt(x): 3 and 5 in one step
@example(27, 4)  # 3^3: 3 alone, then 5
@example(1331, 1)  # 11^3
@example(1728, 2)  # 12^3, a composite cube
@example(12167, 4)  # 23^3, the list ending at sqrt(x)
@example(195112, 0)  # 58^3
def test_legendre_table_matches_a_brute_count(x, which):
    from primepoisson.primesets import legendre_table

    primes = list(prime_list_ends(x))[which]
    v, s = legendre_table(x, np.array(primes, dtype=np.int64))
    assert v.tolist() == table_values(x)
    assert s.tolist() == lucy_counts(x, primes)[v].tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20000))
@example(0)
@example(1)
@example(2)
@example(3)
def test_legendre_table_is_pi_over_v_when_sieved_to_the_root(x):
    from primepoisson.primesets import legendre_table, prime_array

    v, s = legendre_table(x, prime_array(1, math.isqrt(x)))
    pi = np.cumsum(np.isin(np.arange(x + 1), naive_primes(x)))  # S(0) = pi(0) = 0
    assert v.tolist() == table_values(x)
    assert s.tolist() == pi[v].tolist()


def test_count_primes_reads_the_legendre_table(monkeypatch):
    from primepoisson import primesets

    sieved, sieve = [], primesets._sieve

    def spy(lo, hi):
        sieved.append(hi)
        return sieve(lo, hi)

    monkeypatch.setattr(primesets, "_sieve", spy)
    assert count_primes(10**9) == 50_847_534
    assert count_primes(10**10) == 455_052_511
    assert max(sieved) == 10**5  # only the base primes <= sqrt(limit) are sieved


def test_a_sieve_end_over_30_digits_is_named_by_its_digit_count():
    from primepoisson.primesets import _name

    assert _name(10**30 - 1) == "9" * 30
    for k in (31, 100, 4301, 9566):  # next to a power of ten, where log10 may round
        assert (_name(10 ** (k - 1)), _name(10**k - 1)) == (f"of {k} digits",) * 2


def test_count_primes_over_the_x_cap_is_refused_before_any_work(monkeypatch):
    from primepoisson import CapError, primesets

    def no_work(*args):
        raise AssertionError(f"sieved or tabled {args[:1]} before the cap check")

    for name in ("_sieve", "prime_array", "legendre_table"):
        monkeypatch.setattr(primesets, name, no_work)
    with pytest.raises(CapError, match="exceeds the cap of 2\\^40"):
        count_primes(2**50)
    with pytest.raises(CapError):
        count_primes(2**40 + 1)


# ------------------------------------------- validation on the member array

PSI12 = 399165290221 * 798330580441
# a dense run of primes across the table's edge 2^21, from the sieve
EDGE_RUN = primes_in_interval(2**21 - 2000, 2**21 + 30_000).primes
# far-apart members (Miller-Rabin) at and past 2^53 and 2^63, and psi_12 itself
SPARSE = (1000000007, 2**53 - 111, 2**53 + 5, 2**61 - 1, 2**63 - 25, 2**63 + 29, 2**64 + 13, PSI12)
# 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
COMPOSITES = (0, 1, 4, 2**21 - 1, 2**21 + 1, 1451 * 1453, 3215031751, 2**53 + 1, 2**63 + 1, 2**64 + 1)


def oracle_refusal(members):
    """The message a PrimeSet of members must be refused with, or None,
    found member by member."""
    prev = None
    for p in members:
        if prev is not None and p <= prev:
            return f"primes must be strictly increasing, got {p} after {prev}"
        prev = p
    if members and members[-1] >= PSI12:
        return f"{members[-1]} is at or above the certified primality bound {PSI12}"
    return next((f"{p} is not prime" for p in members if not is_prime(p)), None)


def input_forms(members):
    """The same members as a tuple, a list and integer arrays (an object
    array when a member does not fit int64, uint64 when every member fits
    it, so a member >= 2^63 must not wrap negative)."""
    forms = [tuple(members), list(members)]
    if all(-(2**63) <= p < 2**63 for p in members):
        forms.append(np.array(members, dtype=np.int64))
        if all(-(2**31) <= p < 2**31 for p in members):
            forms.append(np.array(members, dtype=np.int32))
    else:
        forms.append(np.array(members, dtype=object))
    if all(0 <= p < 2**64 for p in members):
        forms.append(np.array(members, dtype=np.uint64))
    return forms


def assert_matches_oracle(members):
    expected = oracle_refusal(members)
    built = []
    for form in input_forms(members):
        try:
            ps = PrimeSet(form)
        except DomainError as e:
            assert str(e) == expected, form.dtype if isinstance(form, np.ndarray) else type(form)
            continue
        assert expected is None, type(form)
        assert ps.primes == tuple(members) and all(type(p) is int for p in ps.primes)
        assert ps.array.tolist() == list(members) and not ps.array.flags.writeable
        built.append(ps)
    # every input form gives the same set: equal, with one hash
    assert all(ps == built[0] and hash(ps) == hash(built[0]) for ps in built)


def validation_route(monkeypatch, members):
    """Which checks validated the members above 2^21: 'mr' (Miller-Rabin),
    'sieve' (any sieve run) or 'table' (neither)."""
    from primepoisson import primesets

    primesets._prime_table()  # built once, so its own sieve is not counted as a route
    used = set()

    def spy(name, fn):
        def wrapped(*args):
            used.add(name)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(primesets, "_sieve", spy("sieve", primesets._sieve))
    monkeypatch.setattr(primesets, "is_prime", spy("mr", primesets.is_prime))
    assert_matches_oracle(members)
    monkeypatch.undo()
    return "+".join(sorted(used)) or "table"


VALIDATION_CASES = {
    "empty": ((), "table"),
    "repeat in the table": ((2, 3, 3), "table"),
    "repeat in a sieved run": (EDGE_RUN[:1500] + EDGE_RUN[1499:1600], "table"),
    "out of order across 2^21": ((2097169, 2097143), "table"),
    "out of order past 2^64": ((2**64 + 13, 2**63 + 29), "table"),
    "zero": ((0, 2), "table"),
    "composite below 2^21": ((2, 3, 2**21 - 1), "table"),
    "primes across 2^21, sieved": (EDGE_RUN, "mr"),
    "composite in a sieved run": (tuple(sorted(EDGE_RUN[:1500] + (2**21 + 1,))), "mr"),
    "sparse pair across 2^21": ((2097143, 2097169), "mr"),
    "pseudoprime, Miller-Rabin": ((1000000007, 3215031751), "mr"),
    "members past 2^53": ((3, 2**53 - 111, 2**53 + 5), "mr"),
    "composite past 2^53": ((3, 2**53 + 1), "mr"),
    "members past 2^63": ((2**61 - 1, 2**63 - 25, 2**63 + 29, 2**64 + 13), "mr"),
    "members past 2^63, below 2^64": ((3, 2**63 - 25, 2**63 + 29), "mr"),
    "composite past 2^64": ((2**63 + 29, 2**64 + 1), "mr"),
    "psi_12": ((2, PSI12), "table"),
}


@pytest.mark.parametrize("case", list(VALIDATION_CASES))
def test_validation_matches_the_oracle_on_both_routes(monkeypatch, case):
    members, route = VALIDATION_CASES[case]
    assert validation_route(monkeypatch, list(members)) == route


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_validation_matches_a_per_member_oracle(data):
    start = data.draw(st.integers(0, len(EDGE_RUN)), label="start")
    length = data.draw(st.sampled_from([0, 1, 3, 30, 300, 2000]), label="run length")
    extra = data.draw(st.sets(st.sampled_from(SPARSE + COMPOSITES), max_size=4), label="extra")
    members = sorted(set(EDGE_RUN[start : start + length]) | extra)
    for fault in data.draw(st.lists(st.sampled_from(["repeat", "swap"]), max_size=2), label="faults"):
        if members:
            i = data.draw(st.integers(0, len(members) - 1))
            j = min(i + 1, len(members) - 1)
            if fault == "repeat":
                members.insert(i, members[i])
            else:
                members[i], members[j] = members[j], members[i]
    assert_matches_oracle(members)


def test_set_does_not_follow_later_writes_to_its_input():
    for dtype in (np.int64, np.int32):
        source = np.array(EDGE_RUN[:100], dtype=dtype)
        ps = PrimeSet(source)
        source[:] = 4
        assert ps.primes == EDGE_RUN[:100] and ps.array.tolist() == list(EDGE_RUN[:100])
        with pytest.raises(ValueError):
            ps.array[0] = 4


def test_equality_hash_and_repr_follow_the_members():
    a, b = sieve_primes(100), PrimeSet(sieve_primes(100).primes)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a == PrimeSet(list(a)) == PrimeSet(a.array.astype(np.uint64)) == PrimeSet(a.array[::-1][::-1])
    # same size, first and last member (one hash), other members: not equal
    c, d = PrimeSet((2, 3, 5, 97)), PrimeSet((2, 3, 7, 97))
    assert hash(c) == hash(d) and c != d and a != c
    assert PrimeSet(()) == PrimeSet(np.zeros(0, dtype=np.int64)) != PrimeSet((2,))
    assert a != a.primes and a.primes == sieve_primes(100).primes


def test_sieves_refuse_an_end_past_the_certified_bound_before_sieving(monkeypatch):
    from primepoisson import primesets

    class Reached(Exception):
        pass

    def no_sieve(*args):
        raise Reached(args)

    monkeypatch.setattr(primesets, "_sieve", no_sieve)
    refused = [
        lambda: sieve_primes(PSI12),
        lambda: primes_in_interval(10**20, PSI12 + 1),
        lambda: expexp_block(3),  # (t_3, t_4], t_4 ~ 5.1e23
        lambda: primesets.prime_array(1, PSI12),  # the end is checked before the span
    ]
    for call in refused:
        with pytest.raises(DomainError, match="upper end .* certified primality bound"):
            call()
    with pytest.raises(Reached):  # one below the bound goes on to the sieve
        primes_in_interval(PSI12 - 100, PSI12 - 1)


def test_prime_array_refuses_a_span_over_the_cap_before_sieving(monkeypatch):
    from primepoisson import CapError, primesets
    from primepoisson.primesets import MAX_SPAN, prime_array

    class Reached(Exception):
        pass

    def no_sieve(*args):
        raise Reached(args)

    monkeypatch.setattr(primesets, "_sieve", no_sieve)
    span = rf"^prime list \(1, {MAX_SPAN + 2}\] spans {MAX_SPAN + 1} integers"
    with pytest.raises(CapError, match=span):
        prime_array(1, MAX_SPAN + 2)
    with pytest.raises(CapError, match="over the cap of 2\\^30$"):
        sieve_primes(10**12)
    with pytest.raises(Reached):  # a span of exactly 2^30 goes on to the sieve
        prime_array(1, MAX_SPAN + 1)


# ----------------------------------------------- harmonic sums, bit for bit


def fsum_reference(members):
    return (
        math.fsum(1.0 / p for p in members),
        math.fsum(1.0 / (p - 1) for p in members),
        math.fsum(1.0 / (p * p) for p in members),
    )


HARMONIC_CASES = {
    "empty": (),
    "primes to 1e5": sieve_primes(10**5).primes,
    "p*p across 2^53": primes_in_interval(94906265 - 3000, 94906265 + 3000).primes,
    "p*p across 2^63": primes_in_interval(3037000499 - 3000, 3037000499 + 3000).primes,
    "members past 2^53": (2, 3, 2**53 - 111, 2**53 + 5, 2**61 - 1),
    "members past 2^63": (2**53 + 5, 2**63 - 25, 2**63 + 29, 2**64 + 13),
    "long set with big members": sieve_primes(20_000).primes + (2**53 + 5, 2**63 + 29, 2**64 + 13),
}


@pytest.mark.parametrize("case", list(HARMONIC_CASES))
def test_harmonic_sums_equal_fsum_bit_for_bit(case):
    members = HARMONIC_CASES[case]
    hs = harmonic_sums(PrimeSet(members))
    assert [v.hex() for v in (hs.h, hs.h1, hs.h2)] == [v.hex() for v in fsum_reference(members)]


HARMONIC_POOL = sorted(
    set(naive_primes(300))
    | set(HARMONIC_CASES["p*p across 2^53"][::7])
    | set(HARMONIC_CASES["p*p across 2^63"][::7])
    | set(HARMONIC_CASES["members past 2^63"])
    | {2**61 - 1, 2**53 - 111}
)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(HARMONIC_POOL), max_size=60))
def test_harmonic_sums_equal_fsum_on_random_sets(members):
    members = tuple(sorted(members))
    hs = harmonic_sums(PrimeSet(members))
    assert (hs.h, hs.h1, hs.h2) == fsum_reference(members)


def test_difference_keeps_order():
    full = sieve_primes(10**4)
    rest = full.difference(PrimeSet((2, 97, 9973, 2**64 + 13)))
    assert rest.primes == tuple(p for p in full.primes if p not in (2, 97, 9973))
    assert rest.array.tolist() == list(rest.primes)
    big = PrimeSet((3, 2**63 + 29, 2**64 + 13))
    assert big.difference(PrimeSet((2**63 + 29,))).primes == (3, 2**64 + 13)
    assert big.difference(PrimeSet((2**63 + 29, 2**64 + 13))).array.dtype == np.int64
    assert full.difference(PrimeSet(())) == full


def test_difference_of_an_int64_set_is_not_validated_again(monkeypatch):
    from primepoisson import primesets

    checked = []
    check = primesets._check_members
    monkeypatch.setattr(primesets, "_check_members", lambda arr: checked.append(arr.size) or check(arr))
    full, small = sieve_primes(10**6), PrimeSet((2, 3, 2**64 + 13))
    assert checked == [3]
    rest = full.difference(small)
    assert len(rest) == 78_496 and rest.array.dtype == np.int64 and not rest.array.flags.writeable
    assert full.difference(PrimeSet(())) == full and full.difference(full) == PrimeSet(())
    assert checked == [3, 0, 0]  # the operands built here, none of the differences
    # an object array still goes through PrimeSet, which narrows it to int64
    assert small.difference(PrimeSet((2**64 + 13,))).array.dtype == np.int64
    assert checked[-1] == 2

"""Independent-factor model: exact laws, generating functions, model-vs-truth TV."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from primepoisson import (
    CountMode,
    DomainError,
    PrimeSet,
    harmonic_sums,
    model_exact_pmf,
    model_tv_exact,
    sieve_primes,
    smooth_part_distribution,
)
from primepoisson import kubilius
from primepoisson.dist import Pmf, TvResult
from primepoisson.kubilius import SERIES_RADIUS


def test_distinct_two_primes_hand_case():
    pmf = model_exact_pmf(PrimeSet((2, 3)), CountMode.DISTINCT)
    assert pmf.prob(0) == pytest.approx(1 / 3, abs=1e-15)
    assert pmf.prob(1) == pytest.approx(1 / 2, abs=1e-15)
    assert pmf.prob(2) == pytest.approx(1 / 6, abs=1e-15)
    assert pmf.tail_bound == 0.0


def test_multiplicity_single_prime_is_geometric():
    pmf = model_exact_pmf(PrimeSet((3,)), CountMode.WITH_MULTIPLICITY)
    for k in range(min(len(pmf), 12)):
        assert pmf.prob(k) == pytest.approx((2 / 3) * (1 / 3) ** k, abs=1e-15)
    assert pmf.tail_bound <= 1e-12


def subset_enumeration_distinct(primes):
    """Oracle: P(count = k) = sum over k-subsets of prod 1/p * prod (1-1/q)."""
    primes = list(primes)
    out = [0.0] * (len(primes) + 1)
    for bits in itertools.product([0, 1], repeat=len(primes)):
        prob = 1.0
        for b, p in zip(bits, primes):
            prob *= (1 / p) if b else (1 - 1 / p)
        out[sum(bits)] += prob
    return out


@settings(max_examples=30, deadline=None)
@given(st.sets(st.sampled_from(sieve_primes(200).primes), min_size=1, max_size=8))
def test_distinct_matches_subset_enumeration(primes):
    ps = PrimeSet(tuple(sorted(primes)))
    pmf = model_exact_pmf(ps, CountMode.DISTINCT)
    oracle = subset_enumeration_distinct(ps.primes)
    assert len(pmf) == len(oracle)
    for k, expected in enumerate(oracle):
        assert pmf.prob(k) == pytest.approx(expected, abs=1e-12)


def test_means_match_harmonic_sums():
    ps = sieve_primes(50)
    hs = harmonic_sums(ps)
    dist = model_exact_pmf(ps, CountMode.DISTINCT)
    assert dist.mean() == pytest.approx(hs.h, abs=1e-12)
    mult = model_exact_pmf(ps, CountMode.WITH_MULTIPLICITY, 1e-14)
    assert mult.mean() == pytest.approx(hs.h1, abs=1e-10)


def test_mgf_product_identities_spot_checks():
    ps = PrimeSet((2, 3, 7, 11))
    dist = model_exact_pmf(ps, CountMode.DISTINCT)
    mult = model_exact_pmf(ps, CountMode.WITH_MULTIPLICITY, 1e-14)
    for z in (0.0, 0.5, -1.0, 1.9, 0.3 + 1.2j):
        expected_u = 1.0
        for p in ps:
            expected_u *= 1 + (z - 1) / p
        assert dist.series(z) == pytest.approx(expected_u, abs=1e-12)
        if abs(z) <= 1.9:
            expected_w = 1.0
            for p in ps:
                expected_w *= (p - 1) / (p - z)
            assert mult.series(z) == pytest.approx(expected_w, abs=1e-9)


def _shift_add(a, b):
    """Row i is the polynomial product of rows a[i] and b[i], summed in
    falling order of b's index: one shift-add per coefficient of b."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for j in reversed(range(b.shape[1])):
        out[:, j : j + a.shape[1]] += a * b[:, j, None]
    return out


def untrimmed_distinct_pmf(primes):
    """Reference: the same pairwise products of the Bernoulli(1/p) rows, kept
    at every index up to |T|, zero tail included.  Adjacent rows are
    multiplied pair by pair (an odd last row times the unit 1), level by
    level."""
    block = np.array([[1.0 - 1.0 / p, 1.0 / p] for p in primes.primes])
    while len(block) > 1:
        if len(block) % 2:
            block = np.vstack([block, np.eye(1, block.shape[1])])
        block = _shift_add(block[0::2], block[1::2])
    return block[0]


def test_a_law_that_fails_its_own_mass_check_is_an_internal_error(monkeypatch):
    times, panjer = kubilius._times, kubilius._panjer
    monkeypatch.setattr(kubilius, "_times", lambda a, b: times(a, b) * 0.999)
    monkeypatch.setattr(kubilius, "_panjer", lambda *args: (panjer(*args)[0] * 0.999, panjer(*args)[1]))
    for mode in CountMode:
        with pytest.raises(RuntimeError, match="^the model law failed its own check: Pmf mass"):
            model_exact_pmf(PrimeSet((2, 3, 5)), mode)
    # the same array from a caller is bad input
    with pytest.raises(DomainError, match="^Pmf mass"):
        Pmf(np.array([0.999]))


@pytest.mark.parametrize("mode", CountMode)
def test_the_empty_set_is_the_point_mass_at_zero(mode):
    pmf = model_exact_pmf(PrimeSet(()), mode)
    assert pmf.probs.tolist() == [1.0] and pmf.tail_bound == 0.0


PRIMES_TO_20000 = list(sieve_primes(20_000).primes)


# no shrink phase: shrinking a failing set of up to 2,262 primes, each step with
# an untrimmed reference, ran for over 10 minutes; unshrunk, a failure shows in seconds
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(1, len(PRIMES_TO_20000)), st.randoms(use_true_random=False))
def test_trimmed_law_is_the_untrimmed_prefix(size, rng):
    # sets of a few thousand primes underflow far before index |T|
    ps = PrimeSet(tuple(sorted(rng.sample(PRIMES_TO_20000, size))))
    pmf = model_exact_pmf(ps, CountMode.DISTINCT)
    ref = untrimmed_distinct_pmf(ps)
    n = len(pmf)
    assert pmf.probs.tobytes() == ref[:n].tobytes()
    assert not ref[n:].any()
    assert pmf.tail_bound == 0.0
    assert pmf.probs[-1] != 0.0


@pytest.mark.parametrize("mode, support", [(CountMode.DISTINCT, 180)])
def test_support_ends_at_the_last_nonzero_entry(mode, support):
    # the untrimmed law had 9,593 entries
    assert len(model_exact_pmf(sieve_primes(10**5), mode)) == support


@pytest.mark.parametrize("tail_eps, cut", [(1e-12, 727), (1e-6, 448)])
def test_multiplicity_law_stops_at_its_series_cut(tail_eps, cut):
    # the per-prime truncation depths stored 890 entries at 1e-12
    pmf = model_exact_pmf(sieve_primes(10**5), CountMode.WITH_MULTIPLICITY, tail_eps)
    assert len(pmf) == cut
    assert pmf.probs.min() > 0.0


PRIMES_TO_3000 = sieve_primes(3000).primes
SCALE = 2**1074  # every finite float times this is an integer


def exact_law(rows):
    """The exact product of the float factor rows, as Fractions: every float
    is an integer over SCALE, so the product is an integer polynomial over
    SCALE^len(rows), convolved in object (Python int) arithmetic."""
    acc = np.array([1], dtype=object)
    for row in rows:
        acc = np.convolve(acc, np.array([int(Fraction(x) * SCALE) for x in row], dtype=object))
    denominator = SCALE ** len(rows)
    return [Fraction(int(c), denominator) for c in acc]


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(PRIMES_TO_3000), min_size=1, max_size=40))
def test_law_matches_the_exact_product_of_its_rows(primes):
    ps = PrimeSet(sorted(primes))
    pmf = model_exact_pmf(ps, CountMode.DISTINCT)
    exact = exact_law([[1.0 - 1.0 / p, 1.0 / p] for p in ps.primes])
    computed = pmf.probs.tolist() + [0.0] * (len(exact) - len(pmf))
    errors = [Fraction(c) - e for c, e in zip(computed, exact, strict=True)]
    for k, (err, e) in enumerate(zip(errors, exact)):
        if e > 1e-250:
            assert abs(err) <= 1e-13 * e, (k, float(err / e))
    assert float(sum(map(abs, errors))) <= 1e-15


def multiplicity_oracle(primes, n, bits):
    """The exact multiplicity law at `bits` of precision: the first n
    coefficients of prod (1 - 1/p)/(1 - z/p), each geometric series
    multiplied in as the running sums g_k += g_(k-1)/p; the mass past n;
    and sum_(k>=n) g_k 1.9^k, the series tail on the circle |z| = 1.9."""
    with mpmath.workprec(bits):
        g = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1)
        for p in primes:
            for k in range(1, n):
                g[k] += g[k - 1] / p
        g = [mpmath.fprod(1 - mpmath.mpf(1) / p for p in primes) * v for v in g]
        radius = mpmath.mpf(SERIES_RADIUS)
        series = mpmath.fprod((p - 1) / (p - radius) for p in primes)
        series_tail = series - mpmath.fsum(v * radius**k for k, v in enumerate(g))
        return g, 1 - mpmath.fsum(g), series_tail


# no shrink phase: each shrink step reruns the mpmath oracle, so a broken
# recursion took 3 minutes to fail with shrinking and 2 seconds without
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    st.booleans(),
    st.sets(st.sampled_from(PRIMES_TO_3000[1:]), max_size=12),
    st.sampled_from([1e-6, 1e-12, 1e-14]),
)
def test_multiplicity_law_matches_an_mpmath_oracle(with_two, rest, tail_eps):
    primes = sorted(rest | ({2} if with_two else set()))
    assume(primes)
    pmf = model_exact_pmf(PrimeSet(primes), CountMode.WITH_MULTIPLICITY, tail_eps)
    # 200 bits past the tail bound's scale, so the missing mass is resolved too
    bits = 200 - min(0, math.frexp(pmf.tail_bound)[1])
    exact, missing, series_tail = multiplicity_oracle(primes, len(pmf), bits)
    for k, (c, e) in enumerate(zip(pmf.probs.tolist(), exact)):
        if e > 1e-250:
            assert abs(c - e) <= 1e-14 * e, (k, float(abs(c - e) / e))
    assert pmf.tail_bound >= missing
    assert series_tail <= tail_eps


def test_radius_validation():
    with pytest.raises(DomainError):
        model_exact_pmf(PrimeSet((2,)), CountMode.WITH_MULTIPLICITY, tail_eps=0.0)


def test_model_tv_dyadic_hand_case():
    res = model_tv_exact(10, 2)
    assert res.value == 0.0875
    assert res.uncertainty == 0.0


def test_model_tv_sanity_mode_y_equals_x():
    res = model_tv_exact(100, 100)
    assert 0.0 < res.value < 1.0


def _trial_smooth_tally(x, y):
    """{y-smooth part: count} over n <= x, each n factored by trial division."""
    tally = {}
    for n in range(1, x + 1):
        s, m, d = 1, n, 2
        while d * d <= m:
            while m % d == 0:
                m //= d
                s *= d if d <= y else 1
            d += 1
        s *= m if 1 < m <= y else 1
        tally[s] = tally.get(s, 0) + 1
    return tally


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_streamed_smooth_parts_match_trial_division(data):
    x = data.draw(st.integers(2, 3000), label="x")
    root = math.isqrt(x)
    if root >= 2 and data.draw(st.booleans(), label="y <= sqrt(x)"):
        y = data.draw(st.integers(2, root), label="y")
    else:
        y = data.draw(st.integers(max(2, root + 1), x), label="y")
    tally = _trial_smooth_tally(x, y)
    dist = smooth_part_distribution(x, y)
    assert dist == tally
    assert sum(dist.values()) == x
    # the model side per part, with the same float expression as the library
    parts = np.array(list(tally), dtype=float)
    log_c = math.fsum(math.log1p(-1.0 / p) for p in sieve_primes(y).primes)
    gap = np.array(list(tally.values())) / float(x) - np.exp(log_c - np.log(parts))
    assert model_tv_exact(x, y).value == min(1.0, math.fsum(gap[gap > 0.0].tolist()))


def test_model_tv_refuses_before_sieving(monkeypatch):
    from primepoisson import CapError, factorstats, primesets

    def no_work(*args):
        raise AssertionError(f"sieved or tabled {args[:1]} before the request was checked")

    for module, name in [(factorstats, "prime_array"), (factorstats, "legendre_table"), (primesets, "_sieve")]:
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(CapError):
        model_tv_exact(2**40 + 1, 2**40 + 1)
    with pytest.raises(DomainError):
        model_tv_exact(5, 10)
    # the Psi guard lists the primes <= y, then refuses before the table
    monkeypatch.undo()
    monkeypatch.setattr(factorstats, "legendre_table", no_work)
    with pytest.raises(CapError, match="Rankin's bound allows 1.35e\\+11 smooth parts"):
        model_tv_exact(2**40, 1000)


def test_the_psi_guard_judges_a_large_y_before_sieving_it(monkeypatch):
    from primepoisson import CapError, factorstats

    ends, listed = [], factorstats.prime_array

    def spy(lo, hi):
        ends.append(hi)
        return listed(lo, hi)

    monkeypatch.setattr(factorstats, "prime_array", spy)
    # the bound over the primes <= 2^20 is at most the one over the primes <= y
    with pytest.raises(CapError, match="allows at least 1.26e\\+13 smooth parts"):
        model_tv_exact(2**40, 2**28)
    assert ends == [2**20]


def test_the_psi_guard_passes_every_desk_request():
    from primepoisson import factorstats

    # Rankin's bound grows with x and y; at (1e8, 1000) it is 1.96e8, against
    # Psi(1e8, 1000) = 11,298,170 and the cap of 1e9
    assert math.exp(factorstats._log_rankin(10**8, sieve_primes(1000).array)) < 2e8
    assert factorstats.smooth_primes(10**8, 1000).size == 168
    assert factorstats.smooth_primes(2**40, 100).size == 25  # Rankin 8.3e8, under the cap


def test_smooth_pass_checks_its_total(monkeypatch):
    from primepoisson import factorstats, primesets

    def skips_three(x, primes):  # the table misses 3's update: a broken kernel
        return primesets.legendre_table(x, primes[primes != 3])

    monkeypatch.setattr(factorstats, "legendre_table", skips_three)
    with pytest.raises(RuntimeError, match="total"):
        model_tv_exact(1000, 10)


# model_tv_exact before the Legendre table, (x, y, repr of the value): y below,
# at and just above sqrt(x), and y = x
PINNED_MODEL_TV = [
    (10, 2, 0.0875),
    (100, 10, 0.1667456718136991),
    (100, 11, 0.21740227019138583),
    (100, 100, 0.6292386929822004),
    (1000, 31, 0.23851650623722648),
    (1000, 37, 0.259881129634215),
    (1000, 1000, 0.7159682175603406),
    (10**4, 100, 0.25388937150998786),
    (10**4, 101, 0.2623830797059015),
    (10**5, 100, 0.13814593698155833),
    (10**5, 317, 0.29174053305361763),
    (10**6, 10, 0.0003599339674755392),
    (10**6, 1000, 0.3094261373259263),
    (10**6, 1009, 0.31026806050294325),
    (10**6, 10**6, 0.8291961919320129),
    (2**20, 1024, 0.3102992775948418),
    (10**7, 1000, 0.20997489787443593),
    (10**7, 3163, 0.32566728919829097),
]


@pytest.mark.parametrize("x, y, value", PINNED_MODEL_TV)
def test_model_tv_is_pinned(x, y, value):
    assert model_tv_exact(x, y) == TvResult(value=value, uncertainty=0.0)


def test_model_tv_domain_checks():
    with pytest.raises(DomainError):
        model_tv_exact(10, 1)
    with pytest.raises(DomainError):
        model_tv_exact(5, 10)

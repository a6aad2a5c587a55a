"""Independent-factor model: exact laws, generating functions, model-vs-truth TV."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from primepoisson.kubilius import _exponent_cutoff


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


def untrimmed_model_pmf(primes, mode, tail_eps):
    """Reference: the sequential convolution that keeps every index up to the
    sum of the truncation depths, zero tail included."""
    ps = tuple(primes.primes)
    acc, dropped = np.array([1.0]), []
    for p in ps:
        if mode is CountMode.DISTINCT:
            acc = np.convolve(acc, [1.0 - 1.0 / p, 1.0 / p])
            continue
        cutoff = _exponent_cutoff(p, len(ps), tail_eps)
        acc = np.convolve(acc, (1.0 - 1.0 / p) * np.power(1.0 / p, np.arange(cutoff + 1)))
        dropped.append(float(p) ** (-(cutoff + 1)))
    return acc, math.fsum(dropped)


PRIMES_TO_20000 = list(sieve_primes(20_000).primes)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(CountMode),
    st.integers(1, len(PRIMES_TO_20000)),
    st.randoms(use_true_random=False),
    st.sampled_from([1e-12, 1e-6, 1e-14]),
)
def test_trimmed_law_is_the_untrimmed_prefix(mode, size, rng, tail_eps):
    # sets of a few thousand primes underflow far before the sum of the depths
    ps = PrimeSet(tuple(sorted(rng.sample(PRIMES_TO_20000, size))))
    pmf = model_exact_pmf(ps, mode, tail_eps)
    ref, ref_tail = untrimmed_model_pmf(ps, mode, tail_eps)
    n = len(pmf)
    assert pmf.probs.tobytes() == ref[:n].tobytes()
    assert not ref[n:].any()
    assert pmf.tail_bound == ref_tail
    assert pmf.probs[-1] != 0.0


@pytest.mark.parametrize(
    "mode, support", [(CountMode.WITH_MULTIPLICITY, 887), (CountMode.DISTINCT, 179)]
)
def test_support_ends_at_the_last_nonzero_entry(mode, support):
    # the untrimmed laws had 42,128 and 9,593 entries
    assert len(model_exact_pmf(sieve_primes(10**5), mode)) == support


@pytest.mark.parametrize("tail_eps", [1e-12, 1e-6])
def test_grouped_factor_rows_equal_the_per_prime_rows(monkeypatch, tail_eps):
    ps = sieve_primes(10**5)
    rows, convolve = [], np.convolve
    monkeypatch.setattr(np, "convolve", lambda acc, row: rows.append(row) or convolve(acc, row))
    model_exact_pmf(ps, CountMode.WITH_MULTIPLICITY, tail_eps)
    monkeypatch.undo()
    assert len(rows) == len(ps)
    for p, row in zip(ps.primes, rows):
        q, c = 1.0 / p, _exponent_cutoff(p, len(ps), tail_eps)
        assert row.tobytes() == ((1 - q) * np.power(q, np.arange(c + 1))).tobytes(), p


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
    seg = data.draw(st.sampled_from(([1] if x <= 962 else []) + [7, 64, 1 << 20]), label="seg")
    tally = _trial_smooth_tally(x, y)
    dist = smooth_part_distribution(x, y, segment_size=seg)
    assert dist == tally
    assert sum(dist.values()) == x
    # the model side per part, with the same float expression as the library
    parts = np.array(list(tally), dtype=float)
    log_c = math.fsum(math.log1p(-1.0 / p) for p in sieve_primes(y).primes)
    gap = np.array(list(tally.values())) / float(x) - np.exp(log_c - np.log(parts))
    assert model_tv_exact(x, y).value == min(1.0, math.fsum(gap[gap > 0.0].tolist()))


def test_model_tv_refuses_before_sieving(monkeypatch):
    from primepoisson import CapError, kubilius

    def no_sieve(*bounds):
        raise AssertionError(f"sieved {bounds} before the request was checked")

    monkeypatch.setattr(kubilius, "prime_array", no_sieve)
    with pytest.raises(CapError):
        model_tv_exact(2**40 + 1, 2**40 + 1)
    with pytest.raises(DomainError):
        model_tv_exact(5, 10)


def test_smooth_pass_checks_its_total(monkeypatch):
    from primepoisson import factorstats

    def squarefree_part(seg_lo, seg_hi, primes):  # drops prime powers: a broken kernel
        acc = np.ones(seg_hi - seg_lo + 1, dtype=np.int64)
        for p in primes:
            acc[-seg_lo % p :: p] *= p
        return acc

    monkeypatch.setattr(factorstats, "_small_part", squarefree_part)
    with pytest.raises(RuntimeError, match="total"):
        model_tv_exact(1000, 10)


def test_model_tv_domain_checks():
    with pytest.raises(DomainError):
        model_tv_exact(10, 1)
    with pytest.raises(DomainError):
        model_tv_exact(5, 10)

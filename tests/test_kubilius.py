"""Independent-factor model: exact laws, generating functions, model-vs-truth TV."""

import itertools
import math
from fractions import Fraction

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
from primepoisson.dist import DEFAULT_TAIL_EPS, Pmf
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


def _shift_add(a, b):
    """Row i is the polynomial product of rows a[i] and b[i], summed in
    falling order of b's index: one shift-add per coefficient of b."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for j in reversed(range(b.shape[1])):
        out[:, j : j + a.shape[1]] += a * b[:, j, None]
    return out


def untrimmed_model_pmf(primes, mode, tail_eps):
    """Reference: the same pairwise products, kept at every index up to the
    sum of the truncation depths, zero tail included.  The rows of a run of
    equal depth are multiplied adjacent pair by adjacent pair (an odd last
    row times the unit 1), level by level, and the run products are folded
    into the law in turn."""
    ps = primes.primes
    rows, dropped = [], []
    for p in ps:
        if mode is CountMode.DISTINCT:
            rows.append(np.array([1.0 - 1.0 / p, 1.0 / p]))
            continue
        cutoff = _exponent_cutoff(p, len(ps), tail_eps)
        rows.append((1.0 - 1.0 / p) * np.power(1.0 / p, np.arange(cutoff + 1)))
        dropped.append(float(p) ** (-(cutoff + 1)))
    acc = None
    for _, run in itertools.groupby(rows, key=len):
        block = np.array(list(run))
        while len(block) > 1:
            if len(block) % 2:
                block = np.vstack([block, np.eye(1, block.shape[1])])
            block = _shift_add(block[0::2], block[1::2])
        acc = block if acc is None else _shift_add(acc, block)
    return acc[0], math.fsum(dropped)


def test_a_law_that_fails_its_own_mass_check_is_an_internal_error(monkeypatch):
    times = kubilius._times
    monkeypatch.setattr(kubilius, "_times", lambda a, b: times(a, b) * 0.999)
    for mode in CountMode:
        with pytest.raises(RuntimeError, match="^the model law failed its own check: Pmf mass"):
            model_exact_pmf(PrimeSet((2, 3, 5)), mode)
    # the same array from a caller is bad input
    with pytest.raises(DomainError, match="^Pmf mass"):
        Pmf(np.array([0.999]))


PRIMES_TO_20000 = list(sieve_primes(20_000).primes)


# no shrink phase: shrinking a failing set of up to 2,262 primes, each step with
# an untrimmed reference, ran for over 10 minutes; unshrunk, a failure shows in seconds
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
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
    "mode, support", [(CountMode.WITH_MULTIPLICITY, 890), (CountMode.DISTINCT, 180)]
)
def test_support_ends_at_the_last_nonzero_entry(mode, support):
    # the untrimmed laws had 42,128 and 9,593 entries
    assert len(model_exact_pmf(sieve_primes(10**5), mode)) == support


@pytest.mark.parametrize("tail_eps", [1e-12, 1e-6])
def test_grouped_factor_rows_equal_the_per_prime_rows(monkeypatch, tail_eps):
    ps = sieve_primes(10**5)
    seen, factor_blocks = [], kubilius._factor_blocks
    monkeypatch.setattr(
        kubilius, "_factor_blocks", lambda *args: seen.append(factor_blocks(*args)) or seen[-1]
    )
    model_exact_pmf(ps, CountMode.WITH_MULTIPLICITY, tail_eps)
    monkeypatch.undo()
    [(blocks, tail_bound)] = seen
    cutoffs = [_exponent_cutoff(p, len(ps), tail_eps) for p in ps.primes]
    # one block per run of equal cutoff, its rows in the order of the primes
    assert [len(block) for block in blocks] == [len(list(r)) for _, r in itertools.groupby(cutoffs)]
    rows = [row for block in blocks for row in block]
    for p, c, row in zip(ps.primes, cutoffs, rows, strict=True):
        q = 1.0 / p
        assert row.tobytes() == ((1 - q) * np.power(q, np.arange(c + 1))).tobytes(), p
    assert tail_bound == math.fsum(float(p) ** -(c + 1) for p, c in zip(ps.primes, cutoffs))


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
@given(
    st.sampled_from(CountMode),
    st.sets(st.sampled_from(PRIMES_TO_3000[:15]), max_size=4),
    st.sets(st.sampled_from(PRIMES_TO_3000), max_size=40),
)
def test_law_matches_the_exact_product_of_its_rows(mode, small, rest):
    # small primes give wide rows and runs of their own in multiplicity mode
    assume(small or rest)
    ps = PrimeSet(sorted(small | rest))
    pmf = model_exact_pmf(ps, mode)
    blocks, _ = kubilius._factor_blocks(ps, mode, DEFAULT_TAIL_EPS)
    exact = exact_law([row.tolist() for block in blocks for row in block])
    computed = pmf.probs.tolist() + [0.0] * (len(exact) - len(pmf))
    errors = [Fraction(c) - e for c, e in zip(computed, exact, strict=True)]
    for k, (err, e) in enumerate(zip(errors, exact)):
        if e > 1e-250:
            assert abs(err) <= 1e-13 * e, (k, float(err / e))
    assert float(sum(map(abs, errors))) <= 1e-15


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

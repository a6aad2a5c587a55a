"""The Kubilius model: independent prime-exponent variables approximating
the exponent vector of a uniform random integer n <= x.

For each prime p the model exponent X_p has P(X_p = k) = p^(-k) * (1 - 1/p).
The number of primes of a set T that "divide" the model integer is then a sum
of independent Bernoulli(1/p) indicators, and the total exponent count over T
is a sum of the X_p themselves.  Both laws are computed exactly by sequential
convolution, and their stored support ends at the last nonzero entry; the
model-vs-truth total variation over exponent vectors is summed over the
y-smooth parts of n <= x, streamed one segment at a time.
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from .dist import DEFAULT_TAIL_EPS, Pmf, TvResult, exact_sum
from .errors import DomainError
from .factorstats import CountMode, iter_smooth_parts
from .primesets import PrimeSet, prime_array

# Exponent pmfs are truncated deep enough that the stored coefficients double
# as the factor's power series on the disc |z| <= SERIES_RADIUS, which is what
# the generating-function identities need checked at their domain edge.
SERIES_RADIUS = 1.9


def _exponent_cutoff(p: int, n_sets: int, tail_eps: float) -> int:
    """Truncation depth for the factor at p: smallest k with
    (SERIES_RADIUS/p)^k below tail_eps / n_sets.  SERIES_RADIUS < 2 <= p, so
    the ratio is below 1 and the depth is finite."""
    return max(1, math.ceil(math.log(tail_eps / n_sets) / math.log(SERIES_RADIUS / p)))


def model_exact_pmf(
    primes: PrimeSet,
    mode: CountMode,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> Pmf:
    """Exact model law of the factor count over a prime set.

    One factor law per prime, convolved in turn: Bernoulli(1/p) in distinct
    mode (tail_bound 0), or the geometric-type exponent law truncated at a
    certified depth in multiplicity mode (tail_bound the exact dropped mass
    sum(p^-(cutoff+1))).  After each convolution the trailing entries that
    underflowed to exactly 0.0 are dropped, so the stored support ends at the
    last nonzero entry (at most |T| in distinct mode) and no mass moves.
    """
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")
    inv = 1.0 / primes.array.astype(np.float64)
    if mode is CountMode.DISTINCT:
        factors = np.stack([1.0 - inv, inv], axis=1)
        tail_bound = 0.0
    else:
        ps = primes.array.tolist()
        cutoffs = [_exponent_cutoff(p, len(ps), tail_eps) for p in ps]
        factors, start = [], 0
        for c, run in groupby(cutoffs):  # one np.power per run of equal cutoffs, a row per prime
            stop = start + sum(1 for _ in run)
            q = inv[start:stop, None]
            rows = np.power(q, np.arange(c + 1))
            rows *= 1.0 - q  # the same product as (1 - q) * q^k, without a second table
            factors.extend(rows)
            start = stop
        tail_bound = math.fsum(float(p) ** (-(c + 1)) for p, c in zip(ps, cutoffs))

    acc = np.ones(1)
    for factor in factors:
        acc = np.convolve(acc, factor)
        end = acc.size
        while acc[end - 1] == 0.0:  # stops at acc[0], a product of the 1 - 1/p > 0
            end -= 1
        acc = acc[:end]
    return Pmf(acc, tail_bound)


def model_tv_exact(x: int, y: int) -> TvResult:
    """Total variation between the true exponent vector of a uniform n <= x
    (restricted to primes <= y) and the model vector.

    Exponent vectors over primes <= y correspond bijectively to y-smooth
    parts s, with model probability (1/s) * prod_{p <= y} (1 - 1/p).  The TV
    sums max(0, P_true(s) - P_model(s)) over the observed parts, fed to
    dist.exact_sum one segment at a time.  The value is the correctly rounded
    sum of these float terms, but uncertainty 0.0 does not bound their
    rounding ("Honest rounding", ROADMAP.md).
    """
    runs = iter_smooth_parts(x, y)  # checks x and y before the sieve below
    log_c = math.fsum(math.log1p(-1.0 / p) for p in prime_array(1, y).tolist())
    gaps = (c / float(x) - np.exp(log_c - np.log(s.astype(float))) for s, c in runs)
    value = exact_sum(gap[gap > 0.0] for gap in gaps)
    return TvResult(value=min(value, 1.0), uncertainty=0.0)

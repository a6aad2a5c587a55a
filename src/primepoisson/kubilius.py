"""The Kubilius model: independent prime-exponent variables approximating
the exponent vector of a uniform random integer n <= x.

For each prime p the model exponent X_p has P(X_p = k) = p^(-k) * (1 - 1/p).
The number of primes of a set T that "divide" the model integer is then a sum
of independent Bernoulli(1/p) indicators, and the total exponent count over T
is a sum of the X_p themselves.  Both laws are computed exactly by sequential
convolution; the model-vs-truth total variation over exponent vectors is
summed over the y-smooth parts of n <= x, streamed one segment at a time.
"""

from __future__ import annotations

import math

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

    Distinct mode convolves the Bernoulli(1/p) indicator laws (exact support
    0..|T|, tail_bound 0).  Multiplicity mode convolves the geometric-type
    exponent laws, each truncated at a certified depth; tail_bound aggregates
    the exact per-factor dropped mass sum(p^-(cutoff+1)).
    """
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")
    ps = tuple(primes.primes)
    if not ps:
        return Pmf(np.ones(1), 0.0)

    if mode is CountMode.DISTINCT:
        acc = np.array([1.0])
        for p in ps:
            acc = np.convolve(acc, [1.0 - 1.0 / p, 1.0 / p])
        return Pmf(acc, 0.0)

    acc = np.array([1.0])
    dropped = []
    for p in ps:
        cutoff = _exponent_cutoff(p, len(ps), tail_eps)
        factor = (1.0 - 1.0 / p) * np.power(1.0 / p, np.arange(cutoff + 1))
        acc = np.convolve(acc, factor)
        dropped.append(float(p) ** (-(cutoff + 1)))
    return Pmf(acc, math.fsum(dropped))


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

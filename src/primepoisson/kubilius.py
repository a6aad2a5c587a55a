"""The Kubilius model: independent prime-exponent variables approximating
the exponent vector of a uniform random integer n <= x.

For each prime p the model exponent X_p has P(X_p = k) = p^(-k) * (1 - 1/p).
The number of primes of a set T that "divide" the model integer is then a sum
of independent Bernoulli(1/p) indicators, and the total exponent count over T
is a sum of the X_p themselves.  Both laws are computed exactly as pairwise
products of the per-prime factor polynomials, taken level by level over
blocks of equal length, and their stored support ends at the last nonzero
entry; the model-vs-truth total variation over exponent vectors is summed
over the y-smooth parts of n <= x, streamed one segment at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, repeat

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


def _factor_blocks(
    primes: PrimeSet, mode: CountMode, tail_eps: float
) -> tuple[list[np.ndarray], float]:
    """The factor rows of the model law, one row per prime, stacked into 2-D
    blocks of equal width, and the exact mass the truncation drops.

    Distinct mode has one |T| x 2 block of Bernoulli(1/p) rows and drops
    nothing.  Multiplicity mode has one block per run of equal truncation
    depth c, rows (1 - 1/p) p^-k for k <= c, and drops sum(p^-(c+1)).  The
    depth is non-increasing in p, so each run ends where a bisection with
    the scalar depth finds it.
    """
    fp = primes.array.astype(np.float64)
    inv = 1.0 / fp
    if mode is CountMode.DISTINCT:
        rows = np.stack([1.0 - inv, inv], axis=1)
        return ([rows] if len(rows) else []), 0.0  # an empty set has no factor
    ps = fp.tolist()

    def neg_depth(p: float) -> int:  # non-decreasing in p, as bisect needs
        return -_exponent_cutoff(p, len(ps), tail_eps)

    blocks, dropped, start = [], [], 0
    while start < len(ps):
        c = _exponent_cutoff(ps[start], len(ps), tail_eps)
        stop = bisect_right(ps, -c, lo=start, key=neg_depth)
        q = inv[start:stop, None]
        rows = np.power(q, np.arange(c + 1))
        rows *= 1.0 - q  # the same product as (1 - q) * q^k, without a second table
        blocks.append(rows)
        dropped.append(map(pow, ps[start:stop], repeat(-(c + 1))))
        start = stop
    return blocks, math.fsum(chain.from_iterable(dropped))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column i of the result is the product of the polynomials in columns
    a[:, i] and b[:, i], coefficient k in row k.  One shift-add per
    coefficient of b, the highest first: every entry sums its terms from 0.0
    in falling order of b's index, so the small terms of a fast-decaying b
    come first, and a zero row trailing either factor adds only +0.0, so
    trimming it first changes no bit."""
    la = len(a)
    out = np.zeros((la + len(b) - 1, a.shape[1]))
    for j in range(len(b) - 1, -1, -1):
        out[j : j + la] += a * b[j]
    return out


def _trim(cols: np.ndarray) -> np.ndarray:
    """Drop the trailing rows that are zero in every column.  Row 0 holds
    products of the 1 - 1/p > 0, so it is never dropped."""
    nonzero = cols.any(axis=1)
    return cols[: nonzero.size - np.argmax(nonzero[::-1])]


def _block_product(block: np.ndarray) -> np.ndarray:
    """Product of a block's factor rows, as one trimmed column: adjacent
    factors are multiplied pairwise, level by level, an odd last factor
    times the unit polynomial 1."""
    cols = np.ascontiguousarray(block.T)  # coefficient k of every factor in row k
    while cols.shape[1] > 1:
        if cols.shape[1] % 2:
            cols = np.hstack([cols, np.eye(len(cols), 1)])
        # each half copied to contiguous rows: the shift-add's loops run faster on them
        evens, odds = np.ascontiguousarray(cols[:, 0::2]), np.ascontiguousarray(cols[:, 1::2])
        cols = _trim(_times(evens, odds))
    return cols


def model_exact_pmf(
    primes: PrimeSet,
    mode: CountMode,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> Pmf:
    """Exact model law of the factor count over a prime set.

    One factor law per prime: Bernoulli(1/p) in distinct mode (tail_bound
    0), or the geometric-type exponent law truncated at a certified depth in
    multiplicity mode (tail_bound the exact dropped mass sum(p^-(cutoff+1))).
    The factors of each block of equal depth are multiplied as pairwise
    products, level by level, and the block products are folded in turn.
    After each product the trailing entries that underflowed to exactly 0.0
    are dropped, so the stored support ends at the last nonzero entry (at
    most |T| in distinct mode) and no mass moves.  A law that fails the Pmf
    mass check is the program's fault, not the caller's: RuntimeError.
    """
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")
    blocks, tail_bound = _factor_blocks(primes, mode, tail_eps)
    products = map(_block_product, blocks)
    acc = next(products, np.ones((1, 1)))
    for product in products:
        acc = _trim(_times(acc, product))
    try:
        return Pmf(acc[:, 0], tail_bound)
    except DomainError as e:
        raise RuntimeError(f"the model law failed its own check: {e}") from None


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

"""The Kubilius model: independent prime-exponent variables approximating
the exponent vector of a uniform random integer n <= x.

For each prime p the model exponent X_p has P(X_p = k) = p^(-k) * (1 - 1/p).
The count of primes of a set T that "divide" the model integer is a sum of
independent Bernoulli(1/p), computed as pairwise products of the factors.
The total exponent count over T is compound Poisson, as (1 - 1/p)/(1 - z/p)
= exp(sum_m (z^m - 1)/(m p^m)): its law is the Panjer recursion n g_n =
sum_(m<=n) s_m g_(n-m), s_m = sum_T p^-m, up to one certified cut.  The
model-vs-truth total variation over exponent vectors is summed over the
y-smooth parts of n <= x, enumerated a block at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import DEFAULT_TAIL_EPS, Pmf, TvResult, exact_sum
from .errors import DomainError
from .factorstats import CountMode, smooth_parts, smooth_primes
from .primesets import PrimeSet

# The multiplicity law is cut deep enough that its stored coefficients double
# as its power series on the disc |z| <= SERIES_RADIUS, which is what the
# generating-function identities need checked at their domain edge.
SERIES_RADIUS = 1.9


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


def _panjer(fp: np.ndarray, tail_eps: float) -> tuple[np.ndarray, float]:
    """The multiplicity law over the ascending primes fp up to its cut N, and
    the bound G(r)/r^N on the mass past it.  Entries that underflow to 0.0
    past the last nonzero one are dropped, so no mass moves.

    G(r) = prod (1 - 1/p)/(1 - r/p) = sum g_n r^n bounds sum_(n>=N) g_n |z|^n
    by G(r) (SERIES_RADIUS/r)^N on |z| <= SERIES_RADIUS < r < min T.  N is
    the least log(G(r)/tail_eps) / log(r/SERIES_RADIUS), a convex over a
    concave function of r, so unimodal: golden-section search finds it.
    """
    inv = 1.0 / fp
    log_g0 = exact_sum([np.log1p(-inv)])

    def log_g(r: float) -> float:
        return log_g0 - float(np.log1p(-r * inv).sum())

    def cut(r: float) -> float:
        return (log_g(r) - math.log(tail_eps)) / math.log(r / SERIES_RADIUS)

    a, b = SERIES_RADIUS, float(fp[0])
    for _ in range(30):
        c, d = b - (b - a) * 0.618, a + (b - a) * 0.618
        a, b = (a, d) if cut(c) <= cut(d) else (c, b)
    r = (a + b) / 2
    # log G and N log r are float sums good to far better than 1e-9 of their
    # size: that margin, and one ulp past exp, make the cut and bound err upward
    lg, log_r = log_g(r) * (1 + 1e-9), math.log(r)
    n = math.ceil((lg - math.log(tail_eps)) / math.log(r / SERIES_RADIUS))
    tail_bound = math.nextafter(math.exp(lg - n * log_r * (1 - 1e-9)), math.inf)
    # s_m sums over fp[:k_m]: the primes past min T (|T| 2^53)^(1/m) add under one ulp of it
    ks = np.searchsorted(fp, fp[0] * (fp.size * 2.0**53) ** (1 / np.arange(1, n)), side="right")
    rev, g = np.zeros(n), np.empty(n)  # rev[n - 1 - m] = s_m: each dot reads forward
    g[0] = math.exp(log_g0)
    for m, k in enumerate(ks.tolist(), start=1):
        rev[n - 1 - m] = np.power(fp[:k], -m).sum()
        g[m] = rev[n - 1 - m : n - 1] @ g[:m] / m
    return np.trim_zeros(g, "b"), tail_bound


def model_exact_pmf(
    primes: PrimeSet,
    mode: CountMode,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> Pmf:
    """Exact model law of the factor count over a prime set.

    Distinct mode: the product of the Bernoulli(1/p) factors, taken pairwise
    level by level, stored up to its last nonzero entry (at most |T|), with
    tail_bound 0.  Multiplicity mode: the Panjer recursion up to the cut N
    that makes the stored series good to tail_eps on |z| <= SERIES_RADIUS,
    with tail_bound G(r)/r^N (_panjer).  An empty set is the point mass at
    0.  A law that fails the Pmf mass check is the program's fault, not the
    caller's: RuntimeError.
    """
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")
    fp = primes.array.astype(np.float64)
    if not fp.size:
        probs, tail_bound = np.ones(1), 0.0
    elif mode is CountMode.DISTINCT:
        probs, tail_bound = _block_product(np.stack([1.0 - 1.0 / fp, 1.0 / fp], axis=1))[:, 0], 0.0
    else:
        probs, tail_bound = _panjer(fp, tail_eps)
    try:
        return Pmf(probs, tail_bound)
    except DomainError as e:
        raise RuntimeError(f"the model law failed its own check: {e}") from None


def model_tv_exact(x: int, y: int) -> TvResult:
    """Total variation between the true exponent vector of a uniform n <= x
    (restricted to primes <= y) and the model vector.

    Exponent vectors over primes <= y correspond bijectively to y-smooth
    parts s, with model probability (1/s) * prod_{p <= y} (1 - 1/p).  The TV
    sums max(0, P_true(s) - P_model(s)) over the observed parts, after the
    Psi guard (smooth_primes).  Each block of parts (smooth_parts, most with
    count 1) gives its terms in place, clamped at 0 (the zeros add nothing),
    to dist.exact_sum.  The value is the correctly rounded sum of these float
    terms, but uncertainty 0.0 does not bound their rounding ("Honest
    rounding", ROADMAP.md).
    """
    primes = smooth_primes(x, y)  # every check of x and y, then the one sieve
    # math.fsum of the log1p(-1/p), 2^15 primes at a time: no list of every prime
    blocks = (primes[i : i + (1 << 15)].tolist() for i in range(0, primes.size, 1 << 15))
    log_c = exact_sum(np.fromiter((math.log1p(-1.0 / p) for p in b), float) for b in blocks)

    def gap(s: np.ndarray, c: np.ndarray) -> np.ndarray:
        """max(0, c / x - exp(log_c - log s)), each step in place."""
        model = s.astype(float)
        np.log(model, out=model)
        np.subtract(log_c, model, out=model)
        np.exp(model, out=model)
        out = c / float(x)
        out -= model
        return np.maximum(out, 0.0, out=out)

    value = exact_sum(gap(s, c) for s, c in smooth_parts(x, primes))
    return TvResult(value=min(value, 1.0), uncertainty=0.0)

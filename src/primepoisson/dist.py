"""Discrete distributions on tuples of nonnegative integers with certified
tail mass.

There is one law type: a JointPmf is a read-only float64 array, dense over a
box from the origin to a truncation point on each axis, together with a
tail_bound that certifies how much mass the stored array can miss.  A Pmf is
its one-axis case, with 1-D helpers; the model pmfs store their support only
up to the last nonzero entry (distinct) or a certified cut (multiplicity).
Total-variation distances report that missing mass as an explicit
uncertainty instead of silently ignoring it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CapError, DomainError

MASS_SLACK = 1e-12
# The default certified bound on the mass a truncated law may miss.
DEFAULT_TAIL_EPS = 1e-12


def _check_mass(probs: np.ndarray, tail_bound: float, what: str, mass: float | None) -> None:
    """The invariant of a pmf: tail_bound and every entry finite and
    >= 0 (NaN and infinities are refused here as a DomainError, before
    exact_sum would refuse them as a ValueError), and the exact sum in the
    mass window.  mass, when not None, is exact_sum([probs]) as the caller
    computed it."""
    if not 0.0 <= tail_bound < math.inf:
        raise DomainError(f"tail_bound must be finite and >= 0, got {tail_bound}")
    if not (probs.min(initial=0.0) >= 0.0 and probs.max(initial=0.0) < math.inf):
        raise DomainError(f"{what} entries must be finite and nonnegative")
    s = exact_sum([probs]) if mass is None else mass
    if s > 1.0 + MASS_SLACK or s < 1.0 - tail_bound - MASS_SLACK:
        raise DomainError(
            f"{what} mass {s} outside [1 - tail_bound, 1] window (tail_bound={tail_bound})"
        )


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint pmf on m-tuples of nonnegative integers, dense over its support
    box: probs[k_1, ..., k_m] approximates P(X = (k_1, ..., k_m)), tuples
    outside the box have probability zero, and the missing mass is at most
    tail_bound.  mass is exact_sum([probs]) when the caller already has it;
    it only spares the mass check a second pass and is not stored."""

    probs: np.ndarray
    tail_bound: float = 0.0
    mass: InitVar[float | None] = None

    def __post_init__(self, mass):
        probs = np.asarray(self.probs, dtype=np.float64).view()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.ndim < 1:
            raise DomainError("a joint pmf needs at least one axis")
        _check_mass(probs, self.tail_bound, type(self).__name__, mass)

    @property
    def entries(self) -> dict[tuple[int, ...], float]:
        """{key: probability} over every cell of the box, built on each access."""
        return dict(zip(np.ndindex(self.probs.shape), self.probs.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class Pmf(JointPmf):
    """The one-axis joint law: a pmf on {0, 1, 2, ...}, probs[k] approximates
    P(X = k) and the mass the vector misses is at most tail_bound.  The
    stored support may end before the law's (model_exact_pmf stops at the
    last nonzero entry, or at the cut of its multiplicity series); prob(k)
    is 0.0 past it."""

    def __post_init__(self, mass):
        if np.ndim(self.probs) != 1 or np.size(self.probs) == 0:
            raise DomainError("a pmf needs one axis and at least one entry")
        super().__post_init__(mass)

    def __len__(self) -> int:
        return len(self.probs)

    def prob(self, k: int) -> float:
        """P(X = k), zero beyond the stored support."""
        if 0 <= k < len(self.probs):
            return float(self.probs[k])
        return 0.0

    def mean(self) -> float:
        return math.fsum(k * v for k, v in enumerate(self.probs.tolist()))

    def series(self, z: complex) -> complex:
        """Evaluate sum of probs[k] * z^k (Horner)."""
        acc: complex = 0.0
        for v in reversed(self.probs.tolist()):
            acc = acc * z + v
        return acc

    def as_json(self) -> dict:
        return {"probs": self.probs.tolist(), "tail_bound": self.tail_bound}


@dataclass(frozen=True)
class TvResult:
    """A total-variation distance with a rigorous uncertainty radius."""

    value: float
    uncertainty: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise DomainError(f"tv value must be in [0, 1], got {self.value}")
        if self.uncertainty < 0.0:
            raise DomainError(f"uncertainty must be >= 0, got {self.uncertainty}")
        if self.value + self.uncertainty > 1.0 + MASS_SLACK:
            raise DomainError("value + uncertainty exceeds 1")


def poisson_pmf(lam: float, tail_eps: float = DEFAULT_TAIL_EPS) -> Pmf:
    """Poisson(lam) truncated so the certified missing mass is below tail_eps.

    The truncation point K is the smallest integer above lam whose Chernoff
    tail certificate exp(-lam) * (e*lam/K)^K drops below tail_eps; that
    certificate (an upper bound for P(X >= K)) becomes the pmf's tail_bound.
    Entries are evaluated by the multiplicative recurrence for small lam and
    k, and in log space otherwise, to dodge overflow of lam^k / k!.
    """
    if lam < 0.0:
        raise DomainError(f"poisson rate must be >= 0, got {lam}")
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")
    if lam == 0.0:
        return Pmf(np.ones(1), 0.0)

    log_lam = math.log(lam)

    def log_cert(k: int) -> float:
        # log of exp(-lam) * (e*lam/k)^k, valid upper bound for k > lam
        return -lam + k * (1.0 + log_lam - math.log(k))

    k_cut = max(1, math.floor(lam) + 1)
    log_eps = math.log(tail_eps)
    while log_cert(k_cut) >= log_eps:
        k_cut += 1
    tail_bound = math.exp(log_cert(k_cut))

    probs = []
    if lam <= 30.0:
        v = math.exp(-lam)
        for k in range(min(k_cut, 31)):
            probs.append(v)
            v *= lam / (k + 1)
    for k in range(len(probs), k_cut):
        probs.append(math.exp(-lam + k * log_lam - math.lgamma(k + 1)))
    return Pmf(np.array(probs), tail_bound)


def check_grid(shape: Sequence[int], what: str) -> None:
    """Refuse a joint-law array of more than 20 M cells before it is built."""
    cells = math.prod(shape)
    if cells > 20_000_000:
        raise CapError(f"{what} of {cells} entries is too large")


# exact_sum's block: 2^15 values of magnitude below 2^(e + 1), rounded to
# multiples of 2^(e - 36), sum to at most 2^(e + 16) in any order, which
# float64 holds exactly.  Levels run while _SUM_SHORT values are nonzero.
_SUM_BLOCK = 1 << 15
_SUM_SHORT = 1 << 11
# A block whose top is 2^_SUM_SPLIT or more puts its multiples of 2^990 in an
# int: the rest, each below 2^990, makes level sums below 2^1007, and fewer
# than 2^16 of those cannot overflow math.fsum.
_SUM_SPLIT = 992


def _split(v: np.ndarray) -> tuple[int, np.ndarray]:
    """v = h 2^990 + low exactly: low = fmod(v, 2^990), each below 2^990, and
    h the sum of the integers (v - low) 2^-990, each below 2^34."""
    low = np.fmod(v, 2.0**990)  # exact, so v - low is an exact multiple of 2^990
    multiples = v - low
    multiples *= 2.0**-990
    return int(multiples.sum()), low  # 2^15 of them sum exactly


def _extract(v: np.ndarray) -> tuple[int, np.ndarray]:
    """Split a block of at most _SUM_BLOCK finite values into an int h and
    fewer than _SUM_SHORT + 60 floats whose exact sum plus h 2^990 is the
    block's: the exact sum of each level and the values left after the last.

    A level (Rump, Ogita and Oishi, "Accurate floating-point summation part
    I", SIAM J. Sci. Comput. 31, 2008) takes sigma = 2^(e + 17), 2^e <= top
    < 2^(e + 1) the largest magnitude: q = (v + sigma) - sigma is v rounded
    to a multiple of 2^(e - 36), exactly, v - q is exact, and so is q.sum().
    Each level leaves residuals at most 2^(e - 36).  They are cut to their
    nonzeros once half are zero or fewer than _SUM_SHORT are not."""
    top = np.abs(v).max()
    if not top < math.inf:
        raise ValueError(f"exact_sum needs finite values, got {v[~np.isfinite(v)][0]}")
    high = 0
    if top >= 2.0**_SUM_SPLIT:
        high, v = _split(v)
        top = np.abs(v).max()
    sums = []
    while v.size >= _SUM_SHORT:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + 16)
        q = v + sigma
        q -= sigma
        sums.append(q.sum())
        v = np.subtract(v, q, out=q)
        left = np.count_nonzero(v)
        if left < _SUM_SHORT or 2 * left <= v.size:
            v = v[v != 0.0]
        top = np.abs(v).max(initial=0.0)
    return high, np.append(v, sums)


def exact_sum(arrays: Iterable[np.ndarray]) -> float:
    """The correctly rounded sum of the finite float64 values of a stream of
    arrays, any sign, equal to math.fsum of them all; a NaN or infinity is
    refused with ValueError, a sum past the float max with OverflowError.

    Blocks of _SUM_BLOCK values are extracted level by level (_extract).  The
    values each leaves go into one carry, itself extracted once it holds half
    a block, so memory is O(block) and the size unlimited.  The result is
    math.fsum of the carry; when some value reached 2^_SUM_SPLIT, the carry
    and the int multiple of 2^990 are added as integers in units of 2^-1074.
    math.fsum itself raises OverflowError whenever a partial sum in its order
    overflows; exact_sum only when the sum does.
    """
    high, carry, size = 0, [], 0
    for a in arrays:
        flat = a.ravel()
        for start in range(0, flat.size, _SUM_BLOCK):
            h, rest = _extract(flat[start : start + _SUM_BLOCK])
            high, size = high + h, size + rest.size
            carry.append(rest)
            if size >= _SUM_BLOCK // 2:  # still under one block: extracted whole
                held, carry = np.concatenate(carry), []
                h, rest = _extract(held)
                high, size, carry = high + h, rest.size, [rest]
    values = chain.from_iterable(map(np.ndarray.tolist, carry))
    if high:
        units = sum((n << 1074) // d for n, d in map(float.as_integer_ratio, values))
        return ((high << 2064) + units) / (1 << 1074)
    return math.fsum(values)


def _clamped_tv(value: float, radius: float) -> TvResult:
    """The TV known to lie within radius of value, and in [0, 1].  When
    value + radius passes 1, the midpoint and half-width of [max(0, value -
    radius), 1]: a value rounded up to 1.0 keeps a nonzero uncertainty."""
    if value + radius <= 1.0:
        return TvResult(value=value, uncertainty=radius)
    lo = min(max(0.0, value - radius), 1.0)
    return TvResult(value=(1.0 + lo) / 2, uncertainty=(1.0 - lo) / 2)


def _tv(p: np.ndarray, q: np.ndarray, tail_bound: float) -> TvResult:
    """Half the correctly rounded sum of |p - q|, zero-padded to one box."""
    shape = tuple(map(max, p.shape, q.shape))
    check_grid(shape, "tv grid")
    diff = np.zeros(shape)
    diff[tuple(map(slice, p.shape))] = p
    diff[tuple(map(slice, q.shape))] -= q
    return _clamped_tv(0.5 * exact_sum([np.abs(diff, out=diff)]), 0.5 * tail_bound)


def tv_distance(p: Pmf, q: Pmf) -> TvResult:
    """Total variation between two 1-D pmfs over the union of stored supports.

    The halved sum of absolute differences covers the stored mass; whatever
    either pmf truncated away is folded into the uncertainty.
    """
    return _tv(p.probs, q.probs, p.tail_bound + q.tail_bound)


def tv_distance_joint(p: JointPmf, q: JointPmf) -> TvResult:
    """Total variation between two joint pmfs of equal dimension, over the
    union of their boxes."""
    if p.probs.ndim != q.probs.ndim:
        raise DomainError(f"dimension mismatch: {p.probs.ndim} vs {q.probs.ndim}")
    return _tv(p.probs, q.probs, p.tail_bound + q.tail_bound)


def tv_distance_keys(keys: np.ndarray, probs: np.ndarray, components: Sequence[Pmf]) -> TvResult:
    """Total variation between a law with mass probs[k] at the distinct rows
    keys[k] of a K x m index array and the product of m pmfs, with no grid:
    2 TV = sum_k |probs[k] - q_k| + (M_q - sum_k q_k), q_k = prod_i q_i[k_i]
    (0 past q_i's support), M_q = prod_i exact_sum(q_i).  The mass difference
    cancels; it is clamped at 0.  The uncertainty is half the tail bounds and
    the clamped amount, plus (m + 2) ulp(1) for rounding these products and
    sums, whose values are at most 2."""
    if keys.ndim != 2 or keys.shape[1] != len(components):
        raise DomainError(f"dimension mismatch: keys {keys.shape} vs {len(components)}")
    q = np.ones(len(keys))
    for col, c in zip(keys.T.astype(np.intp), components):
        q *= np.append(c.probs, 0.0)[np.minimum(col, len(c))]
    rest = math.prod(exact_sum([c.probs]) for c in components) - exact_sum([q])
    value = 0.5 * (exact_sum([np.abs(probs - q)]) + max(rest, 0.0))
    tails = math.fsum(c.tail_bound for c in components) + max(-rest, 0.0)
    return _clamped_tv(value, (len(components) + 2) * math.ulp(1.0) + 0.5 * tails)


def product_joint(components: Sequence[Pmf]) -> JointPmf:
    """Joint law of independent coordinates, one Pmf per dimension.

    Entries are products over the truncated grid of the component supports.
    The grid drops exactly the mass the components dropped, so the joint
    tail_bound is the union bound (sum) of the component tail bounds plus the
    product mass lost to float rounding.
    """
    comps = list(components)
    if not comps:
        raise DomainError("product_joint needs at least one component")
    check_grid([len(c) for c in comps], "product grid")

    out = comps[0].probs
    for c in comps[1:]:
        out = np.multiply.outer(out, c.probs)

    kept = exact_sum([out])
    exact_product = math.prod(exact_sum([c.probs]) for c in comps)
    rounding_loss = max(0.0, exact_product - kept)
    tail = math.fsum(c.tail_bound for c in comps) + rounding_loss
    return JointPmf(out, tail_bound=min(tail, 1.0), mass=kept)


def binomial_pmf(k: int, alpha: float) -> Pmf:
    """Binomial(k, alpha) pmf, exact support [0, k], tail_bound 0; each entry,
    subnormals included, is its exact value rounded to float64 once.  The ratio
    recurrence p(m+1) = p(m) (k-m)/(m+1) alpha/(1-alpha) runs in decimal from
    alpha's exact value (64 + 2 log2(k) guard bits, unbounded exponents); an
    entry whose error interval holds a rounding tie is computed again alone."""
    if k < 0:
        raise DomainError(f"trial count must be >= 0, got {k}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"success probability must be in [0, 1], got {alpha}")
    if alpha in (0.0, 1.0):  # a point mass at alpha * k
        probs = np.arange(k + 1) == round(alpha * k)
    else:  # 36 digits hold 53 + 64 bits, 0.61 digits 2 bits; (1-alpha)^k must not underflow
        prec = 36 + math.ceil(0.61 * k.bit_length())
        with localcontext(Context(prec, Emin=MIN_EMIN, Emax=MAX_EMAX)):
            a = Decimal(alpha)
            ratio, v, probs = a / (1 - a), (1 - a) ** k, []
            err = Decimal(8 * k + 8).scaleb(1 - prec)  # > v's error: k+3 roundings, 5 a step
            below, above = 1 - err, 1 + err
            for m in range(k + 1):
                down, up = float(v * below), float(v * above)  # float(Decimal) rounds correctly
                probs.append(down if down == up else _binomial_entry(k, m, alpha, prec))
                v = v * ratio * (k - m) / (m + 1)
    return Pmf(probs, 0.0)


def _binomial_entry(k: int, m: int, alpha: float, prec: int) -> float:
    """C(k, m) alpha^m (1-alpha)^(k-m) rounded to float64 once, for an entry
    whose error interval at ``prec`` digits held a rounding tie.  It is computed
    directly at twice that precision, plus the digits of 1/alpha, since at a
    tiny alpha a near tie lies about (k - m) alpha from the tie; only if that
    interval still holds one is it redone as an exact integer ratio."""
    a = Decimal(alpha)
    prec = 2 * prec - min(0, a.adjusted())
    with localcontext(Context(prec, Emin=MIN_EMIN, Emax=MAX_EMAX)):
        v = math.comb(k, m) * a**m * (1 - a) ** (k - m)
        err = Decimal(4 * k + 8).scaleb(1 - prec)  # > v's error: 2k+5 roundings
        down, up = float(v * (1 - err)), float(v * (1 + err))
    return down if down == up else _binomial_entry_exact(k, m, *alpha.as_integer_ratio())


def _binomial_entry_exact(k: int, m: int, n: int, d: int) -> float:
    """C(k, m) (n/d)^m (1 - n/d)^(k-m) as int / int, which rounds the exact value once."""
    return math.comb(k, m) * n**m * (d - n) ** (k - m) / d**k


def _log_ratio(num: float, den: float, diff: float) -> float:
    """log(num/den) for num, den > 0, given diff = num - den computed apart.

    A log of a rounded quotient near 1 keeps only its absolute precision, so
    that case goes through log1p(diff/den); a quotient far from 1 is taken
    as a difference of logs, which cannot overflow.
    """
    q = diff / den
    if abs(q) < 0.5:
        return math.log1p(q)
    return math.log(num) - math.log(den)


class BinomialTailBounds(NamedTuple):
    """Closed-form binomial tail bounds: the relative-entropy form and the
    weaker quadratic exponential form derived from it, so that
    exact tail <= kullback <= exponential."""

    kullback: float
    exponential: float


def binomial_tail_bound(k: int, alpha: float, beta: float) -> BinomialTailBounds:
    """Chernoff bounds for a Binomial(k, alpha) tail at threshold beta*k.

    For beta <= alpha the bounds apply to P(X <= beta*k); for beta >= alpha
    they apply to P(X >= beta*k).  Both formulas are symmetric under
    (alpha, beta) -> (1-alpha, 1-beta), so one function covers either tail:

      kullback    = exp(-k * D(beta || alpha)),
                    D = beta*log(beta/alpha) + (1-beta)*log((1-beta)/(1-alpha))
      exponential = exp(-(alpha-beta)^2 * k / max(3*alpha*(1-alpha), 2*peak)),
                    peak = max of t*(1-t) over t between alpha and beta

    The identity D(beta || alpha) = integral from alpha to beta of
    (beta-t) / (t*(1-t)) dt gives D >= (alpha-beta)^2 / (2*peak), so the
    exponential form is a relaxation of the kullback form for every alpha,
    beta; the 3*alpha*(1-alpha) denominator is kept wherever it is the
    larger one.  For every k >= 0 and alpha, beta in [0, 1], up to a few
    ulps of rounding (D is summed from log1p terms near alpha == beta):

      exact tail <= kullback <= exponential

    Degenerate corners: beta == alpha or k == 0 returns (1, 1) (empty
    exponent); alpha in {0, 1} with beta != alpha returns (0, 0), the limit
    of the kullback form as the divergence blows up.
    """
    if k < 0:
        raise DomainError(f"trial count must be >= 0, got {k}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must be in [0, 1], got {beta}")
    if beta == alpha or k == 0:
        return BinomialTailBounds(1.0, 1.0)
    if alpha == 0.0 or alpha == 1.0:
        return BinomialTailBounds(0.0, 0.0)
    div = 0.0
    if beta > 0.0:
        div += beta * _log_ratio(beta, alpha, beta - alpha)
    if beta < 1.0:
        div += (1.0 - beta) * _log_ratio(1.0 - beta, 1.0 - alpha, alpha - beta)
    kullback = math.exp(-k * div)
    if min(alpha, beta) <= 0.5 <= max(alpha, beta):
        peak = 0.25
    else:
        peak = max(alpha * (1.0 - alpha), beta * (1.0 - beta))
    scale = max(3.0 * alpha * (1.0 - alpha), 2.0 * peak)
    exponential = math.exp(-((alpha - beta) ** 2) * k / scale)
    return BinomialTailBounds(kullback, exponential)

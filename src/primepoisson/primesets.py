"""Prime enumeration, validated prime-set containers, and harmonic sums over primes.

One odd-only segmented sieve of Eratosthenes serves enumeration and the
primality table; pi(x), the count's prime tables and the smooth-part counts
read one Legendre table instead: V, the at most 2 sqrt(x) values {x // d},
and Lucy's S over V, which is pi when sieved to sqrt(x), built in one loop of
numpy steps (a prime up to x^(1/3) alone, the primes above it in chunks).  A
PrimeSet stores its members once, as one read-only int64 array (object for a
member at or above 2^63); its primes tuple is a view built on demand, which no
count path reads.  A set given from outside is validated member by member,
with two checks: a cached byte table below 2^21 and a deterministic
Miller-Rabin test above it.  The sets that sieve_primes, primes_in_interval
and difference return skip that check (ascending primes by construction, or
a subset of a valid set), so large sets come fastest from them.  Harmonic
sums are dist.exact_sum of the terms, the same floats as math.fsum; members
at or above 2^53 have their terms formed from exact Python ints.
Every prime list, the sieve's base primes included, comes from prime_array,
whose one gate (check_prime_list) refuses an upper end at or above psi_12 and
a span over 2^30.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .dist import exact_sum
from .errors import CapError, DomainError

SEGMENT_SIZE = 1 << 20

# Primality lookups below this bound go through a cached byte table; above it,
# a Miller-Rabin witness set that is deterministic for all n below _MR_LIMIT:
# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to the
# twelve bases 2..37 (Sorenson and Webster, 2017).  Larger n are refused.
_TABLE_LIMIT = 1 << 21
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461
# Integers below 2^53 are exact float64 values.
_FLOAT_EXACT = 1 << 53
# The cap on x, the top of a counted range (check_x_cap).
MAX_X = 1 << 40
# The widest span prime_array lists: 2^30 integers hold at most about 54 M
# primes, 435 MB as int64; x = 1e8 and the top of expexp:2 (5.3e8) fit.
MAX_SPAN = 1 << 30
# The (p, v) pairs of one batched Legendre step: the primes above x^(1/3)
# are applied this many pairs at a time, which bounds the step's temporaries.
_PAIR_CHUNK = 1 << 16


@lru_cache(maxsize=1)
def _prime_table() -> np.ndarray:
    """The byte table below 2^21, read-only: 1 at each prime, 0 elsewhere."""
    table = np.zeros(_TABLE_LIMIT, dtype=np.uint8)
    table[2] = 1
    for seg_lo, flags in _sieve(-1, _TABLE_LIMIT - 1):
        table[seg_lo : seg_lo + 2 * flags.size : 2] = flags
    table.flags.writeable = False
    return table


def is_prime(n: int) -> bool:
    """Deterministic primality check (table lookup, then Miller-Rabin); n at
    or above the certified bound _MR_LIMIT is a domain error."""
    if n < _TABLE_LIMIT:
        return n >= 0 and bool(_prime_table()[n])
    if n >= _MR_LIMIT:
        raise DomainError(f"{n} is at or above the certified primality bound {_MR_LIMIT}")
    if n % 2 == 0:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:  # every base is below n >= _TABLE_LIMIT
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_members(arr: np.ndarray) -> None:
    """Refuse unless arr is strictly increasing and holds only primes below
    the certified bound; the first fault is named.  Members below 2^21 are
    looked up in the byte table, the others go through Miller-Rabin."""
    out_of_order = np.flatnonzero(arr[1:] <= arr[:-1])
    if out_of_order.size:
        i = out_of_order[0]
        raise DomainError(f"primes must be strictly increasing, got {arr[i + 1]} after {arr[i]}")
    if arr.size and arr[-1] >= _MR_LIMIT:
        raise DomainError(f"{arr[-1]} is at or above the certified primality bound {_MR_LIMIT}")
    split = int(np.searchsorted(arr, _TABLE_LIMIT))
    small = arr[:split].astype(np.int64, copy=False)
    bad = small[_prime_table()[small.clip(0)] == 0]
    if bad.size:
        raise DomainError(f"{bad[0]} is not prime")
    for p in arr[split:].tolist():
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")


def _member(p) -> int:
    try:
        return operator.index(p)
    except TypeError:
        raise DomainError(f"prime set members must be integers, got {p}") from None


@dataclass(frozen=True, eq=False)
class PrimeSet:
    """A strictly increasing set of primes, stored once as a read-only array.

    array takes any sequence of integers or an integer ndarray and keeps a
    read-only copy: int64, or object when a member is >= 2^63.  A member that
    is not an integer (2.0, 3.7) is refused, not truncated.  Every member is
    checked, by the byte table below 2^21 and by Miller-Rabin above it, on
    every construction but _of_sieve's, so a PrimeSet in hand is a valid
    finite set of primes.  Large sets come fastest from sieve_primes,
    primes_in_interval and difference, which skip that per-member check.  Sets
    with the same members are equal; primes is a tuple view built on each access.
    """

    array: np.ndarray

    def __post_init__(self):
        members = self.array
        if isinstance(members, np.ndarray) and np.can_cast(members.dtype, np.int64):
            arr = members.astype(np.int64)  # a copy: later writes to the input do not reach it
        else:  # sequences and other arrays: a cast would wrap a uint64 member >= 2^63 negative
            ints = list(map(_member, members))
            try:
                arr = np.array(ints, dtype=np.int64)
            except OverflowError:  # a member >= 2^63: the Python ints in an object array
                arr = np.array(ints, dtype=object)
        _check_members(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def _of_sieve(cls, arr: np.ndarray) -> "PrimeSet":
        """The set of an int64 array known to be ascending primes: prime_array's
        own output, or a subset of a valid set (difference).  Kept as it is,
        without a copy or a per-member check."""
        arr.flags.writeable = False
        ps = object.__new__(cls)
        object.__setattr__(ps, "array", arr)
        return ps

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeSet) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:  # O(1): size, first and last member
        return hash((self.array.size, *self.array[:1].tolist(), *self.array[-1:].tolist()))

    def __len__(self) -> int:
        return self.array.size

    def __iter__(self):
        return iter(self.array.tolist())

    def difference(self, other: "PrimeSet") -> "PrimeSet":
        rest = self.array[~np.isin(self.array, other.array)]
        # an object array goes through PrimeSet to narrow to int64 where its members fit
        return PrimeSet._of_sieve(rest) if rest.dtype == np.int64 else PrimeSet(rest)


@dataclass(frozen=True)
class HarmonicSums:
    """The three prime harmonic sums of a set T.

    h  = sum of 1/p, h1 = sum of 1/(p-1), h2 = sum of 1/p^2.
    Always 0 <= h <= h1 and h1 <= h + 2*h2 (h1 - h = sum 1/(p(p-1)) <= 2*h2).
    """

    h: float
    h1: float
    h2: float


def check_x_cap(x: int) -> None:
    """The one check of MAX_X.  Every check and count that x sizes calls it
    before any work, so an x over the cap is refused before a sieve starts."""
    if x > MAX_X:
        raise CapError(f"x={x} exceeds the cap of 2^40")


def _sieve(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """The odd-only segmented sieve of Eratosthenes over the odd integers in
    (lo, hi], lo >= -1, SEGMENT_SIZE flags at a time: yields (seg_lo, flags),
    seg_lo odd, with flags[i] true iff seg_lo + 2i is prime.  2, the one even
    prime, is the caller's to add."""
    base = prime_array(1, math.isqrt(hi))[1:].tolist() if hi >= 9 else []  # odd primes
    for seg_lo in range((lo + 1) | 1, hi + 1, 2 * SEGMENT_SIZE):
        flags = np.ones(min(SEGMENT_SIZE, (hi - seg_lo) // 2 + 1), dtype=bool)
        if seg_lo == 1:
            flags[0] = False  # 1 is not prime
        for p in base:
            start = max(p * p, -(-seg_lo // p) * p)
            if start % 2 == 0:
                start += p  # the first odd multiple
            flags[(start - seg_lo) // 2 :: p] = False
        yield seg_lo, flags


def _name(n: int) -> str:
    """n in full up to 30 digits, else its digit count (t_10 has 9,566: too many for str)."""
    if n < 10**30:
        return str(n)
    e = int(math.log10(n))  # floor(log10(n)), or one off next to a power of 10
    return f"of {e + 1 + (n >= 10 ** (e + 1)) - (n < 10**e)} digits"


def check_prime_list(lo: int, hi: int) -> None:
    """prime_array's gates for (lo, hi], without a sieve: an upper end whose
    primes PrimeSet could not certify (DomainError), then a span of more than
    MAX_SPAN integers (CapError)."""
    if hi >= _MR_LIMIT:
        raise DomainError(
            f"sieve upper end {_name(hi)} is at or above the certified primality bound {_MR_LIMIT}"
        )
    if hi - lo > MAX_SPAN:
        raise CapError(f"prime list ({lo}, {hi}] spans {hi - lo} integers, over the cap of 2^30")


def prime_array(lo: int, hi: int) -> np.ndarray:
    """Primes in (lo, hi] as an ascending int64 array (raw sieve output),
    after check_prime_list(lo, hi)."""
    check_prime_list(lo, hi)
    chunks = [np.array([2] if lo < 2 <= hi else [], dtype=np.int64)]
    for seg_lo, flags in _sieve(lo, hi):
        idx = np.flatnonzero(flags)
        idx *= 2
        idx += seg_lo
        chunks.append(idx)
        del flags  # else it lives on while _sieve makes the next segment's
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> PrimeSet:
    """All primes p <= limit, ascending.  limit < 2 is a domain error."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    return PrimeSet._of_sieve(prime_array(1, int(limit)))


def primes_in_interval(lo: int, hi: int) -> PrimeSet:
    """Primes in the half-open interval (lo, hi].  Requires 2 <= lo <= hi."""
    if hi < lo:
        raise DomainError(f"empty interval: hi={hi} < lo={lo}")
    if lo < 2:
        raise DomainError(f"interval lower endpoint must be >= 2, got {lo}")
    return PrimeSet._of_sieve(prime_array(int(lo), int(hi)))


def _legendre_step(s: np.ndarray, v: np.ndarray, x: int, ps: np.ndarray, first: np.ndarray) -> None:
    """S(v) -= S(v // p) - S(p - 1) for every p in ps and every v >= p^2 in V
    (the pairs of p and v[first_p:]), in place, every delta read before any
    write: the updates of ps one after another, when no p reads an entry that
    another p writes.  The deltas at one v are summed by np.subtract.at."""
    r = v.size // 2
    counts = v.size - first

    def per_pair(a):  # np.repeat(a, counts), but a lone prime's values broadcast
        return a if a.size == 1 else np.repeat(a, counts)

    j = np.arange(int(counts.sum()))
    j += per_pair(first - np.cumsum(counts) + counts)  # the index of v in each pair
    p = per_pair(ps)
    w = v[j]
    w //= p  # v // p: in V at index w if w <= r, else at 2r + 1 - x // w
    up = w > r
    w[up] = 2 * r + 1 - x // w[up]
    delta = s[w]
    delta -= s[p - 1]
    np.subtract.at(s, j, delta)


def legendre_table(x: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V = [0, r] and {x // d : d <= r}, r = isqrt(x), ascending (v at v <= r,
    x // d at 2r + 1 - d), and S(v) = #{2 <= m <= v : m is prime or has no
    factor in primes} (all primes up to the last) over V, S(0) = 0: pi when
    primes holds every prime <= r.  Lucy's form of Legendre's recursion: from
    v - 1, S(v) -= S(v // p) - S(p - 1) for v >= p^2, prime p <= r by prime,
    in one loop of numpy steps.  A p with p^3 <= x is a step alone (25 at
    x = 1e6, 47 at 1e7); the primes in (x^(1/3), r] go in chunks of about
    _PAIR_CHUNK (p, v) pairs: such a p reads at v // p <= x / p < q^2 and at
    p - 1, below every entry that another such q writes, so order is free."""
    r = math.isqrt(x)
    v = np.concatenate((np.arange(r + 1), x // np.arange(r, 0, -1)))
    s = np.maximum(v - 1, 0)
    base = primes[: np.searchsorted(primes, r, "right")]
    first = np.searchsorted(v, base * base)  # where each prime's v >= p^2 start
    before = np.concatenate(([0], np.cumsum(v.size - first)))  # pairs before each prime
    chunk_end = np.searchsorted(before, before + _PAIR_CHUNK, "right") - 1
    k = 0
    while k < base.size:  # p alone if p^3 <= x (exact in Python ints), else a chunk from p
        stop = k + 1 if int(base[k]) ** 3 <= x else max(k + 1, int(chunk_end[k]))
        _legendre_step(s, v, x, base[k:stop], first[k:stop])
        k = stop
    return v, s


def count_primes(limit: int) -> int:
    """pi(limit), S(limit) off the Legendre table over the primes <= sqrt(limit);
    a limit over 2^40 is refused before any sieve or table."""
    check_x_cap(limit)
    limit = max(limit, 0)
    return int(legendre_table(limit, prime_array(1, math.isqrt(limit)))[1][-1])


def harmonic_sums(ps: PrimeSet) -> HarmonicSums:
    """Correctly rounded harmonic sums over a prime set.

    Each term is the float Python gives for 1/p, 1/(p-1) and 1/(p*p), and the
    terms are summed exactly (dist.exact_sum, equal to math.fsum), so the
    result does not depend on how the set might be partitioned.  Below 2^53 a
    member is an exact float, so its terms come from float arithmetic (the
    float square is p*p correctly rounded); at or above it they come from
    exact Python ints, one member at a time.
    """
    split = int(np.searchsorted(ps.array, _FLOAT_EXACT))
    p, big = ps.array[:split].astype(np.float64), ps.array[split:].tolist()
    return HarmonicSums(
        h=exact_sum([1.0 / p, np.array([1.0 / q for q in big])]),
        h1=exact_sum([1.0 / (p - 1.0), np.array([1.0 / (q - 1) for q in big])]),
        h2=exact_sum([1.0 / (p * p), np.array([1.0 / (q * q) for q in big])]),
    )


EXPEXP_MAX_K = 10


@lru_cache(maxsize=None)
def expexp_cutoff(k: int) -> int:
    """floor(exp(exp(k))), evaluated in extended precision.

    The doubly exponential growth makes float64 useless beyond k=3, so the
    value is computed with mpmath at a working precision sized to the result
    and re-checked at double that precision to certify the floor.
    """
    import mpmath  # here, not at the top: no other code needs it, and it costs every import

    if not 0 <= k <= EXPEXP_MAX_K:
        raise DomainError(f"cutoff index must be in [0, {EXPEXP_MAX_K}], got {k}")
    prec = 64 + int(1.5 * math.exp(k))
    with mpmath.workprec(prec):
        val = int(mpmath.floor(mpmath.exp(mpmath.exp(k))))
    with mpmath.workprec(2 * prec):
        check = int(mpmath.floor(mpmath.exp(mpmath.exp(k))))
    if val != check:
        raise RuntimeError(f"cutoff for k={k} unstable under precision doubling")
    return val


def expexp_block(k: int) -> PrimeSet:
    """Primes in the doubly exponential block (t_k, t_{k+1}], t_k = floor(exp(exp(k)))."""
    return primes_in_interval(expexp_cutoff(k), expexp_cutoff(k + 1))

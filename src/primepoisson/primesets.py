"""Prime enumeration, validated prime-set containers, and harmonic sums over primes.

One segmented sieve of Eratosthenes serves enumeration, counting and PrimeSet
validation.  Validation indexes a cached byte table below 2^21; above it, one
sieve over the members' span when that is cheaper than a Miller-Rabin test
per member (sparse sets keep Miller-Rabin).  Harmonic sums use math.fsum.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import mpmath
import numpy as np

from .errors import DomainError

DEFAULT_SEGMENT_SIZE = 1 << 20

# Primality lookups below this bound go through a cached byte table; above it,
# a Miller-Rabin witness set that is deterministic for all n below _MR_LIMIT:
# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to the
# twelve bases 2..37 (Sorenson and Webster, 2017).  Larger n are refused.
_TABLE_LIMIT = 1 << 21
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461
# One Miller-Rabin test takes about as long as sieving this many integers.
_MR_COST = 1000


@lru_cache(maxsize=1)
def _prime_table() -> bytes:
    _, flags = next(_sieve(-1, _TABLE_LIMIT - 1, _TABLE_LIMIT))  # one segment: 0 .. 2^21 - 1
    return flags.tobytes()


def is_prime(n: int) -> bool:
    """Deterministic primality check (table lookup, then Miller-Rabin); n at
    or above the certified bound _MR_LIMIT is a domain error."""
    if n < _TABLE_LIMIT:
        return n >= 0 and _prime_table()[n] == 1
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


@dataclass(frozen=True)
class PrimeSet:
    """A strictly increasing tuple of primes with an optional label.

    Every element is checked for primality on every construction (sieve
    output included), so a PrimeSet in hand is a valid finite set of primes.
    """

    primes: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        ps = tuple(map(int, self.primes))
        object.__setattr__(self, "primes", ps)
        prev = (1, *ps)
        if not all(map(operator.lt, prev, ps)):
            i = next(i for i, (a, b) in enumerate(zip(prev, ps)) if a >= b)
            raise DomainError(f"primes must be strictly increasing, got {ps[i]} after {prev[i]}")
        if ps and ps[-1] >= _MR_LIMIT:
            raise DomainError(f"{ps[-1]} is at or above the certified primality bound {_MR_LIMIT}")
        split = bisect_left(ps, _TABLE_LIMIT)
        small, big = np.array(ps[:split], dtype=np.int64), ps[split:]
        bad = small[np.frombuffer(_prime_table(), dtype=np.uint8)[small] == 0].tolist()
        span = big[-1] - big[0] if big else 0
        segments = span // DEFAULT_SEGMENT_SIZE + 1
        # a sieve over the span also runs its base primes <= sqrt(max) per segment
        if big and span + math.isqrt(big[-1]) * (1 + segments) < len(big) * _MR_COST:
            members = np.array(big, dtype=np.int64)
            for seg_lo, flags in _sieve(big[0] - 1, big[-1], DEFAULT_SEGMENT_SIZE):
                i, j = np.searchsorted(members, (seg_lo, seg_lo + flags.size))
                bad += members[i:j][~flags[members[i:j] - seg_lo]].tolist()
        else:
            bad += [p for p in big if not is_prime(p)]
        if bad:
            raise DomainError(f"{bad[0]} is not prime")

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __contains__(self, p: int) -> bool:
        i = bisect_left(self.primes, p)
        return i < len(self.primes) and self.primes[i] == p

    def difference(self, other: "PrimeSet", label: str | None = None) -> "PrimeSet":
        drop = set(other.primes)
        return PrimeSet(tuple(p for p in self.primes if p not in drop), label=label)


@dataclass(frozen=True)
class HarmonicSums:
    """The three prime harmonic sums of a set T.

    h  = sum of 1/p, h1 = sum of 1/(p-1), h2 = sum of 1/p^2.
    Always 0 <= h <= h1 and h1 <= h + 2*h2 (h1 - h = sum 1/(p(p-1)) <= 2*h2).
    """

    h: float
    h1: float
    h2: float


def segment_bounds(lo: int, hi: int, segment_size: int) -> Iterator[tuple[int, int]]:
    """Inclusive segments (seg_lo, seg_hi) covering [lo, hi] in ascending order,
    each at most segment_size long.  The one check of segment_size."""
    if segment_size < 1:
        raise DomainError(f"segment_size must be >= 1, got {segment_size}")
    return ((s, min(s + segment_size - 1, hi)) for s in range(lo, hi + 1, segment_size))


def _sieve(lo: int, hi: int, segment_size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The segmented sieve of Eratosthenes over (lo, hi], lo >= -1: yields
    (seg_lo, flags) with flags[i] true iff seg_lo + i is prime."""
    bounds = segment_bounds(lo + 1, hi, segment_size)
    base = prime_array(1, math.isqrt(hi)).tolist() if hi >= 4 else []
    for seg_lo, seg_hi in bounds:
        flags = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        flags[: max(0, 2 - seg_lo)] = False  # 0 and 1 are not prime
        for p in base:
            start = max(p * p, -(-seg_lo // p) * p)
            if start <= seg_hi:
                flags[start - seg_lo :: p] = False
        yield seg_lo, flags


def prime_array(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """Primes in (lo, hi] as an ascending int64 array (raw sieve output)."""
    chunks = [np.flatnonzero(flags) + seg_lo for seg_lo, flags in _sieve(lo, hi, segment_size)]
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)


def sieve_primes(limit: int, *, label: str | None = None,
                 segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeSet:
    """All primes p <= limit, ascending.  limit < 2 is a domain error."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    return PrimeSet(tuple(prime_array(1, int(limit), segment_size).tolist()), label=label)


def primes_in_interval(lo: int, hi: int, *, label: str | None = None,
                       segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeSet:
    """Primes in the half-open interval (lo, hi].  Requires 2 <= lo <= hi."""
    if hi < lo:
        raise DomainError(f"empty interval: hi={hi} < lo={lo}")
    if lo < 2:
        raise DomainError(f"interval lower endpoint must be >= 2, got {lo}")
    return PrimeSet(tuple(prime_array(int(lo), int(hi), segment_size).tolist()), label=label)


def count_primes(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """pi(limit): the number of primes <= limit."""
    return sum(int(np.count_nonzero(flags)) for _, flags in _sieve(1, limit, segment_size))


def harmonic_sums(ps: PrimeSet) -> HarmonicSums:
    """Compensated harmonic sums over a prime set, ascending order.

    Uses exact float summation, so the result is deterministic and does not
    depend on how the set might be partitioned.
    """
    h = math.fsum(1.0 / p for p in ps.primes)
    h1 = math.fsum(1.0 / (p - 1) for p in ps.primes)
    h2 = math.fsum(1.0 / (p * p) for p in ps.primes)
    return HarmonicSums(h=h, h1=h1, h2=h2)


_EXPEXP_MAX_K = 10


@lru_cache(maxsize=None)
def expexp_cutoff(k: int) -> int:
    """floor(exp(exp(k))), evaluated in extended precision.

    The doubly exponential growth makes float64 useless beyond k=3, so the
    value is computed with mpmath at a working precision sized to the result
    and re-checked at double that precision to certify the floor.
    """
    if not 0 <= k <= _EXPEXP_MAX_K:
        raise DomainError(f"cutoff index must be in [0, {_EXPEXP_MAX_K}], got {k}")
    prec = 64 + int(1.5 * math.exp(k))
    with mpmath.workprec(prec):
        val = int(mpmath.floor(mpmath.exp(mpmath.exp(k))))
    with mpmath.workprec(2 * prec):
        check = int(mpmath.floor(mpmath.exp(mpmath.exp(k))))
    if val != check:
        raise RuntimeError(f"cutoff for k={k} unstable under precision doubling")
    return val


def expexp_block(k: int, *, label: str | None = None) -> PrimeSet:
    """Primes in the doubly exponential block (t_k, t_{k+1}], t_k = floor(exp(exp(k)))."""
    lo, hi = expexp_cutoff(k), expexp_cutoff(k + 1)
    return primes_in_interval(lo, hi, label=label or f"expexp:{k}")

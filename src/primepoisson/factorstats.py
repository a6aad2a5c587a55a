"""Exact joint distributions of prime-factor counts for uniform n in [1, x].

For any prime sets T_1..T_m and a counting mode per set (distinct prime
divisors, or prime-power divisors counted with multiplicity), these routines
tally the exact number of integers n <= x realizing each count vector.

The main path is one segmented kernel.  It sieves set primes p <= sqrt(x)
(and their powers, in multiplicity mode) directly.  A prime > sqrt(x) divides
n at most once, and n has at most one, so one k-major pass counts them all:
for each k, the large set primes p with p*k in the segment are one slice of
their sorted array, found by binary search, and the (p, k) pairs bump their
n's counter in blocks.  A trial-division oracle is an independent slow route
for cross-checking.

The y-smooth parts of n <= x come from the _small_part kernel in one
streamed pass: count(s) = R(x // s), R(t) being the number of m <= t without
a prime factor <= y, so no table of all parts is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import CapError, DomainError
from .primesets import DEFAULT_SEGMENT_SIZE, PrimeSet, prime_array, segment_bounds

MAX_SETS = 8
MAX_X = 1 << 40
ORACLE_MAX_X = 10**6

# The large-prime pass expands its (p, k) pairs _BLOCK at a time to keep its
# temporaries small.
_BLOCK = 1 << 16

# Counters are one byte per (set, n); counts within the caps never reach the
# saturation value (Omega(n) <= 40 for n <= 2^40), so hitting it means a bug.
_SATURATION = 255


class CountMode(Enum):
    """How prime factors from a set are counted for one integer."""

    DISTINCT = "distinct"
    WITH_MULTIPLICITY = "multiplicity"


@dataclass(frozen=True)
class SetSpec:
    """One prime set plus the mode used to count its factors."""

    primes: PrimeSet
    mode: CountMode


@dataclass(frozen=True, eq=False)
class JointCounts:
    """Exact tally of count vectors over n in [1, x]: the observed vectors as
    the rows of keys (K x m, uint8, strictly increasing in lexicographic
    order), how many n have each in tallies (int64, summing to x); read-only."""

    x: int
    specs: tuple[SetSpec, ...]
    keys: np.ndarray
    tallies: np.ndarray

    def __post_init__(self):
        self.keys.flags.writeable = self.tallies.flags.writeable = False

    @property
    def counts(self) -> dict[tuple[int, ...], int]:
        """{count vector: tally} in key order, built on each access."""
        return dict(zip(map(tuple, self.keys.tolist()), self.tallies.tolist()))

    def total(self) -> int:
        return int(self.tallies.sum())

    def marginal(self, i: int) -> dict[int, int]:
        """{count over set i: tally}, ascending in the count (float sums of
        integers <= x <= 2^40 < 2^53 are exact)."""
        sums = np.bincount(self.keys[:, i], self.tallies).tolist()
        return {k: int(c) for k, c in enumerate(sums) if c}

    def as_json(self) -> dict:
        return {
            "x": self.x,
            "modes": [s.mode.value for s in self.specs],
            "set_sizes": [len(s.primes) for s in self.specs],
            "counts": [[k, c] for k, c in zip(self.keys.tolist(), self.tallies.tolist())],
        }


def check_x_cap(x: int) -> None:
    """The one check of MAX_X.  Every check and count that x sizes calls it
    before any work, so an x over the cap is refused before a sieve starts."""
    if x > MAX_X:
        raise CapError(f"x={x} exceeds the cap of 2^40")


def check_disjoint(specs: tuple[SetSpec, ...]) -> None:
    """Refuse sets that share a prime, as Theorems 1 and 2 assume; counting does not."""
    members = np.sort(np.concatenate([np.empty(0, np.int64), *(s.primes.array for s in specs)]))
    repeats = members[1:][members[1:] == members[:-1]]  # each set is strictly increasing
    if repeats.size:
        raise DomainError(f"sets must be pairwise disjoint; {repeats[0]} repeats")


def _validate_request(x: int, specs: list[SetSpec] | tuple[SetSpec, ...]) -> tuple[SetSpec, ...]:
    specs = tuple(specs)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    check_x_cap(x)
    if not specs:
        raise DomainError("at least one set spec is required")
    if len(specs) > MAX_SETS:
        raise CapError(f"{len(specs)} sets exceed the cap of {MAX_SETS}")
    for ps in (spec.primes.array for spec in specs):
        # x=1 is exempt: n=1 has no prime factors, so any spec is answerable
        if x > 1 and ps.size and ps[-1] > x:
            raise DomainError(f"prime {ps[np.searchsorted(ps, x, 'right')]} exceeds x={x}")
    return specs


def _small_part(seg_lo: int, seg_hi: int, primes: list[int]) -> np.ndarray:
    """prod p^v_p(n) over the given primes for n in [seg_lo, seg_hi], in the
    narrowest dtype for seg_hi: each prime power p^a multiplies its multiples by p."""
    acc = np.ones(seg_hi - seg_lo + 1, dtype=np.min_scalar_type(seg_hi))
    for p in primes:
        q = p
        while q <= seg_hi:
            acc[-seg_lo % q :: q] *= p
            q *= p
    return acc


def _count_keys(x: int, specs: tuple[SetSpec, ...]):
    """The count kernel: keys(seg_lo, seg_hi) holds each n's count vector,
    one byte per set, as one unsigned integer in the vectors' lexicographic
    order (set 0's byte is the most significant)."""
    root = math.isqrt(x)
    width = 1 << max(1, (len(specs) - 1).bit_length())  # key bytes: 2, 4 or 8
    direct: list[tuple[int, int]] = []  # (modulus, key byte) sieved directly
    large: list[tuple[np.ndarray, int]] = []  # (a set's primes in (root, x], key byte)
    for spec, i in zip(specs, range(width - 1, -1, -1)):
        ps = spec.primes.array
        cut, stop = np.searchsorted(ps, (root, x), "right").tolist()
        for p in ps[:cut].tolist():
            q = p
            while q <= x and (q == p or spec.mode is CountMode.WITH_MULTIPLICITY):
                direct.append((q, i))
                q *= p
        if stop > cut:  # p*k <= x below: int32 holds it for x < 2^31
            large.append((ps[cut:stop].astype(np.int32 if x < 2**31 else np.int64), i))

    def keys(seg_lo: int, seg_hi: int) -> np.ndarray:
        n_seg = seg_hi - seg_lo + 1
        counters = np.zeros((n_seg, width), dtype=np.uint8)
        for q, i in direct:
            start = -seg_lo % q
            if start < n_seg:
                counters[start::q, i] += 1
        for primes, i in large:  # the k-major pass: the large primes p with p*k in the segment
            k = np.arange(max(1, seg_lo // primes[-1]), seg_hi // primes[0] + 1, dtype=primes.dtype)
            first = np.searchsorted(primes, -(-seg_lo // k))
            lengths = np.searchsorted(primes, seg_hi // k, "right") - first
            ends = np.cumsum(lengths)
            starts = ends - lengths
            total = int(ends[-1]) if k.size else 0  # k is empty below the smallest prime
            for j in range(0, total, _BLOCK):  # pairs j..j_end-1 come from the k in lo..hi-1
                j_end = min(j + _BLOCK, total)
                lo, hi = np.searchsorted(ends, (j, j_end - 1), "right") + (0, 1)
                span = np.minimum(ends[lo:hi], j_end) - np.maximum(starts[lo:hi], j)
                at = np.repeat(first[lo:hi] - starts[lo:hi], span) + np.arange(j, j_end)
                n = np.repeat(k[lo:hi], span) * primes[at]
                counters[n - seg_lo, i] += 1  # n has one prime > root: no repeats in a set
        return counters.view(f"<u{width}").ravel()

    return keys


def joint_factor_counts(
    x: int,
    specs: list[SetSpec] | tuple[SetSpec, ...],
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> JointCounts:
    """Exact joint counts of factor-count vectors via the segmented sieve.

    Each segment's keys are tallied by value, and one np.unique over those
    values merges the segments; set 0 being the most significant key byte,
    value order is the lexicographic order of the count vectors.
    """
    specs = _validate_request(x, specs)
    bounds = segment_bounds(1, x, segment_size)
    keys = _count_keys(x, specs)
    parts = [np.unique(keys(seg_lo, seg_hi), return_counts=True) for seg_lo, seg_hi in bounds]
    values, at = np.unique(np.concatenate([v for v, _ in parts]), return_inverse=True)
    tallies = np.zeros(values.size, dtype=np.int64)
    np.add.at(tallies, at, np.concatenate([c for _, c in parts]))
    digits = values.view(np.uint8).reshape(values.size, -1)[:, ::-1][:, : len(specs)]
    if digits.max(initial=0) >= _SATURATION:
        raise RuntimeError("counter saturation: count exceeded one byte")
    result = JointCounts(int(x), specs, np.ascontiguousarray(digits), tallies)
    if result.total() != x:
        raise RuntimeError(f"count total {result.total()} != x={x}")
    return result


def _trial_factorization(n: int) -> dict[int, int]:
    """Factor n by trial division (2, then odd candidates); independent of
    any sieve machinery so it can serve as an oracle."""
    fac: dict[int, int] = {}
    while n % 2 == 0:
        fac[2] = fac.get(2, 0) + 1
        n //= 2
    d = 3
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def oracle_factor_counts(x: int, specs: list[SetSpec] | tuple[SetSpec, ...]) -> JointCounts:
    """Slow reference tally that factors every n independently.

    Refuses x above 10^6: the point of this route is verification at small
    scale, not performance.
    """
    if x > ORACLE_MAX_X:
        raise CapError(f"oracle route refuses x={x} > {ORACLE_MAX_X}")
    specs = _validate_request(x, specs)
    sets = [(frozenset(spec.primes), spec.mode is CountMode.WITH_MULTIPLICITY) for spec in specs]
    counts: dict[tuple[int, ...], int] = {}
    for n in range(1, x + 1):
        fac = _trial_factorization(n).items()
        key = tuple(sum(a if multi else 1 for p, a in fac if p in ps) for ps, multi in sets)
        counts[key] = counts.get(key, 0) + 1
    keys = sorted(counts)
    tallies = np.array([counts[k] for k in keys], dtype=np.int64)
    return JointCounts(int(x), specs, np.array(keys, dtype=np.uint8), tallies)


def iter_smooth_parts(
    x: int, y: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The y-smooth parts s of n in [1, x] (largest divisors made of primes
    <= y) and how many n have each, as int64 arrays, one pair per segment:
    count(s) = R(x // s), R(t) = #{m <= t : no prime factor of m is <= y}
    (Hildebrand and Tenenbaum, "Integers without large prime factors", 1993;
    Granville, "Smooth numbers", 2008), answered as the loop passes t = x // s.
    """
    if y < 2:
        raise DomainError(f"smoothness bound must be >= 2, got {y}")
    if x < y:
        raise DomainError(f"x must be >= y, got x={x} < y={y}")
    check_x_cap(x)
    return _smooth_runs(x, y, segment_bounds(1, x, segment_size))


def _smooth_runs(x: int, y: int, bounds) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    root = math.isqrt(x)
    primes = prime_array(1, min(y, root)).tolist()
    table = np.zeros(root + 1, dtype=np.int64)  # R(t) for t <= sqrt(x), filled in passing
    wait = np.empty(0, dtype=np.int64)  # parts s whose x // s the loop has not reached
    below = total = 0  # R(seg_lo - 1), and the counts yielded so far
    for seg_lo, seg_hi in bounds:
        smooth = _small_part(seg_lo, seg_hi, primes)
        n = np.arange(seg_lo, seg_hi + 1, dtype=smooth.dtype)
        if y > root:  # n is its sqrt(x)-smooth part times a cofactor, 1 or a prime
            smooth = np.where(n // smooth <= y, n, smooth)
        rough = np.flatnonzero(smooth == 1)  # offsets of the n without a prime factor <= y
        parts = np.concatenate((wait, np.flatnonzero(smooth == n) + seg_lo))
        del n, smooth  # only a segment's parts and counts stay alive past the yield
        span = np.arange(seg_lo, min(seg_hi, root) + 1)  # empty past sqrt(x)
        table[span] = below + np.searchsorted(rough, span - seg_lo, "right")
        t = x // parts
        parts, t, wait = parts[t <= seg_hi], t[t <= seg_hi], parts[t > seg_hi]
        counts = table[np.minimum(t, root)]  # t > sqrt(x) only for s < sqrt(x), so t >= seg_lo
        counts[t > root] = below + np.searchsorted(rough, t[t > root] - seg_lo, "right")
        below, total = below + rough.size, total + int(counts.sum())
        del t
        yield parts, counts
    if wait.size or total != x:
        raise RuntimeError(f"smooth-part counts total {total} != x={x}, {wait.size} left")


def smooth_part_distribution(
    x: int, y: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> dict[int, int]:
    """Counts of the y-smooth part of n over n in [1, x], as a dict ascending in the part."""
    parts, counts = map(np.concatenate, zip(*iter_smooth_parts(x, y, segment_size=segment_size)))
    return dict(sorted(zip(parts.tolist(), counts.tolist())))

"""Exact joint distributions of prime-factor counts for uniform n in [1, x].

For any prime sets T_1..T_m and a counting mode per set (distinct prime
divisors, or prime-power divisors counted with multiplicity), these routines
tally the exact number of integers n <= x realizing each count vector.

The main path is one segmented kernel.  It sieves set primes p <= sqrt(x)
(and their powers, in multiplicity mode) directly, which gives each n its
direct key.  A prime p > sqrt(x) divides n at most once, n has at most one,
and then n = p*k with k <= sqrt(x) not divisible by p: its direct key is
key(k) and its true key is key(k) + d(p), d(p) being the key increment of
the sets that hold p.  So the large primes are never sieved: grouped by d,
each group moves #{p in the group : p <= x // k} tallies from key(k) to
key(k) + d, for each k <= sqrt(x), an O(sqrt(x)) correction per group.
Each set's first moment is checked against its closed form.  A
trial-division oracle is an independent slow route for cross-checking.

The y-smooth parts of n <= x are enumerated, not found by a pass over every
n: count(s) = R(x // s), R(t) being the number of m <= t without a prime
factor <= y, read off one Legendre table over {x // d}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import CapError, DomainError
from .primesets import SEGMENT_SIZE, PrimeSet, check_prime_list, check_x_cap, legendre_table
from .primesets import prime_array, segment_bounds

MAX_SETS = 8
ORACLE_MAX_X = 10**6

# _multiples expands its (p, k) pairs _BLOCK at a time to keep its
# temporaries small.
_BLOCK = 1 << 16

# The Psi guard: a smooth-part request is refused when Rankin's bound on its
# number of parts, the least over _RANKIN_SIGMAS, is over MAX_SMOOTH_PARTS.
MAX_SMOOTH_PARTS = 10**9
_RANKIN_SIGMAS = np.arange(1, 21) / 20
_RANKIN_FIRST = 1 << 20

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


def _multiples(primes: np.ndarray, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The n = p*k in [lo, hi] over ascending primes above sqrt(hi), _BLOCK at a
    time, k-major: for each k, the p are one slice of the array.  smooth_parts
    lists its parts above sqrt(x) with it; the count kernel needs only how many
    p each k has (_moves)."""
    k = np.arange(max(1, lo // primes[-1]), hi // primes[0] + 1, dtype=primes.dtype)
    first = np.searchsorted(primes, -(-lo // k))
    lengths = np.searchsorted(primes, hi // k, "right") - first
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if k.size else 0  # k is empty below the smallest prime
    for j in range(0, total, _BLOCK):  # pairs j..j_end-1 come from the k in a..b-1
        j_end = min(j + _BLOCK, total)
        a, b = np.searchsorted(ends, (j, j_end - 1), "right") + (0, 1)
        span = np.minimum(ends[a:b], j_end) - np.maximum(starts[a:b], j)
        at = np.repeat(first[a:b] - starts[a:b], span) + np.arange(j, j_end)
        yield np.repeat(k[a:b], span) * primes[at]


def _plan(
    x: int, specs: tuple[SetSpec, ...], width: int
) -> tuple[list[tuple[int, int]], list[tuple[int, np.ndarray]]]:
    """The count kernel's two halves.  direct holds the (modulus, key byte)
    pairs sieved in every segment: the set primes <= sqrt(x) and, in
    multiplicity mode, their powers <= x.  groups holds the set primes above
    sqrt(x) grouped by their key increment d(p), the sum of 256^i over the key
    bytes i of the sets that hold p, as (d, ascending primes) pairs."""
    root = math.isqrt(x)
    direct: list[tuple[int, int]] = []
    large: list[tuple[np.ndarray, int]] = []  # (a set's primes in (root, x], its increment)
    for spec, i in zip(specs, range(width - 1, -1, -1)):
        ps = spec.primes.array
        cut, stop = np.searchsorted(ps, (root, x), "right").tolist()
        for p in ps[:cut].tolist():
            q = p
            while q <= x and (q == p or spec.mode is CountMode.WITH_MULTIPLICITY):
                direct.append((q, i))
                q *= p
        if stop > cut:
            large.append((ps[cut:stop], 1 << 8 * i))
    if len(large) < 2:
        return direct, [(inc, ps) for ps, inc in large]
    # np.unique is slow on many distinct int64; a stable sort merges the sorted runs
    primes = np.concatenate([ps for ps, _ in large])
    bits = np.array([1 << j for j in range(len(large))], dtype=np.uint8)
    tags = np.repeat(bits, [ps.size for ps, _ in large])
    order = np.argsort(primes, kind="stable")
    primes, tags = primes[order], tags[order]
    first = np.flatnonzero(np.append(True, primes[1:] != primes[:-1]))
    primes, holders = primes[first], np.bitwise_or.reduceat(tags, first)  # bit j: large[j] holds p
    return direct, [
        (sum(inc for j, (_, inc) in enumerate(large) if h >> j & 1), primes[holders == h])
        for h in np.flatnonzero(np.bincount(holders)).tolist()
    ]


def _direct_keys(direct: list[tuple[int, int]], width: int, seg_lo: int, seg_hi: int) -> np.ndarray:
    """Each n in [seg_lo, seg_hi] as one unsigned integer, one byte per set,
    counting only the directly sieved moduli; set 0's byte is the most
    significant, so integer order is the vectors' lexicographic order."""
    n_seg = seg_hi - seg_lo + 1
    counters = np.zeros((n_seg, width), dtype=np.uint8)
    for q, i in direct:
        start = -seg_lo % q
        if start < n_seg:
            counters[start::q, i] += 1
    return counters.view(f"<u{width}").ravel()


def _moves(
    x: int, small: np.ndarray, groups: list[tuple[int, np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The tallies the set primes above sqrt(x) move, as (keys, tallies) pairs.
    n = p*k with such a p has k = n // p <= sqrt(x), p does not divide k, and
    no other prime factor above sqrt(x): its direct key is key(k) = small[k - 1],
    and its true key is key(k) + d(p).  So for each group (d, primes) and each k,
    c_d(k) = #{p in the group : p <= x // k} tallies move from key(k) to
    key(k) + d."""
    bounds = x // np.arange(1, small.size + 1)
    out = []
    for d, primes in groups:
        c = np.searchsorted(primes, bounds, "right")
        k = int(np.count_nonzero(c))  # c falls with k: c[:k] > 0
        out += [(small[:k], -c[:k]), (small[:k] + small.dtype.type(d), c[:k])]
    return out


def _check_moments(counts: JointCounts) -> None:
    """Each set's first moment, the sum over keys of k_i * tally, must be
    sum_(p in T_i) x // p (distinct) or sum_(p in T_i, a >= 1) x // p^a
    (multiplicity), formed from the set's own primes; both are exact int64
    (at most 40x < 2^46)."""
    x = counts.x
    moments = (counts.tallies @ counts.keys.astype(np.int64)).tolist()
    for i, (spec, got) in enumerate(zip(counts.specs, moments)):
        ps = spec.primes.array
        want = int((x // ps[: np.searchsorted(ps, x, "right")]).sum())  # x = 1 admits any set
        if spec.mode is CountMode.WITH_MULTIPLICITY:
            p = ps[: np.searchsorted(ps, math.isqrt(x), "right")]
            q = p * p
            while q.size:  # the powers p^a <= x, a >= 2
                want += int((x // q).sum())
                keep = q <= x // p
                p, q = p[keep], q[keep] * p[keep]
        if got != want:
            raise RuntimeError(f"set {i}: first moment {got} != {want} from its primes")


def joint_factor_counts(
    x: int,
    specs: list[SetSpec] | tuple[SetSpec, ...],
    *,
    segment_size: int = SEGMENT_SIZE,
) -> JointCounts:
    """Exact joint counts of factor-count vectors via the segmented sieve.

    Each segment's direct keys are tallied by value; the keys of k <= sqrt(x)
    are kept for _moves when a set has primes above sqrt(x).  One np.unique
    over the values merges the segments and the moves; set 0 being the most
    significant key byte, value order is the lexicographic order of the count
    vectors.  The total must be x, every tally positive, and each set's first
    moment its closed form.
    """
    specs = _validate_request(x, specs)
    bounds = segment_bounds(1, x, segment_size)
    root = math.isqrt(x)
    width = 1 << max(1, (len(specs) - 1).bit_length())  # key bytes: 2, 4 or 8
    direct, groups = _plan(x, specs, width)
    parts, small = [], []
    for seg_lo, seg_hi in bounds:
        keys = _direct_keys(direct, width, seg_lo, seg_hi)
        if groups and seg_lo <= root:
            small.append(keys[: root - seg_lo + 1].copy())
        parts.append(np.unique(keys, return_counts=True))
    if groups:
        parts += _moves(x, np.concatenate(small), groups)
    values, at = np.unique(np.concatenate([v for v, _ in parts]), return_inverse=True)
    tallies = np.zeros(values.size, dtype=np.int64)
    np.add.at(tallies, at, np.concatenate([c for _, c in parts]))
    if tallies.min() < 1:
        raise RuntimeError(f"a count vector has tally {tallies.min()} after the large-prime moves")
    digits = values.view(np.uint8).reshape(values.size, -1)[:, ::-1][:, : len(specs)]
    if digits.max(initial=0) >= _SATURATION:
        raise RuntimeError("counter saturation: count exceeded one byte")
    result = JointCounts(int(x), specs, np.ascontiguousarray(digits), tallies)
    if result.total() != x:
        raise RuntimeError(f"count total {result.total()} != x={x}")
    _check_moments(result)
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


def smooth_primes(x: int, y: int) -> np.ndarray:
    """The primes <= y of a smooth-part request, after its checks: y >= 2,
    x >= y, the x cap, prime_array's own gates, then the Psi guard.  A y over
    _RANKIN_FIRST is judged on the primes <= _RANKIN_FIRST before it is
    sieved: each sigma's product over them is at most the one over the primes
    <= y, so a refusal there is the full bound's verdict."""
    if y < 2:
        raise DomainError(f"smoothness bound must be >= 2, got {y}")
    if x < y:
        raise DomainError(f"x must be >= y, got x={x} < y={y}")
    check_x_cap(x)
    if x <= MAX_SMOOTH_PARTS:  # Psi(x, y) <= x is under the cap
        return prime_array(1, y)
    check_prime_list(1, y)
    for z in (_RANKIN_FIRST, y) if y > _RANKIN_FIRST else (y,):
        primes = prime_array(1, z)
        if (bound := _log_rankin(x, primes)) > math.log(MAX_SMOOTH_PARTS):
            raise CapError(  # else Psi(x, y) <= Rankin is under the cap
                f"Rankin's bound allows {'at least ' * (z < y)}{math.exp(bound):.3g} smooth "
                f"parts of n <= {x} for y={y}, over the cap of {MAX_SMOOTH_PARTS:.0e}"
            )
    return primes


def _log_rankin(x: int, primes: np.ndarray) -> float:
    """log of Rankin's bound Psi(x, y) <= x^s prod_(p <= y) (1 - p^-s)^-1 (Rankin,
    1938; Granville, "Smooth numbers", 2008), the least over _RANKIN_SIGMAS."""
    logs = _RANKIN_SIGMAS * math.log(x)
    for block in (primes[i : i + _BLOCK] for i in range(0, primes.size, _BLOCK)):
        logs -= np.log1p(-np.exp(np.outer(_RANKIN_SIGMAS, -np.log(block)))).sum(axis=1)
    return float(logs.min())


def smooth_parts(x: int, primes: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The y-smooth parts s of n <= x, given the primes <= y, and their counts
    R(x // s) (Hildebrand and Tenenbaum, 1993), as int64 blocks.  A part whose
    largest prime p is <= sqrt(x) is p^a times an earlier part; the rest are
    p*m with p > sqrt(x), m <= x // p.  The counts must total x."""
    root = math.isqrt(x)
    table = legendre_table(x, primes)
    cut = int(np.searchsorted(primes, root, "right"))

    def parts() -> Iterator[np.ndarray]:
        base = np.ones(1, dtype=np.int64)  # the parts met so far, pruned to x // p
        yield base
        for p in primes[:cut].tolist():
            base = piece = base[base <= x // p]
            grown = [base]
            while (piece := p * piece[piece <= x // p]).size:  # p^a times the base
                yield piece
                grown.append(piece[piece <= x // (p + 1)])  # the next prime's bound at most
            base = np.concatenate(grown)
        if cut < primes.size:
            yield from _multiples(primes[cut:], 1, x)

    total = 0
    for s in _regroup(parts()):
        counts = table[np.where(s <= root, 2 * root + 1 - s, x // s)]  # R(x // s)
        total += int(counts.sum())
        yield s, counts
    if total != x:
        raise RuntimeError(f"smooth-part counts total {total} != x={x}")


def _regroup(arrays: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """The entries of a stream of arrays, in order, in blocks of at most 2^15
    (exact_sum's block): small arrays are joined, so numpy steps cover many."""
    held, size, most = [], 0, _BLOCK // 2
    for a in arrays:
        for block in (a[i : i + most] for i in range(0, a.size, most)):
            if size + block.size > most:
                yield np.concatenate(held)
                held, size = [], 0
            held.append(block)
            size += block.size
    if held:
        yield np.concatenate(held)


def smooth_part_distribution(x: int, y: int) -> dict[int, int]:
    """Counts of the y-smooth part of n over n in [1, x], as a dict ascending in the part."""
    parts, counts = map(np.concatenate, zip(*smooth_parts(x, smooth_primes(x, y))))
    return dict(sorted(zip(parts.tolist(), counts.tolist())))

"""Exact joint distributions of prime-factor counts for uniform n in [1, x].

For any prime sets T_1..T_m and a counting mode per set (distinct prime
divisors, or prime-power divisors counted with multiplicity), these routines
tally the exact number of integers n <= x realizing each count vector.

The main path splits each n by its largest prime factor, as Lagarias, Miller
and Odlyzko (1985) and Deleglise and Rivat (1996) count primes.  The nodes
are m = 1 and every m*q^e with q prime above P(m), the largest prime of m,
m*q^2 <= x and m*q^e <= x; each node tallies itself at key(m).  Every other
n is m*q for a node m and one prime q in (max(P(m), isqrt(x // m)), x // m],
and its key is key(m) + d_G, where the group G holds the primes in exactly
the same sets as q.  So each node also tallies, per group, pi_G(x // m) -
pi_G(lo) at key(m) + d_G, read off one table per group over legendre_table's
V = [0, r] and {x // d}, r = isqrt(x): a listed group's by searchsorted in
its primes, the primes in no set's as the table's pi less the listed groups.
Only the primes <= sqrt(x) are enumerated: about x^0.72 nodes (85,582 at
1e7), not x integers.  The nodes are expanded depth first in blocks, so
memory follows the block and the tables.  Each set's first moment is checked
against its closed form.  A trial-division oracle is an independent slow
route for cross-checking.

The y-smooth parts of n <= x are enumerated, not found by a pass over every
n: count(s) = R(x // s), R(t) being the number of m <= t without a prime
factor <= y, S(t) + 1 - pi(y) off the Legendre table's S at every t read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import CapError, DomainError
from .primesets import PrimeSet, check_prime_list, check_x_cap, legendre_table, prime_array

MAX_SETS = 8
ORACLE_MAX_X = 10**6

# smooth_parts expands its (p, k) pairs _BLOCK at a time to keep its
# temporaries small; the count expands its nodes _NODE_BLOCK pairs at a time.
_BLOCK = 1 << 16
_NODE_BLOCK = 1 << 12

# The Psi guard: a smooth-part request is refused when Rankin's bound on its
# number of parts, the least over _RANKIN_SIGMAS, is over MAX_SMOOTH_PARTS.
MAX_SMOOTH_PARTS = 10**9
_RANKIN_SIGMAS = np.arange(1, 21) / 20
_RANKIN_FIRST = 1 << 20

# A count vector's key is one byte per set in a uint64, set 0's the most
# significant, so key order is the vectors' lexicographic order.  Counts
# within the caps never reach the saturation value (Omega(n) <= 40 for
# n <= 2^40), so hitting it means a bug.
_SHIFTS = np.arange(8 * (MAX_SETS - 1), -1, -8, dtype=np.uint64)
# _STEPS[g]: the key increment of a prime held by the sets in the bit mask g
_BITS = np.unpackbits(np.arange(1 << MAX_SETS, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_STEPS = (_BITS.astype(np.uint64) << _SHIFTS).sum(axis=1, dtype=np.uint64)
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


def _pairs(first: np.ndarray, lengths: np.ndarray, block: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The ragged pairs (row, first[row] + j), j < lengths[row], row-major, as
    (rows, items) index arrays of at most block pairs each."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if ends.size else 0
    for j in range(0, total, block):  # pairs j..j_end-1 come from the rows a..b-1
        j_end = min(j + block, total)
        a, b = np.searchsorted(ends, (j, j_end - 1), "right") + (0, 1)
        rows = np.repeat(np.arange(a, b), np.minimum(ends[a:b], j_end) - np.maximum(starts[a:b], j))
        yield rows, first[rows] - starts[rows] + np.arange(j, j_end)


def _plan(x: int, specs: tuple[SetSpec, ...]) -> tuple[np.ndarray, ...]:
    """The enumeration's inputs: the primes <= r = isqrt(x); pi[i, g], the
    number of group g's primes <= v_i over V = [0, r] and {x // d : d <= r},
    the V and pi of one legendre_table; each group's key increment d_G; and
    those of each p <= r and of its further powers.  A group holds the primes
    of one mask of sets; d_G adds 1 to the byte of each set in the mask."""
    first, *rest = sorted(range(len(specs)), key=lambda i: -specs[i].primes.array.size)
    union = specs[first].primes.array  # grown from the largest set: a set inside it is looked up
    mask = np.full(union.size, 1 << first, dtype=np.uint8)  # bit i: set i holds the prime
    for i in rest:
        ps = specs[i].primes.array
        at = np.minimum(np.searchsorted(union, ps), union.size - 1)
        held = union[at] == ps
        mask[at[held]] |= 1 << i
        if not held.all():
            at = np.searchsorted(union, ps[~held])
            union, mask = np.insert(union, at, ps[~held]), np.insert(mask, at, 1 << i)
    small = prime_array(1, math.isqrt(x))
    v, pi_all = legendre_table(x, small)
    top = 1 << first  # the primes of the largest set alone, read off the union
    others = np.flatnonzero(mask != top)
    others = others[np.argsort(mask[others], kind="stable")]  # by group, each ascending
    pis = {
        int(mask[at[0]]): np.searchsorted(union[at], v, "right")
        for at in np.split(others, np.flatnonzero(np.diff(mask[others])) + 1)
        if at.size
    }
    listed = np.searchsorted(union, v, "right")
    pis[top] = listed - sum(pis.values())  # the union less the other groups
    pis[0] = pi_all - listed  # the primes in no set: every prime less the union
    kept = [g for g, pi in pis.items() if pi[-1]] or [0]
    pi, steps = np.stack([pis[g] for g in kept], axis=1), _STEPS[kept]
    one = steps[np.argmax(pi[small] - pi[small - 1], axis=1)]  # the group whose pi steps at p
    multi = sum(1 << i for i, s in enumerate(specs) if s.mode is CountMode.WITH_MULTIPLICITY)
    return small, pi, steps, one, one & _STEPS[multi] * np.uint64(255)


def _nodes(
    x: int, small: np.ndarray, one: np.ndarray, more: np.ndarray, block: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """The nodes depth first, as blocks (m, key(m), nxt, x // m, c): m = 1 and
    every m*q^e with q prime above P(m), m*q^2 <= x and m*q^e <= x.  P(m) is
    small[nxt - 1], and c counts the primes q with q^2 <= x // m.  A block's
    children come block (node, prime) pairs at a time with their powers, and
    each is expanded before the next is formed, so one block per level is held."""
    squares = small * small

    def expand(m, key, nxt):
        t = x // m
        c = np.searchsorted(squares, t, "right")
        yield m, key, nxt, t, c
        for rows, at in _pairs(nxt, np.maximum(c - nxt, 0), block):
            q = small[at]
            level = [(m[rows] * q, key[rows] + one[at], at + 1)]
            while (keep := np.flatnonzero(level[-1][0] <= x // q)).size:  # the next power of q
                q, at = q[keep], at[keep]
                level.append((level[-1][0][keep] * q, level[-1][1][keep] + more[at], at + 1))
            yield from expand(*map(np.concatenate, zip(*level)))

    return expand(np.ones(1, np.int64), np.zeros(1, np.uint64), np.zeros(1, np.int64))


def _bulk(pi: np.ndarray, m: np.ndarray, t: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """The n = m*q with q prime in (lo, t], t = x // m, per group: the rows,
    groups and counts pi_G(t) - pi_G(lo) that are not 0.  t <= lo leaves no
    such q: a count of 0, not a negative one."""
    r = pi.shape[0] // 2
    live = np.flatnonzero(t > lo)
    counts = pi[np.where(t[live] <= r, t[live], 2 * r + 1 - m[live])] - pi[lo[live]]
    rows, cols = np.nonzero(counts)
    return live[rows], cols, counts[rows, cols]


def _fold(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(keys, counts) pairs summed by key, ascending (float sums of integers
    below 2^53 are exact)."""
    keys, at = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    return keys, np.bincount(at, np.concatenate([c for _, c in parts])).astype(np.int64)


def _tally(x: int, specs: tuple[SetSpec, ...], block: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys and tallies of the node enumeration, unchecked.  Each node
    tallies itself at key(m) and its bulk, per group G, at key(m) + d_G.  The
    held tallies are folded in once they outnumber the keys folded so far."""
    if block < 1:
        raise DomainError(f"segment_size must be >= 1, got {block}")
    small, pi, steps, one, more = _plan(x, specs)
    largest = np.concatenate(([0], small))  # P(m) at nxt, 0 for m = 1
    folded, held = [(np.zeros(0, np.uint64), np.zeros(0, np.int64))], []
    for m, key, nxt, t, c in _nodes(x, small, one, more, block):
        rows, cols, counts = _bulk(pi, m, t, largest[np.maximum(nxt, c)])
        held += [(key, np.ones(key.size, np.int64)), (key[rows] + steps[cols], counts)]
        if sum(k.size for k, _ in held) >= max(folded[0][0].size, block):
            folded, held = [_fold(folded + held)], []
    return _fold(folded + held)


def _check_moments(counts: JointCounts) -> None:
    """Each set's first moment, the sum over keys of k_i * tally, must be
    sum_(p in T_i) x // p (distinct) or sum_(p in T_i, a >= 1) x // p^a
    (multiplicity), formed from the set's own primes, _BLOCK at a time; both
    are exact int64 (at most 40x < 2^46)."""
    x = counts.x
    moments = (counts.tallies @ counts.keys.astype(np.int64)).tolist()
    for i, (spec, got) in enumerate(zip(counts.specs, moments)):
        ps = spec.primes.array
        ps = ps[: np.searchsorted(ps, x, "right")]  # x = 1 admits any set
        want = sum(int((x // ps[j : j + _BLOCK]).sum()) for j in range(0, ps.size, _BLOCK))
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
    segment_size: int = _NODE_BLOCK,
) -> JointCounts:
    """Exact joint counts of factor-count vectors by the node enumeration.

    segment_size is the node block: the nodes' children are expanded at most
    that many (node, prime) pairs at a time.  It sets memory and speed, never
    the result; below 1 it is a DomainError.  Key order is the lexicographic
    order of the count vectors.  The total must be x, every tally positive,
    no count saturated and each set's first moment its closed form.
    """
    specs = _validate_request(x, specs)
    keys, tallies = _tally(x, specs, segment_size)
    if tallies.min() < 1:
        raise RuntimeError(f"a count vector has tally {tallies.min()}")
    digits = (keys[:, None] >> _SHIFTS[: len(specs)]).astype(np.uint8)
    if digits.max(initial=0) >= _SATURATION:
        raise RuntimeError("counter saturation: count exceeded one byte")
    result = JointCounts(int(x), specs, digits, tallies)
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
    p*m with p > sqrt(x), m <= x // p.  R(t) = 1 for 1 <= t <= primes[-1]: the
    only m <= t free of the primes <= y is 1.  So the table is read only for
    s <= x // (primes[-1] + 1): at (1e7, 1000) the 7,609 parts up to 10,020
    of 2,028,358.  The counts must total x."""
    root = math.isqrt(x)
    table = legendre_table(x, primes)[1] + (1 - primes.size)  # R(t) at every t > primes[-1]
    cut = int(np.searchsorted(primes, root, "right"))
    read = x // (int(primes[-1]) + 1)  # a part above it has x // s <= primes[-1]

    def parts() -> Iterator[np.ndarray]:
        base = np.ones(1, dtype=np.int64)  # the parts met so far, pruned to x // p
        yield base
        for p in primes[:cut].tolist():
            base = piece = base[base <= x // p]
            grown = [base]
            while piece.size:  # p^a times the base
                piece = p * piece
                yield piece
                piece = piece[piece <= x // p]
                grown.append(piece[piece <= x // (p + 1)])  # the next prime's bound at most
            base = np.concatenate(grown)
        if cut < primes.size:  # p*k, p > sqrt(x), k-major: for each k the p are one slice
            big, k = primes[cut:], np.arange(1, x // primes[cut] + 1)
            lengths = np.searchsorted(big, x // k, "right")
            yield from (k[rows] * big[at] for rows, at in _pairs(np.zeros_like(k), lengths, _BLOCK))

    total = 0
    for s in _regroup(parts()):
        counts = np.ones_like(s)
        at = np.flatnonzero(s <= read)
        low = s[at]
        counts[at] = table[np.where(low <= root, 2 * root + 1 - low, x // low)]  # R(x // s)
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

"""Memory regression tests: traced peaks that stay bounded.

numpy reports its buffers to tracemalloc, so a traced peak covers both the
arrays and the Python objects a call allocates.
"""

import itertools
import tracemalloc

import numpy as np

from primepoisson import (
    CountMode,
    SetSpec,
    joint_factor_counts,
    model_tv_exact,
    primes_in_interval,
    sieve_primes,
)
from primepoisson.dist import exact_sum
from primepoisson.factorstats import _validate_request
from primepoisson.primesets import legendre_table, prime_array


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_model_tv_peak_stays_under_4_mib():
    # one Legendre table of 2 sqrt(x) int64 entries and the parts 2^15 at a
    # time: about 2.5 and 2.7 MiB (a pass over every n in 2^20 segments took 22)
    model_tv_exact(1000, 10)  # caches (prime table) outside the traced calls
    for x in (2**21, 2**23):
        peak = traced_peak(lambda: model_tv_exact(x, 1000))
        assert peak < 4 << 20, (x, peak)


def test_model_tv_log_constant_takes_no_list_of_every_prime():
    # y = x = 4e6: the parts and the 283,146 primes <= y take about 6 MiB; a
    # Python list of every prime and its floats added about 7 more
    model_tv_exact(1000, 10)
    peak = traced_peak(lambda: model_tv_exact(4 * 10**6, 4 * 10**6))
    assert peak < 8 << 20, peak


def test_single_spec_validation_allocates_nothing_per_prime():
    spec = SetSpec(sieve_primes(2 * 10**6), CountMode.WITH_MULTIPLICITY)
    peak = traced_peak(lambda: _validate_request(2 * 10**6, [spec]))
    # a set of the 148,933 primes would take about 42 bytes per prime
    assert peak <= 2 * len(spec.primes), peak


def test_exact_sum_works_block_by_block():
    terms = np.random.default_rng(0).random(1 << 20)  # 8 MiB
    peak = traced_peak(lambda: exact_sum([terms]))
    assert peak < 1 << 20, peak


def test_exact_sum_of_huge_values_among_subnormals_works_block_by_block():
    # each block's top is 2^1000 or more and it leaves its 2047 subnormals:
    # 200 blocks (50 MiB) put 3.2 MiB of them through a carry of one block
    rng = np.random.default_rng(1)
    block = np.ones(1 << 15)
    big = rng.choice([-1.0, 1.0], 1 << 13) * np.ldexp(1.0 + rng.random(1 << 13), 1000)
    block[::4], block[2::4] = big, -big * (1 - 2.0**-40)
    block[1:4094:2] = np.ldexp(rng.random(2047), -1022)
    peak = traced_peak(lambda: exact_sum(itertools.repeat(block, 200)))
    assert peak < 1 << 20, peak


def test_large_prime_pass_works_block_by_block():
    # the second set's 81,461 primes above sqrt(x) are counted in bulk, off
    # tables over the 2 sqrt(x) values of V, and the nodes come in blocks:
    # the peak is about 3.3 MiB (6.3 in the segmented kernel this replaced)
    small = SetSpec(sieve_primes(100), CountMode.DISTINCT)  # a first call fills lazy caches
    joint_factor_counts(2**12, (small, SetSpec(primes_in_interval(101, 2**12), CountMode.DISTINCT)))
    x, specs = 2**23, (small, SetSpec(primes_in_interval(2**12 + 1, 2**20), CountMode.DISTINCT))
    peak = traced_peak(lambda: joint_factor_counts(x, specs))
    assert peak < 8 << 20, peak


def test_node_enumeration_works_block_by_block():
    # the 440,593 nodes at 1e8 in blocks of 2^12 pairs, one pending block per
    # level, and two tables of 20,001 entries: about 4.3 MiB.  The segmented
    # kernel peaked at 6.2 MiB and a level-by-level expansion at 37 MiB
    spec = SetSpec(sieve_primes(10**4), CountMode.WITH_MULTIPLICITY)
    joint_factor_counts(10**4, (spec,))  # a first call fills lazy caches
    peak = traced_peak(lambda: joint_factor_counts(10**8, (spec,)))
    assert peak < 5 << 20, peak


def test_legendre_table_takes_the_primes_above_the_cube_root_in_chunks():
    # V holds 200,001 values at 1e10, 1.5 MiB per int64 column: the table and
    # one lone prime's step peak at about 7.9 MiB, and the 9,267 primes in
    # (x^(1/3), sqrt(x)] in one unchunked step at about 15.7
    base = prime_array(1, 10**5)
    legendre_table(1000, base)
    peak = traced_peak(lambda: legendre_table(10**10, base))
    assert peak < 10 << 20, peak

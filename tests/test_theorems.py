"""Bound-check reports: hand-verifiable cases and structural invariants."""

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primepoisson import (
    CapError,
    CountMode,
    DomainError,
    EmptyConditionError,
    PrimeSet,
    SetSpec,
    Thm1Config,
    check_cor32,
    check_corollary1,
    check_halasz,
    check_thm1,
    check_thm2,
    check_thm3,
    check_thm4_local,
    count_primes,
    harmonic_sums,
    joint_factor_counts,
    sieve_primes,
)


def dspec(ps):
    return SetSpec(ps, CountMode.DISTINCT)


def mspec(ps):
    return SetSpec(ps, CountMode.WITH_MULTIPLICITY)


# ------------------------------------------------------------------- thm1


def test_thm1_small_run_reports_consistent_fields():
    cfg = Thm1Config(x=10**4, y=31, specs=(dspec(sieve_primes(31)),))
    rep = check_thm1(cfg)
    assert 0.0 <= rep.lhs <= 1.0
    assert rep.rhs > 0
    assert rep.ratio == pytest.approx(rep.lhs / rep.rhs, rel=1e-12)
    assert rep.params["u"] == pytest.approx(math.log(10**4) / math.log(31), rel=1e-12)
    summary = rep.params["sets"][0]
    hs = harmonic_sums(sieve_primes(31))
    assert summary["h"] == pytest.approx(hs.h, abs=1e-15)


def test_thm1_triangle_decomposition():
    cfg = Thm1Config(x=10**4, y=31, specs=(dspec(sieve_primes(31)),))
    rep = check_thm1(cfg)
    d = rep.params["decomposition"]
    slack = (
        d["model_vs_poisson"]
        + d["exact_vector_tv"]
        + d["model_vs_poisson_uncertainty"]
        + rep.uncertainty
        - rep.lhs
    )
    assert slack >= -1e-12
    assert d["triangle_slack"] == pytest.approx(slack, abs=1e-15)


def test_thm1_singleton_recovers_inverse_square_order():
    cfg = Thm1Config(x=10**6, y=101, specs=(mspec(PrimeSet((101,))),))
    rep = check_thm1(cfg)
    p2 = 101.0**2
    assert 0.1 / p2 < rep.lhs < 10.0 / p2


def test_thm1_vacuous_at_y_equals_x():
    cfg = Thm1Config(x=1000, y=1000, specs=(dspec(PrimeSet((2, 3))),))
    rep = check_thm1(cfg)
    assert rep.params["u_term"] == 1.0
    assert rep.rhs >= 1.0
    assert rep.ratio <= 1.0


def test_thm1_rejects_bad_configs():
    with pytest.raises(DomainError):
        check_thm1(Thm1Config(x=100, y=200, specs=(dspec(PrimeSet((2,))),)))
    with pytest.raises(DomainError):
        check_thm1(Thm1Config(x=100, y=10, specs=(dspec(PrimeSet((13,))),)))
    # the message names the first prime above y, which may sit past a member equal to y
    sets = (dspec(PrimeSet((2, 3))), dspec(PrimeSet((7, 11, 13, 17))))
    with pytest.raises(DomainError, match="^prime 13 exceeds the smoothness bound y=11$"):
        check_thm1(Thm1Config(x=100, y=11, specs=sets))
    with pytest.raises(DomainError):
        check_thm1(
            Thm1Config(
                x=100, y=10, specs=(dspec(PrimeSet((2, 3))), dspec(PrimeSet((3, 5))))
            )
        )


def test_thm1_report_is_deterministic():
    cfg = Thm1Config(x=2000, y=13, specs=(dspec(sieve_primes(13)),))
    a = json.dumps(check_thm1(cfg).as_json(), sort_keys=True)
    b = json.dumps(check_thm1(cfg).as_json(), sort_keys=True)
    assert a == b


# ------------------------------------------------------------------- thm2


def test_thm2_single_prime_hand_case():
    rep = check_thm2(100, (PrimeSet((2,)),), (1,))
    assert rep.lhs == 0.5
    assert rep.params["eta"] == 1 and rep.params["xi"] == 0
    assert rep.rhs > rep.lhs  # bound comfortably holds here
    assert all(rep.params["h1_le_h_plus_1"])


def test_thm2_all_zero_full_cover_degenerate_case():
    primes = sieve_primes(100)
    half = PrimeSet(primes.primes[:12])
    rest = primes.difference(half)
    rep = check_thm2(100, (half, rest), (0, 0))
    assert rep.params["eta"] == 0 and rep.params["xi"] == 1
    assert rep.lhs == 1 / 100  # only n=1 has no prime factor at all
    assert rep.ratio <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(2, 3000),
    n_sets=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    ks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
)
def test_thm2_flags_match_prime_count(x, n_sets, seed, ks):
    # eta is read off the zero vector's tally; pi(x) is the independent route
    rng = random.Random(seed)
    primes = list(sieve_primes(x).primes)
    rng.shuffle(primes)
    n_sets = min(n_sets, len(primes))
    kept = primes[: rng.choice([len(primes), rng.randint(n_sets, len(primes))])]
    cuts = [0, *sorted(rng.sample(range(1, len(kept)), n_sets - 1)), len(kept)]
    sets = tuple(PrimeSet(tuple(sorted(kept[a:b]))) for a, b in zip(cuts, cuts[1:]))
    ks = tuple(ks[:n_sets])
    rep = check_thm2(x, sets, ks)
    eta = 0 if sum(len(s) for s in sets) == count_primes(x) else 1
    assert (rep.params["eta"], rep.params["xi"]) == (eta, int(eta == 0 and not any(ks)))
    counts = joint_factor_counts(x, tuple(dspec(s) for s in sets))
    assert rep.lhs == counts.counts.get(ks, 0) / x


def test_thm2_x_1_sets_cover_every_prime_vacuously():
    rep = check_thm2(1, (PrimeSet((2,)),), (0,))
    assert (rep.params["eta"], rep.params["xi"]) == (0, 1)
    assert (rep.lhs, rep.rhs, rep.ratio) == (1.0, 1.0, 1.0)


def test_thm2_rejects_overlap():
    with pytest.raises(DomainError):
        check_thm2(100, (PrimeSet((2, 3)), PrimeSet((3, 5))), (1, 1))


OVERLAPPING = (PrimeSet((2, 7, 11)), PrimeSet((13,)), PrimeSet((7, 11)))
OVERLAP_CHECKS = {
    "thm1": lambda: check_thm1(
        Thm1Config(x=10**4, y=31, specs=(*map(dspec, OVERLAPPING[:2]), mspec(OVERLAPPING[2])))
    ),
    "thm2": lambda: check_thm2(10**4, OVERLAPPING, (1, 0, 1)),
}


@pytest.mark.parametrize("check", list(OVERLAP_CHECKS))
def test_overlapping_sets_refused_before_any_law_or_count(monkeypatch, check):
    # Theorems 1 and 2 assume disjoint sets; the count kernel does not
    from primepoisson import theorems

    calls = []
    for name in ("poisson_pmf", "model_exact_pmf", "product_joint", "joint_factor_counts"):
        monkeypatch.setattr(theorems, name, lambda *a, name=name, **k: calls.append(name))
    with pytest.raises(DomainError, match="^sets must be pairwise disjoint; 7 repeats$"):
        OVERLAP_CHECKS[check]()
    assert calls == []


def test_thm2_reports_second_bound():
    rep = check_thm2(1000, (PrimeSet((2, 3)), PrimeSet((5,))), (2, 1))
    assert rep.params["rhs_second"] > 0
    assert rep.lhs <= rep.params["rhs_second"] + 1e-12


# ------------------------------------------------------------------- thm3


def test_thm3_zero_psi_is_vacuous():
    rep = check_thm3(x=10**4, tset=sieve_primes(10), k=2, a_param=3.0, psi=0.0)
    assert rep.lhs == 1.0  # every conditioned n deviates by >= 0
    assert rep.rhs == 1.0
    assert rep.ratio == 1.0


def test_thm3_complement_symmetry_exact():
    x = 10**4
    tset = sieve_primes(7)
    comp = sieve_primes(x).difference(tset)
    a = check_thm3(x=x, tset=tset, k=3, a_param=3.0, psi=0.5)
    b = check_thm3(x=x, tset=comp, k=3, a_param=3.0, psi=0.5)
    assert a.lhs == b.lhs
    assert a.params["alpha"] == pytest.approx(1.0 - b.params["alpha"], abs=1e-12)


def test_thm3_domain_checks():
    with pytest.raises(DomainError):
        check_thm3(x=10**4, tset=sieve_primes(10), k=50, a_param=3.0, psi=0.0)
    with pytest.raises(DomainError):
        check_thm3(x=10**4, tset=sieve_primes(10), k=2, a_param=3.0, psi=5.0)
    with pytest.raises(DomainError):
        check_thm3(x=10**4, tset=sieve_primes(10), k=2, a_param=1.0, psi=0.0)


def test_thm3_cells_share_one_table_per_x_and_t(monkeypatch):
    from primepoisson import theorems

    cfgs = [
        dict(x=10**4, tset=sieve_primes(30), k=k, a_param=3.0, psi=psi)
        for k in (1, 2, 3)
        for psi in (0.0, 0.5)
    ]
    theorems._thm3_table.cache_clear()
    first = [check_thm3(**cfg).as_json() for cfg in cfgs]
    calls = []
    real = theorems.joint_factor_counts

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(theorems, "joint_factor_counts", counting)
    theorems._thm3_table.cache_clear()
    again = [check_thm3(**cfg).as_json() for cfg in cfgs]
    assert again == first and len(calls) == 1
    check_thm3(x=10**4 + 1, tset=sieve_primes(30), k=2, a_param=3.0, psi=0.5)
    assert len(calls) == 2  # another x is another table


def test_thm3_table_is_shared_by_equal_sets_from_any_spec(monkeypatch):
    from primepoisson import cli, theorems

    calls = []
    real = theorems.joint_factor_counts

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(theorems, "joint_factor_counts", counting)
    theorems._thm3_table.cache_clear()
    listed = "list:" + ",".join(map(str, sieve_primes(97)))
    reports = [
        check_thm3(10**4, cli.parse_set_spec(text).primes, 2, 3.0, 0.5).as_json()
        for text in ("interval:2..100", listed)
    ]
    assert reports[0] == reports[1] and len(calls) == 1


def test_thm1_grid_over_cap_refused_before_counting(monkeypatch):
    from primepoisson import theorems

    calls = []
    monkeypatch.setattr(theorems, "joint_factor_counts", lambda *a, **k: calls.append(a))
    pairs = [(2, 3), (5, 7), (11, 13), (17, 19), (23, 29), (31, 37), (41, 43), (47, 53)]
    specs = tuple(SetSpec(PrimeSet(ps), CountMode.WITH_MULTIPLICITY) for ps in pairs)
    with pytest.raises(CapError, match="product grid of 60963840 entries"):
        check_thm1(Thm1Config(x=10**5, y=1000, specs=specs))
    assert calls == []


def test_thm1_sparse_exact_law_needs_no_box():
    # eight single-prime multiplicity sets: 20,198 observed count vectors whose
    # box has 62,868,960 cells; the TV against the product law builds neither
    # that box nor the product grid
    specs = tuple(mspec(PrimeSet((p,))) for p in (2, 3, 5, 7, 11, 13, 17, 19))
    cfg = Thm1Config(x=10**7, y=100, specs=specs, tail_eps=0.1, include_decomposition=False)
    tracemalloc.start()
    try:
        report = check_thm1(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lhs == 0.23697051715998896
    assert peak < 64 << 20, peak  # the 8-byte box alone would be 480 MiB


def test_headline_tv_builds_no_product_grid(monkeypatch):
    # cor1 and thm1 without the decomposition read the Poisson pmfs, not their grid
    from primepoisson import theorems

    calls = []
    real = theorems.product_joint
    monkeypatch.setattr(theorems, "product_joint", lambda c: calls.append(len(c)) or real(c))
    check_corollary1(10**5, 0, 1)
    specs = (dspec(sieve_primes(7)), mspec(PrimeSet((11, 13))))
    check_thm1(Thm1Config(x=10**4, y=31, specs=specs, include_decomposition=False))
    assert calls == []
    check_thm1(Thm1Config(x=10**4, y=31, specs=specs))
    assert calls == [2, 2]  # the decomposition's Poisson and model grids


def test_thm3_table_counts_all_primes_with_no_complement_set(monkeypatch):
    # the table is of (T, primes <= x): omega(n) is its second coordinate, so
    # the pi(x) - |T| primes outside T are never listed as a set
    from primepoisson import theorems

    x, tset = 10**6, sieve_primes(100)
    pi = count_primes(x)
    sizes, calls = [], []
    post_init, real = PrimeSet.__post_init__, theorems.joint_factor_counts
    of_sieve = PrimeSet._of_sieve.__func__
    monkeypatch.setattr(PrimeSet, "__post_init__", lambda s: post_init(s) or sizes.append(len(s)))
    # the sieve's own sets skip __post_init__: they are seen where they are made
    monkeypatch.setattr(
        PrimeSet, "_of_sieve", classmethod(lambda cls, a: sizes.append(a.size) or of_sieve(cls, a))
    )
    monkeypatch.setattr(
        theorems, "joint_factor_counts", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    theorems._thm3_table.cache_clear()
    rep = check_thm3(x, tset, 4, 3.0, 1.0)
    assert sizes.count(pi) == 1 and pi - len(tset) not in sizes
    assert len(calls) == 1
    assert rep.params["complement_size"] == pi - len(tset)


def test_thm3_table_sums_only_h_over_every_prime(monkeypatch):
    # the table reads only h of the primes <= x, so harmonic_sums, which builds
    # and sums three term arrays, runs on T alone; h is the float it would give
    from primepoisson import theorems

    x, tset = 10**5, sieve_primes(100)
    sizes = []
    real = theorems.harmonic_sums
    monkeypatch.setattr(theorems, "harmonic_sums", lambda ps: sizes.append(len(ps)) or real(ps))
    theorems._thm3_table.cache_clear()
    check_thm3(x, tset, 3, 3.0, 0.5)
    assert sizes and set(sizes) == {len(tset)}
    assert theorems._thm3_table(x, tset)[0] == real(sieve_primes(x)).h


def test_thm3_empty_condition_is_distinct_error():
    # at x=100 no integer has 5 distinct prime factors (2*3*5*7*11 > 100)
    with pytest.raises(EmptyConditionError):
        check_thm3(x=100, tset=PrimeSet((2, 3)), k=5, a_param=11.0, psi=0.0)


# ----------------------------------------------------------------- halasz


def test_halasz_k0_boundary_reported():
    reports = check_halasz(10**4, sieve_primes(100), range(0, 2))
    r0 = reports[0]
    hs = harmonic_sums(sieve_primes(100))
    assert r0.rhs == pytest.approx(math.exp(-hs.h), rel=1e-12)
    assert r0.ratio == pytest.approx(r0.lhs * math.exp(hs.h), rel=1e-12)


def test_halasz_ratio_h1_arithmetic():
    hs = harmonic_sums(sieve_primes(100))
    for rep in check_halasz(10**4, sieve_primes(100), range(0, 5)):
        k = rep.params["k"]
        expected = rep.lhs * math.exp(hs.h1) * math.factorial(k) / hs.h1**k
        assert rep.params["ratio_h1"] == pytest.approx(expected, rel=1e-12)


def test_halasz_reports_both_comparators():
    reports = check_halasz(10**4, sieve_primes(100), range(2, 4))
    for rep in reports:
        assert "ratio_h1" in rep.params
        assert rep.params["ratio_h1"] > 0
        assert "error_shape" in rep.params


# ------------------------------------------------------------------- cor1


def test_cor1_block_feasibility_arithmetic():
    rep = check_corollary1(10**8, 1, 2, 1e-12)
    assert rep.params["used_blocks"] == [1]
    assert rep.params["skipped_blocks"] == [2]
    assert rep.params["xi_effective"] == 1
    block = rep.params["blocks"][0]
    assert block["lo"] == 15 and block["hi"] == 1618
    assert abs(block["h_minus_1"]) < 0.25  # the qualitative "rate near 1" claim
    assert rep.rhs == pytest.approx(math.exp(-math.exp(0.5)), rel=1e-12)


def test_cor1_infeasible_and_empty_ranges():
    with pytest.raises(DomainError):
        check_corollary1(100, 2, 3, 1e-12)
    with pytest.raises(DomainError):
        check_corollary1(10**6, 2, 1, 1e-12)


def test_cor1_last_block_is_skipped_not_an_error():
    # blocks 2..10 do not fit (t_k^3 > x), so t_11, which does not exist, is never asked for
    rep = check_corollary1(10**5, 0, 10, 1e-12)
    assert rep.params["used_blocks"] == [0, 1]
    assert rep.params["skipped_blocks"] == list(range(2, 11))
    assert rep.lhs == check_corollary1(10**5, 0, 9, 1e-12).lhs


def test_cor1_reads_no_cutoff_past_the_first_block_that_does_not_fit(monkeypatch):
    from primepoisson import primesets, theorems

    read = []
    real = primesets.expexp_cutoff

    def spy(k):
        read.append(k)
        return real(k)

    monkeypatch.setattr(theorems, "expexp_cutoff", spy)
    monkeypatch.setattr(primesets, "expexp_cutoff", spy)
    check_corollary1(10**5, 0, 10)
    assert read and max(read) == 2  # block 2 does not fit: t_2^3 > 1e5
    # a range past t_10 is still refused whole: index 11 is asked for first, and refused
    read.clear()
    with pytest.raises(DomainError, match=r"must be in \[0, 10\], got 11"):
        check_corollary1(10**5, 0, 11)
    assert read == [11]


# ------------------------------------------------------------- thm4/cor32


def test_thm4_k0_closed_form():
    ps = PrimeSet((2, 3, 5))
    reports = check_thm4_local(ps, CountMode.DISTINCT, 1e-12)
    hs = harmonic_sums(ps)
    prod = (1 - 1 / 2) * (1 - 1 / 3) * (1 - 1 / 5)
    assert reports[0].lhs == pytest.approx(abs(prod - math.exp(-hs.h)), abs=1e-15)


def test_thm4_singleton_multiplicity_k2_closed_form():
    reports = check_thm4_local(PrimeSet((101,)), CountMode.WITH_MULTIPLICITY, 1e-14)
    lam = 1 / 100
    expected = abs((1 / 101**2) * (100 / 101) - math.exp(-lam) * lam**2 / 2)
    assert reports[2].lhs == pytest.approx(expected, rel=1e-9)


def test_thm4_regime_split():
    ps = sieve_primes(31)
    reports = check_thm4_local(ps, CountMode.DISTINCT, 1e-12)
    hs = harmonic_sums(ps)
    for rep in reports:
        k = rep.params["k"]
        assert rep.params["regime"] == ("bulk" if k <= 1.9 * hs.h else "upper")
        # the bound carries an unspecified constant, so only shape is asserted
        assert rep.ratio is None or math.isfinite(rep.ratio)


def test_cor32_smallest_case_and_block_case():
    rep = check_cor32(PrimeSet((2,)), CountMode.DISTINCT, 1e-12)
    assert rep.ratio is not None and math.isfinite(rep.ratio)

    from primepoisson import expexp_block

    block = expexp_block(1)
    rep2 = check_cor32(block, CountMode.DISTINCT, 1e-12)
    assert rep2.lhs < rep2.rhs  # clearly dominated for a large balanced set

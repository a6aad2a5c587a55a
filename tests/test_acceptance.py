"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Each test measures its own wall-clock time against the stated budget.

Criterion 04 checks exact tail <= kullback <= exponential for
binomial_tail_bound on the full k <= 200 grid; the exponential form's
denominator max(3*alpha*(1-alpha), 2*max t(1-t)) makes it a relaxation of
the kullback form for every alpha, beta.  Criterion 11 compares the
multiplicity count with Poisson at its own mean h1 = sum 1/(p-1), through
check_halasz's ratio_h1.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from primepoisson import (
    CountMode,
    DomainError,
    PrimeSet,
    SetSpec,
    Thm1Config,
    binomial_pmf,
    binomial_tail_bound,
    check_cor32,
    check_halasz,
    check_thm1,
    check_thm2,
    check_thm3,
    harmonic_sums,
    joint_factor_counts,
    model_exact_pmf,
    model_tv_exact,
    oracle_factor_counts,
    poisson_pmf,
    primes_in_interval,
    sieve_primes,
    tv_distance,
)
from primepoisson.cli import main

BANDS = json.loads(
    (Path(__file__).parent / "data" / "regression_bands.json").read_text()
)


def verdict(num: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail} ({elapsed:.2f}s / {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s budget: {elapsed:.2f}s"
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(101)
    pool = list(sieve_primes(10**4).primes)
    checked = 0
    for _ in range(50):
        rng.shuffle(pool)
        cursor = 0
        specs = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 8)
            chunk = sorted(pool[cursor : cursor + size])
            cursor += size
            specs.append(SetSpec(PrimeSet(tuple(chunk)), rng.choice(list(CountMode))))
        fast = joint_factor_counts(10**4, tuple(specs)).counts
        slow = oracle_factor_counts(10**4, tuple(specs)).counts
        assert fast == slow
        checked += 1
    verdict(
        1,
        checked >= 50,
        f"sieve == trial-division oracle on {checked} random configs at x=1e4",
        time.perf_counter() - started,
        10.0,
    )


def test_criterion_02_distinct_law_subset_enumeration():
    started = time.perf_counter()
    rng = random.Random(202)
    pool = list(sieve_primes(300).primes)
    worst = 0.0
    for _ in range(100):
        primes = tuple(sorted(rng.sample(pool, rng.randint(1, 10))))
        pmf = model_exact_pmf(PrimeSet(primes), CountMode.DISTINCT)
        # brute force over all subsets of T
        oracle = [0.0] * (len(primes) + 1)
        for mask in range(1 << len(primes)):
            prob, bits = 1.0, 0
            for i, p in enumerate(primes):
                if mask >> i & 1:
                    prob *= 1.0 / p
                    bits += 1
                else:
                    prob *= 1.0 - 1.0 / p
            oracle[bits] += prob
        worst = max(
            worst, max(abs(pmf.prob(k) - v) for k, v in enumerate(oracle))
        )
    verdict(
        2,
        worst <= 1e-12,
        f"exact count law vs subset enumeration, 100 sets: max gap {worst:.2e}",
        time.perf_counter() - started,
        5.0,
    )


def test_criterion_03_generating_function_identities():
    started = time.perf_counter()
    rng = random.Random(303)
    pool = list(sieve_primes(500).primes)
    angles = np.linspace(0.0, 2 * math.pi, 200, endpoint=False)
    worst = 0.0
    for _ in range(50):
        primes = tuple(sorted(rng.sample(pool, rng.randint(1, 12))))
        dist = model_exact_pmf(PrimeSet(primes), CountMode.DISTINCT)
        mult = model_exact_pmf(PrimeSet(primes), CountMode.WITH_MULTIPLICITY, 1e-14)
        d_coeffs = np.array(dist.probs[::-1])
        m_coeffs = np.array(mult.probs[::-1])
        for radius in (0.5, 1.0, 1.9):
            z = radius * np.exp(1j * angles)
            prod_u = np.ones_like(z)
            prod_w = np.ones_like(z)
            for p in primes:
                prod_u *= 1 + (z - 1) / p
                prod_w *= (p - 1) / (p - z)
            worst = max(worst, float(np.max(np.abs(np.polyval(d_coeffs, z) - prod_u))))
            worst = max(worst, float(np.max(np.abs(np.polyval(m_coeffs, z) - prod_w))))
    verdict(
        3,
        worst <= 1e-10,
        f"series vs product formulas, 50 sets x 3 circles x 200 pts: max gap {worst:.2e}",
        time.perf_counter() - started,
        10.0,
    )


def test_criterion_04_tail_bound_chain_full_grid():
    started = time.perf_counter()
    chain_a = 0  # exact > kullback violations
    chain_b = 0  # kullback > exponential violations
    first = None
    for k in range(0, 201):
        for ai in range(1, 100):
            alpha = ai / 100
            pmf = binomial_pmf(k, alpha)
            # prefix sums for the lower tail, suffix sums for the upper tail:
            # each accumulates its own tiny terms first, so neither cancels
            lower = []
            acc = 0.0
            for v in pmf.probs:
                acc += v
                lower.append(acc)
            upper = [0.0] * (len(pmf.probs) + 1)
            for j in range(len(pmf.probs) - 1, -1, -1):
                upper[j] = upper[j + 1] + pmf.probs[j]
            for bi in range(1, 100):
                beta = bi / 100
                kull, expo = binomial_tail_bound(k, alpha, beta)
                if beta <= alpha:
                    exact = lower[min(math.floor(beta * k), len(lower) - 1)]
                else:  # reflected case: upper tail
                    exact = upper[min(math.ceil(beta * k), len(upper) - 1)]
                if exact > kull + 1e-14:
                    chain_a += 1
                    first = first or ("exact>kullback", k, alpha, beta, exact, kull)
                if kull > expo + 1e-14:
                    chain_b += 1
                    first = first or ("kullback>exponential", k, alpha, beta, kull, expo)
    ok = chain_a == 0 and chain_b == 0
    detail = (
        f"tail chain on full grid: exact<=kullback violations={chain_a}, "
        f"kullback<=exponential violations={chain_b}"
    )
    if first:
        kind, k, alpha, beta, lo, hi = first
        detail += (
            f"; first: {kind} at k={k}, alpha={alpha:.2f}, beta={beta:.2f} "
            f"({lo:.6f} > {hi:.6f})"
        )
    verdict(4, ok, detail, time.perf_counter() - started, 30.0)


def test_criterion_05_poisson_tv_rate_difference_bound():
    started = time.perf_counter()
    lams = [0.25 * i for i in range(81)]
    pmfs = {lam: poisson_pmf(lam) for lam in lams}
    worst_excess = -1.0
    for la in lams:
        for lb in lams:
            res = tv_distance(pmfs[la], pmfs[lb])
            excess = res.value - (abs(la - lb) + res.uncertainty)
            worst_excess = max(worst_excess, excess)
    verdict(
        5,
        worst_excess <= 1e-15,
        f"tv <= |rate gap| + uncertainty on 81x81 grid: worst excess {worst_excess:.2e}",
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_06_singleton_order_band():
    started = time.perf_counter()
    lo, hi = float("inf"), 0.0
    for p in primes_in_interval(10, 997):
        rep = check_cor32(PrimeSet((p,)), CountMode.WITH_MULTIPLICITY, 1e-14)
        scaled = p * p * rep.lhs
        lo, hi = min(lo, scaled), max(hi, scaled)
    band = BANDS["cor32-singleton-p2tv"]
    ok = band[0] <= lo and hi <= band[1]
    verdict(
        6,
        ok,
        f"p^2 * tv over p in (10,997]: [{lo:.6f}, {hi:.6f}] vs band {band}",
        time.perf_counter() - started,
        10.0,
    )


def _desk_thirds(y: int):
    ps = sieve_primes(y).primes
    a, b = len(ps) // 3, 2 * len(ps) // 3
    modes = [CountMode.DISTINCT, CountMode.WITH_MULTIPLICITY, CountMode.DISTINCT]
    return tuple(
        SetSpec(PrimeSet(chunk), m)
        for chunk, m in zip((ps[:a], ps[a:b], ps[b:]), modes)
    )


def test_criterion_07_joint_poisson_desk_scale():
    started = time.perf_counter()
    worst = 0.0
    triangle_ok = True
    for y in (31, 100, 1000):
        rep = check_thm1(Thm1Config(x=10**6, y=y, specs=_desk_thirds(y)))
        worst = max(worst, rep.ratio)
        d = rep.params["decomposition"]
        slack = (
            d["model_vs_poisson"]
            + d["model_vs_poisson_uncertainty"]
            + d["exact_vector_tv"]
            + rep.uncertainty
            - rep.lhs
        )
        triangle_ok = triangle_ok and slack >= -1e-12
    band = BANDS["thm1-desk-max-ratio"]
    ok = worst <= band[1] and band[0] <= worst and triangle_ok
    verdict(
        7,
        ok,
        f"joint tv ratio at x=1e6, y in {{31,100,1000}}: max {worst:.6f} vs band {band}; "
        f"triangle decomposition {'holds' if triangle_ok else 'VIOLATED'}",
        time.perf_counter() - started,
        300.0,
    )


def test_criterion_08_vector_distance_desk_scale():
    started = time.perf_counter()
    dyadic = model_tv_exact(10, 2)
    values = {}
    for y in (10, 31, 100, 1000):
        values[y] = model_tv_exact(10**6, y).value
    in_band = all(
        BANDS[f"model-tv-x1e6-y{y}"][0] <= values[y] <= BANDS[f"model-tv-x1e6-y{y}"][1]
        for y in values
    )
    # u = log x / log y grows as y shrinks; the distance must shrink with it
    monotone = values[10] < values[31] < values[100] < values[1000]
    ok = dyadic.value == 0.0875 and in_band and monotone
    verdict(
        8,
        ok,
        f"exact vector distance: dyadic {dyadic.value} (want 0.0875), "
        f"grid values {[round(values[y], 6) for y in (10, 31, 100, 1000)]} "
        f"in bands={in_band}, monotone in u={monotone}",
        time.perf_counter() - started,
        300.0,
    )


def test_criterion_09_uniform_upper_bound_sweep():
    started = time.perf_counter()
    # mirror of scripts/freeze_bands.py::thm2_partition_sweep (same seed)
    rng = random.Random(20260818)
    pool = sieve_primes(10**4)
    k_choices = [0, 1, 1, 1, 2, 2, 3, 4]
    worst = 0.0
    for trial in range(12):
        r = 2 if trial % 2 == 0 else 3
        labels = [rng.randrange(r) for _ in pool.primes]
        groups = [
            tuple(p for p, g in zip(pool.primes, labels) if g == i) for i in range(r)
        ]
        if any(not g for g in groups):
            continue
        sets = tuple(PrimeSet(g) for g in groups)
        ks = tuple(rng.choice(k_choices) for _ in range(r))
        rep = check_thm2(10**6, sets, ks)
        worst = max(worst, rep.ratio if rep.ratio is not None else 0.0)

    # degenerate covering case: every prime <= x in some set, all targets zero
    allp = sieve_primes(10**6)
    half = PrimeSet(allp.primes[: len(allp.primes) // 2])
    rest = allp.difference(half)
    rep0 = check_thm2(10**6, (half, rest), (0, 0))
    xi = rep0.params["xi"]
    degenerate_ok = xi == 1 and rep0.lhs == 1 / 10**6 and rep0.ratio <= 1.0

    band = BANDS["thm2-sweep-max-ratio"]
    ok = band[0] <= worst <= band[1] and degenerate_ok
    verdict(
        9,
        ok,
        f"partition sweep max ratio {worst:.6f} vs band {band}; "
        f"degenerate case lhs={rep0.lhs} xi={xi}",
        time.perf_counter() - started,
        600.0,
    )


def test_criterion_10_conditional_concentration_sweep():
    started = time.perf_counter()
    tset = sieve_primes(100)
    worst = 0.0
    error_rows = []
    cells = 0
    for k in range(2, 9):
        for psi in (0.5, 1.0, 1.5, 2.0):
            try:
                rep = check_thm3(x=10**6, tset=tset, k=k, a_param=3.0, psi=psi)
            except DomainError as e:
                error_rows.append((k, psi, str(e)))
                continue
            cells += 1
            worst = max(worst, rep.ratio)
    # k=8 exceeds a_param*loglog(x) = 7.877..., so all four of its cells must
    # surface as recorded errors rather than numbers
    k8_errors = [row for row in error_rows if row[0] == 8]

    comp = sieve_primes(10**6).difference(tset)
    a = check_thm3(x=10**6, tset=tset, k=4, a_param=3.0, psi=1.0)
    b = check_thm3(x=10**6, tset=comp, k=4, a_param=3.0, psi=1.0)
    symmetric = a.lhs == b.lhs

    band = BANDS["thm3-sweep-max-ratio"]
    ok = band[0] <= worst <= band[1] and len(k8_errors) == 4 and cells > 0 and symmetric
    verdict(
        10,
        ok,
        f"deviation sweep max ratio {worst:.6f} vs band {band}; "
        f"{len(error_rows)} infeasible cells recorded ({len(k8_errors)} at k=8); "
        f"complement symmetry {'exact' if symmetric else 'BROKEN'}",
        time.perf_counter() - started,
        300.0,
    )


def test_criterion_11_local_law_ratio():
    started = time.perf_counter()
    tset = sieve_primes(10**4)
    # check_halasz counts with multiplicity, whose mean is h1 = sum 1/(p-1);
    # h = sum 1/p is the mean of the distinct count and is not compared here
    h1 = harmonic_sums(tset).h1
    k = round(h1)
    rep = check_halasz(10**7, tset, range(k, k + 1))[0]
    deviation = abs(rep.params["ratio_h1"] - 1.0)
    ok = deviation < 0.2
    verdict(
        11,
        ok,
        f"local-law ratio P(count={k}) / Poisson(h1={h1:.4f}){{{k}}} at x=1e7, "
        f"k=round(h1)={k}: |ratio_h1-1| = {deviation:.4f} (want < 0.2)",
        time.perf_counter() - started,
        120.0,
    )


def test_criterion_12_byte_identical_reports(tmp_path):
    started = time.perf_counter()

    def run(argv, sub):
        out = tmp_path / sub
        code = main(argv + ["--out-dir", str(out)])
        assert code == 0
        return out

    argv = ["thm1", "--x", "1e4", "--y", "31", "--set", "interval:2..31:distinct"]
    r1 = run(argv, "a") / "thm1_report.json"
    r2 = run(argv, "b") / "thm1_report.json"
    reports_same = r1.read_bytes() == r2.read_bytes()

    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {
                "name": "determinism",
                "rows": [
                    {"command": "cor32", "set": "list:11:multiplicity"},
                    {"command": "model-tv", "x": 1000, "y": 10},
                    {"command": "harmonic", "set": "list:2,3,5"},
                ],
            }
        )
    )
    s1 = run(["sweep", "--grid", str(grid), "--workers", "1"], "w1")
    s2 = run(["sweep", "--grid", str(grid), "--workers", "2"], "w2")
    sweep_same = (s1 / "sweep_report.json").read_bytes() == (
        s2 / "sweep_report.json"
    ).read_bytes() and (s1 / "sweep_table.csv").read_bytes() == (
        s2 / "sweep_table.csv"
    ).read_bytes()

    verdict(
        12,
        reports_same and sweep_same,
        f"repeat runs byte-identical={reports_same}, "
        f"sweep workers 1 vs 2 byte-identical={sweep_same}",
        time.perf_counter() - started,
        120.0,
    )

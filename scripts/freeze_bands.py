"""Record regression bands for the desk-scale checks.

Run from the repository root:

    python3 scripts/freeze_bands.py

Recomputes every banded quantity from scratch and rewrites
tests/data/regression_bands.json.  The pipeline is deterministic, so bands
are tight: value * (1 +/- 1e-6) plus 1e-12 absolute slack.  Re-record only
after an intentional change to the computation, and eyeball the diff.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

from primepoisson import (
    CountMode,
    PrimeSet,
    SetSpec,
    Thm1Config,
    check_cor32,
    check_thm1,
    check_thm2,
    check_thm3,
    model_tv_exact,
    primes_in_interval,
    sieve_primes,
)

REL = 1e-6
ABS = 1e-12

X_DESK = 10**6


def band(value: float) -> list[float]:
    pad = abs(value) * REL + ABS
    return [value - pad, value + pad]


def upper_band(value: float) -> list[float]:
    """Band for a maximum statistic: floor at 0, ceiling just above."""
    return [0.0, value * (1 + REL) + ABS]


def cor32_singleton_sweep() -> dict[str, list[float]]:
    lo, hi = float("inf"), 0.0
    for p in primes_in_interval(10, 997):
        rep = check_cor32(PrimeSet((p,)), CountMode.WITH_MULTIPLICITY, 1e-14)
        scaled = p * p * rep.lhs
        lo, hi = min(lo, scaled), max(hi, scaled)
    print(f"cor32 singleton sweep: p^2*tv in [{lo:.6f}, {hi:.6f}]")
    pad_lo = lo * REL + ABS
    pad_hi = hi * REL + ABS
    return {"cor32-singleton-p2tv": [lo - pad_lo, hi + pad_hi]}


def thirds(primes: PrimeSet) -> list[PrimeSet]:
    ps = primes.primes
    a, b = len(ps) // 3, 2 * len(ps) // 3
    return [PrimeSet(ps[:a]), PrimeSet(ps[a:b]), PrimeSet(ps[b:])]


def thm1_desk_sweep() -> dict[str, list[float]]:
    modes = [CountMode.DISTINCT, CountMode.WITH_MULTIPLICITY, CountMode.DISTINCT]
    worst = 0.0
    for y in (31, 100, 1000):
        sets = thirds(sieve_primes(y))
        specs = tuple(SetSpec(s, m) for s, m in zip(sets, modes))
        rep = check_thm1(Thm1Config(x=X_DESK, y=y, specs=specs))
        print(f"thm1 y={y}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} ratio={rep.ratio:.6f}")
        worst = max(worst, rep.ratio)
    return {"thm1-desk-max-ratio": band(worst)}


def model_tv_grid() -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    values = []
    for y in (10, 31, 100, 1000):
        res = model_tv_exact(X_DESK, y)
        values.append(res.value)
        out[f"model-tv-x1e6-y{y}"] = band(res.value)
        u = math.log(X_DESK) / math.log(y)
        print(f"model-tv y={y}: value={res.value:.8f} u={u:.3f}")
    # sanity: distance shrinks as u grows (i.e. as y shrinks)
    assert values == sorted(values), "expected tv increasing in y on this grid"
    return out


def thm2_partition_sweep() -> dict[str, list[float]]:
    rng = random.Random(20260818)
    pool = sieve_primes(10**4)
    worst = 0.0
    # n <= 10^6 has at most 7 distinct prime factors, so draw targets near the
    # typical count range (all within the k_j <= 10 constraint); uniform draws
    # up to 10 would make every event empty and the recorded constant vacuous
    k_choices = [0, 1, 1, 1, 2, 2, 3, 4]
    for trial in range(12):
        r = 2 if trial % 2 == 0 else 3
        labels = [rng.randrange(r) for _ in pool.primes]
        groups = [tuple(p for p, g in zip(pool.primes, labels) if g == i) for i in range(r)]
        if any(not g for g in groups):
            continue
        sets = tuple(PrimeSet(g) for g in groups)
        ks = tuple(rng.choice(k_choices) for _ in range(r))
        rep = check_thm2(X_DESK, sets, ks)
        ratio = rep.ratio if rep.ratio is not None else 0.0
        worst = max(worst, ratio)
        print(f"thm2 trial={trial} r={r} ks={ks}: lhs={rep.lhs:.6g} ratio={ratio:.6g}")
    assert worst > 0
    return {"thm2-sweep-max-ratio": upper_band(worst)}


def thm3_grid_sweep() -> dict[str, list[float]]:
    tset = sieve_primes(100)
    worst = 0.0
    rows = 0
    for k in range(2, 9):
        for psi in (0.5, 1.0, 1.5, 2.0):
            try:
                rep = check_thm3(x=X_DESK, tset=tset, k=k, a_param=3.0, psi=psi)
            except Exception as e:  # infeasible rows recorded, not fatal
                print(f"thm3 k={k} psi={psi}: skipped ({e})")
                continue
            if psi == 0.0 or rep.ratio is None:
                continue
            rows += 1
            worst = max(worst, rep.ratio)
            print(f"thm3 k={k} psi={psi}: lhs={rep.lhs:.6g} ratio={rep.ratio:.6f}")
    assert rows > 0
    return {"thm3-sweep-max-ratio": upper_band(worst)}


def main() -> int:
    started = time.perf_counter()
    bands: dict[str, list[float]] = {}
    bands.update(cor32_singleton_sweep())
    bands.update(model_tv_grid())
    bands.update(thm1_desk_sweep())
    bands.update(thm2_partition_sweep())
    bands.update(thm3_grid_sweep())

    out_path = Path(__file__).resolve().parent.parent / "tests" / "data" / "regression_bands.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(bands, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(bands)} bands to {out_path} in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

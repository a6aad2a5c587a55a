"""The benchmark's three workloads: inputs, timed op lists and output checks.

Why these three (each stresses a different layer of the package):

* ``joint-desk`` -- ``check_thm1`` at x=1e6 for y in {31, 100, 1000} with the
  "desk thirds" specs of acceptance criterion 07, plus
  ``check_corollary1(1e7, 0, 2)``.  Most of its time is the dict-of-tuples
  joint law (``product_joint`` / ``tv_distance_joint`` over a 57x354x57 grid
  at y=1000); counting and sieving are small.
* ``count-1e7`` -- one large x: ``sieve_primes(1e7)`` feeding Omega(n) over
  all primes <= 1e7 through ``joint_factor_counts`` (10 segments),
  ``model_tv_exact(1e7, 1000)`` and ``check_halasz(1e7, primes <= 1e4,
  k=0..8)``.  ``PrimeSet`` validation and the per-modulus segment loop
  dominate; no joint law is built.
* ``sweep-grid`` -- a 39-row grid through ``primepoisson.cli.main(["sweep",
  ...])``: the 28 thm3 cells of criterion 10 (11 infeasible by design), four
  ``model-tv`` rows, ``cor32`` and ``thm4`` in both modes, two ``thm2`` cells
  and one cap refusal.  The 17 feasible thm3 cells each recount the same
  (T, complement) table, and the rows use the 1-D pmf/TV path, CLI parsing
  and the process pool.

The workload seed only permutes the op order (``joint-desk``,
``count-1e7``) or the grid's row order (``sweep-grid``); the package gets
nothing but the generated inputs.  Expected outputs do not depend on the
seed: sweep rows are matched to their expectations by their config, not by
their position, so the checks hold for any row order.

Checks run after the timed region.  Integer outputs must match exactly and
are also checked against identities the benchmark computes itself (its own
sieve, not the package's).  Floats must land in the frozen bands of
``tests/data/regression_bands.json`` where one exists, and otherwise within
``REL_TOL`` / ``ABS_TOL`` of the values in ``expected.json``, which were
recorded from this package by ``record_expected.py``.  The computation is
deterministic; the tolerance leaves room for a faster kernel that sums in a
different order and is 1000 times tighter than the bands' 1e-6.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import primepoisson as pp
import primepoisson.cli

ROOT = Path(__file__).resolve().parent.parent
BANDS_PATH = ROOT / "tests" / "data" / "regression_bands.json"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("joint-desk", "count-1e7", "sweep-grid")

REL_TOL = 1e-9
ABS_TOL = 1e-12
# A TV uncertainty or triangle slack beyond this means a broken certificate.
MAX_UNCERTAINTY = 1e-6
SLACK_FLOOR = -1e-12

# Full size is the benchmark; smoke drives the same code paths in seconds.
SCALES = {
    "full": {
        "joint-desk": {"x": 10**6, "ys": (31, 100, 1000), "cor1": (10**7, 0, 2)},
        "count-1e7": {"x": 10**7, "tv_y": 1000, "halasz_limit": 10**4, "ks": range(0, 9)},
        "sweep-grid": {
            "x": "1e6",
            "tset": "interval:2..100",
            "thm3_ks": range(2, 9),
            "psis": (0.5, 1.0, 1.5, 2.0),
            "tv_ys": (10, 31, 100, 1000),
            "cor32_set": "interval:2..100000",
            "thm4_set": "interval:2..10000",
            "thm2": [
                (["interval:2..100", "interval:101..1000"], "1,1"),
                (["interval:2..30", "interval:31..300", "interval:301..3000"], "1,0,1"),
            ],
        },
    },
    "smoke": {
        "joint-desk": {"x": 2 * 10**4, "ys": (31, 100), "cor1": (10**5, 0, 2)},
        "count-1e7": {"x": 10**5, "tv_y": 100, "halasz_limit": 100, "ks": range(0, 9)},
        "sweep-grid": {
            "x": "1e4",
            "tset": "interval:2..30",
            "thm3_ks": (2, 3, 7),
            "psis": (0.5, 2.0),
            "tv_ys": (10, 31),
            "cor32_set": "interval:2..1000",
            "thm4_set": "interval:2..100",
            "thm2": [(["interval:2..10", "interval:11..100"], "1,1")],
        },
    },
}

# One row of every sweep: refused before any work by the 2^40 cap on x.
CAP_ROW = {"command": "counts", "x": "2e12", "set": ["list:2"]}


@dataclass
class Op:
    """One timed call plus the checks on its output.

    ``keep`` reduces the output to what the checks need; it runs untimed,
    right after the op, so a large output does not stay alive during later
    ops.  ``observe`` maps the kept output to the JSON values recorded in
    expected.json; ``invariants`` returns (unit, message) pairs for failed
    identities and bands.  ``units`` are the things counted as attempted:
    the op itself, or each row of a sweep.  A message with unit None fails
    every unit.
    """

    name: str
    run: Callable[[], Any]
    observe: Callable[[Any], dict]
    invariants: Callable[[Any, dict], list] = lambda result, results: []
    units: list[str] = field(default_factory=list)
    keep: Callable[[Any], Any] = lambda result: result

    def __post_init__(self):
        self.units = self.units or [self.name]


def warm_caches() -> None:
    """Fill the package's lazy caches: the primality byte table and the
    doubly exponential cutoffs t_0..t_3 that check_corollary1 reads."""
    pp.primesets._prime_table()
    for k in range(4):
        pp.expexp_cutoff(k)


def build(name: str, scale: str, seed: int, tmp: Path, workers: int = 2) -> list[Op]:
    """Set up one workload: build its inputs and return its op list in the
    order given by ``seed``.  ``workers`` is the sweep's process count."""
    params = SCALES[scale][name]
    rng = random.Random(seed)
    if name == "joint-desk":
        return _joint_desk(params, scale, rng)
    if name == "count-1e7":
        return _count(params, rng)
    if name == "sweep-grid":
        return [_sweep(params, scale, rng, tmp, workers)]
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ joint-desk


def desk_thirds(y: int) -> tuple:
    """Criterion 07's specs: primes <= y split in thirds, counted distinct,
    with multiplicity, distinct."""
    ps = pp.sieve_primes(y).primes
    a, b = len(ps) // 3, 2 * len(ps) // 3
    modes = (pp.CountMode.DISTINCT, pp.CountMode.WITH_MULTIPLICITY, pp.CountMode.DISTINCT)
    return tuple(pp.SetSpec(pp.PrimeSet(chunk), m) for chunk, m in zip((ps[:a], ps[a:b], ps[b:]), modes))


def _joint_desk(params: dict, scale: str, rng: random.Random) -> list[Op]:
    bands = load_bands() if scale == "full" else {}
    x = params["x"]

    def thm1_invariants(y):
        def check(rep, results):
            out = []
            d = rep.params["decomposition"]
            # recomputed from its legs, as acceptance criterion 07 does
            slack = (d["model_vs_poisson"] + d["model_vs_poisson_uncertainty"] + d["exact_vector_tv"]
                     + rep.uncertainty - rep.lhs)
            if slack < SLACK_FLOOR:
                out.append((None, f"triangle slack {slack!r} < {SLACK_FLOOR}"))
            if max(rep.uncertainty, d["model_vs_poisson_uncertainty"]) > MAX_UNCERTAINTY:
                out.append((None, "tv uncertainty above 1e-6"))
            band = bands.get(f"model-tv-x1e6-y{y}")
            if band and not band[0] <= d["exact_vector_tv"] <= band[1]:
                out.append((None, f"exact vector tv {d['exact_vector_tv']!r} outside band {band}"))
            # the band is on the maximum ratio; every ratio must stay under its top
            band = bands.get("thm1-desk-max-ratio")
            if band:
                is_max = rep.ratio == max(r.ratio for k, r in results.items() if k.startswith("thm1"))
                if not (band[0] if is_max else -math.inf) <= rep.ratio <= band[1]:
                    out.append((None, f"thm1 ratio {rep.ratio!r} outside band {band}"))
            return out

        return check

    ops = []
    for y in params["ys"]:
        cfg = pp.Thm1Config(x=x, y=y, specs=desk_thirds(y))
        ops.append(
            Op(
                f"thm1-y{y}",
                lambda cfg=cfg: pp.check_thm1(cfg),
                lambda rep: {
                    "lhs": rep.lhs,
                    "rhs": rep.rhs,
                    "ratio": rep.ratio,
                    "model_vs_poisson": rep.params["decomposition"]["model_vs_poisson"],
                    "exact_vector_tv": rep.params["decomposition"]["exact_vector_tv"],
                },
                thm1_invariants(y),
            )
        )
    cx, lo, hi = params["cor1"]
    ops.append(
        Op(
            "cor1",
            lambda: pp.check_corollary1(cx, lo, hi),
            lambda rep: {
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "ratio": rep.ratio,
                "used_blocks": rep.params["used_blocks"],
            },
            lambda rep, results: (
                [(None, "tv uncertainty above 1e-6")] if rep.uncertainty > MAX_UNCERTAINTY else []
            ),
        )
    )
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- count-1e7


def reference_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain sieve of Eratosthenes, independent of the
    package's segmented sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def omega_total(x: int, primes: np.ndarray) -> int:
    """Sum of Omega(n) over n <= x, i.e. sum over p^a <= x of floor(x / p^a)."""
    total = int((x // primes).sum())
    for p in primes[primes <= math.isqrt(x)].tolist():
        q = p * p
        while q <= x:
            total += x // q
            q *= p
    return total


def primes_digest(primes) -> str:
    return hashlib.sha256(np.asarray(primes, dtype=np.int64).tobytes()).hexdigest()


def _count(params: dict, rng: random.Random) -> list[Op]:
    x = params["x"]
    halasz_set = pp.sieve_primes(params["halasz_limit"])
    ks = list(params["ks"])
    reference: dict = {}

    def ref() -> np.ndarray:
        if "primes" not in reference:
            reference["primes"] = reference_primes(x)
        return reference["primes"]

    # Sieving and counting are one op: Omega runs over the primes the sieve
    # returned.  Only a digest of those primes outlives the op, so no op's
    # memory peak depends on the order the seed picked.
    def omega():
        primes = pp.sieve_primes(x)
        return primes, pp.joint_factor_counts(x, (pp.SetSpec(primes, pp.CountMode.WITH_MULTIPLICITY),))

    def omega_keep(out):
        primes, counts = out
        return {
            "primes": len(primes),
            "last": primes.primes[-1],
            "digest": primes_digest(primes.primes),
            "table": {k[0]: c for k, c in sorted(counts.counts.items())},
        }

    def omega_invariants(kept, results):
        table, out = kept["table"], []
        if kept["primes"] != len(ref()) or kept["digest"] != primes_digest(ref()):
            out.append((None, "sieve_primes differs from the reference sieve"))
        if sum(table.values()) != x:
            out.append((None, f"Omega table totals {sum(table.values())}, not x={x}"))
        if table.get(0) != 1 or table.get(1) != len(ref()):
            out.append((None, "Omega=0 must count only n=1 and Omega=1 exactly the primes"))
        weighted = sum(k * c for k, c in table.items())
        if weighted != omega_total(x, ref()):
            out.append((None, f"sum k*count {weighted} != sum floor(x/p^a) {omega_total(x, ref())}"))
        return out

    def halasz_observe(reports):
        return {
            str(k): {"count": round(r.lhs * x), "rhs": r.rhs, "ratio": r.ratio}
            for k, r in zip(ks, reports)
        }

    def halasz_invariants(reports, results):
        counts = [round(r.lhs * x) for r in reports]
        if any(c / x != r.lhs for c, r in zip(counts, reports)) or sum(counts) > x:
            return [(None, "halasz lhs is not an exact count / x")]
        return []

    ops = [
        Op(
            "omega",
            omega,
            lambda kept: {
                "primes": kept["primes"],
                "last": kept["last"],
                "table": {str(k): c for k, c in kept["table"].items()},
            },
            omega_invariants,
            keep=omega_keep,
        ),
        Op(
            "model-tv",
            lambda: pp.model_tv_exact(x, params["tv_y"]),
            lambda tv: {"value": tv.value},
            lambda tv, results: (
                [(None, "tv uncertainty above 1e-6")] if tv.uncertainty > MAX_UNCERTAINTY else []
            ),
        ),
        Op("halasz", lambda: pp.check_halasz(x, halasz_set, ks), halasz_observe, halasz_invariants),
    ]
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ sweep-grid


def sweep_rows(params: dict) -> list[dict]:
    x, tset = params["x"], params["tset"]
    rows = [
        {"command": "thm3", "x": x, "set": tset, "k": str(k), "psi": str(psi), "a_param": "3.0"}
        for k in params["thm3_ks"]
        for psi in params["psis"]
    ]
    rows += [{"command": "model-tv", "x": x, "y": str(y)} for y in params["tv_ys"]]
    for command, spec in (("cor32", params["cor32_set"]), ("thm4", params["thm4_set"])):
        rows += [{"command": command, "set": f"{spec}:{mode}"} for mode in ("distinct", "multiplicity")]
    rows += [{"command": "thm2", "x": x, "set": sets, "k": k} for sets, k in params["thm2"]]
    rows.append(CAP_ROW)
    return rows


def row_key(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def _sweep(params: dict, scale: str, rng: random.Random, tmp: Path, workers: int) -> Op:
    rows = sweep_rows(params)
    rng.shuffle(rows)
    grid = tmp / "grid.json"
    grid.write_text(json.dumps({"name": "bench", "rows": rows}))
    out_dir = tmp / "sweep-out"
    bands = load_bands() if scale == "full" else {}

    def run():
        code = pp.cli.main(["sweep", "--grid", str(grid), "--workers", str(workers), "--out-dir", str(out_dir)])
        report = json.loads((out_dir / "sweep_report.json").read_text())
        return code, report["rows"]

    def observe(result):
        _, records = result
        out = {}
        for rec in records:
            entry = {"status": rec["status"]}
            if rec["status"] == "ok":
                entry.update({k: rec[k] for k in ("band_value", "lhs", "rhs", "ratio", "value")})
            out[row_key(rec["config"])] = entry
        return out

    def invariants(result, results):
        code, records = result
        out = [] if code == 0 else [(None, f"sweep exit code {code}")]
        thm3 = [r for r in records if r["command"] == "thm3" and r["status"] == "ok"]
        band = bands.get("thm3-sweep-max-ratio")
        if band and thm3:
            worst = max(thm3, key=lambda r: r["ratio"])
            if not band[0] <= worst["ratio"] <= band[1]:
                out.append((row_key(worst["config"]), f"max thm3 ratio {worst['ratio']!r} outside {band}"))
        for r in records:
            if r["command"] == "model-tv" and r["status"] == "ok":
                band = bands.get(f"model-tv-x1e6-y{r['config']['y']}")
                if band and not band[0] <= r["value"] <= band[1]:
                    out.append((row_key(r["config"]), f"model-tv {r['value']!r} outside {band}"))
        return out

    return Op("sweep", run, observe, invariants, units=[row_key(r) for r in rows])


# ----------------------------------------------------------------- checks


def load_bands() -> dict[str, list[float]]:
    return json.loads(BANDS_PATH.read_text())


def compare(observed, expected, path: str = "") -> list[str]:
    """Messages for every place where observed differs from expected: exact
    for ints, strings, None and keys; within REL_TOL/ABS_TOL for floats."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        if observed.keys() != expected.keys():
            return [f"{path}: keys {sorted(observed)} != recorded {sorted(expected)}"]
        return [m for k in expected for m in compare(observed[k], expected[k], f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(observed, (list, tuple)) and len(observed) == len(expected):
        return [m for i, (o, e) in enumerate(zip(observed, expected)) for m in compare(o, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(observed, (int, float)) and not isinstance(observed, bool):
        ok = math.isclose(observed, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    else:
        ok = type(observed) is type(expected) and observed == expected
    return [] if ok else [f"{path}: got {observed!r}, recorded {expected!r}"]


def check(op: Op, result: Any, results: dict, expected: dict | None) -> dict[str, list[str]]:
    """Failure messages of one op, keyed by the unit (op or sweep row) they fail."""
    failures: dict[str, list[str]] = {}
    messages: list = list(op.invariants(result, results))
    observed = op.observe(result)
    if expected is None:
        messages.append((None, "no recorded expectation"))
    elif op.units == [op.name]:
        messages += [(op.name, m) for m in compare(observed, expected)]
    else:
        missing = set(op.units) - observed.keys()
        messages += [(u, "row missing from the report") for u in sorted(missing)]
        messages += [(u, m) for u in op.units if u in observed for m in compare(observed[u], expected.get(u), u)]
    for unit, msg in messages:
        for u in op.units if unit is None else [unit]:
            failures.setdefault(u, []).append(f"{op.name}: {msg}")
    return failures


def load_expected(scale: str, workload: str) -> dict:
    return json.loads(EXPECTED_PATH.read_text())[scale][workload]

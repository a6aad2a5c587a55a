"""Span recorder and the wrappers that feed it in a traced benchmark run.

Spans are recorded from the benchmark's side of each call into the package:
a wrapper around a public function opens a span (name, start, end, parent)
before the call and closes it after.  Spans stay in memory until the run
ends.  A layer's self time is its span's duration minus the part of that
interval covered by its child spans.

The package imports names directly (``theorems.joint_factor_counts``,
``kubilius.smooth_part_distribution``, ``cli.check_thm3``, the re-exports in
``primepoisson/__init__``), so a wrapper installed only on the defining
module would miss most calls.  ``install`` therefore replaces the function
on every module binding that refers to it.

Work counts are computed by the benchmark from call arguments and return
values, never read from inside the package.  Computing them is itself timed
as a ``trace.bookkeeping`` child span, so it does not inflate the self time
of the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """In-memory span store with per-name work counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) summed over all spans of that name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        totals: dict[str, tuple[int, float]] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls, busy = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, busy + (end - start) - _covered(children[idx]))
        return totals

    def write(self, path: Path, meta: dict) -> None:
        path.write_text(json.dumps({"meta": meta, "spans": self.spans, "counts": self.counts}))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# ----------------------------------------------------------- work counters


def _count_prime_set(counts, args, result):
    counts["primesets.PrimeSet.primes"] += len(args["self"].primes)


def _moduli(spec, x: int) -> int:
    """Sieving moduli of one spec: its primes, plus prime powers p^a <= x
    (a >= 2) in multiplicity mode."""
    n = len(spec.primes)
    if spec.mode.value == "multiplicity":
        for p in spec.primes:
            if p * p > x:
                break
            q = p * p
            while q <= x:
                n += 1
                q *= p
    return n


def _count_joint(counts, args, result):
    x, seg = args["x"], args["segment_size"]
    segments = -(-x // seg)
    counts["factorstats.segments"] += segments
    counts["factorstats.moduli_sieved"] += segments * sum(_moduli(s, x) for s in args["specs"])
    counts["factorstats.count_vectors"] += len(result.counts)


def _count_smooth(counts, args, result):
    counts["factorstats.smooth_parts"] += len(result)


def _count_model_pmf(counts, args, result):
    counts["kubilius.pmf_support"] += len(result.probs)


def _count_product(counts, args, result):
    counts["dist.grid_entries"] += len(result.entries)


def _count_tv_joint(counts, args, result):
    counts["dist.joint_tv_keys"] += len(args["p"].entries.keys() | args["q"].entries.keys())


def _count_cli(counts, args, result):
    argv = list(args["argv"] or [])
    if not argv or argv[0] != "sweep":
        return
    report = Path(argv[argv.index("--out-dir") + 1]) / "sweep_report.json"
    if not report.exists():  # the sweep failed; the workload's check reports it
        return
    rows = json.loads(report.read_text())["rows"]
    for status in ("ok", "error", "refused"):
        counts[f"cli.sweep_rows_{status}"] += sum(r["status"] == status for r in rows)


# (module, attribute, counter or None); spans are named "<module>.<attribute>".
# Which end-to-end metric each layer should move, and where:
#   primesets (PrimeSet validation, sieve_primes, harmonic_sums, count_primes)
#       -> wall_s on count-1e7 (about half its time); ~0 on joint-desk
#   factorstats.joint_factor_counts, segments, moduli_sieved, count_vectors
#       -> wall_s on count-1e7 (one 10-segment pass) and sweep-grid
#          (17 one-segment thm3 tables); small on joint-desk
#   factorstats.smooth_part_distribution, smooth_parts -> wall_s on count-1e7, joint-desk
#   kubilius.model_exact_pmf, pmf_support, model_tv_exact -> wall_s on sweep-grid, joint-desk
#   dist.product_joint, grid_entries, tv_distance_joint, joint_tv_keys
#       -> wall_s, cpu_s, peak_rss_mib on joint-desk; absent elsewhere
#   dist.tv_distance, dist.poisson_pmf -> wall_s on sweep-grid
#   theorems.check_* (glue such as thm3's conditioning loop) -> wall_s where called
#   cli.main, sweep row statuses -> wall_s, pass_frac on sweep-grid
TARGETS = [
    ("primesets", "sieve_primes", None),
    ("primesets", "harmonic_sums", None),
    ("primesets", "count_primes", None),
    ("factorstats", "joint_factor_counts", _count_joint),
    ("factorstats", "smooth_part_distribution", _count_smooth),
    ("kubilius", "model_exact_pmf", _count_model_pmf),
    ("kubilius", "model_tv_exact", None),
    ("dist", "product_joint", _count_product),
    ("dist", "tv_distance_joint", _count_tv_joint),
    ("dist", "tv_distance", None),
    ("dist", "poisson_pmf", None),
    ("theorems", "check_thm1", None),
    ("theorems", "check_corollary1", None),
    ("theorems", "check_thm2", None),
    ("theorems", "check_thm3", None),
    ("theorems", "check_halasz", None),
    ("theorems", "check_cor32", None),
    ("theorems", "check_thm4_local", None),
    ("cli", "main", _count_cli),
]


def _wrap(rec: Recorder, name: str, fn, counter):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            idx = rec.open("trace.bookkeeping")
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(rec.counts, bound.arguments, result)
            finally:
                rec.close(idx)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every TARGETS function on all of its bindings in the loaded
    primepoisson modules, plus PrimeSet.__post_init__ (validation on
    construction)."""
    modules = [m for n, m in sys.modules.items() if n == "primepoisson" or n.startswith("primepoisson.")]
    for mod_name, attr, counter in TARGETS:
        original = getattr(sys.modules[f"primepoisson.{mod_name}"], attr)
        name = f"{mod_name}.{attr}"
        wrapper = _wrap(rec, name, original, counter)
        patched = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched += 1
        rec.bindings[name] = patched

    prime_set = sys.modules["primepoisson.primesets"].PrimeSet
    prime_set.__post_init__ = _wrap(rec, "primesets.PrimeSet", prime_set.__post_init__, _count_prime_set)
    rec.bindings["primesets.PrimeSet"] = 1

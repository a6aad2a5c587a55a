"""One workload run in a fresh interpreter; started by run.py, not by hand.

Prints one JSON line: set-up time, the timed region's wall and CPU time,
peak RSS, ops attempted and failed, failure messages, and (with --trace 1)
per-layer totals.  Set-up is timed from the first line of this file, so it
includes importing primepoisson and numpy.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _rusage() -> tuple[float, float]:
    """(user+sys CPU seconds of this process and its reaped children,
    peak RSS in MiB of this process or of its largest child)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    tmp = Path(args.tmp)
    workloads.warm_caches()
    ops = workloads.build(args.workload, args.scale, args.seed, tmp, args.workers)
    setup_s = time.perf_counter() - _STARTED
    if not workloads.pp.__file__.startswith(str(workloads.ROOT / "src")):
        raise SystemExit(f"primepoisson imported from {workloads.pp.__file__}, not this checkout")
    out: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)

    results, errors = {}, {}
    wall_s = cpu_s = 0.0
    for op in ops:
        cpu0, _ = _rusage()
        started = time.perf_counter()
        try:
            output = op.run()
        except Exception:  # an op that raises is a failed op, not a failed run
            errors[op.name] = traceback.format_exc(limit=3)
        wall_s += time.perf_counter() - started
        cpu_s += _rusage()[0] - cpu0
        if op.name not in errors:
            results[op.name] = op.keep(output)
            del output  # else the full output stays alive during the next op
    peak = _rusage()[1]

    failures: dict[str, list[str]] = {}
    expected = workloads.load_expected(args.scale, args.workload)
    for op in ops:
        if op.name in errors:
            failures.update({u: [f"{op.name} raised: {errors[op.name]}"] for u in op.units})
        else:
            failures.update(workloads.check(op, results[op.name], results, expected.get(op.name)))

    out.update(
        {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mib": peak,
            "attempted": sum(len(op.units) for op in ops),
            "failed": len(failures),
            "failures": failures,
            "op_order": [op.name for op in ops],
        }
    )
    if rec is not None:
        out["layers"] = {name: list(v) for name, v in rec.layer_totals().items()}
        out["counts"] = dict(rec.counts)
        out["bindings"] = rec.bindings
        rec.write(tmp / "spans.json", {"workload": args.workload, "seed": args.seed, "wall_s": wall_s})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

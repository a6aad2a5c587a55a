"""primepoisson benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload joint-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload count-1e7 --seed 1 --seconds 1 --trace 1 --smoke

Workloads (see workloads.py for why each was chosen): ``joint-desk``,
``count-1e7``, ``sweep-grid``, or ``all`` for each in turn.  Load comes from
one closed-loop client: each workload's op list runs start to finish, then
the next run starts.  At most 2 processes compute at once (the sweep's
pool).

Every workload run is a fresh interpreter (child.py), so peak RSS and the
package's lru caches never carry over.  A run of this script first starts
SETUP_RUNS set-up-only children, then full children for as long as the
next one is expected to end within --seconds (at least one).  Reported
values are medians over children:

* ``setup_s`` -- import primepoisson, warm its lazy caches, build inputs;
* ``wall_s`` -- the workload's op list, i.e. time to a verified result;
* ``cpu_s`` -- user+sys CPU of the op list, pool workers included;
* ``peak_rss_mib`` -- max RSS of the child, or of its largest pool worker;
* ``pass_frac`` -- ops whose output passed its check / ops attempted.  Its
  complement ``fail_frac`` is printed too, but is 0 on a healthy commit, so
  it cannot carry a bound relative to its median.

With ``--trace 1`` traced children alternate with untraced ones; the
per-layer numbers come from the traced children and ``trace.overhead_s`` is
the difference of the two wall-time medians.  Spans recorded in pool
workers would be lost, so ``sweep-grid`` runs both kinds with ``--workers
1`` when traced.  The spans of the last traced child are written to
``.perfbench_runs/spans-<workload>-seed<seed>.json``.

``--smoke`` runs reduced sizes that drive every workload's code path in
seconds (test_smoke.py).  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_RUNS = 4
CHILD_TIMEOUT_S = 150
LIMITS = (
    "no machine-wide tracing, cache dropping or CPU pinning was used (the benchmark acts only "
    "on its own processes); times are of this process tree, on a machine it may share"
)


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, scale: str, trace: int, workers: int, setup_only: bool = False) -> dict:
    """Run child.py in a fresh interpreter and its own session; return its JSON."""
    tmp = RUNS_DIR / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--tmp", str(tmp), "--workers", str(workers), "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildError(f"{workload} child exceeded {CHILD_TIMEOUT_S}s") from None
        if proc.returncode != 0:
            raise ChildError(f"{workload} child exited {proc.returncode}:\n{stderr[-4000:]}")
        result = json.loads(stdout.strip().splitlines()[-1])
        if trace:
            shutil.copyfile(tmp / "spans.json", RUNS_DIR / f"spans-{workload}-seed{seed}.json")
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def environment() -> str:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), "unknown")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(f"{index}/level").strip()
        if level in ("2", "3"):
            caches.append(f"L{level} {read(f'{index}/size').strip()}")
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = "missing"
    return (f"nproc={os.cpu_count()} (affinity {len(os.sched_getaffinity(0))}), "
            f"Python {platform.python_version()}, numpy {np_version}, CPU {model}, "
            f"{', '.join(caches) or 'cache sizes unknown'}")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """Run one workload's children and reduce them to samples per metric."""
    workers = 1 if trace and workload == "sweep-grid" else 2
    setups = [run_child(workload, seed, scale, 0, workers, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS)]
    plain, traced = [], []
    started = time.perf_counter()
    # Start another round only if it should end within the budget, so a run
    # overshoots --seconds by set-up alone, never by a whole extra round.
    while not plain or (time.perf_counter() - started) * (len(plain) + 1) / len(plain) <= seconds:
        plain.append(run_child(workload, seed, scale, 0, workers))
        if trace:
            traced.append(run_child(workload, seed, scale, 1, workers))
    children = plain + traced
    return {
        "workers": workers,
        "setup_s": setups + [c["setup_s"] for c in children],
        "plain": plain,
        "traced": traced,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "failures": [f for c in children for msgs in c["failures"].values() for f in msgs],
    }


def end_to_end(m: dict) -> dict[str, list[float]]:
    samples = {"setup_s": m["setup_s"]}
    for key in ("wall_s", "cpu_s", "peak_rss_mib"):
        samples[key] = [c[key] for c in m["plain"]]
    samples["pass_frac"] = [1.0 - m["failed"] / m["attempted"]]
    return samples


def per_layer(m: dict, names: list[str]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for name in names:
        if name == "trace.overhead_s":
            overhead = (statistics.median(c["wall_s"] for c in m["traced"])
                        - statistics.median(c["wall_s"] for c in m["plain"]))
            samples[name] = [overhead]
            continue
        layer, _, field = name.rpartition(".")
        values = []
        for c in m["traced"]:
            if field in ("calls", "self_s") and layer in c["layers"]:
                values.append(c["layers"][layer][0 if field == "calls" else 1])
            else:
                values.append(c["counts"].get(name, 0))
        samples[name] = values
    return samples


def report(workload: str, seed: int, seconds: float, trace: int, scale: str, spec: dict) -> dict:
    m = measure(workload, seed, seconds, trace, scale)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    samples = per_layer(m, [x["name"] for x in metrics]) if trace else end_to_end(m)

    print(f"== {workload}: seed {seed}, {scale} scale, {seconds:g} s budget, trace {trace}, "
          f"sweep workers {m['workers']} ==")
    print(f"environment: {environment()}")
    print(f"limits: {LIMITS}")
    print(f"op order: {', '.join(m['plain'][0]['op_order'])}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for x in metrics:
        values = samples[x["name"]]
        q1, q3 = quartiles(values)
        print(f"{x['name']:44} {statistics.median(values):12.6g} {q1:12.6g} {q3:12.6g} {len(values):3d}  {x['unit']}")
    fail_frac = m["failed"] / m["attempted"]
    print(f"fail_frac: {fail_frac:g} ratio ({m['failed']} of {m['attempted']} ops failed, "
          f"{len(m['plain']) + len(m['traced'])} workload runs)")
    if trace:
        _print_layer_shares(m)
    for msg in m["failures"][:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    return {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {x["name"]: {"value": statistics.median(samples[x["name"]]), "unit": x["unit"]}
                    for x in metrics},
    }


def _print_layer_shares(m: dict) -> None:
    last = m["traced"][-1]
    wall = last["wall_s"]
    print("traced run: self time per span and per module, as a share of its wall time "
          f"({wall:.3f} s); counts are computed from call arguments and return values")
    modules: dict[str, float] = {}
    for name, (calls, busy) in sorted(last["layers"].items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:40} {busy:10.4f} s {100 * busy / wall:6.1f}%  calls={calls}")
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + busy
    for mod, busy in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {mod + '.*':40} {busy:10.4f} s {100 * busy / wall:6.1f}%")
    for name, value in sorted(last["counts"].items()):
        print(f"  {name:40} {value:>14} (computed)")
    unwrapped = [n for n, k in last["bindings"].items() if k == 0]
    print(f"  wrapped bindings: {sum(last['bindings'].values())}; none found for: {unwrapped or '-'}")
    if m["workers"] == 1:
        print("  note: sweep-grid ran with --workers 1 in this traced run (spans in pool workers are lost)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes for a fast check")
    args = ap.parse_args()

    missing = [p for p in ("BENCHMARK.json", "src/primepoisson/__init__.py", "tests/data/regression_bands.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a primepoisson checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r} (want one of {names} or all)", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "full"

    try:
        if args.workload != "all":
            result = report(args.workload, args.seed, args.seconds, args.trace, scale, spec)
        else:
            parts = {w: report(w, args.seed, args.seconds, args.trace, scale, spec) for w in names}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{w}.{k}": v for w, p in parts.items() for k, v in p["metrics"].items()},
            }
    except ChildError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

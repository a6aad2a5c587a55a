"""Record the outputs the benchmark checks against into expected.json.

Run from the repository root, only after an intended change to what the
package computes (the file pins the outputs of the commit it was recorded
at; review its diff):

    PYTHONPATH=src python3 perfbench/record_expected.py

Every workload runs once per scale with seed 0, in this process.  The band
and identity checks still run, so a recording that breaks them is refused.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    workloads.warm_caches()
    recorded: dict = {}
    broken = []
    for scale in ("full", "smoke"):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
                ops = workloads.build(name, scale, 0, Path(tmp))
                results = {op.name: op.keep(op.run()) for op in ops}
                observed = {op.name: op.observe(results[op.name]) for op in ops}
                for op in ops:
                    invariants = op.invariants(results[op.name], results)
                    broken += [f"{scale}/{name}/{op.name}: {msg}" for _, msg in invariants]
            recorded.setdefault(scale, {})[name] = observed
            print(f"{scale}/{name}: recorded {sorted(observed)}")
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 1
    workloads.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

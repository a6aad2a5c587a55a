"""Fingerprint the command line over a fixed matrix of argv.

Run from the repository root:

    python3 scripts/cli_matrix.py > matrix.jsonl

Each argv runs as ``python -m primepoisson ... --out-dir <fresh dir>`` against
the ``src/`` next to this script, and prints one JSON line: the argv, the
exit code, sha256 of stdout and of stderr, sha256 of every output file but
``manifest.json`` (it holds a timestamp and the wall time), and the
manifest's ``outputs`` list.  Run it on two checkouts and diff the output to
see which commands changed bytes.  Each child gets TIMEOUT_S seconds (a run
cut there records ``"exit": "timeout"``) and MAX_AS_BYTES of address space,
so a checkout that starts a huge sieve neither hangs the script nor takes
the machine's memory.  Standard library only; about 20 s on a checkout that
refuses every oversized request at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 60
MAX_AS_BYTES = 1 << 30

SWEEP_ROWS = [
    {"command": "thm3", "x": 10**5, "set": "interval:2..10", "k": 2, "psi": 0.5},
    {"command": "cor32", "set": "list:11:multiplicity"},
    {"command": "model-tv", "x": 10**4, "y": 10},
    {"command": "thm4", "set": "list:2,3", "k_max": 4},
    {"command": "thm2", "x": 1000, "set": ["interval:2..10", "interval:11..100"], "k": "1,1"},
    {"command": "harmonic", "set": "list:2,3,5"},
    {"command": "thm3", "x": 10**5, "set": "interval:2..10", "k": 2, "psi": 99},
    {"command": "counts", "x": "1e13", "set": "list:2"},
]

D = ["--set", "interval:2..7", "--set", "interval:11..31:multiplicity"]
M = ["--set", "interval:2..7:multiplicity", "--set", "interval:11..31"]
# eight sets whose Poisson product grid is over the 20 M-cell cap (60,963,840 and 31,610,880 cells)
CAP_SETS = [
    a
    for lo, hi in [(2, 3), (5, 7), (11, 13), (17, 19), (23, 29), (31, 37), (41, 43), (47, 53)]
    for a in ("--set", f"interval:{lo}..{hi}:multiplicity")
]
EIGHT_SETS = [a for lo in range(2, 34, 4) for a in ("--set", f"interval:{lo}..{lo + 3}")]
# eight overlapping sets whose ends fall on both sides of sqrt(1e6): many increment groups
OVERLAP_SETS = [
    a
    for spec in (
        "interval:2..1e6:multiplicity",
        "interval:2..5e5",
        "interval:3..700:multiplicity",
        "interval:11..2e5",
        "interval:500..1e6:multiplicity",
        "interval:1000..8e5",
        "interval:5e4..1e6",
        "interval:3e5..9e5:multiplicity",
    )
    for a in ("--set", spec)
]
# the ten primes just above 2^21
ABOVE_TABLE = "2097169,2097211,2097223,2097229,2097257,2097259,2097287,2097289,2097311,2097317"

MATRIX = [
    ["sieve", "--limit", "1000"],
    ["sieve", "--lo", "100", "--hi", "200"],
    ["harmonic", "--set", "list:2,3,5"],
    ["counts", "--x", "1e4", *D],
    ["counts", "--x", "1e4", *M, "--oracle"],
    ["model", "--set", "list:2,3"],
    ["model", "--set", "list:2,3:multiplicity"],
    ["model"],
    ["thm3", "--x", "1", "--set", "list:2", "--k", "1", "--psi", "0.5"],
    ["model-tv", "--x", "1e5", "--y", "100"],
    ["thm1", "--x", "1e5", "--y", "31", *D],
    ["thm1", "--x", "1e5", "--y", "31", *M, "--no-decomposition"],
    ["thm1", "--x", "1e5", "--y", "31", "--set", "interval:2..31:distinct"],
    ["thm2", "--x", "1000", "--set", "interval:2..10", "--set", "interval:11..100", "--k", "1,1"],
    ["thm2", "--x", "100", "--set", "interval:2..50", "--set", "interval:51..100", "--k", "0,0"],
    ["thm3", "--x", "1e5", "--set", "interval:2..10", "--k", "2", "--psi", "0.5"],
    ["halasz", "--x", "1e5", "--set", "interval:2..100", "--k-lo", "0", "--k-hi", "6"],
    ["thm4", "--set", "list:2,3"],
    ["thm4", "--set", "interval:2..50:multiplicity", "--k-max", "12"],
    ["cor1", "--x", "1e5", "--lo", "0", "--hi", "1"],
    ["cor32", "--set", "interval:2..100"],
    ["cor32", "--set", "interval:2..100:multiplicity"],
    ["sweep", "--grid", "GRID", "--workers", "1"],
    ["sweep", "--grid", "GRID", "--workers", "2"],
    ["thm3", "--x", "1e5", "--set", "interval:2..10", "--k", "2", "--psi", "99"],
    ["counts", "--x", "1e13", "--set", "list:2"],
    ["harmonic", "--set", "list:2", "--band-name", "x"],
    ["thm2", "--x", "1e13", "--set", "list:2", "--k", "1"],
    ["counts", "--x", "1e6", "--set", "interval:2..100",
     "--set", "interval:101..1000000:multiplicity"],
    ["thm2", "--x", "100", "--set", "interval:24..28", "--k", "0"],
    ["halasz", "--x", "100", "--set", "interval:24..28", "--k-lo", "0", "--k-hi", "1"],
    ["cor32", "--set", "interval:2..100000"],
    ["cor32", "--set", "interval:2..100000:multiplicity"],
    ["thm4", "--set", "interval:2..10000:multiplicity"],
    ["model", "--set", "interval:2..100:multiplicity"],
    ["harmonic", "--set", "list:2,4294967311,2305843009213693951,18446744073709551629"],
    ["sieve", "--lo", "2097152", "--hi", "2300000"],
    ["sieve", "--lo", "1e9", "--hi", "1000001000"],
    ["sieve", "--limit", "100", "--lo", "10", "--hi", "20"],
    ["thm4", "--set", "list:2,3", "--k-max", "-5"],
    ["counts", "--x", "1e100000", "--set", "list:2"],
    ["halasz", "--x", "100", "--set", "list:2", "--k-lo", "0", "--k-hi", "1e19"],
    ["cor1", "--x", "1e5", "--lo", "0", "--hi", "10"],
    ["sieve", "--limit", "1e12"],
    ["harmonic", "--set", "interval:2..1e12"],
    ["sieve", "--lo", "1e20", "--hi", "100000000000000000100"],
    ["model-tv", "--x", "1e10", "--y", "2e9"],
    ["cor1", "--x", "1e13", "--lo", "0", "--hi", "2"],
    ["thm3", "--x", "1e13", "--set", "list:2", "--k", "1", "--psi", "0.5"],
    ["thm1", "--x", "1e13", "--y", "31", "--set", "list:2,3,5"],
    ["halasz", "--x", "1e5", "--set", "interval:2..100:distinct", "--k-lo", "0", "--k-hi", "6"],
    ["halasz", "--x", "1e5", "--set", "interval:2..100:multiplicity", "--k-lo", "0", "--k-hi", "6"],
    ["thm3", "--x", "1e5", "--set", "interval:2..10:multiplicity", "--k", "2", "--psi", "0.5"],
    ["thm3", "--x", "1e5", "--set", "interval:2..10:distinct", "--k", "2", "--psi", "0.5"],
    ["thm2", "--x", "1000", "--set", "interval:2..10:multiplicity", "--set", "interval:11..100",
     "--k", "1,1"],
    ["harmonic", "--set", "LIST:2,3,5"],
    ["counts", "--x", "1e4", "--set", "interval:2..7:with-multiplicity"],
    ["counts", "--x", "1e99999999999999999999", "--set", "list:2"],
    ["counts", "--x", "1e-99999999999999999999", "--set", "list:2"],
    ["counts", "--x", "1e4", "--set", "interval:2..7", "--set", "list:5,7,11"],
    ["thm1", "--x", "1e5", "--y", "31", "--set", "interval:2..7", "--set", "list:7,11"],
    ["thm2", "--x", "1000", "--set", "interval:2..10", "--set", "list:7,11", "--k", "1,1"],
    ["thm3", "--x", "1e6", "--set", "interval:2..100", "--k", "4", "--psi", "1.0"],
    ["thm3", "--x", "1e13", "--set", "interval:2..1e8", "--k", "1", "--psi", "0.5"],
    ["thm1", "--x", "1e5", "--y", "1000", *CAP_SETS, "--no-decomposition"],
    ["thm1", "--x", "1e6", "--y", "40", *EIGHT_SETS, "--no-decomposition"],
    # a multiplicity law without 2, whose cut is short, and one over an empty set
    ["model", "--set", "interval:11..100:multiplicity"],
    ["model", "--set", "interval:24..28:multiplicity"],
    # y above sqrt(x) at scale, and two requests at the x cap that the Psi guard judges
    ["model-tv", "--x", "1e7", "--y", "1e7"],
    ["model-tv", "--x", "1099511627776", "--y", "100"],
    ["model-tv", "--x", "1099511627776", "--y", "1000"],
    # a y over 2^20 that the Psi guard refuses on the primes <= 2^20
    ["model-tv", "--x", "1099511627776", "--y", "268435456"],
    # overlapping sets above sqrt(x): increment groups of one set and of both
    ["counts", "--x", "1e6", "--set", "interval:2..1e6:multiplicity",
     "--set", "interval:500..200000"],
    # Omega over every prime at 1e7, and eight overlapping sets in mixed modes
    ["counts", "--x", "1e7", "--set", "interval:2..1e7:multiplicity"],
    ["counts", "--x", "1e6", *OVERLAP_SETS],
    # validation above 2^21: ten consecutive primes, the same with 2^21 + 1 among
    # them, a strong pseudoprime to the bases 2, 3, 5 and 7, psi_12, and a member below 2
    ["harmonic", "--set", f"list:{ABOVE_TABLE}"],
    ["harmonic", "--set", f"list:2097153,{ABOVE_TABLE}"],
    ["harmonic", "--set", "list:3215031751"],
    ["harmonic", "--set", "list:2,318665857834031151167461"],
    ["harmonic", "--set", "list:1,2,3"],
    # the Legendre table at x = 101^3 and just below it (101 is the least prime
    # whose cube is x), and the odd-only sieve across the byte table's end 2^21
    ["counts", "--x", "1030301", "--set", "interval:2..101",
     "--set", "interval:102..1030301:multiplicity"],
    ["counts", "--x", "1030300", "--set", "interval:2..101",
     "--set", "interval:102..1030300:multiplicity"],
    ["model-tv", "--x", "1030301", "--y", "101"],
    ["sieve", "--lo", "2097140", "--hi", "2097200"],
    ["sieve", "--limit", "2097152"],
    # the model-vs-truth TV where most parts have count 1: y below sqrt(x), y above
    # it (the k-major branch), y = x, and a part s with x // s = 1009, the largest prime <= y
    ["model-tv", "--x", "1e7", "--y", "1000"],
    ["model-tv", "--x", "1e6", "--y", "5000"],
    ["model-tv", "--x", "1e6", "--y", "1e6"],
    ["model-tv", "--x", "1019090", "--y", "1009"],
    # cor1 ranges past the last fitting block: one past t_10 (refused), one wholly
    # above it (refused), and one that starts above the blocks that fit at 1e5
    ["cor1", "--x", "1e5", "--lo", "0", "--hi", "11"],
    ["cor1", "--x", "1e5", "--lo", "12", "--hi", "12"],
    ["cor1", "--x", "1e5", "--lo", "4", "--hi", "10"],
    # a sweep over more processes than a 2-CPU machine has
    ["sweep", "--grid", "GRID", "--workers", "3"],
    # doubly exponential blocks whose ends have thousands of digits
    ["harmonic", "--set", "expexp:8"],
    ["harmonic", "--set", "expexp:9"],
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def limit_address_space() -> None:
    """Cap the child's address space; runs in the child, before exec."""
    resource.setrlimit(resource.RLIMIT_AS, (MAX_AS_BYTES, MAX_AS_BYTES))


def fingerprint(argv: list[str], work: Path, index: int) -> dict:
    out = work / f"out{index}"
    argv_run = [str(work / "matrix.json") if a == "GRID" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "primepoisson", *argv_run, "--out-dir", str(out)],
            capture_output=True,
            env=env,
            cwd=work,
            timeout=TIMEOUT_S,
            preexec_fn=limit_address_space,
        )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:  # subprocess.run has killed the child
        code, stdout, stderr = "timeout", e.stdout or b"", e.stderr or b""
    files = sorted(out.iterdir()) if out.exists() else []
    manifest = out / "manifest.json"
    return {
        "argv": argv,
        "exit": code,
        "stdout": sha(stdout),
        "stderr": sha(stderr),
        "files": {p.name: sha(p.read_bytes()) for p in files if p.name != "manifest.json"},
        "outputs": json.loads(manifest.read_text())["outputs"] if manifest.exists() else None,
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "matrix.json").write_text(json.dumps({"rows": SWEEP_ROWS}))
        for i, argv in enumerate(MATRIX):
            print(json.dumps(fingerprint(argv, work, i), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

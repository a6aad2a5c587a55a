"""Command-line interface for counting runs, model diagnostics, bound checks,
and band-checked parameter sweeps.

Examples::

    primepoisson thm1 --x 1e6 --y 31 --set interval:2..31:distinct
    primepoisson harmonic --set list:2,3,5
    primepoisson counts --x 100 --set list:2,3:distinct

Set arguments use a mini-language: ``interval:a..b[:mode]`` (primes in
[a, b]), ``list:p1,p2,...[:mode]``, or ``expexp:k[:mode]`` (primes in the
doubly exponential block (t_k, t_{k+1}]).  The mode is ``distinct`` (default)
or ``multiplicity``; kinds and modes are spelled exactly so.  ``thm2`` and
``thm3`` count distinct primes and ``halasz`` counts with multiplicity: a
suffix naming the other mode is refused (exit 2) before the set is built.
Integer arguments accept scientific notation when it is exact (``1e6``
works, ``1.23e1`` does not); one of more than 30 digits, also by an exponent
too large for Decimal, is refused (exit 3) before it is built.  Float
arguments (``--tail-eps``, ``--a-param``, ``--psi``) must be finite numbers.
An x above 2^40 is refused (exit 3) before any sieve, and so is a prime
list of more than 2^30 integers.

Handlers only compute: each returns its report payload, stdout lines and
tables, and ``main`` writes every file, only with ``--out-dir DIR``.  A DIR
that is a file or lies under one is refused (exit 2) before any work.  Every
command writes its tables, then ``<command>_report.json`` (``-`` becomes
``_``), then ``manifest.json``.  The tables: ``sieve`` writes ``primes.txt``,
``counts`` ``counts_table.csv``, ``model`` ``model_pmf.csv``, and ``halasz``,
``thm4`` and ``sweep`` write ``<command>_table.csv``.

Reports are JSON with sorted keys and repr-precision floats, so a fixed
config reproduces byte-identical files; timestamps and wall-clock times live
only in the run manifest.  Exit codes: 0 success/recorded,
1 regression-band failure, 2 usage or domain error (including a malformed
band file, refused before any work), 3 cap refusal, 4 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import pickle
import re
import reprlib
import signal
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from pathlib import Path
from typing import NoReturn

from . import __version__
from .dist import DEFAULT_TAIL_EPS
from .errors import CapError, DomainError
from .factorstats import (
    CountMode,
    SetSpec,
    check_x_cap,
    joint_factor_counts,
    oracle_factor_counts,
)
from .kubilius import model_exact_pmf, model_tv_exact
from .primesets import (
    PrimeSet,
    expexp_block,
    harmonic_sums,
    primes_in_interval,
    sieve_primes,
)
from .theorems import (
    TheoremReport,
    Thm1Config,
    check_cor32,
    check_corollary1,
    check_halasz,
    check_thm1,
    check_thm2,
    check_thm3,
    check_thm4_local,
)

EXIT_OK = 0
EXIT_BAND_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


# every cap in the package is below psi_12 ~ 3.2e23 (24 digits); a longer count
# is refused before its int is built, in time quadratic in its digits
MAX_COUNT_DIGITS = 30
# Decimal gives up on an exponent of about 10^18 or more; one of 18 or more
# digits is read as +-(10^17 - 1), which keeps its verdict: over 30 digits if
# positive, not an integer if negative, and 0 for a zero mantissa
_LONG_EXPONENT = re.compile(r"(?<=[eE])([+-]?)0*[1-9]\d{17,}(?=\s*$)")


def parse_count(text: str) -> int:
    """Parse an integer, allowing scientific notation only when exact."""
    try:
        d = Decimal(_LONG_EXPONENT.sub(r"\g<1>" + "9" * 17, text))
    except InvalidOperation:
        raise DomainError(f"not a number: {text!r}") from None
    if not d.is_finite():
        raise DomainError(f"not a finite number: {text!r}")
    if d and d.adjusted() >= MAX_COUNT_DIGITS:  # a zero has no digits, whatever its exponent
        raise CapError(f"count {reprlib.repr(text)} has more than {MAX_COUNT_DIGITS} digits")
    if d != d.to_integral_value():
        raise DomainError(f"not an exact integer: {text!r}")
    return int(d)


def parse_x(text: str) -> int:
    """Parse --x and refuse it over the cap: handlers call this before they
    parse any set spec, so an x over the cap is refused before a set is sieved."""
    x = parse_count(text)
    check_x_cap(x)
    return x


def parse_float(text: str) -> float:
    """Parse a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"not a finite number: {text!r}")
    return value


def parse_set_spec(text: str, mode: CountMode | None = None) -> SetSpec:
    """Parse the set mini-language into a SetSpec.  A command that counts in
    one fixed mode passes it: a suffix naming the other mode is refused
    before the set is built, and no suffix means that mode."""
    parts = text.split(":")
    kind = parts[0]
    if kind not in ("interval", "list", "expexp"):
        raise DomainError(f"unknown set kind {kind!r} (want interval, list, or expexp)")
    if len(parts) not in (2, 3):
        raise DomainError(f"bad {kind} spec {text!r}")
    if len(parts) == 3:
        try:
            given = CountMode(parts[2])
        except ValueError:
            raise DomainError(
                f"unknown count mode {parts[2]!r} (want distinct or multiplicity)"
            ) from None
        if mode not in (None, given):
            raise DomainError(f"this command counts {mode.value}, not {given.value}: {text!r}")
        mode = given
    if kind == "interval":
        bounds = parts[1].split("..")
        if len(bounds) != 2:
            raise DomainError(f"bad interval bounds in {text!r} (want a..b)")
        a, b = parse_count(bounds[0]), parse_count(bounds[1])
        if b < a:
            raise DomainError(f"empty interval in {text!r}")
        if b < 2:
            raise DomainError(f"interval in {text!r} contains no primes")
        ps = sieve_primes(b) if a <= 2 else primes_in_interval(a - 1, b)
    elif kind == "list":
        values = sorted(parse_count(tok) for tok in parts[1].split(",") if tok.strip())
        if not values:
            raise DomainError(f"empty prime list in {text!r}")
        ps = PrimeSet(values)
    else:
        ps = expexp_block(parse_count(parts[1]))
    return SetSpec(ps, mode or CountMode.DISTINCT)


def load_bands(path: str | Path) -> dict[str, tuple[float, float]]:
    """Load a regression-band file: JSON object name -> [lo, hi], two numbers
    (not bools) with lo <= hi."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DomainError(f"cannot read band file {path}: {e}") from None
    if not isinstance(raw, dict):
        raise DomainError(f"band file {path} must be a JSON object of [lo, hi] pairs")
    bands: dict[str, tuple[float, float]] = {}
    for name, pair in raw.items():
        numbers = isinstance(pair, list) and all(type(v) in (int, float) for v in pair)
        if not (numbers and len(pair) == 2 and pair[0] <= pair[1]):
            raise DomainError(f"band {name!r} must be [lo, hi] with lo <= hi")
        bands[name] = (float(pair[0]), float(pair[1]))
    return bands


class RunWriter:
    """Writes a run's files under one output directory, made on the first
    write, and lists them in the order written."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.files: list[str] = []

    def write(self, filename: str, headers: list[str] | None, rows: Iterable) -> None:
        """Write text lines (``headers`` None) or CSV rows, floats at repr precision."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / filename, "w", newline="") as fh:
            if headers is None:
                fh.writelines(rows)
            else:
                w = csv.writer(fh)
                w.writerow(headers)
                w.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
        self.files.append(filename)


@dataclass
class CommandResult:
    """What a handler computed: a report payload, an optional band value,
    stdout lines, and tables by file name: CSV headers (None for a text file)
    and a function of the rows (lines) that only ``main`` calls, to write them."""

    name: str
    payload: dict
    band_value: float | None = None
    lines: list[str] = field(default_factory=list)
    tables: dict[str, tuple[list[str] | None, Callable[[], Iterable]]] = field(default_factory=dict)


# exception class -> exit code, stderr prefix, sweep-row status; first match wins
_FAILURES = (
    (CapError, EXIT_CAP, "refused", "refused"),
    (DomainError, EXIT_USAGE, "error", "error"),
    (Exception, EXIT_INTERNAL, "internal error", "crashed"),  # never a band failure (exit 1)
)


def _failure(e: Exception) -> tuple[int, str, str, str]:
    """Exit code, stderr prefix, sweep-row status and message of a failure;
    an internal fault's message names its type."""
    code, prefix, status = next(f[1:] for f in _FAILURES if isinstance(e, f[0]))
    message = f"{type(e).__name__}: {e}" if code == EXIT_INTERNAL else str(e)
    return code, prefix, status, message


def _theorem_result(report: TheoremReport) -> CommandResult:
    ratio = "undefined" if report.ratio is None else repr(report.ratio)
    line = f"lhs={report.lhs!r} rhs={report.rhs!r} ratio={ratio}"
    return CommandResult(report.name, report.as_json(), band_value=report.ratio, lines=[line])


def _report_list_result(
    command: str, name: str, reports: list[TheoremReport], key: str, band_value: float | None
) -> CommandResult:
    """Result of a check that returns one report per k: the reports plus
    their band value under ``key``, and one row per report in
    ``<command>_table.csv``."""
    payload = {"reports": [r.as_json() for r in reports], key: band_value}
    line = f"reports={len(reports)} {key}={band_value!r}"
    headers = ["name", "lhs", "rhs", "ratio", "uncertainty"]
    table = f"{command}_table.csv"
    tables = {table: (headers, lambda: ([getattr(r, h) for h in headers] for r in reports))}
    return CommandResult(name, payload, band_value=band_value, lines=[line], tables=tables)


# ---------------------------------------------------------------- handlers


def _cmd_sieve(ns) -> CommandResult:
    if (ns.lo is None) != (ns.hi is None):
        raise DomainError("--lo and --hi must be given together")
    if ns.lo is not None:
        if ns.limit is not None:
            raise DomainError("--limit cannot be given with --lo/--hi")
        lo, hi = parse_count(ns.lo), parse_count(ns.hi)
        ps = primes_in_interval(lo, hi)
        payload = {"lo": lo, "hi": hi, "count": len(ps)}
        name = f"sieve[{lo}..{hi}]"
    else:
        if ns.limit is None:
            raise DomainError("either --limit or --lo/--hi is required")
        limit = parse_count(ns.limit)
        ps = sieve_primes(limit)
        payload = {"limit": limit, "count": len(ps)}
        name = f"sieve[{limit}]"
    first_last = (int(ps.array[0]), int(ps.array[-1])) if len(ps) else (None, None)
    payload["first"], payload["last"] = first_last
    tables = {"primes.txt": (None, lambda: (f"{p}\n" for p in ps.array.tolist()))}
    return CommandResult(name, payload, lines=[f"count={len(ps)}"], tables=tables)


def _cmd_harmonic(ns) -> CommandResult:
    if ns.set.count(":") > 1:
        raise DomainError(
            f"harmonic sums do not depend on a count mode: drop the mode suffix of {ns.set!r}"
        )
    spec = parse_set_spec(ns.set)
    hs = harmonic_sums(spec.primes)
    payload = {
        "set": ns.set,
        "size": len(spec.primes),
        "h": hs.h,
        "h1": hs.h1,
        "h2": hs.h2,
    }
    line = f"h={hs.h!r} h1={hs.h1!r} h2={hs.h2!r}"
    return CommandResult(f"harmonic[{ns.set}]", payload, lines=[line])


def _cmd_counts(ns) -> CommandResult:
    x = parse_x(ns.x)
    specs = tuple(parse_set_spec(s) for s in ns.set)
    counts = (oracle_factor_counts if ns.oracle else joint_factor_counts)(x, specs)
    payload = counts.as_json()
    payload["route"] = "oracle" if ns.oracle else "sieve"
    payload["specs"] = list(ns.set)
    headers = [f"k_{i+1}" for i in range(len(specs))] + ["count"]

    def rows():
        return (k + [c] for k, c in zip(counts.keys.tolist(), counts.tallies.tolist()))

    return CommandResult(
        f"counts[x={x},m={len(specs)}]",
        payload,
        lines=[f"vectors={len(counts.tallies)} total={counts.total()}"],
        tables={"counts_table.csv": (headers, rows)},
    )


def _cmd_model(ns) -> CommandResult:
    spec = parse_set_spec(ns.set)
    pmf = model_exact_pmf(spec.primes, spec.mode, parse_float(ns.tail_eps))
    payload = {"set": ns.set, "mode": spec.mode.value, "pmf": pmf.as_json(), "mean": pmf.mean()}
    line = f"support={len(pmf)} mean={pmf.mean()!r} tail_bound={pmf.tail_bound!r}"
    tables = {"model_pmf.csv": (["index", "probability"], lambda: enumerate(pmf.probs.tolist()))}
    return CommandResult(f"model[{ns.set}]", payload, lines=[line], tables=tables)


def _cmd_model_tv(ns) -> CommandResult:
    x, y = parse_count(ns.x), parse_count(ns.y)
    tv = model_tv_exact(x, y)
    u = math.log(x) / math.log(y)
    u_term = u ** (-u)
    payload = {
        "x": x,
        "y": y,
        "value": tv.value,
        "uncertainty": tv.uncertainty,
        "u": u,
        "u_term": u_term,
        "ratio_to_u_term": tv.value / u_term,
    }
    return CommandResult(
        f"model_tv[x={x},y={y}]",
        payload,
        band_value=tv.value,
        lines=[f"tv={tv.value!r} u={u!r}"],
    )


def _cmd_thm1(ns) -> CommandResult:
    cfg = Thm1Config(
        x=parse_x(ns.x),
        y=parse_count(ns.y),
        specs=tuple(parse_set_spec(s) for s in ns.set),
        tail_eps=parse_float(ns.tail_eps),
        include_decomposition=not ns.no_decomposition,
    )
    return _theorem_result(check_thm1(cfg))


def _cmd_thm2(ns) -> CommandResult:
    x = parse_x(ns.x)
    sets = tuple(parse_set_spec(s, CountMode.DISTINCT).primes for s in ns.set)
    ks = tuple(parse_count(tok) for tok in ns.k.split(","))
    return _theorem_result(check_thm2(x, sets, ks))


def _cmd_thm3(ns) -> CommandResult:
    x = parse_x(ns.x)
    spec = parse_set_spec(ns.set, CountMode.DISTINCT)
    k = parse_count(ns.k)
    a_param, psi = parse_float(ns.a_param), parse_float(ns.psi)
    return _theorem_result(check_thm3(x, spec.primes, k, a_param, psi))


def _cmd_halasz(ns) -> CommandResult:
    x = parse_x(ns.x)
    spec = parse_set_spec(ns.set, CountMode.WITH_MULTIPLICITY)
    k_lo, k_hi = parse_count(ns.k_lo), parse_count(ns.k_hi)
    if k_hi < k_lo:
        raise DomainError(f"empty k range [{k_lo}, {k_hi}]")
    reports = check_halasz(x, spec.primes, range(k_lo, k_hi + 1))
    band_value = max((abs(r.ratio - 1.0) for r in reports if r.ratio is not None), default=None)
    name = f"halasz[x={x},k={k_lo}..{k_hi}]"
    return _report_list_result("halasz", name, reports, "max_abs_ratio_minus_1", band_value)


def _cmd_thm4(ns) -> CommandResult:
    spec = parse_set_spec(ns.set)
    k_max = parse_count(ns.k_max) if ns.k_max is not None else None
    reports = check_thm4_local(spec.primes, spec.mode, parse_float(ns.tail_eps), k_max)
    band_value = max((r.ratio for r in reports if r.ratio is not None), default=None)
    return _report_list_result("thm4", f"thm4[{ns.set}]", reports, "max_ratio", band_value)


def _cmd_cor1(ns) -> CommandResult:
    x, lo, hi = parse_count(ns.x), parse_count(ns.lo), parse_count(ns.hi)
    return _theorem_result(check_corollary1(x, lo, hi, parse_float(ns.tail_eps)))


def _cmd_cor32(ns) -> CommandResult:
    spec = parse_set_spec(ns.set)
    return _theorem_result(check_cor32(spec.primes, spec.mode, parse_float(ns.tail_eps)))


def _row_to_argv(row: dict) -> list[str]:
    if not isinstance(row, dict):
        raise DomainError(f"sweep row must be a JSON object, got {row!r}")
    row = dict(row)
    try:
        command = str(row.pop("command"))
    except KeyError:
        raise DomainError("sweep row is missing the 'command' key") from None
    argv = [command]
    for key in sorted(row):
        flag = "--" + key.replace("_", "-")
        value = row[key]
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            for item in value:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(value)])
    return argv


# what an ok sweep row records of its result; the first five are also
# sweep_table.csv columns, between the row's index and command and its status
_ROW_FIELDS = ["name", "band_value", "lhs", "rhs", "ratio", "value", "uncertainty"]
_SWEEP_COLUMNS = ["row", "command", *_ROW_FIELDS[:5], "status", "error"]


def _row_record(index: int, row) -> dict:
    """The fields every record of a sweep row has, whatever its status."""
    command = row.get("command", "") if isinstance(row, dict) else ""
    return {"row": index, "command": command, "config": row}


def _run_sweep_row(indexed_row: tuple[int, dict]) -> dict:
    """Execute one sweep row; never raises, and writes no files."""
    index, row = indexed_row
    record = _row_record(index, row)
    try:
        argv = _row_to_argv(row)
        with contextlib.redirect_stderr(io.StringIO()) as captured:
            try:
                ns = _parser().parse_args(argv)
            except SystemExit:
                raise DomainError(
                    "invalid row config: " + " ".join(captured.getvalue().split())
                ) from None
        if ns.command == "sweep":
            raise DomainError("sweep rows cannot nest another sweep")
        inert = [
            k for k in ("band_file", "band_name", "out_dir") if getattr(ns, k, None) is not None
        ]
        if inert:
            raise DomainError(
                f"sweep rows take no {', '.join(inert)}: a row writes no files and checks no band"
            )
        result = _HANDLERS[ns.command](ns)
        fields = {**result.payload, "name": result.name, "band_value": result.band_value}
        record.update({f: fields.get(f) for f in _ROW_FIELDS}, status="ok", error=None)
    except Exception as e:  # this row is lost, the sweep goes on
        _, _, status, message = _failure(e)
        record.update(status=status, error=message)
    return record


# a sweep runs on at most this many processes, its own included
MAX_WORKERS = 64
# the row queue holds one token per chunk of rows, at most _MAX_TOKENS of
# _TOKEN bytes: 4,096 bytes, PIPE_BUF, so the whole queue is one write that
# fits the pipe before any worker starts
_MAX_TOKENS = 1024
_TOKEN = 4


def _pull(queue: int, rows: list, chunk: int) -> list[dict]:
    """Run rows, one chunk for each token read from the queue, until it is empty."""
    records = []
    while token := os.read(queue, _TOKEN):
        start = int.from_bytes(token, "little") * chunk
        records += map(_run_sweep_row, enumerate(rows[start : start + chunk], start))
    return records


def _worker(queue: int, reply: int, inherited: list[int], rows: list, chunk: int) -> NoReturn:
    """A forked worker's whole life: pull rows, send their records as one
    pickle, and leave without running any of the parent's exit code."""
    code = 1
    try:
        for fd in inherited:  # the reply pipes' read ends belong to the parent
            os.close(fd)
        records = _pull(queue, rows, chunk)
        with open(reply, "wb") as fh:
            fh.write(pickle.dumps(records))
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, reply: int) -> tuple[int, bytes]:
    """A worker's wait status and its reply, once it has exited."""
    with open(reply, "rb") as fh:
        data = fh.read()
    return os.waitpid(pid, 0)[1], data


def _death(status: int) -> str:
    """How a worker with this wait status ended."""
    code = os.waitstatus_to_exitcode(status)
    return f"exit status {code}" if code >= 0 else f"killed by signal {-code}"


def _run_forked(rows: list, workers: int) -> list[dict]:
    """Run the rows on ``workers`` processes, this one included, each pulling
    chunks of rows from one queue until it is empty; the records come back in
    row order.  A worker that dies before its reply loses the rows it took:
    they become ``crashed`` records that name how it died."""
    chunk = max(1, -(-len(rows) // _MAX_TOKENS))
    tokens = range(-(-len(rows) // chunk))
    queue, fill = os.pipe()
    os.write(fill, b"".join(i.to_bytes(_TOKEN, "little") for i in tokens))
    os.close(fill)
    replies: dict[int, int] = {}  # worker pid -> read end of its reply pipe
    try:
        for _ in range(workers - 1):
            reply, send = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the ones running share the rows
                os.close(reply)
                os.close(send)
                break
            if pid == 0:
                _worker(queue, send, [reply, *replies.values()], rows, chunk)
            os.close(send)
            replies[pid] = reply
        records = _pull(queue, rows, chunk)
    except BaseException:  # the sweep is lost: its workers' rows are not wanted
        for pid in replies:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        done = [_reap(pid, reply) for pid, reply in replies.items()]

    for status, data in done:
        if status == 0:  # a worker exits 0 only once its whole reply is written
            records += pickle.loads(data)
    died = ", ".join(sorted({_death(status) for status, _ in done if status}))
    ran = {r["row"] for r in records}
    records += (
        {**_row_record(i, row), "status": "crashed", "error": f"sweep worker died ({died})"}
        for i, row in enumerate(rows)
        if i not in ran
    )
    return sorted(records, key=lambda r: r["row"])


def _cmd_sweep(ns) -> CommandResult:
    if ns.workers is None:
        workers = min(os.cpu_count() or 1, MAX_WORKERS)
    else:
        workers = parse_count(ns.workers)
        if workers < 1:
            raise DomainError(f"workers must be >= 1, got {workers}")
        if workers > MAX_WORKERS:
            raise CapError(f"{workers} workers exceed the cap of {MAX_WORKERS}")
    grid_path = Path(ns.grid)
    try:
        grid = json.loads(grid_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DomainError(f"cannot read grid file {grid_path}: {e}") from None
    if not isinstance(grid, dict) or not isinstance(grid.get("rows", []), list):
        raise DomainError("grid file must be an object with a 'rows' list")
    name = str(grid.get("name") or grid_path.stem)
    rows = grid.get("rows", [])
    records = _run_forked(rows, min(workers, len(rows)) if hasattr(os, "fork") else 1)

    ok = [r for r in records if r["status"] == "ok"]
    band_values = [r["band_value"] for r in ok if r.get("band_value") is not None]
    summary_value = max(band_values) if band_values else None
    payload = {
        "name": name,
        "rows": records,
        "summary": {
            "total": len(records),
            "ok": len(ok),
            "errors": len(records) - len(ok),
            "max_band_value": summary_value,
        },
    }
    lines = [
        f"rows={len(records)} ok={len(ok)} errors={len(records) - len(ok)} "
        f"max_band_value={summary_value!r}"
    ]

    def table_rows():
        return ([r.get(c) for c in _SWEEP_COLUMNS] for r in records)

    tables = {"sweep_table.csv": (_SWEEP_COLUMNS, table_rows)}
    return CommandResult(name, payload, band_value=summary_value, lines=lines, tables=tables)


_HANDLERS = {
    "sieve": _cmd_sieve,
    "harmonic": _cmd_harmonic,
    "counts": _cmd_counts,
    "model": _cmd_model,
    "model-tv": _cmd_model_tv,
    "thm1": _cmd_thm1,
    "thm2": _cmd_thm2,
    "thm3": _cmd_thm3,
    "halasz": _cmd_halasz,
    "thm4": _cmd_thm4,
    "cor1": _cmd_cor1,
    "cor32": _cmd_cor32,
    "sweep": _cmd_sweep,
}
# commands whose handler never returns a band value, so they take no band options
_UNBANDED = {"sieve", "harmonic", "counts", "model"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primepoisson",
        description="Distributions of prime-factor counts and their Poisson approximations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="enumerate primes up to a limit or in an interval")
    p.add_argument("--limit", default=None, help="upper bound (primes <= limit)")
    p.add_argument("--lo", default=None, help="interval lower endpoint (primes in (lo, hi])")
    p.add_argument("--hi", default=None, help="interval upper endpoint")

    p = sub.add_parser("harmonic", help="harmonic sums h, h1, h2 of a prime set")
    p.add_argument("--set", required=True, help="set spec (interval:/list:/expexp:)")

    p = sub.add_parser("counts", help="exact joint factor-count tallies for n <= x")
    p.add_argument("--x", required=True)
    p.add_argument("--set", action="append", required=True, help="repeatable set spec")
    p.add_argument("--oracle", action="store_true", help="use the slow trial-division route")

    p = sub.add_parser("model", help="exact model law of a factor count")
    p.add_argument("--set", required=True, help="set spec (interval:/list:/expexp:)")
    p.add_argument("--tail-eps", default=repr(DEFAULT_TAIL_EPS))

    p = sub.add_parser("model-tv", help="exact model-vs-truth distance over exponent vectors")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("thm1", help="joint Poisson comparison for factor counts")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--set", action="append", required=True, help="repeatable set spec")
    p.add_argument("--tail-eps", default=repr(DEFAULT_TAIL_EPS))
    p.add_argument("--no-decomposition", action="store_true")

    p = sub.add_parser("thm2", help="uniform upper bound for a joint count vector")
    p.add_argument("--x", required=True)
    p.add_argument("--set", action="append", required=True, help="repeatable set spec")
    p.add_argument("--k", required=True, help="comma-separated target counts")

    p = sub.add_parser("thm3", help="conditional concentration of the count over T")
    p.add_argument("--x", required=True)
    p.add_argument("--set", required=True, help="set spec for T")
    p.add_argument("--k", required=True)
    p.add_argument("--a-param", default="3.0")
    p.add_argument("--psi", required=True)

    p = sub.add_parser("halasz", help="pointwise Poisson comparison for multiplicity counts")
    p.add_argument("--x", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--k-lo", required=True)
    p.add_argument("--k-hi", required=True)

    p = sub.add_parser("thm4", help="pointwise model-vs-Poisson local bound")
    p.add_argument("--set", required=True)
    p.add_argument("--k-max", default=None)
    p.add_argument("--tail-eps", default=repr(DEFAULT_TAIL_EPS))

    p = sub.add_parser("cor1", help="joint Poisson(1) comparison over expexp blocks")
    p.add_argument("--x", required=True)
    p.add_argument("--lo", required=True, help="smallest block index")
    p.add_argument("--hi", required=True, help="largest block index")
    p.add_argument("--tail-eps", default=repr(DEFAULT_TAIL_EPS))

    p = sub.add_parser("cor32", help="model-vs-Poisson total variation bound")
    p.add_argument("--set", required=True)
    p.add_argument("--tail-eps", default=repr(DEFAULT_TAIL_EPS))

    p = sub.add_parser("sweep", help="run a grid of sub-configs with band checks")
    p.add_argument("--grid", required=True, help="JSON grid file with a 'rows' list")
    p.add_argument(
        "--workers",
        default=None,
        help=f"processes that run rows, this one included (default: cpu count; at most "
        f"{MAX_WORKERS})",
    )

    for command, p in sub.choices.items():
        p.add_argument("--out-dir", default=None, help="write the report, tables and manifest here")
        if command not in _UNBANDED:
            p.add_argument("--band-file", default=None, help="JSON regression-band file")
            p.add_argument("--band-name", default=None, help="override the band lookup name")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by main and every sweep row (forked
    sweep workers inherit it); parsing leaves no state in it."""
    return build_parser()


def _json_text(obj) -> list[str]:
    return [json.dumps(obj, sort_keys=True, indent=2) + "\n"]


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        band_file = getattr(ns, "band_file", None)
        bands = load_bands(band_file) if band_file else {}
        if ns.out_dir is not None:  # a file, or a path under one, is refused before any work
            nearest = next(p for p in (Path(ns.out_dir), *Path(ns.out_dir).parents) if p.exists())
            if not nearest.is_dir():
                raise DomainError(f"--out-dir {ns.out_dir}: {nearest} is not a directory")
        started = time.perf_counter()
        result = _HANDLERS[ns.command](ns)

        verdicts, code = [], EXIT_OK
        if result.band_value is not None:
            lookup = ns.band_name or result.name
            band = bands.get(lookup)
            verdict = "recorded"
            if band is not None:
                verdict = "pass" if band[0] <= result.band_value <= band[1] else "fail"
            code = EXIT_BAND_FAIL if verdict == "fail" else EXIT_OK
            verdicts.append(
                {"name": lookup, "value": result.band_value, "band": band, "verdict": verdict}
            )

        if ns.out_dir is not None:
            out = RunWriter(ns.out_dir)
            for filename, (headers, rows) in result.tables.items():
                out.write(filename, headers, rows())
            report = f"{ns.command.replace('-', '_')}_report.json"
            out.write(report, None, _json_text(result.payload))
            manifest = {
                "version": __version__,
                "command": ns.command,
                "config": {k: v for k, v in vars(ns).items() if k != "command"},
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "wall_clock_seconds": {"total": time.perf_counter() - started},
                "band_verdicts": verdicts,
                "outputs": out.files,
            }
            out.write("manifest.json", None, _json_text(manifest))
        for line in result.lines:
            print(line)
        for v in verdicts:
            print(f"band {v['name']}: {v['verdict']}")
        return code
    except Exception as e:
        code, prefix, _, message = _failure(e)
        print(f"{prefix}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

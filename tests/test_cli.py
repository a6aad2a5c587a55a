"""Command-line surface: documented examples, exit codes, determinism."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from primepoisson import CapError, CountMode, DomainError, cli
from primepoisson.cli import main, parse_count, parse_float, parse_set_spec


def run(argv, tmp_path, sub=None):
    out = tmp_path / (sub or "out")
    code = main(argv + ["--out-dir", str(out)])
    return code, out


# ----------------------------------------------------- documented examples


def test_doc_example_harmonic(tmp_path, capsys):
    code, _ = run(["harmonic", "--set", "list:2,3,5"], tmp_path)
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("h=1.0333333333333332 h1=1.75 h2=0.4011111111111111")


def test_doc_example_counts(tmp_path):
    code, out = run(["counts", "--x", "100", "--set", "list:2,3:distinct"], tmp_path)
    assert code == 0
    rows = (out / "counts_table.csv").read_text().strip().splitlines()
    assert rows == ["k_1,count", "0,33", "1,51", "2,16"]


def test_doc_example_thm1(tmp_path):
    code, out = run(
        ["thm1", "--x", "1e6", "--y", "31", "--set", "interval:2..31:distinct"],
        tmp_path,
    )
    assert code == 0
    assert (out / "thm1_report.json").exists()
    assert (out / "manifest.json").exists()
    report = json.loads((out / "thm1_report.json").read_text())
    assert 0 < report["lhs"] < report["rhs"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "thm1"
    assert "timestamp" in manifest


# -------------------------------------------------------------- arg parsing


def test_parse_count_scientific_notation():
    assert parse_count("1e6") == 10**6
    assert parse_count("2.5e3") == 2500
    assert parse_count("100") == 100
    with pytest.raises(DomainError):
        parse_count("12.3")
    with pytest.raises(DomainError):
        parse_count("abc")
    with pytest.raises(DomainError, match="not a finite number"):
        parse_count("inf")


def test_parse_float_rejects_non_finite():
    assert parse_float("1e-12") == 1e-12
    assert parse_float("3") == 3.0
    for bad in ["abc", "", "inf", "-inf", "nan"]:
        with pytest.raises(DomainError):
            parse_float(bad)


def test_parse_set_spec_kinds():
    s = parse_set_spec("interval:2..31:distinct")
    assert s.primes.primes[0] == 2 and s.primes.primes[-1] == 31
    assert s.mode is CountMode.DISTINCT

    s = parse_set_spec("interval:10..30")
    assert s.primes.primes == (11, 13, 17, 19, 23, 29)

    s = parse_set_spec("list:7,3,2:multiplicity")
    assert s.primes.primes == (2, 3, 7)
    assert s.mode is CountMode.WITH_MULTIPLICITY

    s = parse_set_spec("expexp:1")
    assert s.primes.primes[0] == 17 and s.primes.primes[-1] == 1613


def test_parse_set_spec_rejects_garbage():
    # kinds and modes have exact spellings: no case folding, padding or aliases
    spellings = ["LIST:2", " list:2", "list:2:with-multiplicity", "list:2:Distinct"]
    for bad in ["interval:31..2", "interval:0..1", "ring:2,3", "list:4", "list:", "expexp:x"] + spellings:
        with pytest.raises(DomainError):
            parse_set_spec(bad)


# --------------------------------------------------------------- exit codes


def test_exit_code_usage_error(tmp_path, capsys):
    code, _ = run(["counts", "--x", "nope", "--set", "list:2"], tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [command, *args, option, "x"]
        for command, args in [
            ("sieve", ["--limit", "100"]),
            ("harmonic", ["--set", "list:2"]),
            ("counts", ["--x", "100", "--set", "list:2"]),
            ("model", ["--set", "list:2"]),
        ]
        for option in ("--band-file", "--band-name")
    ]
    + [["counts", "--x", "100", "--set", "list:2", "--segment-size", "7"]]
    + [
        ["model", "--set", "list:2", option, value]
        for option, value in [("--samples", "10"), ("--sample-y", "5"), ("--seed", "1")]
    ],
)
def test_options_without_effect_are_refused(argv, capsys):
    # these commands never return a band value, no count output depends on
    # the segment size, and the model law is exact, so argparse refuses the
    # options
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_uncertified_prime_exits_2(capsys):
    psi12 = 318665857834031151167461  # a strong pseudoprime to every Miller-Rabin base used
    assert main(["harmonic", "--set", f"list:{psi12}"]) == 2
    assert "certified primality bound" in capsys.readouterr().err
    assert main(["harmonic", "--set", f"list:{2**64 + 13}"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cor32", "--set", "list:11", "--tail-eps", "abc"],
        ["thm3", "--x", "1e4", "--set", "interval:2..30", "--k", "3", "--psi", "abc"],
    ],
)
def test_bad_float_exits_2_without_traceback(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "primepoisson", *argv, "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


# eight multiplicity sets whose Poisson product grid has 60,963,840 cells
CAP_SETS = [
    f"interval:{lo}..{hi}:multiplicity"
    for lo, hi in [(2, 3), (5, 7), (11, 13), (17, 19), (23, 29), (31, 37), (41, 43), (47, 53)]
]
THM1_OVER_CAP = ["thm1", "--x", "1e5", "--y", "1000"] + [a for s in CAP_SETS for a in ("--set", s)]


def test_product_grid_over_cap_exits_3(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "primepoisson", *THM1_OVER_CAP, "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "refused: product grid of 60963840 entries is too large" in proc.stderr
    assert "Traceback" not in proc.stderr


# eight distinct sets, the primes in 2..5, 6..9, ..., 30..33: a Poisson grid of 31,610,880 cells
THM1_EIGHT_SETS = ["thm1", "--x", "1e6", "--y", "40"] + [
    a for lo in range(2, 34, 4) for a in ("--set", f"interval:{lo}..{lo + 3}")
]


@pytest.mark.parametrize(
    "argv, lhs",
    [(THM1_OVER_CAP, 0.18708716054861704), (THM1_EIGHT_SETS, 0.15237044077461917)],
    ids=["cap-sets", "eight-sets"],
)
def test_thm1_without_decomposition_builds_no_product_grid(tmp_path, argv, lhs):
    # the headline TV reads the Poisson pmfs at the observed keys (453 of them
    # for the eight sets); only the decomposition's grids meet the cap
    code, out = run([*argv, "--no-decomposition"], tmp_path)
    assert code == 0
    report = json.loads((out / "thm1_report.json").read_text())
    assert report["name"].endswith(",m=8]")
    assert report["lhs"] == pytest.approx(lhs, rel=1e-14)


@pytest.mark.parametrize(
    "argv",
    [
        ["counts", "--x", "1e100000", "--set", "list:2"],
        ["harmonic", "--set", "list:1e100000"],
        ["thm2", "--x", "100", "--set", "list:2", "--k", "1e100000"],
    ],
    ids=["counts", "harmonic", "thm2"],
)
def test_huge_count_refused_before_it_is_built(argv):
    # a subprocess with a timeout, so a count built digit by digit fails instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "primepoisson", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 3
    assert proc.stderr == "refused: count '1e100000' has more than 30 digits\n"


def test_parse_count_refuses_more_than_30_digits():
    assert parse_count("9" * 30) == 10**30 - 1
    with pytest.raises(CapError, match="more than 30 digits"):
        parse_count("1" + "0" * 30)
    with pytest.raises(CapError) as exc:  # the refusal shortens the text it names
        parse_count("7" * 10**5)
    assert len(str(exc.value)) < 80


def test_parse_count_reads_an_exponent_past_the_decimal_limit():
    # Decimal itself gives up on these exponents; each keeps the verdict of a smaller one
    with pytest.raises(CapError, match="^count '1e99999999999999999999' has more than 30 digits$"):
        parse_count("1e99999999999999999999")
    with pytest.raises(DomainError, match="^not an exact integer: '1e-99999999999999999999'$"):
        parse_count("1e-99999999999999999999")
    assert parse_count("0e-99999999999999999999") == 0
    assert parse_count("1e0000000000000000000000006") == 10**6  # leading zeros: a small exponent
    with pytest.raises(DomainError, match="^not a number"):
        parse_count("ae99999999999999999999")


@pytest.mark.parametrize(
    "argv, zero",
    [(["counts", "--x", "X", "--set", "list:2"], "0e100"), (["sieve", "--limit", "X"], "0e40")],
    ids=["counts", "sieve"],
)
def test_a_zero_with_a_large_exponent_is_zero_not_over_the_digit_cap(tmp_path, capsys, argv, zero):
    assert parse_count(zero) == parse_count("0" + "0" * 40) == 0
    errors = []
    for i, text in enumerate(("0", zero)):
        code, out = run([text if a == "X" else a for a in argv], tmp_path, f"out{i}")
        assert code == 2 and not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "must be >=" in errors[1]


def test_failed_command_leaves_no_out_dir(tmp_path, capsys):
    code, out = run(["counts", "--x", "nope", "--set", "list:2"], tmp_path)
    assert code == 2 and not out.exists()
    code, out = run(["counts", "--x", "100", "--set", "list:2"], tmp_path)
    assert code == 0
    expected = {"counts_report.json", "counts_table.csv", "manifest.json"}
    assert {p.name for p in out.iterdir()} == expected


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_out_dir_that_is_or_lies_under_a_file_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, sub
):
    monkeypatch.setitem(cli._HANDLERS, "harmonic", lambda ns: pytest.fail("handler ran"))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out_dir = blocker / sub if sub else blocker
    assert main(["harmonic", "--set", "list:2", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out-dir {out_dir}: {blocker} is not a directory\n"
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize(
    "content", ['[1, 2]', '{"a": ["x", "y"]}', '{"a": [1, "y"]}', '{"a": [true, 2]}', '{"a": [2, 1]}']
)
def test_bad_band_file_exits_2_before_any_work(tmp_path, monkeypatch, capsys, content):
    calls = []
    monkeypatch.setitem(cli._HANDLERS, "cor32", lambda ns: calls.append(ns))
    bands = tmp_path / "bands.json"
    bands.write_text(content)
    code, out = run(["cor32", "--set", "list:2", "--band-file", str(bands)], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: band") and "Traceback" not in err
    assert calls == [] and not out.exists()


def test_thm2_flags_are_derived_not_declared(tmp_path, capsys):
    sets = ["--set", "interval:2..50", "--set", "interval:51..100"]
    code, out = run(["thm2", "--x", "100", *sets, "--k", "0,0"], tmp_path)
    assert code == 0
    params = json.loads((out / "thm2_report.json").read_text())["params"]
    assert (params["eta"], params["xi"]) == (0, 1)
    for flag in ("--eta", "--xi"):  # no options: argparse refuses them
        with pytest.raises(SystemExit) as exc:
            main(["thm2", "--x", "100", *sets, "--k", "0,0", flag, "0"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


def test_exit_code_cap_refusal(tmp_path, capsys):
    code, _ = run(["counts", "--x", "1e13", "--set", "list:2"], tmp_path)
    assert code == 3
    assert "refused:" in capsys.readouterr().err
    assert main(["thm2", "--x", "1e13", "--set", "list:2", "--k", "1"]) == 3
    assert "refused: x=10000000000000 exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, n_rows",
    [
        ({"command": "halasz", "x": "1e4", "set": "list:2", "k_lo": 0, "k_hi": "1e12"}, 10**12 + 1),
        ({"command": "thm4", "set": "list:2", "k_max": "1e12"}, 10**12 + 1),
        # more values than sys.maxsize, where len() of the range overflows
        ({"command": "halasz", "x": "100", "set": "list:2", "k_lo": 0, "k_hi": "1e19"}, 10**19 + 1),
    ],
    ids=["halasz", "thm4", "halasz-past-maxsize"],
)
def test_huge_k_range_refused_before_any_work(tmp_path, monkeypatch, capsys, row, n_rows):
    from primepoisson import theorems

    def no_work(*args):
        pytest.fail("a kernel ran before the k range was checked")

    monkeypatch.setattr(theorems, "joint_factor_counts", no_work)
    monkeypatch.setattr(theorems, "model_exact_pmf", no_work)
    assert main(cli._row_to_argv(row)) == 3
    assert f"refused: {n_rows} report rows exceed the cap" in capsys.readouterr().err
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": [row, {"command": "harmonic", "set": "list:2"}]}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["refused", "ok"]


@pytest.mark.parametrize("x", ["1", "0"])
def test_thm3_x_below_2_exits_2(capsys, x):
    assert main(["thm3", "--x", x, "--set", "list:2", "--k", "1", "--psi", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: x must be >= 2, got {x}\n"


def _raise_internal(ns):
    raise RuntimeError("count total 99 != x=100")


def test_internal_error_exits_4_without_traceback(monkeypatch, capsys):
    monkeypatch.setitem(cli._HANDLERS, "harmonic", _raise_internal)
    assert main(["harmonic", "--set", "list:2"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: count total 99 != x=100\n"
    assert "Traceback" not in err


def test_sweep_crashed_row_isolated(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "harmonic", _raise_internal)
    grid = tmp_path / "grid.json"
    rows = [{"command": "harmonic", "set": "list:2"}, {"command": "sieve", "limit": "100"}]
    grid.write_text(json.dumps({"name": "crash", "rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["crashed", "ok"]
    assert report["rows"][0]["error"] == "RuntimeError: count total 99 != x=100"


def test_a_model_law_failing_its_mass_check_exits_4_and_crashes_its_row(
    monkeypatch, capsys, tmp_path
):
    # the input is valid; the program's own law failed its check
    from primepoisson import kubilius

    times = kubilius._times
    monkeypatch.setattr(kubilius, "_times", lambda a, b: times(a, b) * 0.999)
    assert main(["cor32", "--set", "list:2,3,5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: the model law failed its own check: ")
    grid = tmp_path / "grid.json"
    rows = [{"command": "model", "set": "list:2,3,5"}, {"command": "harmonic", "set": "list:2"}]
    grid.write_text(json.dumps({"rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["crashed", "ok"]


def test_a_count_failing_its_first_moment_exits_4(monkeypatch, capsys):
    # a route whose primes all add 0 to the keys keeps the total x; the
    # first-moment check stops it before any report
    from primepoisson import factorstats

    plan = factorstats._plan

    def no_steps(*args):
        small, pi, *steps = plan(*args)
        return small, pi, *(0 * a for a in steps)

    monkeypatch.setattr(factorstats, "_plan", no_steps)
    assert main(["counts", "--x", "1e4", "--set", "interval:2..1e4"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: set 0: first moment ")


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_sweep_builds_the_parser_once(tmp_path, monkeypatch, fresh_parser):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    rows = [
        {"command": "harmonic", "set": "list:2"},
        {"command": "sieve", "limit": "100"},
        {"command": "cor32", "set": "list:11", "tail_eps": "abc"},
    ]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0 and len(built) == 1
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["ok", "ok", "error"]


def test_reused_parser_keeps_each_rows_append_list(tmp_path, fresh_parser):
    rows = [
        {"command": "thm2", "x": 1000, "set": ["interval:2..10", "interval:11..100"], "k": "1,1"},
        {"command": "thm2", "x": 1000, "set": ["interval:2..10"], "k": "1"},
    ]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["name"] for r in report["rows"]] == ["thm2[x=1000,r=2,k=1,1]", "thm2[x=1000,r=1,k=1]"]
    parser = cli._parser()
    first = parser.parse_args(["counts", "--x", "10", "--set", "list:2", "--set", "list:3"])
    second = parser.parse_args(["counts", "--x", "10", "--set", "list:5"])
    assert (first.set, second.set) == (["list:2", "list:3"], ["list:5"])


def test_expexp_block_past_the_bound_exits_2_before_sieving(monkeypatch, capsys):
    from primepoisson import primesets

    monkeypatch.setattr(primesets, "_sieve", lambda *a: pytest.fail(f"sieved {a}"))
    assert main(["harmonic", "--set", "expexp:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sieve upper end 514843556263457213182265 is at or above")


@pytest.mark.parametrize(
    "argv, digits",
    [
        (["harmonic", "--set", "expexp:8"], 3520),
        (["harmonic", "--set", "expexp:9"], 9566),
        (["thm2", "--x", "1e6", "--set", "expexp:9", "--k", "1"], 9566),
    ],
    ids=["harmonic-8", "harmonic-9", "thm2-9"],
)
def test_a_block_end_of_thousands_of_digits_is_named_by_its_length(tmp_path, capsys, argv, digits):
    # t_10 has more digits than str() converts; t_9 in full made a 3,614-byte line
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.startswith(f"error: sieve upper end of {digits} digits is at or above")


@pytest.fixture
def no_segments(monkeypatch):
    """Fail the test if a sieve segment is built; the cached byte table is
    filled first, since any set's validation may read it."""
    from primepoisson import primesets

    primesets._prime_table()
    sieve = primesets._sieve

    def segments(lo, hi):
        for _ in sieve(lo, hi):  # base primes come first, through prime_array
            pytest.fail(f"sieved a segment of ({lo}, {hi}]")
        yield from ()

    monkeypatch.setattr(primesets, "_sieve", segments)


SPAN_CAP_ARGV = {
    "sieve-limit": (["sieve", "--limit", "1e12"], "(1, 1000000000000]"),
    "harmonic-interval": (["harmonic", "--set", "interval:2..1e12"], "(1, 1000000000000]"),
    # 101 integers, but the base primes of their sieve run to 1e10
    "sieve-base-primes": (
        ["sieve", "--lo", "1e20", "--hi", "100000000000000000100"],
        "(1, 10000000000]",
    ),
    "model-tv-y": (["model-tv", "--x", "1e10", "--y", "2e9"], "(1, 2000000000]"),
}


@pytest.mark.parametrize("case", list(SPAN_CAP_ARGV))
def test_prime_list_over_the_span_cap_exits_3_before_sieving(no_segments, capsys, case):
    argv, span = SPAN_CAP_ARGV[case]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"refused: prime list {span} spans") and err.endswith("cap of 2^30\n")


X_CAP_ARGV = {
    "thm1": ["thm1", "--x", "1e13", "--y", "31", "--set", "list:2,3,5"],
    "thm3": ["thm3", "--x", "1e13", "--set", "list:2", "--k", "1", "--psi", "0.5"],
    "cor1": ["cor1", "--x", "1e13", "--lo", "0", "--hi", "2"],
}
# a set that takes seconds and hundreds of MiB to sieve: the x cap comes first
BIG_SET = "interval:2..3e8"
X_CAP_BEFORE_SET_ROWS = {
    "counts": {"command": "counts", "x": "1e13", "set": BIG_SET},
    "thm1-big-set": {"command": "thm1", "x": "1e13", "y": 31, "set": BIG_SET},
    "thm2": {"command": "thm2", "x": "1e13", "set": BIG_SET, "k": 1},
    "thm3-big-set": {"command": "thm3", "x": "1e13", "set": BIG_SET, "k": 1, "psi": 0.5},
    "halasz": {"command": "halasz", "x": "1e13", "set": BIG_SET, "k_lo": 0, "k_hi": 1},
}
X_CAP_ARGV.update({k: cli._row_to_argv(row) for k, row in X_CAP_BEFORE_SET_ROWS.items()})


@pytest.fixture
def no_lists_or_pmfs(monkeypatch):
    """Fail the test if a prime list or a model pmf is built."""
    from primepoisson import primesets, theorems

    primesets._prime_table()

    def no_work(*args):
        pytest.fail(f"work started before the x cap: {args}")

    monkeypatch.setattr(primesets, "prime_array", no_work)
    monkeypatch.setattr(theorems, "model_exact_pmf", no_work)


@pytest.mark.parametrize("command", list(X_CAP_ARGV))
def test_x_over_the_cap_exits_3_before_any_work(no_lists_or_pmfs, capsys, command):
    assert main(X_CAP_ARGV[command]) == 3
    assert capsys.readouterr().err == "refused: x=10000000000000 exceeds the cap of 2^40\n"


def test_sweep_row_over_the_x_cap_is_refused_before_any_work(no_lists_or_pmfs, tmp_path):
    row = {"command": "thm3", "x": "1e13", "set": "list:2", "k": 1, "psi": 0.5}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": [row, {"command": "harmonic", "set": "list:2"}]}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    rows = json.loads((out / "sweep_report.json").read_text())["rows"]
    assert [r["status"] for r in rows] == ["refused", "ok"]
    assert rows[0]["error"] == "x=10000000000000 exceeds the cap of 2^40"


def test_sweep_rows_over_the_x_cap_are_refused_before_any_set_is_sieved(
    no_lists_or_pmfs, tmp_path
):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": list(X_CAP_BEFORE_SET_ROWS.values())}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    rows = json.loads((out / "sweep_report.json").read_text())["rows"]
    assert [r["status"] for r in rows] == ["refused"] * len(X_CAP_BEFORE_SET_ROWS)
    assert {r["error"] for r in rows} == {"x=10000000000000 exceeds the cap of 2^40"}


# thm2 and thm3 count distinct primes, halasz counts with multiplicity
FIXED_MODE_ARGV = {
    "thm2": (["thm2", "--x", "1000", "--set", "SET", "--k", "1"], "distinct"),
    "thm3": (["thm3", "--x", "1e4", "--set", "SET", "--k", "2", "--psi", "0.5"], "distinct"),
    "halasz": (["halasz", "--x", "1e4", "--set", "SET", "--k-lo", "0", "--k-hi", "3"], "multiplicity"),
}
OTHER_MODE = {"distinct": "multiplicity", "multiplicity": "distinct"}


def _with_set(argv, text):
    return [text if a == "SET" else a for a in argv]


@pytest.mark.parametrize("command", list(FIXED_MODE_ARGV))
def test_mode_suffix_against_the_commands_mode_exits_2_before_any_work(
    monkeypatch, capsys, command
):
    argv, mode = FIXED_MODE_ARGV[command]
    monkeypatch.setattr(cli, "sieve_primes", lambda *a: pytest.fail("the set was built"))
    text = f"interval:2..10:{OTHER_MODE[mode]}"
    assert main(_with_set(argv, text)) == 2
    err = capsys.readouterr().err
    assert err == f"error: this command counts {mode}, not {OTHER_MODE[mode]}: {text!r}\n"


@pytest.mark.parametrize("command", list(FIXED_MODE_ARGV))
def test_mode_suffix_matching_the_commands_mode_changes_no_byte(tmp_path, capsys, command):
    argv, mode = FIXED_MODE_ARGV[command]
    code, plain = run(_with_set(argv, "interval:2..10"), tmp_path, "plain")
    printed = capsys.readouterr().out
    assert code == 0
    code, suffixed = run(_with_set(argv, f"interval:2..10:{mode}"), tmp_path, "suffixed")
    assert code == 0 and capsys.readouterr().out == printed
    for name in (p.name for p in plain.iterdir() if p.name != "manifest.json"):
        assert (suffixed / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("mode", ["distinct", "multiplicity"])
def test_harmonic_refuses_a_mode_suffix_before_any_work(monkeypatch, tmp_path, capsys, mode):
    code, _ = run(["harmonic", "--set", "list:2,3"], tmp_path, "plain")
    assert code == 0
    assert capsys.readouterr().out.startswith("h=0.8333333333333333 h1=1.5 h2=0.3611111111111111\n")
    monkeypatch.setattr(cli, "parse_set_spec", lambda *a: pytest.fail("the set was parsed"))
    text = f"list:2,3:{mode}"
    code, out = run(["harmonic", "--set", text], tmp_path, mode)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: harmonic sums do not depend on a count mode: drop the mode suffix of {text!r}\n"


@pytest.mark.parametrize("members, bad", [("1,2,3", "1"), ("0", "0"), ("-3,2", "-3")])
def test_a_member_below_2_is_named_as_not_prime(capsys, tmp_path, members, bad):
    code, _ = run(["harmonic", "--set", f"list:{members}"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad} is not prime\n"


EMPTY_SET_ARGV = [
    ["thm2", "--x", "100", "--set", "interval:24..28", "--k", "0"],
    ["halasz", "--x", "100", "--set", "interval:24..28", "--k-lo", "0", "--k-hi", "1"],
]


@pytest.mark.parametrize("argv", EMPTY_SET_ARGV)
def test_empty_set_exits_2_without_traceback(capsys, argv):
    # 24..28 holds no prime: log of its harmonic sum would be a domain fault
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: T must be nonempty\n" and "Traceback" not in err


def test_sweep_empty_set_row_is_an_error_not_a_crash(tmp_path):
    rows = [
        {"command": "thm2", "x": 100, "set": "interval:24..28", "k": 0},
        {"command": "harmonic", "set": "list:2"},
    ]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["error", "ok"]
    assert report["rows"][0]["error"] == "T must be nonempty"


CONFLICTING_ARGV = [
    (["sieve", "--limit", "100", "--lo", "10", "--hi", "20"], "--limit cannot be given with --lo/--hi"),
    (["thm4", "--set", "list:2,3", "--k-max", "-5"], "k_max must be >= 0, got -5"),
]


@pytest.mark.parametrize("argv, message", CONFLICTING_ARGV)
def test_conflicting_or_negative_options_exit_2(tmp_path, capsys, argv, message):
    code, out = run(argv, tmp_path)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_conflicting_or_negative_option_rows_are_errors(tmp_path):
    rows = [
        {"command": "sieve", "limit": 100, "lo": 10, "hi": 20},
        {"command": "thm4", "set": "list:2,3", "k_max": -5},
        {"command": "sieve", "lo": 10, "hi": 20},
    ]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["error", "error", "ok"]
    assert [r["error"] for r in report["rows"][:2]] == [m for _, m in CONFLICTING_ARGV]


def test_exit_code_band_failure(tmp_path):
    band_file = tmp_path / "bands.json"
    band_file.write_text(json.dumps({"model_tv[x=10,y=2]": [0.0, 0.01]}))
    code, _ = run(
        ["model-tv", "--x", "10", "--y", "2", "--band-file", str(band_file)], tmp_path
    )
    assert code == 1


def test_exit_code_band_pass_and_recorded(tmp_path):
    band_file = tmp_path / "bands.json"
    band_file.write_text(json.dumps({"model_tv[x=10,y=2]": [0.08, 0.09]}))
    code, out = run(
        ["model-tv", "--x", "10", "--y", "2", "--band-file", str(band_file)],
        tmp_path,
        "pass",
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["band_verdicts"][0]["verdict"] == "pass"

    code, out = run(["model-tv", "--x", "10", "--y", "2"], tmp_path, "rec")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["band_verdicts"][0]["verdict"] == "recorded"


# -------------------------------------------------------------- determinism


def test_reports_byte_identical_across_runs(tmp_path):
    argv = ["cor32", "--set", "list:11,13,17:multiplicity"]
    _, out1 = run(argv, tmp_path, "a")
    _, out2 = run(argv, tmp_path, "b")
    assert (out1 / "cor32_report.json").read_bytes() == (
        out2 / "cor32_report.json"
    ).read_bytes()
    # manifests differ only in the timestamp and wall-clock fields
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    for m in (m1, m2):
        m.pop("timestamp")
        m.pop("wall_clock_seconds")
        m["config"].pop("out_dir")
    assert m1 == m2


# Bytes recorded while pmfs were tuples of Python floats.  A numpy scalar
# reaching a CSV row, a report or a stdout line prints as 'np.float64(...)'
# and fails here.
FLOAT_BOUNDARY_CASES = {
    "model-distinct": (
        ["model", "--set", "list:2,3"],
        "support=3 mean=0.8333333333333333 tail_bound=0.0\n",
        {
            "model_pmf.csv": "01db116e841f1c2334fdc27c700e89fdf1aa3e5cf74ecc5e3cded85268ef53be",
            "model_report.json": "359feba2132247b80e9f260f0f94d54fc88e83e1ce26f6e3ce80b236d1819e52",
        },
    ),
    "model-multiplicity": (
        ["model", "--set", "list:2,3:multiplicity"],
        "support=686 mean=1.5 tail_bound=5.795541141013341e-204\n",
        {
            "model_pmf.csv": "80e3decb74ac9696ae88c39ea1f29fe14e9e03a187f797492cffa489554c1e49",
            "model_report.json": "38c48d79107bf2cd6b7fc961830cd72a7659074014102ba7184171d070670f2b",
        },
    ),
    "thm4": (
        ["thm4", "--set", "list:2,3"],
        "reports=14 max_ratio=1.9517206899266408\nband thm4[list:2,3]: recorded\n",
        {
            "thm4_report.json": "081e4613b7c714b92d9ea539f167d8d55e1acdac1afab71a58ec079004f07665",
            "thm4_table.csv": "d6ead3ca60d2698d824cff9e3a9ffb09ab81380bf29d6aca293b908a4555f7d1",
        },
    ),
}


@pytest.mark.parametrize("case", list(FLOAT_BOUNDARY_CASES))
def test_pmf_floats_reach_files_and_stdout_as_python_floats(tmp_path, capsys, case):
    argv, stdout, digests = FLOAT_BOUNDARY_CASES[case]
    code, out = run(argv, tmp_path)
    assert code == 0
    assert capsys.readouterr().out == stdout
    for name, digest in digests.items():
        data = (out / name).read_bytes()
        assert b"np." not in data
        assert hashlib.sha256(data).hexdigest() == digest, name


# -------------------------------------------------------------------- sweep


def test_sweep_empty_grid(tmp_path, forks, reaped):
    # the runner's chunk is at least one row, else the token count divides by 0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"name": "empty", "rows": []}))
    for workers in ("1", "2", "3"):
        code, out = run(["sweep", "--grid", str(grid), "--workers", workers], tmp_path, workers)
        assert code == 0 and forks == []
        rows = (out / "sweep_table.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only


def test_sweep_cap_row_isolated(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {
                "name": "iso",
                "rows": [
                    {"command": "counts", "x": "1e13", "set": ["list:2"]},
                    {"command": "harmonic", "set": "list:2,3,5"},
                ],
            }
        )
    )
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    statuses = [r["status"] for r in report["rows"]]
    assert statuses == ["refused", "ok"]
    assert report["summary"]["ok"] == 1


def test_sweep_bad_float_row_isolated(tmp_path):
    grid = tmp_path / "grid.json"
    rows = [
        {"command": "cor32", "set": "list:11", "tail_eps": "abc"},
        {"command": "harmonic", "set": "list:2,3,5"},
    ]
    grid.write_text(json.dumps({"name": "badfloat", "rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["error", "ok"]


def test_sweep_row_refuses_options_without_effect(tmp_path):
    inert = {"band_file": "/nonexistent.json", "band_name": "zz", "out_dir": "/x"}
    rows = [
        {"command": "model-tv", "x": 100, "y": 10, **inert},
        {"command": "harmonic", "set": "list:2"},
    ]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": rows}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["error", "ok"]
    assert report["rows"][0]["error"].startswith("sweep rows take no band_file, band_name, out_dir")


def test_sweep_thm1_over_cap_row_refused(tmp_path):
    row = {"command": "thm1", "x": "1e5", "y": "1000", "set": CAP_SETS}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": [row, {"command": "harmonic", "set": "list:2"}]}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in report["rows"]] == ["refused", "ok"]


@pytest.mark.parametrize("bad_row", ["abc", None, [1]], ids=["str", "null", "list"])
def test_sweep_non_object_row_isolated(tmp_path, bad_row):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": [bad_row, {"command": "harmonic", "set": "list:2"}]}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
    rows = json.loads((out / "sweep_report.json").read_text())["rows"]
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert (rows[0]["command"], rows[0]["config"]) == ("", bad_row)


@pytest.fixture
def reaped():
    """After the test, no child of this process is left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the sweep workers this process forks."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def harmonic_grid(tmp_path, n_rows):
    """A grid of n_rows harmonic rows, one prime each, so a row is known by its set."""
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, p))][:n_rows]
    grid = tmp_path / "grid.json"
    rows = [{"command": "harmonic", "set": f"list:{p}"} for p in primes]
    grid.write_text(json.dumps({"rows": rows}))
    return grid


@pytest.mark.parametrize(
    "workers, n_rows, n_forks",
    [("8", 1, 0), ("8", 2, 1), ("8", 3, 2), ("3", 8, 2), ("64", 2, 1), ("1", 5, 0)],
    ids=["1-row", "2-rows", "3-rows", "3-workers", "64-workers", "1-worker"],
)
def test_sweep_forks_one_worker_less_than_it_runs(
    tmp_path, forks, reaped, workers, n_rows, n_forks
):
    # this process runs rows too, and no process is started that would find no row
    grid = harmonic_grid(tmp_path, n_rows)
    code, out = run(["sweep", "--grid", str(grid), "--workers", workers], tmp_path)
    assert code == 0
    assert len(forks) == n_forks
    assert json.loads((out / "sweep_report.json").read_text())["summary"]["ok"] == n_rows


def test_sweep_without_fork_runs_the_queue_in_this_process(tmp_path, monkeypatch):
    sizes, runner = [], cli._run_forked

    def spy(rows, workers):
        sizes.append(workers)
        return runner(rows, workers)

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_run_forked", spy)
    code, out = run(["sweep", "--grid", str(harmonic_grid(tmp_path, 5)), "--workers", "4"], tmp_path)
    assert code == 0 and sizes == [1]
    assert json.loads((out / "sweep_report.json").read_text())["summary"]["ok"] == 5


@pytest.mark.parametrize("workers", ["65", "1e5"])
def test_sweep_workers_over_the_cap_refused_before_any_work(
    tmp_path, monkeypatch, capsys, workers
):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a sweep worker was forked"))
    # the grid does not exist: reading it first would exit 2
    assert main(["sweep", "--grid", str(tmp_path / "grid.json"), "--workers", workers]) == 3
    err = capsys.readouterr().err
    assert err == f"refused: {parse_count(workers)} workers exceed the cap of 64\n"


def test_sweep_default_workers_clamped_to_the_cap(tmp_path, monkeypatch):
    sizes = []

    def serial(rows, workers):
        sizes.append(workers)
        return [cli._run_sweep_row(item) for item in enumerate(rows)]

    monkeypatch.setattr(os, "cpu_count", lambda: 1000)
    monkeypatch.setattr(cli, "_run_forked", serial)
    code, _ = run(["sweep", "--grid", str(harmonic_grid(tmp_path, 70))], tmp_path)
    assert code == 0 and sizes == [cli.MAX_WORKERS]


def test_sweep_rows_of_a_killed_worker_are_crashed(tmp_path, monkeypatch, forks, reaped):
    parent, ran, harmonic = os.getpid(), [], cli._HANDLERS["harmonic"]

    def handler(ns):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if not ran:  # hold this process's first row until a worker has died
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        ran.append(ns.set)
        return harmonic(ns)

    monkeypatch.setitem(cli._HANDLERS, "harmonic", handler)
    grid = harmonic_grid(tmp_path, 8)
    code, out = run(["sweep", "--grid", str(grid), "--workers", "3"], tmp_path)
    assert code == 0 and len(forks) == 2
    rows = json.loads((out / "sweep_report.json").read_text())["rows"]
    assert [r["row"] for r in rows] == list(range(8))
    assert sorted(r["config"]["set"] for r in rows if r["status"] == "ok") == sorted(ran)
    crashed = [r for r in rows if r["status"] != "ok"]
    assert 1 <= len(crashed) <= 2  # a worker dies on the first row it takes
    for r in crashed:
        assert (r["status"], r["error"]) == ("crashed", "sweep worker died (killed by signal 9)")
        assert r["command"] == "harmonic" and r.get("name") is None


def test_sweep_reaps_its_workers_when_its_own_row_raises(tmp_path, monkeypatch, forks, reaped):
    parent, harmonic = os.getpid(), cli._HANDLERS["harmonic"]

    def handler(ns):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker still busy: it is killed, not waited for
        return harmonic(ns)

    monkeypatch.setitem(cli._HANDLERS, "harmonic", handler)
    grid = harmonic_grid(tmp_path, 8)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run(["sweep", "--grid", str(grid), "--workers", "3"], tmp_path)
    assert len(forks) == 2
    assert time.perf_counter() - started < 30


def test_sweep_goes_on_when_a_fork_fails(tmp_path, monkeypatch, reaped):
    calls, fork = [], os.fork

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    grid = harmonic_grid(tmp_path, 6)
    code, out = run(["sweep", "--grid", str(grid), "--workers", "4"], tmp_path)
    assert code == 0 and len(calls) == 2  # no fork is tried after one fails
    assert json.loads((out / "sweep_report.json").read_text())["summary"]["ok"] == 6


def test_sweep_of_more_rows_than_tokens_runs_each_row_once(tmp_path, forks, reaped):
    # 2,500 rows go out in chunks of 3: 834 tokens, shared by more processes than CPUs
    rows = [{"command": "harmonic", "set": f"list:{p}"} for p in (2, 3, 5, 7, 11)] * 500
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": rows}))
    _, serial = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path, "w1")
    code, out = run(["sweep", "--grid", str(grid), "--workers", "8"], tmp_path, "w8")
    assert code == 0 and len(forks) == 7
    assert json.loads((out / "sweep_report.json").read_text())["summary"]["ok"] == 2500
    for name in ("sweep_report.json", "sweep_table.csv"):
        assert (serial / name).read_bytes() == (out / name).read_bytes()


def test_sweep_identical_across_worker_counts(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {
                "name": "wk",
                "rows": [
                    {"command": "cor32", "set": "list:11:multiplicity"},
                    {"command": "cor32", "set": "list:13:multiplicity"},
                    {"command": "model-tv", "x": 1000, "y": 10},
                ],
            }
        )
    )
    _, out1 = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path, "w1")
    for workers in ("2", "3"):
        _, out = run(["sweep", "--grid", str(grid), "--workers", workers], tmp_path, workers)
        for name in ("sweep_report.json", "sweep_table.csv"):
            assert (out1 / name).read_bytes() == (out / name).read_bytes()


def test_sweep_band_check_on_summary(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {"name": "bd", "rows": [{"command": "model-tv", "x": 100, "y": 10}]}
        )
    )
    bands = tmp_path / "bands.json"
    bands.write_text(json.dumps({"bd": [0.0, 1e-6]}))
    code, _ = run(
        ["sweep", "--grid", str(grid), "--workers", "1", "--band-file", str(bands)],
        tmp_path,
    )
    assert code == 1


# ---------------------------------------------------------------- artifacts


# command -> (arguments, the tables it writes next to its report and manifest)
ARTIFACT_CASES = {
    "sieve": (["--limit", "30"], {"primes.txt"}),
    "harmonic": (["--set", "list:2,3,5"], set()),
    "counts": (["--x", "100", "--set", "list:2,3"], {"counts_table.csv"}),
    "model": (["--set", "list:2,3"], {"model_pmf.csv"}),
    "model-tv": (["--x", "100", "--y", "5"], set()),
    "thm1": (["--x", "1000", "--y", "10", "--set", "interval:2..10"], set()),
    "thm2": (["--x", "100", "--set", "interval:2..10", "--k", "1"], set()),
    "thm3": (["--x", "1e4", "--set", "interval:2..30", "--k", "3", "--psi", "0.5"], set()),
    "halasz": (
        ["--x", "1000", "--set", "interval:2..30", "--k-lo", "0", "--k-hi", "2"],
        {"halasz_table.csv"},
    ),
    "thm4": (["--set", "list:2,3"], {"thm4_table.csv"}),
    "cor1": (["--x", "1e4", "--lo", "0", "--hi", "1"], set()),
    "cor32": (["--set", "list:11"], set()),
    "sweep": (["--grid", "GRID", "--workers", "1"], {"sweep_table.csv"}),
}


@pytest.mark.parametrize("command", list(ARTIFACT_CASES))
def test_out_dir_artifact_names(tmp_path, command):
    args, tables = ARTIFACT_CASES[command]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rows": [{"command": "harmonic", "set": "list:2"}]}))
    args = [str(grid) if a == "GRID" else a for a in args]
    code, out = run([command, *args], tmp_path)
    assert code == 0
    expected = {command.replace("-", "_") + "_report.json", "manifest.json"} | tables
    assert {p.name for p in out.iterdir()} == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == expected - {"manifest.json"}


def test_no_out_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["harmonic", "--set", "list:2,3,5"]) == 0
    assert main(["counts", "--x", "100", "--set", "list:2,3"]) == 0
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ entry points


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "primepoisson", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "primepoisson" in proc.stdout


def test_cli_import_loads_no_mpmath_or_process_pool():
    # mpmath is imported by its one user, expexp_cutoff; sweeps fork their own workers
    code = "import sys, primepoisson.cli; print(sorted(set(sys.modules) & set(sys.argv[1:])))"
    banned = ["mpmath", "concurrent.futures", "multiprocessing"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *banned],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sieve_writes_prime_file(tmp_path):
    code, out = run(["sieve", "--limit", "30"], tmp_path)
    assert code == 0
    lines = (out / "primes.txt").read_text().split()
    assert lines == ["2", "3", "5", "7", "11", "13", "17", "19", "23", "29"]
    report = json.loads((out / "sieve_report.json").read_text())
    assert report["count"] == 10

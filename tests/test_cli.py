"""Command-line surface: documented examples, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from primepoisson import CountMode, DomainError
from primepoisson.cli import main, parse_count, parse_set_spec


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
    for bad in ["interval:31..2", "interval:0..1", "ring:2,3", "list:4", "list:", "expexp:x"]:
        with pytest.raises(DomainError):
            parse_set_spec(bad)


# --------------------------------------------------------------- exit codes


def test_exit_code_usage_error(tmp_path, capsys):
    code, _ = run(["counts", "--x", "nope", "--set", "list:2"], tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seg", ["0", "-5"])
def test_segment_size_below_one_exits_2_without_traceback(tmp_path, seg):
    proc = subprocess.run(
        [sys.executable, "-m", "primepoisson", "counts", "--x", "100", "--set", "list:2",
         "--segment-size", seg, "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "segment_size must be >= 1" in proc.stderr and "Traceback" not in proc.stderr


def test_exit_code_cap_refusal(tmp_path, capsys):
    code, _ = run(["counts", "--x", "1e13", "--set", "list:2"], tmp_path)
    assert code == 3
    assert "refused:" in capsys.readouterr().err


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


def test_model_sampling_deterministic(tmp_path):
    argv = ["model", "--sample-y", "10", "--samples", "2000", "--seed", "5"]
    _, out1 = run(argv, tmp_path, "a")
    _, out2 = run(argv, tmp_path, "b")
    assert (out1 / "model_samples.csv").read_bytes() == (
        out2 / "model_samples.csv"
    ).read_bytes()


# -------------------------------------------------------------------- sweep


def test_sweep_empty_grid(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"name": "empty", "rows": []}))
    code, out = run(["sweep", "--grid", str(grid), "--workers", "1"], tmp_path)
    assert code == 0
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
    _, out2 = run(["sweep", "--grid", str(grid), "--workers", "2"], tmp_path, "w2")
    assert (out1 / "sweep_report.json").read_bytes() == (
        out2 / "sweep_report.json"
    ).read_bytes()
    assert (out1 / "sweep_table.csv").read_bytes() == (
        out2 / "sweep_table.csv"
    ).read_bytes()


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


# ------------------------------------------------------------ entry points


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "primepoisson", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "primepoisson" in proc.stdout


def test_sieve_writes_prime_file(tmp_path):
    code, out = run(["sieve", "--limit", "30"], tmp_path)
    assert code == 0
    lines = (out / "primes.txt").read_text().split()
    assert lines == ["2", "3", "5", "7", "11", "13", "17", "19", "23", "29"]
    report = json.loads((out / "sieve_report.json").read_text())
    assert report["count"] == 10

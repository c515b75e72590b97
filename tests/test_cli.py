import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmfft import cli, oracle
from helmfft.cli import (CSV_HEADER, ConfigError, RunConfig, RunRecord, emit,
                         fit_slope, make_rhs, read_records, read_rhs_file, run,
                         write_rhs_file)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_paper_rhs_layout():
    cfg = RunConfig(d=2, n1=5, n2=4, rhs="paper")
    f = make_rhs(cfg, cfg.grid())
    assert np.all(f[:5] == 0.01)
    assert np.all(f[5:] == 1.0)


def test_random_rhs_deterministic():
    cfg = RunConfig(d=2, n1=5, n2=5, rhs="random:42", repeats=1)
    r1 = run(cfg)[0]
    r2 = run(cfg)[0]
    assert r1.residual == r2.residual          # bit-for-bit


def test_rhs_file_roundtrip(tmp_path):
    path = str(tmp_path / "rhs.bin")
    data = np.arange(12, dtype=float) + 1j * np.arange(12)[::-1]
    write_rhs_file(path, 2, data)
    back = read_rhs_file(path, 2, 12)
    assert np.array_equal(back, data)


def test_rhs_file_validation(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOTMAGIC" + b"\0" * 8)
    with pytest.raises(ConfigError):
        read_rhs_file(path, 2, 1)
    write_rhs_file(path, 3, np.ones(4, dtype=complex))
    with pytest.raises(ConfigError):
        read_rhs_file(path, 2, 4)       # wrong dimension
    with pytest.raises(ConfigError):
        read_rhs_file(path, 3, 5)       # wrong payload size


def test_rhs_file_via_solver(tmp_path):
    path = str(tmp_path / "rhs.bin")
    rng = np.random.default_rng(0)
    data = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    write_rhs_file(path, 2, data)
    cfg = RunConfig(mode="solve", d=2, n1=5, n2=5, rhs=f"file:{path}", repeats=1)
    rec = run(cfg)[0]
    assert rec.residual <= 1e-10


def sample_records():
    return [
        RunRecord(mode="solve", d=2, n1=65, n2=65, n3=None,
                  omega=2 * math.pi, init_seconds=0.125,
                  solve_seconds=0.0625, residual=1.25e-12, oracle_error=None),
        RunRecord(mode="verify", d=3, n1=9, n2=9, n3=9,
                  omega=1.0, init_seconds=1.0 / 3.0,
                  solve_seconds=0.1, residual=3e-13, oracle_error=4.5e-12),
    ]


def test_emit_csv_header_and_empty_fields():
    text = emit(sample_records(), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[4] == ""      # n3 empty for 2D
    assert first[9] == ""      # oracle_error empty in solve mode


def test_emit_json_nulls_and_17_digits():
    text = emit(sample_records(), "json")
    objs = json.loads(text)
    assert objs[0]["oracle_error"] is None
    assert objs[0]["n3"] is None
    # 17 significant digits round-trip the double exactly
    assert objs[1]["init_seconds"] == 1.0 / 3.0
    assert "0.33333333333333331" in text


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_emit_json_rejects_non_finite(value):
    # strict JSON has no nan or inf; CSV keeps writing them as before
    records = sample_records()
    records[1] = dataclasses.replace(records[1], solve_seconds=value)
    with pytest.raises(ValueError, match="solve_seconds"):
        emit(records, "json")
    assert f",{value}," in emit(records, "csv")


def test_json_reports_the_wrap(capsys):
    # at the paper's wave number the periodic wrap is nearly resonant and the
    # plan keeps the anti-periodic one; the CSV header stays fixed
    rc = cli.main(["solve", "--d", "2", "--n1", "65", "--n2", "65", "--rhs", "paper",
                   "--repeats", "1", "--format", "json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)[0]
    assert rec["twist"] == math.pi
    assert rec["gap_periodic"] < 1e-3 and rec["gap_antiperiodic"] > 0.1
    rc = cli.main(["solve", "--d", "3", "--n1", "5", "--n2", "5", "--n3", "5",
                   "--omega", "20", "--repeats", "1", "--format", "json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)[0]
    assert rec["twist"] in (0.0, math.pi)
    gaps = (rec["gap_periodic"], rec["gap_antiperiodic"])
    assert gaps[rec["twist"] != 0.0] >= gaps[rec["twist"] == 0.0]
    cli.main(["solve", "--d", "2", "--n1", "5", "--n2", "5", "--repeats", "1"])
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER


def test_serialization_roundtrip(tmp_path):
    recs = sample_records()
    for fmt, name in (("csv", "r.csv"), ("json", "r.json")):
        path = str(tmp_path / name)
        emit(recs, fmt, path)
        assert read_records(path) == recs


def test_emit_rejects_empty():
    with pytest.raises(ValueError):
        emit([], "csv")


def test_fit_slope_exact_power_law():
    recs = [RunRecord(mode="bench", d=2, n1=n, n2=n, n3=None, omega=1.0,
                      init_seconds=0.0, solve_seconds=1e-8 * (n * n) ** 1.1,
                      residual=0.0) for n in (64, 128, 256)]
    assert fit_slope(recs) == pytest.approx(1.1, abs=1e-12)


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("# comment\nn1 = 7\nn2=9\nomega = 1.5   # trailing\n",
                        encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = cli.main(["solve", "--config", str(cfg_path), "--n2", "5",
                   "--rhs", "random:1", "--repeats", "1",
                   "--out", str(out)])
    assert rc == 0
    rec = read_records(str(out))[0]
    assert (rec.n1, rec.n2) == (7, 5)        # file value and flag override
    assert rec.omega == 1.5


def test_config_file_unknown_key(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("bogus = 1\n", encoding="utf-8")
    assert cli.main(["solve", "--config", str(cfg_path)]) == 2


def test_exit_code_config_error():
    assert cli.main(["solve", "--rhs", "nonsense"]) == 2
    assert cli.main(["solve", "--rhs", "random:notanint"]) == 2
    assert cli.main(["solve", "--rhs", "random:-1"]) == 2


@pytest.mark.parametrize("refine", ["-3", "-1"])
def test_exit_code_negative_refine(refine, capsys):
    # a negative refine is a configuration error, not a silent bare solve
    assert cli.main(["solve", "--n1", "5", "--n2", "4", f"--refine={refine}",
                     "--repeats", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and "refine" in err


def test_exit_code_zero_rhs(tmp_path, capsys):
    # the relative residual of f = 0 is 0/0: a configuration error, no record
    path = str(tmp_path / "zeros.bin")
    write_rhs_file(path, 2, np.zeros(20))
    assert cli.main(["solve", "--n1", "5", "--n2", "4", f"--rhs=file:{path}",
                     "--repeats", "1", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "all zero" in err


@pytest.mark.parametrize("omega", ["nan", "inf", "-inf", "1e200"])
@pytest.mark.parametrize("flags", [["--d", "2"], ["--d", "2", "--bc", "neumann"],
                                   ["--d", "3", "--n3", "5"]], ids=["2d", "2d-neumann", "3d"])
def test_exit_code_non_finite_omega(flags, omega, capsys):
    # a wave number that is not finite, or whose square is not, is a
    # configuration error: no record with a NaN residual is written
    assert cli.main(["solve", *flags, "--n1", "5", "--n2", "4", f"--omega={omega}",
                     "--repeats", "1", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err


def test_exit_code_verify_size_cap():
    assert cli.main(["verify", "--d", "2", "--n1", "201", "--n2", "201",
                     "--rhs", "paper", "--repeats", "1"]) == 2


def test_exit_code_singular_block():
    # Pure-Neumann problem driven exactly at a resonant wave number.
    from helmfft import assemble_pencil, dense_eigensolve_pencil
    g_h = 0.25
    p = assemble_pencil(5, g_h)
    lam, _ = dense_eigensolve_pencil(p.K.dense(), p.M.dense())
    omega = math.sqrt(float(lam[1].real + lam[0].real))
    rc = cli.main(["solve", "--d", "2", "--n1", "5", "--n2", "5",
                   "--bc", "neumann", "--omega", repr(omega), "--repeats", "1"])
    assert rc == 3


def test_exit_code_verify_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "VERIFY_TOL", 1e-30)
    rc = cli.main(["verify", "--d", "2", "--n1", "5", "--n2", "5",
                   "--rhs", "random:3", "--repeats", "1"])
    assert rc == 4


def test_verify_mode_record(capsys):
    rc = cli.main(["verify", "--d", "2", "--n1", "9", "--n2", "9",
                   "--rhs", "paper", "--repeats", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    recs = out.strip().split("\n")
    assert recs[0] == CSV_HEADER
    rec = recs[1].split(",")
    assert float(rec[9]) <= 1e-9          # oracle_error column


def test_bench_mode_rows_and_monotonicity(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--d", "2", "--sizes", "33,129", "--rhs", "paper",
                   "--repeats", "3", "--out", str(out)])
    assert rc == 0
    recs = read_records(str(out))
    assert [r.n1 for r in recs] == [33, 129]
    assert recs[0].solve_seconds < recs[1].solve_seconds


def test_slope_subcommand(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    emit([RunRecord(mode="bench", d=2, n1=n, n2=n, n3=None, omega=1.0,
                    init_seconds=0.0, solve_seconds=2e-9 * (n * n),
                    residual=0.0) for n in (64, 128, 256)], "csv", str(path))
    rc = cli.main(["slope", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope=1.0000" in out


def _child_env():
    """This environment with the package's source first on PYTHONPATH."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "helmfft.cli", "solve", "--d", "2",
                           "--n1", "5", "--n2", "5", "--rhs", "random:7",
                           "--repeats", "1"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)


def test_exit_code_non_finite_rhs(tmp_path, capsys):
    path = str(tmp_path / "nan.bin")
    data = np.ones(20, dtype=complex)
    data[3], data[11] = np.nan, np.inf
    write_rhs_file(path, 2, data)
    assert cli.main(["solve", "--n1", "5", "--n2", "4", f"--rhs=file:{path}",
                     "--repeats", "1", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "non-finite" in err


@pytest.mark.parametrize("name,text", [("empty.csv", ""),
                                       ("partial.json", '[{"mode": "bench"}]'),
                                       ("missing.csv", None)],
                         ids=["empty", "no-fields", "missing"])
def test_slope_bad_results_file(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        read_records(str(path))
    assert cli.main(["slope", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["0", ""], ids=["zero", "empty"])
def test_slope_unfittable_records(tmp_path, capsys, seconds):
    # records that read back but hold no positive solve time to take a log of
    rows = [f"bench,2,{n},{n},,6.28,0.01,{t},1e-15," for n, t in ((65, "0.02"), (129, seconds))]
    path = tmp_path / "bench.csv"
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")
    assert len(read_records(str(path))) == 2
    assert cli.main(["slope", str(path)]) == 2
    assert "solve time" in capsys.readouterr().err


def test_slope_needs_two_sizes(tmp_path, capsys):
    # two records of one N leave log-time against log-N with no slope to fit
    rows = [f"bench,2,65,65,,6.28,0.01,{t},1e-15," for t in ("0.02", "0.03")]
    path = tmp_path / "bench.csv"
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")
    assert len(read_records(str(path))) == 2
    assert cli.main(["slope", str(path)]) == 2
    assert "two sizes" in capsys.readouterr().err


def test_verify_builds_no_dense_b(monkeypatch, capsys):
    def no_b(*args, **kwargs):
        raise AssertionError("verify assembled the wrapped operator B")
    monkeypatch.setattr(oracle, "build_operator_B", no_b)
    assert cli.main(["verify", "--n1", "9", "--n2", "9", "--rhs", "paper",
                     "--repeats", "1"]) == 0


@pytest.mark.parametrize("line", ["format = xml", "d = 4", "bc = foo", "n1 = x",
                                  "sizes = 33", "config = other.cfg", "mode = bench"])
def test_config_file_values_checked_like_flags(tmp_path, monkeypatch, capsys, line):
    # a bad file value fails before any plan is built, as the same flag would
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")
    monkeypatch.setattr(cli, "plan2d", no_plan)
    monkeypatch.setattr(cli, "plan3d", no_plan)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(line + "\n", encoding="utf-8")
    assert cli.main(["solve", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err


def test_config_file_sizes_in_bench(tmp_path):
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text("sizes = 5,7\nformat = json\nrepeats = 1\n", encoding="utf-8")
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [r.n1 for r in read_records(str(out))] == [5, 7]


@pytest.mark.parametrize("flags", [["solve", "--d", "3", "--n1", "5", "--n2", "5", "--n3", "5"],
                                   ["verify", "--n1", "9", "--n2", "7"],
                                   ["bench", "--sizes", "5,9"]], ids=["solve", "verify", "bench"])
def test_json_output_parses_and_reads_back(tmp_path, flags):
    path = tmp_path / "out.json"
    assert cli.main([*flags, "--repeats", "1", "--format", "json", "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    objs = json.loads(text)
    recs = read_records(str(path))
    assert [dataclasses.asdict(r) for r in recs] == objs
    assert emit(recs, "json") == text


@pytest.mark.parametrize("case", ["config-value", "nan-rhs", "results-file",
                                  "missing-rhs", "small-grid"])
def test_no_input_path_leaks_a_traceback(tmp_path, case):
    cfg, rhs, results = tmp_path / "run.cfg", tmp_path / "nan.bin", tmp_path / "r.json"
    cfg.write_text("bc = foo\n", encoding="utf-8")
    write_rhs_file(str(rhs), 2, np.full(25, np.nan))
    results.write_text('[{"mode": "bench"}]', encoding="utf-8")
    argv = {"config-value": ["solve", "--config", str(cfg)],
            "nan-rhs": ["solve", "--n1", "5", "--n2", "5", f"--rhs=file:{rhs}"],
            "results-file": ["slope", str(results)],
            "missing-rhs": ["solve", "--n1", "5", "--n2", "5",
                            f"--rhs=file:{tmp_path / 'absent.bin'}"],
            "small-grid": ["solve", "--n1", "2", "--n2", "5"]}[case]
    proc = subprocess.run([sys.executable, "-m", "helmfft.cli", *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 2
    assert "helmfft: config error" in proc.stderr
    assert "Traceback" not in proc.stderr

"""Command-line front end: config assembly, CSV contract, exit codes."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polydelay as pdl
from polydelay import cli


def test_defaults_are_case_i_values():
    config = cli.ExperimentConfig()
    assert config.variant == "equivalent"
    assert (config.a, config.b) == (30.0, 150.0)
    assert config.h_max == 1e-3


def test_presets_differ_in_interval_and_step_cap():
    one = cli.PRESETS["case-i"]
    two = cli.PRESETS["case-ii"]
    assert (one.a, one.b) == (30.0, 150.0)
    assert (two.a, two.b) == (150.0, 250.0)
    assert two.h_max == 5e-4
    assert one == cli.ExperimentConfig()
    differing = {f.name for f in dataclasses.fields(one)
                 if getattr(one, f.name) != getattr(two, f.name)}
    assert differing == {"a", "b", "h_max"}


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(variant="spectral")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(samples=1)
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(t_end=0.0)
    with pytest.raises(cli.ConfigError, match="finite"):
        cli.ExperimentConfig(t_end=math.inf)
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(rtol=1.0)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "t_end = 88  # trailing comment\n"
        "variant=quadrature\n"
        "m=6\n")
    overrides = cli.parse_config_file(str(path))
    assert overrides == {"t_end": 88.0, "variant": "quadrature", "m": 6}


def test_parse_config_file_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("t_end = 88\nnot a pair\n")
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.parse_config_file(str(path))
    path.write_text("unknown_key = 3\n")
    with pytest.raises(cli.ConfigError, match="line 1"):
        cli.parse_config_file(str(path))
    path.write_text("t_end = soon\n")
    with pytest.raises(cli.ConfigError, match="invalid float"):
        cli.parse_config_file(str(path))
    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.parse_config_file(str(tmp_path / "missing.cfg"))


def test_assemble_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_end = 77\nh_max = 1e-3\n")
    config = cli.assemble_config(preset="case-ii", config_path=str(path),
                                 t_end=88.0)
    # flag beats file beats preset; untouched preset values survive
    assert config.t_end == 88.0
    assert config.h_max == 1e-3
    assert (config.a, config.b) == (150.0, 250.0)


def test_assemble_config_rejects_unknown_preset():
    with pytest.raises(cli.ConfigError):
        cli.assemble_config(preset="case-iii")


def _run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_case_i_csv_columns(capsys):
    code, out, err = _run(["solve", "--preset", "case-i", "--t-end", "50",
                         "--samples", "20"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,S,I,R,x0,x1,x2,x3,x4"
    assert len(lines) == 21
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0
    assert last[0] == pytest.approx(50.0, rel=1e-12)
    assert first[1:4] == pytest.approx([0.99, 0.01, 0.0], abs=1e-12)
    assert "steps taken" in err


def test_solve_quadrature_variant_columns(capsys):
    code, out, _ = _run(["solve", "--preset", "case-i", "--variant",
                         "quadrature", "--m", "1", "--t-end", "50",
                         "--samples", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,S,I,R"
    assert len(lines) == 6


def test_csv_floats_round_trip(capsys):
    code, out, _ = _run(["solve", "--preset", "case-i", "--t-end", "50",
                         "--samples", "5"], capsys)
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        for cell in line.split(","):
            assert format(float(cell), ".17g") == cell


def test_out_flag_matches_stdout(tmp_path, capsys):
    args = ["solve", "--preset", "case-i", "--t-end", "50",
            "--samples", "5"]
    code, out, _ = _run(args, capsys)
    assert code == 0
    target = tmp_path / "run.csv"
    code2 = cli.main(args + ["--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text() == out


def test_write_csv_cells_are_fmt_of_each_value(tmp_path, capsys):
    # the cells numpy writes are exactly _fmt of each value, also for
    # signed zero, non-finite values, a subnormal and an integer column
    header = ["m", "a", "b", "c"]
    rows = [[1, -0.0, math.inf, math.nan],
            [12, -math.inf, 5e-324, 2.2250738585072014e-308 / 3.0],
            [3, 0.1, -1.0 / 3.0, 1e300]]
    cli.write_csv(header, rows)
    out = capsys.readouterr().out
    target = tmp_path / "cells.csv"
    cli.write_csv(header, rows, str(target))
    assert target.read_bytes() == out.encode()
    lines = out.split("\n")
    assert lines[0] == "m,a,b,c"
    assert lines[-1] == ""
    cells = [line.split(",") for line in lines[1:-1]]
    assert cells == [[cli._fmt(v) for v in row] for row in rows]
    assert cells[0] == ["1", "-0", "inf", "nan"]
    assert cells[1][:3] == ["12", "-inf", "4.9406564584124654e-324"]


def test_quad_table_case_i_single_node(capsys):
    code, out, _ = _run(["quad", "--preset", "case-i", "--m", "1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "node,weight"
    node, weight = (float(v) for v in lines[2].split(","))
    assert node == pytest.approx(90.0, abs=1e-10)
    assert weight == 1.0
    assert lines[3] == "degree,residual"
    for line in lines[4:]:
        assert float(line.split(",")[1]) <= 1e-10


def test_quad_table_uniform_two_nodes(tmp_path, capsys):
    cfg = tmp_path / "uniform.cfg"
    cfg.write_text("a=0\nb=1\np=0\nq=0\n")
    code, out, _ = _run(["quad", "--config", str(cfg), "--m", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    lo = float(lines[2].split(",")[0])
    hi = float(lines[3].split(",")[0])
    root = 1.0 / (2.0 * math.sqrt(3.0))
    assert lo == pytest.approx(0.5 - root, abs=1e-14)
    assert hi == pytest.approx(0.5 + root, abs=1e-14)


def test_stationary_lines(capsys):
    code, out, _ = _run(["stationary", "--preset", "case-i"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "disease-free: S=1 I=0 R=0"
    assert lines[2] == "endemic: S=0.5 I=0.25 R=0.25"
    # the auxiliary values are the stationary closed form at I* = 0, 0.25
    weight = pdl.beta_polynomial(30.0, 150.0, 2, 2)
    for line, i_star in ((lines[1], 0.0), (lines[3], 0.25)):
        assert line == "  aux: " + " ".join(
            cli._fmt(v) for v in pdl.stationary_aux(i_star, weight))


def test_convergence_csv(capsys):
    code, out, err = _run(["convergence", "--preset", "case-i",
                           "--t-end", "30", "--samples", "30",
                           "--m", "1,2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,dS,dI,dR"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert lines[2].split(",")[0] == "2"
    assert "reference solve" in err


def test_convergence_is_deterministic(tmp_path, capsys):
    args = ["convergence", "--preset", "case-i", "--t-end", "30",
            "--samples", "30", "--m", "1,2,3"]
    outputs = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        assert cli.main(args + ["--out", str(target)]) == 0
        outputs.append(target.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_convergence_rejects_bad_m_lists(capsys):
    code, _, err = _run(["convergence", "--preset", "case-i",
                         "--m", "2,1"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "ascending" in err
    code, _, err = _run(["convergence", "--preset", "case-i",
                         "--m", "x"], capsys)
    assert code == cli.EXIT_CONFIG
    # --m 0 means the empty range 1..0
    code, _, err = _run(["convergence", "--preset", "case-i",
                         "--m", "0"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "need at least one node count" in err


def test_exit_code_config_errors(tmp_path, capsys, monkeypatch):
    code, _, err = _run(["solve", "--preset", "case-iii"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("t_end = soon\n")
    code, _, _ = _run(["solve", "--config", str(bad)], capsys)
    assert code == cli.EXIT_CONFIG
    code, _, _ = _run(["solve", "--preset", "case-i", "--m", "x"], capsys)
    assert code == cli.EXIT_CONFIG
    bad.write_text("p = -1\n")
    code, _, err = _run(["solve", "--config", str(bad)], capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err
    code, _, err = _run(["quad", "--preset", "case-i", "--m", "0"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err
    # the residual table needs moments up to degree 2m - 1; b = 250 to
    # the power 130 overflows a float, while m = 62 still fits
    code, _, err = _run(["quad", "--preset", "case-ii", "--m", "63"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "m = 63 is too large for [150, 250]" in err
    code, _, err = _run(["solve", "--preset", "case-i", "--t-end", "inf"],
                        capsys)
    assert code == cli.EXIT_CONFIG
    assert "finite" in err
    code, _, err = _run(["solve", "--preset", "case-i", "--atol", "inf"],
                        capsys)
    assert code == cli.EXIT_CONFIG
    assert "finite" in err
    # the experiment is always the SIR model in scaled time
    for text in ("scale = false\n", "model = scalar-benchmark\n"):
        bad.write_text(text)
        code, _, err = _run(["solve", "--config", str(bad)], capsys)
        assert code == cli.EXIT_CONFIG, text
        assert "unknown key" in err
    # the library constructors own the interval, rate and node-count checks
    for text in ("a = 150\nb = 30\n", "b = inf\n", "sigma = -1\n",
                 "sigma = inf\n"):
        bad.write_text(text)
        code, _, err = _run(["solve", "--config", str(bad)], capsys)
        assert code == cli.EXIT_CONFIG, text
        assert "config error" in err
    code, _, err = _run(["solve", "--preset", "case-i", "--variant",
                         "quadrature", "--m", "0"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err
    # an unwritable --out (missing directory, or a directory) is reported
    # once the run is done, without a traceback
    for target, command in (
            (tmp_path / "missing" / "x.csv",
             ["solve", "--preset", "case-i", "--t-end", "30"]),
            (tmp_path, ["convergence", "--preset", "case-i", "--t-end", "30",
                        "--samples", "30", "--m", "1"])):
        code, _, err = _run(command + ["--out", str(target)], capsys)
        assert code == cli.EXIT_CONFIG, target
        assert "cannot write" in err
        assert "Traceback" not in err

    # every rule is built before the reference solve
    def no_solve(dde, t_end, opts):
        raise AssertionError("solve reached with a bad node count")

    monkeypatch.setattr(cli, "solve", no_solve)
    code, _, err = _run(["convergence", "--preset", "case-i", "--m", "0,3"],
                        capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err


def test_closed_stdout_pipe_exits_quietly():
    # 20000 rows are several times a 64 KiB pipe buffer, so writes fail
    # once the reader has gone, as with `polydelay solve ... | head -n 1`
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "polydelay.cli", "solve", "--preset",
         "case-i", "--samples", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline().startswith(b"t,S,I,R,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_OK
    assert err == b""


def test_exit_code_solver_failure(capsys, monkeypatch):
    # t/b = 6.67 in steps of at most 1e-6 needs 6.7e6 steps: refused
    # before the first step
    code, _, err = _run(["solve", "--preset", "case-i", "--hmax", "1e-6"],
                        capsys)
    assert code == cli.EXIT_SOLVER
    assert "cannot reach" in err
    assert "solver time is t/b, b = 150 days" in err
    monkeypatch.setattr(cli, "MAX_STEPS", 10)
    code, _, err = _run(["solve", "--preset", "case-i"], capsys)
    assert code == cli.EXIT_SOLVER
    assert "solver failure" in err


def test_exit_code_numerical_error(capsys, monkeypatch):
    def boom(config):
        raise RuntimeError("synthetic breakdown")

    monkeypatch.setattr(cli, "run_solve", boom)
    code, _, err = _run(["solve", "--preset", "case-i"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "internal numerical error" in err
    monkeypatch.undo()

    # a ValueError past configuration is internal, not a config error
    def bad_solve(dde, t_end, opts):
        raise ValueError("rhs must return length-8 derivatives")

    monkeypatch.setattr(cli, "solve", bad_solve)
    code, _, err = _run(["solve", "--preset", "case-i"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "internal numerical error" in err

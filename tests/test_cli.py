"""Command-line front end: config assembly, CSV contract, exit codes."""

import contextlib
import dataclasses
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polydelay as pdl
from polydelay import cli, ddesolver


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


_MODEL_KEYS = {"sigma", "theta", "a", "b", "p", "q"}
_STEP_KEYS = {"rtol", "atol", "h_max", "t_end", "samples"}
_READS = {"solve": _MODEL_KEYS | _STEP_KEYS | {"m", "variant"},
          "convergence": _MODEL_KEYS | _STEP_KEYS,
          "quad": {"a", "b", "p", "q", "m"},
          "stationary": _MODEL_KEYS}


@pytest.mark.parametrize("command,key", [
    (command, f.name) for command in _READS
    for f in dataclasses.fields(cli.ExperimentConfig)])
def test_config_file_takes_only_the_keys_its_subcommand_reads(
        command, key, tmp_path):
    path = tmp_path / "run.cfg"
    value = getattr(cli.ExperimentConfig(), key)
    path.write_text("# %s\n%s = %s\n" % (command, key, value))
    if key in _READS[command]:
        assert cli.parse_config_file(str(path), command) == {key: value}
    else:
        with pytest.raises(cli.ConfigError,
                           match="line 2: unknown key '%s' for %s"
                           % (key, command)):
            cli.parse_config_file(str(path), command)


@pytest.mark.parametrize("command,line", [
    ("convergence", "m = 6"), ("convergence", "variant = quadrature"),
    ("stationary", "rtol = 1e-9"), ("quad", "sigma = 0.2")])
def test_unread_config_key_exits_2(command, line, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("a = 30\n%s\n" % line)
    code, out, err = _run([command, "--preset", "case-i", "--config",
                           str(path)], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    key = line.split(" = ")[0]
    assert "line 2: unknown key %r for %s" % (key, command) in err


def test_assemble_config_rejects_unknown_preset():
    with pytest.raises(cli.ConfigError):
        cli.assemble_config(preset="case-iii")


def _run(args, capsys):
    # argparse reports a usage error by raising SystemExit(2)
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_FLAG_VALUES = {"--preset": "case-i", "--config": "run.cfg",
                "--out": "run.csv", "--variant": "quadrature", "--m": "3",
                "--rtol": "1e-7", "--atol": "1e-9", "--hmax": "0.01",
                "--t-end": "30", "--samples": "5"}
_TAKES = {"solve": set(_FLAG_VALUES),
          "convergence": set(_FLAG_VALUES) - {"--variant"},
          "quad": {"--preset", "--config", "--out", "--m"},
          "stationary": {"--preset", "--config", "--out"}}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in _TAKES for flag in _FLAG_VALUES])
def test_subcommands_take_only_the_flags_they_read(command, flag, capsys):
    argv = [command, flag, _FLAG_VALUES[flag]]
    if flag in _TAKES[command]:
        parsed = vars(cli._build_parser().parse_args(argv))
        assert parsed != vars(cli._build_parser().parse_args([command]))
    else:
        code, out, err = _run(argv, capsys)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "unrecognized arguments: %s" % flag in err


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
    # the cells are exactly _fmt of each value, also for signed zero,
    # non-finite values, a subnormal and an integer column
    header = ["m", "a", "b", "c"]
    rows = [[1, -0.0, math.inf, math.nan],
            [12, -math.inf, 5e-324, 2.2250738585072014e-308 / 3.0],
            [3, 0.1, -1.0 / 3.0, 1e300],
            [4, 1.00000762939453125, 9.9999999999999995e-07, -1e15]]
    cli.write_csv(header, [rows])
    out = capsys.readouterr().out
    target = tmp_path / "cells.csv"
    cli.write_csv(header, [rows], str(target))
    assert target.read_bytes() == out.encode()
    # the same bytes however the rows are split into blocks, and the
    # same bytes as numpy's savetxt
    cli.write_csv(header, [rows[:1], rows[1:]])
    assert capsys.readouterr().out == out
    oracle = io.StringIO()
    np.savetxt(oracle, rows, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    assert oracle.getvalue() == out
    lines = out.split("\n")
    assert lines[0] == "m,a,b,c"
    assert lines[-1] == ""
    cells = [line.split(",") for line in lines[1:-1]]
    assert cells == [[cli._fmt(v) for v in row] for row in rows]
    assert cells[0] == ["1", "-0", "inf", "nan"]
    assert cells[1][:3] == ["12", "-inf", "4.9406564584124654e-324"]
    # a tie rounds to the even digit; a value just below a power of ten
    # keeps its decade
    assert cells[3] == ["4", "1.0000076293945312", "9.9999999999999995e-07",
                        "-1000000000000000"]


def _csv_text(header, blocks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_csv(header, blocks)
    return out.getvalue()


def _fmt_csv(header, blocks):
    # the definition write_csv must reproduce: _fmt of every cell
    lines = [",".join(header)]
    for block in blocks:
        lines += [",".join(map(cli._fmt, row))
                  for row in np.asarray(block, dtype=float).tolist()]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 1100), cols=st.integers(0, 9),
       cut=st.integers(0, 1100), seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_cells_are_fmt_of_any_bits(rows, cols, cut, seed):
    # any 64 bits as a float: nan payloads, infinities, subnormals, signed
    # zeros and every exponent; half the cells get an exponent with
    # |x| about 1e-12..1e16, the range the arithmetic covers. The rows are
    # cut into two blocks at any row, so one may be empty
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, size=(rows, cols), dtype=np.uint64)
    exponent = rng.integers(1023 - 40, 1023 + 54, size=bits.shape,
                            dtype=np.uint64)
    near = rng.random(bits.shape) < 0.5
    bits[near] = (bits[near] & np.uint64(0x800FFFFFFFFFFFFF)
                  | exponent[near] << np.uint64(52))
    block = bits.view(np.float64)
    blocks = [block[:cut], block[cut:]]
    header = ["c%d" % i for i in range(cols)]
    assert _csv_text(header, blocks) == _fmt_csv(header, blocks)


def _ulps(x, n):
    # the float n steps of one ulp above x (below for n < 0)
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0.0)
    return x


def _ties(j):
    # the odd multiples m 2**-k in [10**j, 10**(j + 1)) with k = 17 - j:
    # 18 significant digits, the last a 5, so the 17-digit rounding ties
    k = 17 - j
    lo = math.ceil(Fraction(10) ** j * 2 ** k)
    hi = math.ceil(Fraction(10) ** (j + 1) * 2 ** k) - 1
    return st.integers(lo // 2, (hi - 1) // 2).map(
        lambda i: math.ldexp(2 * i + 1, -k))


_TARGETED = st.one_of(
    st.integers(-7, 14).flatmap(_ties),
    # powers of ten and the floats around them. The float nearest 1e-06
    # lies below it and is 9.9999999999999995e-07; the one nearest 1e-14
    # also lies below it, but rounds up into the next decade
    st.builds(lambda k, n: _ulps(float(Fraction(10) ** k), n),
              st.integers(-14, 16), st.integers(-64, 3)),
    # the edges of the range the arithmetic covers, of a wider one, and of
    # the normal floats
    st.builds(_ulps, st.sampled_from([1e-4, 1e7, 1e-11, 1e15,
                                      2.2250738585072014e-308, 5e-324,
                                      sys.float_info.max]),
              st.integers(-3, 3)),
    # whole numbers, which drop the point, and halves, with every count
    # of integer digits the arithmetic covers
    st.integers(1, 10 ** 7 - 1).map(float),
    st.integers(1, 10 ** 7 - 1).map(lambda n: n + 0.5),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TARGETED, st.booleans()), min_size=1,
                max_size=50))
def test_write_csv_cells_are_fmt_of_edge_values(draws):
    values = [-x if negative else x for x, negative in draws]
    blocks = [np.array(values)[:, None], [values]]
    assert _csv_text(["x"], blocks[:1]) == _fmt_csv(["x"], blocks[:1])
    header = ["c%d" % i for i in range(len(values))]
    assert _csv_text(header, blocks[1:]) == _fmt_csv(header, blocks[1:])


def _decimal_agrees(values):
    # where _decimal takes a value, its 17 digits and exponent are those
    # of '%.16e'; inside [1e-4, 1e7) it leaves to _fmt only the floats
    # within 8 ulps of a power of ten, whose decade log10 may misjudge
    x = np.array(values, dtype=float)
    d, i, ok = cli._decimal(x)
    tens = np.array([float(Fraction(10) ** j) for j in range(-4, 8)])
    for v, digits, e, taken in zip(x.tolist(), d.tolist(), (i - 4).tolist(),
                                   ok.tolist()):
        mantissa, _, exponent = ("%.16e" % v).partition("e")
        if taken:
            assert (str(digits), e) == (mantissa.replace(".", ""),
                                        int(exponent)), v
        elif 1e-4 <= v < 1e7:
            ulps = np.abs(tens.view(np.int64) - np.float64(v).view(np.int64))
            assert ulps.min() <= 8, v


@settings(max_examples=200, deadline=None)
@given(st.lists(_TARGETED, min_size=1, max_size=50))
def test_decimal_digits_are_those_of_printf_on_edge_values(values):
    _decimal_agrees(values)


def test_decimal_takes_all_but_the_floats_next_to_powers_of_ten():
    # log-uniform over the range the arithmetic covers: a value wrongly
    # left to _fmt still gets the right cell, so the byte tests cannot
    # see it
    rng = np.random.default_rng(1726)
    values = 10.0 ** rng.uniform(-4, 7, 50000)
    _decimal_agrees(values)


def _layout(x):
    # (e, n) of _fmt(x): the decimal exponent and the significant digits
    digits, _, e = ("%.16e" % x).partition("e")
    return int(e), len(digits.replace(".", "").rstrip("0"))


def test_write_csv_covers_every_layout():
    # one float for each decimal exponent -11 <= e <= 14, each count n of
    # significant digits and each sign: the first n-digit decimal
    # t 10**(e - n + 1), in a fixed sequence, whose float takes the layout
    # (e, n) of '%.17g'. The positive ones with -4 <= e <= 6 go through
    # the arithmetic, the rest through _fmt. For n = 1 all nine are tried:
    # for e = -5, -6, -7 none is close enough to a float, so no float
    # takes those layouts
    values, unreachable = [], []
    for e in range(-11, 15):
        for n in range(1, 18):
            rng = random.Random(17 * e + n)
            tries = (range(1, 10) if n == 1 else
                     (rng.randrange(10 ** (n - 2), 10 ** (n - 1)) * 10
                      + rng.randrange(1, 10) for _ in range(2000)))
            found = next((x for x in (float("%de%d" % (t, e - n + 1))
                                      for t in tries)
                          if _layout(x) == (e, n)), None)
            if found is None:
                unreachable.append((e, n))
            else:
                values.append(found)
    assert unreachable == [(-7, 1), (-6, 1), (-5, 1)]
    block = np.array([values, [-x for x in values]])
    header = ["c%d" % i for i in range(len(values))]
    assert _csv_text(header, [block]) == _fmt_csv(header, [block])


@pytest.mark.parametrize("variant", [{}, {"variant": "quadrature", "m": 8}])
def test_write_csv_leaves_only_the_preset_outliers_to_fmt(variant,
                                                           monkeypatch):
    # the cells of a preset run lie in [0, 1000]; _fmt, the slow path,
    # writes only the zeros and the early R values below 1e-4, 4 cells on
    # either route
    config = cli.assemble_config(preset="case-i", **variant)
    header, blocks, _ = cli.run_solve(config)
    blocks = list(blocks)
    cells = np.concatenate(blocks).ravel()
    assert 0.0 <= cells.min() and cells.max() <= 1000.0
    calls = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
    cli.write_csv(header, blocks, os.devnull)
    assert sorted(calls) == sorted(cells[cells < 1e-4].tolist())
    assert len(calls) == 4


def test_solve_blocks_equal_sample(tmp_path, capsys, monkeypatch):
    trajs = []

    def keep_solve(*args):
        trajs.append(pdl.solve(*args))
        return trajs[-1]

    monkeypatch.setattr(cli, "solve", keep_solve)
    for k in (2, ddesolver._BLOCK_ROWS, ddesolver._BLOCK_ROWS + 1,
              2 * ddesolver._BLOCK_ROWS + 3):
        config = cli.assemble_config(preset="case-i", t_end=60.0, samples=k)
        _, blocks, _ = cli.run_solve(config)
        blocks = list(blocks)
        assert all(len(block) <= ddesolver._BLOCK_ROWS for block in blocks)
        ts, states = pdl.sample(trajs[-1], k)
        rows = np.concatenate(blocks)
        expected = np.column_stack((ts * config.b, states))
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
    # the solve runs before the output is opened, so a failed solve
    # leaves an existing file as it was
    target = tmp_path / "earlier.csv"
    target.write_bytes(b"t,S\n0,1\n")
    monkeypatch.setattr(cli, "MAX_STEPS", 10)
    code, _, _ = _run(["solve", "--preset", "case-i", "--out",
                       str(target)], capsys)
    assert code == cli.EXIT_SOLVER
    assert target.read_bytes() == b"t,S\n0,1\n"


def test_solve_blocks_hold_one_block_of_memory():
    # the sampled grid is built a block at a time: consuming the rows of
    # 8 times as many samples peaks no higher
    def peak(samples):
        config = cli.assemble_config(preset="case-i", h_max=np.inf,
                                     samples=samples)
        tracemalloc.start()
        try:
            _, blocks, _ = cli.run_solve(config)
            rows = sum(len(block) for block in blocks)
            return tracemalloc.get_traced_memory()[1], rows
        finally:
            tracemalloc.stop()

    small, rows_small = peak(50000)
    large, rows_large = peak(400000)
    assert (rows_small, rows_large) == (50000, 400000)
    assert abs(large - small) <= 0.1e6, (small, large)


def test_write_csv_holds_one_block_of_memory():
    # the rows are formatted and written a block at a time: writing 8
    # times as many rows to a file peaks no higher
    def peak(samples):
        config = cli.assemble_config(preset="case-i", h_max=np.inf,
                                     samples=samples)
        rows = []

        def counted(blocks):
            for block in blocks:
                rows.append(len(block))
                yield block

        tracemalloc.start()
        try:
            header, blocks, _ = cli.run_solve(config)
            cli.write_csv(header, counted(blocks), os.devnull)
            return tracemalloc.get_traced_memory()[1], sum(rows)
        finally:
            tracemalloc.stop()

    small, rows_small = peak(50000)
    large, rows_large = peak(400000)
    assert (rows_small, rows_large) == (50000, 400000)
    assert abs(large - small) <= 0.1e6, (small, large)


def test_cli_import_builds_no_formatter_table():
    # the CSV formatter keeps a few constant words at module level; any
    # larger table would be built on import, which every run pays
    arrays = [v for v in vars(cli).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 1024


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
    # of the chain that solve integrates, in the scaled time t/b
    weight = pdl.rescale_to_unit(pdl.beta_polynomial(30.0, 150.0, 2, 2))
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


def test_convergence_samples_the_reference_once(monkeypatch):
    # one grid: the reference is sampled, and every quadrature solve is
    # evaluated on the reference's times
    sampled, evaluated = [], []

    def count_sample(traj, k):
        sampled.append(k)
        return pdl.sample(traj, k)

    def count_dense_eval(traj, t):
        evaluated.append(t)
        return pdl.dense_eval(traj, t)

    monkeypatch.setattr(cli, "sample", count_sample)
    monkeypatch.setattr(cli, "dense_eval", count_dense_eval)
    config = cli.assemble_config(preset="case-i", t_end=30.0, samples=30)
    diffs, _ = cli.run_convergence(config, [1, 2, 3])
    assert sampled == [30]
    assert len(evaluated) == 3
    want = np.linspace(0.0, 30.0 / config.b, 30)
    assert all(t.tobytes() == want.tobytes() for t in evaluated)
    assert diffs.shape == (3, 3)


def test_convergence_range_over_the_bound_fails_before_listing_it(capsys):
    # --m M is the range 1..M; over the bound it fails at M without a
    # list of M counts
    tracemalloc.start()
    try:
        code, out, err = _run(["convergence", "--preset", "case-i",
                               "--m", "2000000"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "must lie in [1, %d], got 2000000" % pdl.MAX_NODES in err
    assert peak < 5e6, peak


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
                 "sigma = inf\n", "a = 0\nb = 1e-62\n"):
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


@pytest.mark.parametrize("command",
                         ["solve", "convergence", "stationary", "quad"])
def test_undecodable_config_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# Verz\xf6gerung\np = 2\n")
    code, out, err = _run([command, "--preset", "case-i", "--config",
                           str(path)], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "config error: cannot read config file %s" % path in err
    assert "decode byte 0xf6" in err


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_horizon_rounding_to_zero_in_scaled_time_exits_2(command, capsys):
    # 5e-324 days is positive, but 5e-324 / b is 0 in t/b
    code, out, err = _run([command, "--preset", "case-i", "--t-end",
                           "5e-324"], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "config error: the horizon t_end / b = 0" in err
    assert "t/b" in err


@pytest.mark.parametrize("command, code", [
    ("solve", cli.EXIT_CONFIG), ("convergence", cli.EXIT_CONFIG),
    ("stationary", cli.EXIT_OK), ("quad", cli.EXIT_OK)])
def test_horizon_overflowing_in_scaled_time(command, code, tmp_path,
                                            capsys):
    # 1000 days / 1e-307 is inf in t/b: the subcommands that integrate
    # refuse it as a config error; stationary and quad read no horizon
    # and answer
    path = tmp_path / "tiny-b.cfg"
    path.write_text("a = 0\nb = 1e-307\np = 0\nq = 0\n")
    got, out, err = _run([command, "--preset", "case-i", "--config",
                          str(path)], capsys)
    assert got == code
    if code == cli.EXIT_OK:
        assert out and err == ""
    else:
        assert out == ""
        assert err == ("config error: the horizon t_end / b = inf in the "
                       "scaled time t/b must be positive and finite\n")


@pytest.mark.parametrize("command",
                         ["solve", "convergence", "stationary", "quad"])
def test_every_subcommand_rejects_what_the_scaled_model_cannot_hold(
        command, tmp_path, capsys):
    # the unscaled density passes its checks, its rescaling to [a/b, 1]
    # does not; every subcommand builds the same scaled problem
    path = tmp_path / "narrow.cfg"
    path.write_text("a = 5\nb = 5.000000000001\np = 0\nq = 0\n")
    code, out, err = _run([command, "--preset", "case-i", "--config",
                           str(path)], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "config error: density must integrate to one" in err
    # the failing check is on the rescaled copy, and the message names the
    # delay interval it came from
    assert "5.000000000001" in err and "rescaled to [a/b, 1]" in err


@pytest.mark.parametrize("preset, changes", [
    ("case-i", {}), ("case-ii", {}),
    ("case-i", dict(sigma=0.3, theta=0.02, a=10.0, b=90.0, p=1, q=3))])
def test_problem_builds_the_model_of_scale_distributed(preset, changes):
    # _problem builds the SIR model with its rates in units of b days;
    # scale_distributed of the model in days is the oracle
    config = dataclasses.replace(cli.PRESETS[preset], **changes)
    params, base = cli._problem(config)
    assert (params.sigma, params.theta) == (config.sigma, config.theta)
    oracle = pdl.scale_distributed(pdl.sir_distributed(params))
    assert base.weight == oracle.weight
    assert base.dimension == oracle.dimension
    assert base.delayed_components == oracle.delayed_components
    for t in (0.0, -0.25, -1.0):
        assert np.array_equal(base.history(t), oracle.history(t))
    # the two products round differently: each of at most five roundings
    # moves a component by half an ulp of its largest term
    rng = np.random.default_rng(11)
    sb, tb = config.sigma * config.b, config.theta * config.b
    for _ in range(500):
        t = float(rng.uniform(0.0, 10.0))
        y, z = rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 1.0, 3)
        scale = sb * y[0] * y[1] + tb * (y[1] + z[1])
        assert np.max(np.abs(base.rhs(t, y, z) - oracle.rhs(t, y, z))) \
            <= 4 * ddesolver._EPS * scale


@pytest.mark.parametrize("preset", ["case-i", "case-ii"])
@pytest.mark.parametrize("variant", ["equivalent", "quadrature"])
def test_problem_solves_as_scale_distributed(preset, variant, request):
    # the session's preset solves build the model by scale_distributed,
    # with the preset's m = 4 on the quadrature route
    want = request.getfixturevalue(
        "%s_%s" % (preset.replace("-", "_"), variant)).traj
    config = cli.PRESETS[preset]
    _, base = cli._problem(config)
    t_end, opts = cli._integration(config)
    got = pdl.solve(cli._route(config, base, config.m if variant ==
                               "quadrature" else None), t_end, opts)
    assert (got.steps_taken, got.steps_rejected) == \
        (want.steps_taken, want.steps_rejected)
    assert np.max(np.abs(pdl.sample(got, 1000)[1]
                         - pdl.sample(want, 1000)[1])) <= 1e-10


def test_equivalent_degree_over_the_bound_is_a_config_error(tmp_path,
                                                            capsys):
    path = tmp_path / "deg30.cfg"
    path.write_text("p = 15\nq = 15\n")
    args = ["solve", "--preset", "case-ii", "--t-end", "10", "--config",
            str(path)]
    code, out, err = _run(args, capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "degree 30 is above 4" in err and "quadrature" in err
    code, out, _ = _run(args + ["--variant", "quadrature", "--m", "8"],
                        capsys)
    assert code == cli.EXIT_OK
    assert out.startswith("t,S,I,R\n")


def test_node_count_over_the_bound_is_a_config_error(capsys, monkeypatch):
    code, out, err = _run(["quad", "--preset", "case-i", "--m", "20000"],
                          capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "config error: node count m must lie in [1, %d]" \
        % pdl.MAX_NODES in err
    # the largest count is checked before any rule or solve is built
    built = []

    def keep_rule(m, *args):
        built.append(m)
        return pdl.gauss_jacobi(m, *args)

    def no_solve(dde, t_end, opts):
        raise AssertionError("solve reached with a node count over the bound")

    monkeypatch.setattr(cli, "gauss_jacobi", keep_rule)
    monkeypatch.setattr(cli, "solve", no_solve)
    code, _, err = _run(["convergence", "--preset", "case-i", "--m",
                         "100000"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "must lie in [1, %d]" % pdl.MAX_NODES in err
    assert built == [100000]


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


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, whose writes fail with ENOSPC")
def test_failed_write_exits_config_error(capsys):
    # through --out the write fails when the file is closed
    code, _, err = _run(["stationary", "--preset", "case-i", "--out",
                         "/dev/full"], capsys)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error: cannot write /dev/full: ")
    assert err.count("\n") == 1
    # through standard output it fails on the final flush, and the
    # interpreter's own flush at exit must not fail again
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "polydelay.cli", "quad", "--preset",
             "case-i", "--m", "3"],
            stdout=full, stderr=subprocess.PIPE, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == cli.EXIT_CONFIG
    err = proc.stderr.decode()
    assert err.startswith("config error: cannot write standard output: ")
    assert err.count("\n") == 1


def test_exit_code_solver_failure(tmp_path, capsys, monkeypatch):
    # t/b = 6.67 in steps of at most 1e-6 needs 6.7e6 steps: refused
    # before the first step
    code, _, err = _run(["solve", "--preset", "case-i", "--hmax", "1e-6"],
                        capsys)
    assert code == cli.EXIT_SOLVER
    assert "cannot reach" in err
    assert "solver time is t/b, b = 150 days" in err
    # without h_max the smallest delay, 30 / 150 = 0.2 in t/b, caps the
    # steps: 4e7 days is t/b = 2.7e5, more than 1e6 steps of 0.2
    code, _, err = _run(["solve", "--preset", "case-i", "--hmax", "inf",
                         "--t-end", "4e7"], capsys)
    assert code == cli.EXIT_SOLVER
    assert "min(h_max, smallest delay) = 0.2 " in err
    monkeypatch.setattr(cli, "MAX_STEPS", 10)
    code, _, err = _run(["solve", "--preset", "case-i"], capsys)
    assert code == cli.EXIT_SOLVER
    assert "solver failure" in err
    # t/b = 1e-297: the first step rounds to zero, through an overflow in
    # the curvature probe's df/dt or, with these tolerances, in |f|; the
    # overflow is the failure's one line, not a numpy warning
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("a = 0\nb = 1e300\np = 0\nq = 0\n")
    code, _, err = _run(["solve", "--preset", "case-i", "--config",
                         str(cfg)], capsys)
    assert code == cli.EXIT_SOLVER
    assert "step size underflow at t = 0" in err
    code, _, err = _run(["solve", "--preset", "case-i", "--config",
                         str(cfg), "--rtol", "1e-13", "--atol", "1e-300"],
                        capsys)
    assert code == cli.EXIT_SOLVER
    assert "step size underflow at t = 0" in err
    assert err.count("\n") == 1


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

import argparse
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biharm as bh
from biharm.cli import (_COMMANDS, _OPTIONS, EXIT_CONFIG, EXIT_NOCONV, EXIT_OK, RunConfig,
                        _read_fields, _report_header, build_parser, config_from_args,
                        dump_report, load_field_csv, main, run, save_field_csv,
                        with_default_grid)


def config_text(rc):
    """The ``config`` that rc's report echoes, as the report writes it."""
    return dump_report(_report_header(rc)["config"])


def echo_argv(echo):
    """The --flag=value arguments that set a report's ``config`` echo: --grid joins
    grid_r_max:grid_n, a tuple its numbers with commas, and a None field is left out."""
    argv = [echo["command"]]
    for flag in _COMMANDS[echo["command"]][1]:
        field = _OPTIONS[flag][0]
        values = [echo[name] for name in (field if isinstance(field, tuple) else (field,))]
        if None not in values:
            argv.append(f"{flag}=" + ":".join(",".join(map(str, v)) if isinstance(v, list)
                                              else str(v) for v in values))
    return argv


def run_cli(args, tmp_path, sub="out"):
    out = tmp_path / sub
    return main(args + ["--out-dir", str(out)]), out


def test_field_csv_roundtrip(tmp_path):
    g = bh.build_grid(20.0, 512, 4)
    rng = np.random.default_rng(0)
    u = bh.RadialField(g, rng.normal(size=512))
    path = str(tmp_path / "f.csv")
    save_field_csv(path, u)
    back = load_field_csv(path, 4)
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.grid.nodes, g.nodes)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3])


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 4]), r_max=st.floats(0.5, 60.0), data=st.data())
def test_field_csv_roundtrip_is_exact(tmp_path_factory, dim, r_max, data):
    g = bh.build_grid(r_max, data.draw(st.integers(16, 80)), dim)
    values = data.draw(st.lists(_EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
                                min_size=g.n_points, max_size=g.n_points))
    path = str(tmp_path_factory.mktemp("csv") / "f.csv")
    save_field_csv(path, bh.RadialField(g, np.array(values)))
    back = load_field_csv(path, dim)
    assert np.array_equal(back.grid.nodes, g.nodes)
    assert np.array_equal(back.values, values)
    assert np.array_equal(np.signbit(back.values), np.signbit(values))


_GRID_ROWS = "".join(f"{format(r, '.17g')},1\n" for r in bh.build_grid(20.0, 16, 4).nodes)


_CSV_CASES = {
    "empty": ("", "expected header 'r,u'"),
    "blank": ("\n\n", "expected header 'r,u'"),
    "header_only": ("r,u\n", "no data rows"),
    "header_and_blanks": ("r,u\n\n\n", "no data rows"),
    "bad_header": ("x,y\n0,1\n", "expected header 'r,u'"),
    "data_before_header": ("0,1\nr,u\n", "expected header 'r,u'"),
    "three_columns": ("r,u\n0,1,2\n", "every data row needs two columns"),
    "one_column": ("r,u\n" + _GRID_ROWS + "21\n", "every data row needs two columns"),
    "non_uniform": ("r,u\n0,1\n1,1\n3,1\n" + "".join(f"{k},1\n" for k in range(4, 17)),
                    "not a uniform grid from 0"),
    "not_a_number": ("r,u\n0,1\nabc,1\n", "could not convert"),
    "nan": ("r,u\n" + _GRID_ROWS.replace(",1\n", ",nan\n", 1), "non-finite"),
    "too_few_nodes": ("r,u\n" + "".join(_GRID_ROWS.splitlines(keepends=True)[:15]),
                      "n_points must be >= 16"),
    # blank lines, also before the header, and the header's case are not errors
    "leading_blank_lines": ("\n\nR,U\n\n" + _GRID_ROWS.replace("\n", "\n\n", 3), None),
}


@pytest.mark.parametrize("text, message", _CSV_CASES.values(), ids=_CSV_CASES)
def test_field_csv_rejections(tmp_path, text, message):
    src = tmp_path / "in.csv"
    src.write_text(text)
    if message is None:
        field = load_field_csv(str(src), 4)
        assert np.array_equal(field.grid.nodes, bh.build_grid(20.0, 16, 4).nodes)
        assert np.all(field.values == 1.0)
        return
    with pytest.raises(ValueError, match=message):
        load_field_csv(str(src), 4)


# finite floats, which the echo writes as numbers; --b-values and --sweep-values
# take at least one
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
_FIELD_VALUES = {"str": st.text(), "int": st.integers(), "float": _FLOATS,
                 "tuple": st.lists(_FLOATS, min_size=1, max_size=5).map(tuple)}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _field_strategy(kind: str):
    inner = kind.removeprefix("Optional[").removesuffix("]")
    return _FIELD_VALUES[inner] if inner == kind else st.none() | _FIELD_VALUES[inner]


@st.composite
def _run_configs(draw):
    command = draw(st.sampled_from(list(_COMMANDS)))
    values = draw(st.fixed_dictionaries({name: _field_strategy(_FIELD_TYPES[name])
                                         for name in _read_fields(command)}))
    if None in (values.get("grid_r_max"), values.get("grid_n")):  # --grid sets both or none
        values.update(dict.fromkeys(values.keys() & {"grid_r_max", "grid_n"}))
    return RunConfig(command=command, **values)


@settings(max_examples=200, deadline=None)
@given(_run_configs())
def test_runconfig_roundtrip(rc):
    # every field the command reads, with -0.0 and None in optional ones; config_text
    # writes the command and those fields, as a report's config echoes them, and
    # those passed back as --flag=value arguments set the same fields
    echo = json.loads(config_text(rc))
    assert set(echo) == {"command", *_read_fields(rc.command)}
    rc2 = config_from_args(build_parser(rc.command).parse_args(echo_argv(echo)))
    assert repr(rc2) == repr(rc)                   # equal values of the same types
    assert config_text(rc2) == config_text(rc)


def test_check_command(tmp_path):
    code, out = run_cli(["check", "--g", "t", "--K", "1"], tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "check.json").read_text())
    assert rep["growth"]["bounded_verdict"] == "fails"


def test_check_echoes_K_only_with_g(tmp_path):
    # K scales only the growth class of --g: without --g the echo reads K null and
    # still re-runs the report byte for byte; with --g it reads the default 1.0
    for sub, args, K in (("theta", ["--theta", "1"], None), ("g", ["--g", "t^4"], 1.0)):
        code, out = run_cli(["check", *args], tmp_path, sub)
        assert code == EXIT_OK
        report = (out / "check.json").read_bytes()
        echo = json.loads(report)["config"]
        assert echo["K"] == K
        code, rerun = run_cli(echo_argv(echo), tmp_path, sub + "_echo")
        assert code == EXIT_OK
        assert (rerun / "check.json").read_bytes() == report


@pytest.mark.parametrize("param, field, values", [("lambda", "lam", "0.4,0.5"),
                                                   ("gamma", "gamma", "0.9,1.1")])
def test_sweep_echoes_its_swept_field_null(tmp_path, param, field, values):
    # each value sets the swept field, so the echo reads it null, not a default,
    # and still re-runs the report byte for byte
    code, out = run_cli(["sweep", "--dim", "2", "--grid", "30:1024", "--sweep-param", param,
                         "--sweep-values", values], tmp_path)
    assert code == EXIT_OK
    report = (out / "sweep.json").read_bytes()
    echo = json.loads(report)["config"]
    assert echo[field] is None
    code, rerun = run_cli(echo_argv(echo), tmp_path, "echo")
    assert code == EXIT_OK
    assert (rerun / "sweep.json").read_bytes() == report


def test_a_key_error_in_a_handler_escapes_main(tmp_path, monkeypatch):
    # no input raises KeyError, so one from a handler is a programming error and
    # propagates instead of being reported as a usage error (exit 3)
    def handler(rc):
        raise KeyError("a programming error")

    monkeypatch.setitem(_COMMANDS, "moser", (handler, _COMMANDS["moser"][1]))
    with pytest.raises(KeyError, match="a programming error"):
        run_cli(["moser"], tmp_path)


def test_check_conditions_output(tmp_path):
    code, out = run_cli(["check", "--theta", "1.0"], tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "check.json").read_text())
    assert rep["conditions"]["ar_holds"] is True


def test_check_g_reports_the_conditions_of_its_nonlinearity(tmp_path):
    # check takes one path: the conditions of its nonlinearity always, growth with --g
    code, out = run_cli(["check", "--g", "t", "--K", "1"], tmp_path, "g")
    assert code == EXIT_OK
    got = json.loads((out / "check.json").read_text())
    assert got["growth"]["bounded_verdict"] == "fails"
    code, out = run_cli(["check"], tmp_path, "plain")
    assert code == EXIT_OK
    want = json.loads((out / "check.json").read_text())
    assert got["conditions"] == want["conditions"]
    assert got["conditions"]["M0"] == pytest.approx(
        max(np.expm1(2 * t * t) / (4 * t * np.exp(2 * t * t)) for t in np.geomspace(0.1, 5, 200)),
        rel=1e-12)


@pytest.mark.parametrize("g, verdicts", [("1", ("fails", "fails")), ("0*t", ("holds", "holds"))])
def test_check_of_a_constant_g_is_a_result(tmp_path, g, verdicts):
    # a constant expression gives one value per probe point; g = 0 sits at the floor
    # of the probe logs, where both limits vanish
    code, out = run_cli(["check", "--g", g, "--K", "1"], tmp_path)
    assert code == EXIT_OK
    growth = json.loads((out / "check.json").read_text())["growth"]
    assert (growth["bounded_verdict"], growth["compact_verdict"]) == verdicts


def test_probes_build_no_potential(tmp_path):
    # ratio reads F and the dimension only, so lambda >= 1 is no error there; check
    # takes no lambda, which cancels from every condition it reports
    code, out = run_cli(["ratio", "--lambda", "1.5", "--budget", "4"], tmp_path)
    assert code == EXIT_OK
    assert json.loads((out / "ratio.json").read_text())["config"]["lam"] == 1.5


@pytest.mark.parametrize("args", [
    ["check", "--g", "t", "--K", "1"], ["check", "--f", "t"], ["check", "--theta", "1"],
    ["check"], ["ratio", "--f", "t^3"], ["ratio", "--theta", "1"], ["ratio"],
    ["solve"], ["rearrange", "--input", "in.csv"], ["moser"]])
def test_every_command_checks_the_dimension(tmp_path, capsys, args):
    args = [str(tmp_path / a) if a.endswith(".csv") else a for a in args] + ["--dim", "3"]
    if args[0] == "moser":
        # moser takes no --dim; a RunConfig built in code is still checked
        with pytest.raises(ValueError, match="dimension must be 2 or 4, got 3"):
            run(RunConfig(command="moser", dimension=3, out_dir=str(tmp_path / "out")))
        with pytest.raises(SystemExit) as exc:
            run_cli(args, tmp_path)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --dim 3" in capsys.readouterr().err
    else:
        code, _ = run_cli(args, tmp_path)
        assert code == EXIT_CONFIG
        assert "dimension must be 2 or 4, got 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_command(tmp_path):
    code, out = run_cli(["solve", "--gamma", "1", "--lambda", "0.5", "--grid", "20:512"],
                        tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "solve.json").read_text())
    s = rep["solve"]
    assert s["constraint_residual"] <= 1e-9 * (1 + abs(s["objective"]))
    assert s["recovered_residual_weak"] <= 1e-5
    # solution.csv holds the reported state on the caller's grid, and the
    # residual under the benchmark's key is that state's
    assert s["recovered_residual_weak"] == s["residual_weak"]
    assert "lagrange_theta" not in s and abs(s["pohozaev_defect"]) <= 3e-5
    u = load_field_csv(str(out / "solution.csv"))
    assert u.grid.key() == bh.build_grid(20.0, 512, 4).key()


def test_rearrange_command(tmp_path):
    g = bh.build_grid(20.0, 2048, 4)
    u = bh.RadialField(g, 0.5 * (g.nodes / 1.5) ** 2 * np.exp(-((g.nodes / 1.5) ** 2)))
    src = str(tmp_path / "in.csv")
    save_field_csv(src, u)
    code, out = run_cli(["rearrange", "--input", src], tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "rearrange.json").read_text())
    assert rep["rearrange"]["flagged"] is False
    assert (out / "rearrange_output.csv").exists()


def test_gap_command(tmp_path):
    code, out = run_cli(["gap", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.3"], tmp_path)
    assert code == EXIT_OK
    gp = json.loads((out / "gap.json").read_text())["gap"]
    assert gp["gap"] > 0
    for key in ("status_V", "status_infty"):
        assert set(gp[key]) == {"converged", "residual_weak", "iterations", "pohozaev_defect",
                                "warnings"}
        assert gp[key]["converged"] is True
    # the trapped V is not constant, so its solve has no defect; V(20) is exactly 1.0,
    # so the limit solve is solve --lambda 0.3, bit for bit
    assert gp["status_V"]["pohozaev_defect"] is None
    code, out = run_cli(["solve", "--lambda", "0.3"], tmp_path, "solve")
    assert code == EXIT_OK
    s = json.loads((out / "solve.json").read_text())["solve"]
    assert (gp["m_infty"], gp["status_infty"]["pohozaev_defect"]) == (s["objective"],
                                                                     s["pohozaev_defect"])
    assert gp["status_infty"]["residual_weak"] == s["residual_weak"]


def test_moser_command(tmp_path):
    code, out = run_cli(["moser", "--b-values", "3,4"], tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "moser.json").read_text())
    assert [set(row) for row in rep["moser"]["rows"]] == 2 * [
        {"b", "l2_sq", "lap_l2_sq", "excess", "n_points", "method"}]
    assert not (out / "moser.csv").exists()      # moser.json holds the rows once
    assert set(rep["config"]) == {"command", "b_values"}


def test_ratio_command(tmp_path):
    code, out = run_cli(["ratio", "--lambda", "0.5", "--L", "1.0", "--budget", "60"], tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "ratio.json").read_text())
    assert rep["ratio"]["verdict"] in ("finite_evidence", "divergence_evidence")


@pytest.mark.parametrize("theta, verdict", [("3", "finite_evidence"),
                                            ("1", "divergence_evidence")])
def test_2d_theta_ratio_verdicts(tmp_path, theta, verdict):
    # in 2-D the log branch carries L, so the bounded theta 3 family reads finite and
    # theta 1 still reads divergence at the threshold
    code, out = run_cli(["ratio", "--dim", "2", "--theta", theta, "--budget", "8"], tmp_path)
    assert code == EXIT_OK
    assert json.loads((out / "ratio.json").read_text())["ratio"]["verdict"] == verdict


def test_sweep_command(tmp_path):
    code, out = run_cli(["sweep", "--sweep-param", "lambda", "--sweep-values", "0.4,0.6"],
                        tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "sweep.json").read_text())
    objs = [r["objective"] for r in rep["sweep"]["results"]]
    assert objs[0] > objs[1]     # larger lambda relaxes the constraint


def test_sweep_keeps_the_values_around_a_bad_one(tmp_path, capsys):
    code, out = run_cli(["sweep", "--dim", "4", "--gamma", "1", "--sweep-param", "lambda",
                         "--sweep-values", "0.4,1.2"], tmp_path)
    assert code == EXIT_CONFIG
    results = json.loads((out / "sweep.json").read_text())["sweep"]["results"]
    assert results[0]["value"] == 0.4 and results[0]["converged"] is True
    assert "error" not in results[0]
    assert results[1] == {"value": 1.2, "error": "standing hypothesis violated: "
                          "f(t)/t -> 1.2 as t -> 0, not below V0=1.0"}
    assert "lambda 1.2: standing hypothesis violated" in capsys.readouterr().err


def test_lambda_sweep_of_another_family_is_an_error_per_value(tmp_path, capsys):
    # lambda scales only the built-in nonlinearity; theta's family has none
    code, out = run_cli(["sweep", "--dim", "2", "--gamma", "1", "--theta", "1.5",
                         "--sweep-param", "lambda", "--sweep-values", "0.3,0.5"], tmp_path)
    assert code == EXIT_CONFIG
    rep = json.loads((out / "sweep.json").read_text())
    assert rep["config"]["lam"] is None
    assert [r["value"] for r in rep["sweep"]["results"]] == [0.3, 0.5]
    assert all(set(r) == {"value", "error"} and "--lambda" in r["error"]
               for r in rep["sweep"]["results"])
    assert "lambda 0.3: --lambda scales only" in capsys.readouterr().err


def test_sweep_of_a_user_f_refuses_the_values_below_its_slope(tmp_path, capsys):
    # lim f(t)/t = 1 must stay below V0 = gamma: gamma 1 is an error entry, 2 solves
    code, out = run_cli(["sweep", "--f", "t*exp(2*t^2)", "--sweep-param", "gamma",
                         "--sweep-values", "1,2"], tmp_path)
    assert code == EXIT_CONFIG
    results = json.loads((out / "sweep.json").read_text())["sweep"]["results"]
    assert results[0] == {"value": 1.0, "error": "standing hypothesis violated: "
                          "f(t)/t -> 1.0 as t -> 0, not below V0=1.0"}
    assert results[1]["value"] == 2.0 and results[1]["converged"] is True
    assert "gamma 1: standing hypothesis violated" in capsys.readouterr().err


def test_lambda_with_f_exits_3(tmp_path, capsys):
    code, out = run_cli(["solve", "--dim", "2", "--gamma", "1", "--f", "0.5*t*exp(t^2)",
                         "--lambda", "1.5"], tmp_path)
    assert code == EXIT_CONFIG
    assert not (out / "solve.json").exists()
    code, out = run_cli(["ratio", "--lambda", "0.5", "--f", "0.5*t*exp(2*t^2)"], tmp_path,
                        "ratio")
    assert code == EXIT_CONFIG
    assert not (out / "ratio.json").exists()
    err = capsys.readouterr().err
    assert err.count("--lambda scales only the built-in exp-critical nonlinearity") == 2


def test_reports_of_f_and_theta_echo_no_lambda(tmp_path):
    for sub, args in (("f", ["--f", "0.5*t*exp(2*t^2)"]), ("theta", ["--theta", "3"]),
                      ("builtin", [])):
        code, out = run_cli(["ratio", "--budget", "1"] + args, tmp_path, sub)
        assert code == EXIT_OK
        lam = json.loads((out / "ratio.json").read_text())["config"]["lam"]
        assert lam == (0.5 if sub == "builtin" else None)


def test_config_error_exit_code(tmp_path):
    code, _ = run_cli(["check", "--g", "t*+2", "--K", "1"], tmp_path)
    assert code == EXIT_CONFIG
    code, _ = run_cli(["gap", "--lambda", "0.3"], tmp_path)   # missing --V
    assert code == EXIT_CONFIG


def test_determinism_byte_identical(tmp_path):
    args = ["check", "--g", "t^4", "--K", "1"]
    _, out1 = run_cli(args, tmp_path, "a")
    _, out2 = run_cli(args, tmp_path, "b")
    assert (out1 / "check.json").read_bytes() == (out2 / "check.json").read_bytes()

    args = ["solve", "--gamma", "1", "--lambda", "0.5", "--grid", "20:512"]
    _, s1 = run_cli(args, tmp_path, "s1")
    _, s2 = run_cli(args, tmp_path, "s2")
    assert (s1 / "solve.json").read_bytes() == (s2 / "solve.json").read_bytes()
    assert (s1 / "solution.csv").read_bytes() == (s2 / "solution.csv").read_bytes()

    # in one process the second run reuses the cached Hankel transform; two
    # fresh interpreters each build it, on one BLAS thread
    g = bh.default_grid(4)
    src = tmp_path / "in.csv"
    save_field_csv(str(src), bh.RadialField(g, 0.8 * (g.nodes / 1.5) ** 2
                                            * np.exp(-((g.nodes / 1.5) ** 2))
                                            - 0.4 * np.exp(-((g.nodes / 0.9) ** 2))))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)),
               **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        res = subprocess.run([sys.executable, "-m", "biharm", "rearrange", "--input", str(src),
                              "--out-dir", str(out)], env=env, capture_output=True, text=True)
        assert res.returncode == EXIT_OK, res.stderr
    for name in ("rearrange.json", "rearrange_output.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_float_serialization_17g():
    text = dump_report({"x": 0.1 + 0.2})
    assert "0.30000000000000004" in text


# --- the default grids ---------------------------------------------------------------

@pytest.mark.parametrize("dim", ["4", "2"])
def test_default_grid_solve_converges(tmp_path, dim):
    # both dimensions polish on the caller's mesh and write that state; in 2-D its
    # residual meets 1e-5 because the origin weight makes the quadrature fourth order
    code, out = run_cli(["solve", "--dim", dim, "--gamma", "1", "--lambda", "0.5"],
                        tmp_path)
    assert code == EXIT_OK
    s = json.loads((out / "solve.json").read_text())["solve"]
    assert s["converged"]
    assert s["recovered_residual_weak"] <= 1e-5
    # r_max moves the level by about 4.6e-11 (4-D) and 6.7e-19 (2-D): no warning
    assert s["warnings"] == []


def test_default_solve_hands_off_and_its_field_rearranges_unflagged(tmp_path):
    # the default solve exits 0 from the handoff, a copy polished after 5 descent
    # steps; rearrange reads its solution.csv, and its report is not flagged
    code, out = run_cli(["solve"], tmp_path, "solve")
    assert code == EXIT_OK
    assert json.loads((out / "solve.json").read_text())["solve"]["iterations"] == 5
    code, out = run_cli(["rearrange", "--input", str(out / "solution.csv")], tmp_path)
    assert code == EXIT_OK
    r = json.loads((out / "rearrange.json").read_text())["rearrange"]
    assert len(r) == 11 and r["flagged"] is False


@pytest.mark.parametrize("dim, r_max, n", [("4", 20, 2048), ("2", 30, 2048)])
def test_truncation_warning_estimates_the_level_shift(tmp_path, dim, r_max, n):
    # theta 3 at gamma 0.05 decays slowly enough for r_max to move the level: the
    # estimate reads 2.8e-5 (4-D) and 8.3e-6 (2-D), 0.6 and 0.4 times the move to
    # 2 r_max at the same h, and the UNDER_RESOLVED hint names r_max
    args = ["solve", "--dim", dim, "--theta", "3", "--gamma", "0.05"]
    code, out = run_cli(args, tmp_path, "default")
    assert code == EXIT_NOCONV
    s = json.loads((out / "solve.json").read_text())["solve"]
    trunc = [w for w in s["warnings"] if w.startswith("BOUNDARY_TRUNCATION: r_max moves")]
    assert len(trunc) == 1 and trunc[0].endswith("(estimate, relative), above 1e-08")
    estimate = float(trunc[0].split("about ")[1].split()[0])
    assert [w for w in s["warnings"] if w.startswith("UNDER_RESOLVED")] == [
        f"UNDER_RESOLVED: Pohozaev defect {s['pohozaev_defect']:.2e} exceeds 3e-05; "
        "refine --grid: raise r_max"]
    _, wide = run_cli(args + ["--grid", f"{2 * r_max}:{2 * n - 1}"], tmp_path, "wide")
    level = json.loads((wide / "solve.json").read_text())["solve"]["objective"]
    move = abs(level / s["objective"] - 1.0)
    assert move / 3 < estimate < 3 * move


def test_fine_4d_solve_converges(tmp_path):
    # 20:8192 ends at residual_weak 4.8e-6 against the 1e-5 gate; a residual through
    # the A0 band instead of L(Lu) rounds to 1.2e-5 there and would exit 2
    code, out = run_cli(["solve", "--grid", "20:8192"], tmp_path)
    assert code == EXIT_OK
    s = json.loads((out / "solve.json").read_text())["solve"]
    assert s["converged"] and s["residual_weak"] <= 1e-5


@pytest.mark.parametrize("flag", ["--refine", "--rearrange-interval", "--seeds"])
def test_removed_flags_rejected(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", flag, "1"], tmp_path)
    assert exc.value.code == EXIT_CONFIG


def test_each_command_takes_only_its_flags():
    # 42 flag/command pairs; every command also takes --out-dir and -h
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(_COMMANDS)
    pairs = 0
    for name, (_, flags) in _COMMANDS.items():
        got = {s for a in subparsers[name]._actions for s in a.option_strings}
        assert got == {*flags, "--out-dir", "-h", "--help"}, name
        pairs += len(flags) + 1
    assert pairs == 42
    assert {name: len(flags) + 1 for name, (_, flags) in _COMMANDS.items()} == {
        "solve": 7, "rearrange": 3, "moser": 2, "ratio": 8, "check": 6, "gap": 7, "sweep": 9}
    # every RunConfig field but command and out_dir is set by some command's flags
    every = {f.name for f in fields(RunConfig)} - {"command", "out_dir"}
    assert set().union(*map(_read_fields, _COMMANDS)) == every


def test_config_file_option_is_gone(tmp_path, capsys):
    # flags are the one input path: --config is an unknown argument of every command
    cfg = tmp_path / "run.json"
    cfg.write_text("{}")
    for command in _COMMANDS:
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--config", str(cfg)], tmp_path)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_F_option_is_gone(tmp_path, capsys):
    # a user F is always int_0^t f, integrated by the run: --F is an unknown argument
    # of every command, even beside an f whose antiderivative it is
    for command, (_, flags) in _COMMANDS.items():
        f = ["--f", "0.5*t*exp(2*t^2)"] if "--f" in flags else []
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *f, "--F", "0.125*(exp(2*t^2)-1)"], tmp_path)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --F" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_expression_that_begins_with_minus_takes_the_equals_form(tmp_path, capsys):
    # argparse reads "-0.4*..." after --V as a flag; --V=EXPR passes it, as every
    # expression flag's help says
    for command, flag in (("gap", "--V"), ("check", "--f"), ("check", "--g")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())      # help wraps its lines
        assert f"write {flag}=EXPR if it begins with '-'" in text
    with pytest.raises(SystemExit) as exc:
        run_cli(["gap", "--V", "-0.4*exp(-t^2)+1.2", "--lambda", "0.3"], tmp_path)
    assert exc.value.code == EXIT_CONFIG
    assert "argument --V: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    code, out = run_cli(["gap", "--V=-0.4*exp(-t^2)+1.2", "--lambda", "0.3"], tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "gap.json").read_text())
    assert rep["config"]["potential_expr"] == "-0.4*exp(-t^2)+1.2"
    assert rep["gap"]["gap"] > 0
    assert isinstance(rep["gap"]["status_infty"]["pohozaev_defect"], float)


def _parser_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["--bogus", "solve"], ["-h", "solve"],
    *([name, *rest] for name in _COMMANDS
      for rest in (["--help"], ["--bogus", "1"], ["extra"], ["--config"]))])
def test_main_builds_only_the_parser_of_the_named_command(monkeypatch, capsys, argv):
    # a first argument that names a command gets only that subparser; the usage,
    # help and error text is the full parser's, byte for byte
    from biharm import cli
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    full = _parser_text(build_parser().parse_args, argv, capsys)
    assert _parser_text(cli.main, argv, capsys) == full
    assert built == [argv[0] if argv and argv[0] in _COMMANDS else None]


_FREEZE_PROBE = """
import gc, sys
from biharm.cli import main
calls, freeze = [], gc.freeze
gc.freeze = lambda: calls.append(1) or freeze()
counts = [gc.get_freeze_count()]
for _ in range(2):
    main(["check", "--out-dir", sys.argv[1]])
    counts.append(gc.get_freeze_count())
print(len(calls), *counts)
"""


def test_main_freezes_the_import_heap_once(tmp_path):
    # the first call freezes what is alive, so that no later collection and no
    # exit-time sweep traverses the import heap; a second call freezes nothing
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    out = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env).stdout
    calls, before, first, second = map(int, out.split())
    assert calls == 1
    assert before == 0 < first
    assert second == first


@pytest.mark.parametrize("args, flag", [
    (["solve", "--V", "1-0.4*exp(-t^2)"], "--V"), (["sweep", "--L", "1"], "--L"),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--gamma", "1"], "--gamma"),
    (["ratio", "--grid", "20:512"], "--grid"), (["ratio", "--V", "1"], "--V"),
    (["check", "--max-iters", "5"], "--max-iters"), (["moser", "--dim", "4"], "--dim"),
    (["rearrange", "--lambda", "0.5"], "--lambda"), (["solve", "--grid"], "--grid"),
    (["solve", "--no-such-flag"], "--no-such-flag"), (["solve", "--lam", "0.5"], "--lam"),
    (["solve", "--tol", "1e-8"], "--tol"), (["solve", "--max-iters", "5"], "--max-iters"),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--tol", "1e-8"], "--tol"),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--max-iters", "5"], "--max-iters"),
    (["sweep", "--sweep-param", "lambda", "--sweep-values", "0.5", "--tol", "1e-8"], "--tol"),
    (["sweep", "--sweep-param", "lambda", "--sweep-values", "0.5", "--max-iters", "5"],
     "--max-iters"),
    # read only to validate: the probes build no potential, and only ratio reads alpha0
    (["ratio", "--gamma", "1"], "--gamma"), (["check", "--gamma", "1"], "--gamma"),
    (["solve", "--alpha0", "2"], "--alpha0"), (["check", "--alpha0", "2"], "--alpha0"),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--alpha0", "2"], "--alpha0"),
    (["sweep", "--sweep-param", "lambda", "--sweep-values", "0.5", "--alpha0", "2"], "--alpha0"),
    # lambda cancels from every condition check reports, and K scales out of moser
    (["check", "--lambda", "nan"], "--lambda"), (["moser", "--K", "-1"], "--K"),
    (["check", "--lambda", "0.5"], "--lambda"),
    (["moser", "--b-values", "3,5", "--K", "1"], "--K"),
])
def test_usage_errors_exit_3_without_report(tmp_path, capsys, args, flag):
    # a flag the command does not read, a missing value, an unknown or abbreviated
    # flag; no command takes --tol or --max-iters
    with pytest.raises(SystemExit) as exc:
        run_cli(args, tmp_path)
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each command's args, the report keys it compares, and the lambda of the built-in run
_PARITY = {"solve": (["solve"], ["objective"], "0.5"),
           "gap": (["gap", "--V", "1-0.4*exp(-t^2)"], ["m_V", "m_infty"], "0.3"),
           "ratio": (["ratio"], ["ratio_lower_bound", "L"], "0.5")}


@pytest.mark.parametrize("dim", [4, 2])
@pytest.mark.parametrize("command", list(_PARITY))
def test_user_f_matches_the_builtin_run(tmp_path, command, dim):
    # F integrated from the parsed f reproduces the closed-form F's results; the 4-D
    # ratio declares the built-in rate 2, which sets its default L
    args, keys, lam = _PARITY[command]
    args = args + ["--dim", str(dim)]
    rate = {4: 2, 2: 1}[dim]
    user = ["--f", f"{lam}*t*exp({rate}*t^2)"]
    if command == "ratio" and dim == 4:
        user += ["--alpha0", "2"]
    code, out = run_cli(args + user, tmp_path, "user")
    code_cf, out_cf = run_cli(args + ["--lambda", lam], tmp_path, "closed")
    assert code == code_cf == EXIT_OK
    got, want = (json.loads((d / f"{command}.json").read_text()) for d in (out, out_cf))
    for key in keys:
        assert got[command][key] == pytest.approx(want[command][key], rel=1e-10), key
    if command == "ratio":
        assert got["ratio"]["verdict"] == want["ratio"]["verdict"]


def test_module_form_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(bh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-m", "biharm", "check", "--theta", "1.0",
                          "--out-dir", str(tmp_path)], env=env, capture_output=True)
    assert res.returncode == EXIT_OK
    assert json.loads((tmp_path / "check.json").read_text())["conditions"]["ar_holds"]


# --- bad input exits 3 with a message ----------------------------------------------

def test_nan_field_csv_rejected(tmp_path, capsys):
    g = bh.build_grid(20.0, 64, 4)
    vals = np.exp(-g.nodes**2)
    vals[5] = np.nan
    src = tmp_path / "nan.csv"
    save_field_csv(str(src), bh.RadialField(g, vals))
    with pytest.raises(ValueError, match="non-finite"):
        load_field_csv(str(src), 4)
    code, out = run_cli(["rearrange", "--input", str(src)], tmp_path)
    assert code == EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "rearrange_output.csv").exists()


@pytest.mark.parametrize("amplitude", [40.0, 1e200])
def test_rearrange_refuses_a_field_beyond_the_overflow_cap(tmp_path, capsys, amplitude):
    # exp(a u^2) overflows past the cap: the exponential-mass check would read inf
    g = bh.default_grid(4)
    src = tmp_path / "big.csv"
    save_field_csv(str(src), bh.RadialField(g, amplitude * np.exp(-g.nodes**2)))
    code, out = run_cli(["rearrange", "--input", str(src)], tmp_path)
    assert code == EXIT_CONFIG
    assert "exceeds overflow cap 6.0" in capsys.readouterr().err
    assert not (out / "rearrange.json").exists()
    assert not (out / "rearrange_output.csv").exists()


@pytest.mark.parametrize("amplitude, center, peak", [(3.0, 8.0, "134.777"),
                                                     (5.9, 3.0, "48.7847")])
def test_rearrange_refuses_a_rearranged_field_beyond_the_overflow_cap(
        tmp_path, capsys, amplitude, center, peak):
    # a ring under the cap rearranges to a peak far above it, where the output's
    # exponential mass would read inf, and 0 * inf at the zero-weight origin NaN
    g = bh.default_grid(4)
    src = tmp_path / "ring.csv"
    save_field_csv(str(src), bh.RadialField(g, amplitude * np.exp(-(g.nodes - center) ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["rearrange", "--input", str(src)], tmp_path)
    assert code == EXIT_CONFIG
    assert f"amplitude {peak} exceeds overflow cap 6.0" in capsys.readouterr().err
    assert not (out / "rearrange.json").exists()
    assert not (out / "rearrange_output.csv").exists()


@pytest.mark.parametrize("expr", ["1", "0", "2.5", "t*0", "1/t", "0/0", "exp(1000)"])
@pytest.mark.parametrize("args", [["check", "--f"], ["check", "--K", "1", "--g"],
                                  ["ratio", "--budget", "4", "--f"]], ids=" ".join)
def test_a_degenerate_expression_is_a_result_or_a_refusal(tmp_path, args, expr):
    # constants, zeros and NaNs give a report or exit 3, never an uncaught error
    code, out = run_cli(args + [expr], tmp_path)
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert (out / f"{args[0]}.json").exists() == (code == EXIT_OK)


def test_check_of_a_constant_f_reports_its_conditions(tmp_path):
    # f = 1, F = t: t f / F = 1 < 2, and F / f = t peaks at the last probe point, 5
    code, out = run_cli(["check", "--f", "1"], tmp_path)
    assert code == EXIT_OK
    c = json.loads((out / "check.json").read_text())["conditions"]
    assert c["ar_holds"] is False and c["upper_bound_holds"] is False
    assert c["M0"] == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("text", ["", "r,u\n", "r,u\n0,1,2\n"])
def test_malformed_field_csv_rejected(tmp_path, text):
    src = tmp_path / "bad.csv"
    src.write_text(text)
    with pytest.raises(ValueError):
        load_field_csv(str(src), 4)
    code, _ = run_cli(["rearrange", "--input", str(src)], tmp_path)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("args", [
    ["solve", "--grid", "20:512"],
    ["sweep", "--sweep-param", "gamma", "--sweep-values", "1.1", "--grid", "20:512"],
    ["gap", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.3", "--grid", "20:512"],
    ["ratio", "--budget", "4"], ["check", "--g", "t^4"], ["moser", "--b-values", "3,5"],
    ["rearrange", "--input", None]], ids=lambda args: args[0])
def test_every_report_echoes_the_fields_its_command_reads(tmp_path, args):
    # config holds the command and the fields of its flags, the defaults it
    # read included; passed back as --flag=value arguments it reproduces the report
    args = [a if a is not None else _two_bump_csv(tmp_path) for a in args]
    code, out = run_cli(args, tmp_path, "flags")
    report = (out / f"{args[0]}.json").read_bytes()
    echo = json.loads(report)["config"]
    assert set(echo) == {"command", *_read_fields(args[0])}
    code_echo, rerun = run_cli(echo_argv(echo), tmp_path, "echo")
    assert code_echo == code
    assert (rerun / f"{args[0]}.json").read_bytes() == report


_STATUS_KEYS = {"converged", "residual_weak", "iterations", "pohozaev_defect", "warnings"}
_SUMMARY_KEYS = {"objective", "pohozaev_defect", "constraint_residual", "converged", "warnings"}


# each command's report sections, keyed by their path from the report's root
_SECTION_KEYS = [
    (["solve", "--grid", "20:512"],
     {"solve": _SUMMARY_KEYS | {"residual_weak", "iterations", "recovered_residual_weak",
                                "trace"}}),
    (["sweep", "--sweep-param", "gamma", "--sweep-values", "1.1", "--grid", "20:512"],
     {"sweep": {"param", "results"}, "sweep.results": {"value"} | _SUMMARY_KEYS}),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.3", "--grid", "20:512"],
     {"gap": {"m_V", "m_infty", "gap", "both_positive", "status_V", "status_infty",
              "comparison_level"},
      "gap.status_V": _STATUS_KEYS, "gap.status_infty": _STATUS_KEYS}),
    (["ratio", "--budget", "4"],
     {"ratio": {"L", "ratio_lower_bound", "argmax_family_params", "threshold_R", "verdict",
                "trace"},
      "ratio.trace": {"gaussian", "moser", "moser_nodes", "evaluations"},
      "ratio.argmax_family_params": {"family", "sigma", "amplitude"}}),
    (["check", "--g", "t^4"],
     {"conditions": {"worst_ratio", "mu", "ar_holds", "M0", "t0", "upper_bound_holds",
                     "alpha0_estimate", "critical"},
      "growth": {"K", "limsup_infinity", "limsup_origin", "bounded_verdict",
                 "compact_verdict", "infinity_boundary", "exp_order_estimate"}}),
    (["moser", "--b-values", "3,5"],
     {"moser": {"rows", "fitted_excess_exponent"},
      "moser.rows": {"b", "l2_sq", "lap_l2_sq", "excess", "n_points", "method"}}),
    (["rearrange", "--input", None],
     {"rearrange": {"l2_in", "l2_out", "quad_moment_in", "quad_moment_out", "exp_mass_in",
                    "exp_mass_out", "l2_ok", "quad_ok", "exp_ok", "resolved", "flagged"}})]


@pytest.mark.parametrize("args, keys", _SECTION_KEYS, ids=[a[0] for a, _ in _SECTION_KEYS])
def test_every_section_keeps_its_keys(tmp_path, args, keys):
    # each section (check writes two) and each dict nested in it has exactly these
    # keys; a list of dicts (sweep.results, moser.rows) pins the keys of every entry
    args = [a if a is not None else _two_bump_csv(tmp_path) for a in args]
    _, out = run_cli(args, tmp_path)
    report = json.loads((out / f"{args[0]}.json").read_text())
    assert set(report) == {"version", "config", *(path.split(".")[0] for path in keys)}
    for path, want in keys.items():
        value = report
        for name in path.split("."):
            value = value[name]
        for entry in value if isinstance(value, list) else [value]:
            assert set(entry) == want, path


def test_library_run_takes_the_grid_of_its_dimension(tmp_path):
    # a RunConfig built in code solves on the grid of its dimension, as --dim
    # without --grid does
    rc = RunConfig(command="solve", dimension=2, gamma=1.1, lam=0.5,
                   out_dir=str(tmp_path / "library"))
    assert (rc.grid_r_max, rc.grid_n) == (None, None)
    assert run(rc) == EXIT_OK
    code, flags = run_cli(["solve", "--dim", "2", "--gamma", "1.1", "--lambda", "0.5"],
                          tmp_path, "flags")
    assert code == EXIT_OK
    got, want = ((tmp_path / d / "solve.json").read_text() for d in ("library", "flags"))
    assert got == want
    assert json.loads(want)["config"]["grid_r_max"] == 30.0
    rc = with_default_grid(RunConfig(command="solve", dimension=2, grid_n=512))
    assert (rc.grid_r_max, rc.grid_n) == (30.0, 512)
    rc = with_default_grid(RunConfig(command="solve", grid_r_max=25.0))
    assert (rc.grid_r_max, rc.grid_n) == (25.0, 2048)


def test_dim_flag_sets_the_grid():
    # --dim without --grid leaves the grid to the dimension; --grid keeps its grid
    rc = config_from_args(build_parser().parse_args(["solve", "--dim", "2"]))
    assert (rc.grid_r_max, rc.grid_n) == (None, None)
    rc = with_default_grid(rc)
    assert (rc.dimension, rc.grid_r_max, rc.grid_n) == (2, 30.0, 2048)
    rc = with_default_grid(config_from_args(build_parser().parse_args(["solve", "--dim", "4"])))
    assert (rc.grid_r_max, rc.grid_n) == (20.0, 2048)
    rc = config_from_args(build_parser().parse_args(["solve", "--dim", "2", "--grid", "25:1024"]))
    assert (rc.grid_r_max, rc.grid_n) == (25.0, 1024)
    rc = with_default_grid(rc)
    assert (rc.grid_r_max, rc.grid_n) == (25.0, 1024)


def test_sweep_jobs_option_is_gone(tmp_path):
    # sweeps run their values in turn
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--jobs", "2"], tmp_path)
    assert exc.value.code == EXIT_CONFIG


# Runs each command in one process.  For the import alone, then after each
# command, it prints the exit code, the scipy modules loaded so far, and the
# biharm modules loaded so far together with numpy.polynomial and numpy.ma if
# they are loaded.
_PROBE = """
import json, os, sys
from biharm.cli import main
def loaded():
    mods = sorted(sys.modules)
    scipy = ",".join(m for m in mods if m.split(".")[0] == "scipy") or "-"
    own = ",".join(m for m in mods
                   if m.startswith("biharm.") or m in ("numpy.polynomial", "numpy.ma"))
    return scipy + " " + own
print("import", loaded())
for i, argv in enumerate(json.loads(sys.argv[2])):
    rc = main(argv + ["--out-dir", os.path.join(sys.argv[1], str(i))])
    print(rc, loaded())
"""


def _run_probe(tmp_path, commands, prelude=""):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    res = subprocess.run([sys.executable, "-c", prelude + _PROBE, str(tmp_path),
                          json.dumps(commands)], capture_output=True, text=True, env=env)
    for i, argv in enumerate(commands):
        assert (tmp_path / str(i) / f"{argv[0]}.json").exists(), res.stderr
    return [line.split() for line in res.stdout.splitlines()], res.stderr


def _assert_no_scipy(tmp_path, commands):
    # operators are stencil rows, factorizations are numpy block cyclic
    # reduction and the Hankel transform evaluates its Bessel kernel in numpy
    lines, err = _run_probe(tmp_path, commands)
    assert [line[:2] for line in lines] == [["import", "-"]] + [["0", "-"]] * len(commands), err


def _two_bump_csv(tmp_path):
    grid = bh.build_grid(20.0, 512, 4)
    path = tmp_path / "two_bump.csv"
    save_field_csv(str(path), bh.RadialField(grid, 0.8 * (grid.nodes / 1.5) ** 2
                                             * np.exp(-((grid.nodes / 1.5) ** 2))
                                             - 0.4 * np.exp(-((grid.nodes / 0.9) ** 2))))
    return str(path)


_GAP_2D = ["gap", "--dim", "2", "--V", "1.1-0.4*exp(-(t/1.5)^2)", "--lambda", "0.4",
           "--grid", "30:512"]


def test_gap_does_not_import_scipy_optimize(tmp_path):
    # the projections find their roots in plain numpy; no scipy module loads
    _assert_no_scipy(tmp_path, [_GAP_2D])


def test_solve_does_not_import_scipy_interpolate(tmp_path):
    # the solve runs in plain numpy; no scipy module loads
    _assert_no_scipy(tmp_path, [["solve", "--dim", "4", "--grid", "20:512"]])


def test_commands_do_not_import_scipy(tmp_path):
    _assert_no_scipy(tmp_path, [["ratio", "--lambda", "0.5"],
                                ["check", "--g", "t^4", "--K", "1"],
                                ["moser", "--b-values", "3,7.5"],
                                ["rearrange", "--input", _two_bump_csv(tmp_path)]])


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # scipy is a test dependency only: with every scipy import failing, each
    # command still exits 0 and writes its report
    commands = [["solve", "--dim", "4", "--grid", "20:512"],
                _GAP_2D,
                ["ratio", "--lambda", "0.5"],
                ["check", "--g", "t^4", "--K", "1"],
                ["moser", "--b-values", "3,7.5"],
                ["rearrange", "--input", _two_bump_csv(tmp_path)]]
    lines, err = _run_probe(tmp_path, commands,
                            prelude='import sys\nsys.modules["scipy"] = None\n')
    assert [line[0] for line in lines] == ["import"] + ["0"] * len(commands), err


@pytest.mark.parametrize("argv, absent", [
    (["solve", "--dim", "4", "--grid", "20:512"],
     {"functionals", "sequences", "rearrangement", "diagnostics", "numpy.polynomial"}),
    (_GAP_2D, {"functionals", "sequences", "rearrangement", "diagnostics", "numpy.polynomial"}),
    (["sweep", "--sweep-param", "gamma", "--sweep-values", "1.1"],
     {"functionals", "sequences", "rearrangement", "diagnostics", "numpy.polynomial"}),
    (["check", "--f", "0.5*t*exp(2*t^2)"], {"solvers", "functionals", "numpy.polynomial"}),
    (["check", "--g", "t^4"], {"solvers", "functionals", "sequences", "numpy.polynomial"}),
    (["rearrange", "--input", None], {"solvers", "sequences", "numpy.ma"}),
    (["moser", "--b-values", "3,5,7.5"], {"solvers", "functionals", "numpy.ma"}),
    (["ratio", "--f", "0.5*t*exp(2*t^2)", "--budget", "1"],
     {"solvers", "sequences", "numpy.polynomial"}),
], ids=["solve", "gap", "sweep", "check_f", "check_g", "rearrange", "moser", "ratio_f"])
def test_commands_load_only_their_layers(tmp_path, argv, absent):
    # each handler imports its own layer (the solvers hold the functionals, so
    # no solve loads the ratio search), and the ratio search loads the Moser
    # sums only when a log-profile runs; the closed-form Moser sums (b = 7.5)
    # are the only user of numpy.polynomial, and no command loads numpy.ma
    argv = [a if a is not None else _two_bump_csv(tmp_path) for a in argv]
    lines, err = _run_probe(tmp_path, [argv])
    assert lines[-1][0] == "0", err
    loaded = {m.removeprefix("biharm.") for m in lines[-1][2].split(",")}
    assert "cli" in loaded and not loaded & absent, loaded


def test_import_loads_no_numpy_and_resolves_every_name():
    # the package resolves its names and submodules on first access
    script = ("import sys, biharm as bh\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'biharm')))\n"
              "print(bh.sequences.__name__, bh.cli.__name__, hasattr(bh, 'no_such_name'),\n"
              "      hasattr(bh, 'SolverOptions'))\n"
              "print(all(getattr(bh, name) is not None for name in bh.__all__), len(bh.__all__))\n"
              "print(set(bh.__all__) <= set(dir(bh)))\n"
              "print(any(hasattr(bh, name) for name in ('ConditionReport', 'GapReport',\n"
              "                                         'RearrangementReport')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert res.stdout.splitlines() == ["['biharm']", "biharm.sequences biharm.cli False False",
                                       "True 39", "True", "False"], res.stderr


def test_gap_gates_lambda_only_for_the_exp_critical_family(tmp_path):
    # a user f takes no lambda, so V0 = 0.35 gates nothing
    code, out = run_cli(["gap", "--V", "0.45-0.1*exp(-t^2)", "--f", "0.2*t*exp(2*t^2)"],
                        tmp_path)
    assert code == EXIT_OK
    rep = json.loads((out / "gap.json").read_text())["gap"]
    assert rep["m_V"] == pytest.approx(53.33495, abs=1e-5)
    assert rep["m_infty"] == pytest.approx(53.86246, abs=1e-5)


def test_long_sum_runs(tmp_path):
    # a 500-term sum is evaluated on a stack, not by recursion
    code, out = run_cli(["check", "--f", "+".join(["t"] * 500)], tmp_path)
    assert code == EXIT_OK
    assert (out / "check.json").exists()


@pytest.mark.parametrize("lam", ["0.1", "0.15"])
def test_gap_exits_noconv_when_the_comparison_level_undercuts_m_V(tmp_path, capsys, lam):
    # the projected limit minimizer lies on the trapped Nehari manifold, so its
    # level bounds m_V from above; here the trapped solve ends above it
    code, out = run_cli(["gap", "--dim", "2", "--V", "1-0.4*exp(-t^2)", "--lambda", lam],
                        tmp_path)
    assert code == EXIT_NOCONV
    gp = json.loads((out / "gap.json").read_text())["gap"]
    assert gp["comparison_level"] < gp["m_V"]
    assert "comparison level" in capsys.readouterr().err


def test_gap_exits_noconv_when_a_sub_solve_stalls(tmp_path, capsys):
    # on 16,384 nodes both Nehari solves miss the gate (residual_weak 1.6e-5, 1.2e-5)
    code, out = run_cli(["gap", "--dim", "4", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.3",
                         "--grid", "20:16384"], tmp_path)
    assert code == EXIT_NOCONV
    gp = json.loads((out / "gap.json").read_text())["gap"]
    for key in ("status_V", "status_infty"):
        assert gp[key]["converged"] is False
        assert any("exceeds the convergence gate 1e-05" in w for w in gp[key]["warnings"])
    err = capsys.readouterr().err
    assert "trapped Nehari solve did not converge" in err
    assert "limit Nehari solve did not converge" in err


def test_constant_potential_gap_is_zero(tmp_path):
    # a constant expression is one value for every node; V equals its own limit
    code, out = run_cli(["gap", "--V", "1.2", "--lambda", "0.3"], tmp_path)
    assert code == EXIT_OK
    assert json.loads((out / "gap.json").read_text())["gap"]["gap"] == 0.0


def test_solve_whose_projected_state_misses_the_gate_exits_noconv(tmp_path):
    # Newton's own residual meets 1e-5 here; the projected state's is 4.8e-2
    code, out = run_cli(["solve", "--lambda", "0.1"], tmp_path)
    assert code == EXIT_NOCONV
    s = json.loads((out / "solve.json").read_text())["solve"]
    assert s["converged"] is False and s["residual_weak"] > 1e-2
    assert f"residual_weak {s['residual_weak']:.2e} exceeds the convergence gate 1e-05" \
        in s["warnings"]


@pytest.mark.parametrize("gamma, lam, level", [
    ("1", "0.8", 21.8572203731), ("1", "0.9", 11.2618015673), ("0.55", "0.5", 10.2647951598)])
def test_solve_converges_as_mu_approaches_one(tmp_path, gamma, lam, level):
    # the Nehari root: residual_weak <= 1.4e-7 and |pohozaev_defect| <= 1.5e-5 here
    code, out = run_cli(["solve", "--gamma", gamma, "--lambda", lam], tmp_path)
    assert code == EXIT_OK
    s = json.loads((out / "solve.json").read_text())["solve"]
    assert s["converged"] and abs(s["pohozaev_defect"]) <= 3e-5
    assert s["objective"] == pytest.approx(level, rel=1e-9)


@pytest.mark.parametrize("lam", ["0.1", "0.15", "0.2"])
def test_2d_solve_off_its_level_exits_under_resolved(tmp_path, lam):
    # Newton converges (residual_weak <= 1e-13), but 2 to 32 % below the
    # 16,384-node level; the Pohozaev defect, 2.0e-4 to 0.13, says so
    code, out = run_cli(["solve", "--dim", "2", "--lambda", lam], tmp_path)
    assert code == EXIT_NOCONV
    s = json.loads((out / "solve.json").read_text())["solve"]
    assert s["converged"] is True and abs(s["pohozaev_defect"]) > 3e-5
    # its field has vanished long before r_max, so the hint names the mesh width
    assert s["warnings"] == [f"UNDER_RESOLVED: Pohozaev defect {s['pohozaev_defect']:.2e} "
                             "exceeds 3e-05; refine --grid: raise n"]


def test_accepted_2d_levels_do_not_increase_with_lambda(tmp_path):
    # I_lambda falls pointwise as lambda grows, so the ground level cannot rise;
    # on the default grid the unresolved spikes at lambda <= 0.15 break this, and
    # they, like lambda 0.2, exit 2
    levels = []
    for lam in ("0.1", "0.15", "0.2", "0.25", "0.3"):
        code, out = run_cli(["solve", "--dim", "2", "--lambda", lam], tmp_path, lam)
        if code == EXIT_OK:
            levels.append(json.loads((out / "solve.json").read_text())["solve"]["objective"])
    assert len(levels) >= 2
    assert all(a >= b for a, b in zip(levels, levels[1:])), levels


def test_sweep_exits_noconv_on_an_under_resolved_value(tmp_path):
    code, out = run_cli(["sweep", "--dim", "2", "--sweep-param", "lambda",
                         "--sweep-values", "0.2,0.5"], tmp_path)
    assert code == EXIT_NOCONV
    rows = json.loads((out / "sweep.json").read_text())["sweep"]["results"]
    assert [r["converged"] for r in rows] == [True, True]
    assert abs(rows[0]["pohozaev_defect"]) > 3e-5 >= abs(rows[1]["pohozaev_defect"])
    assert [[w[:14] for w in r["warnings"]] for r in rows] == [["UNDER_RESOLVED"], []]


def test_coarse_grids_miss_the_gate_and_still_write_their_reports(tmp_path, capsys):
    # a defect of the coarse 4-D grids: the default grid meets 1e-5 on these problems
    code, out = run_cli(["gap", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.3",
                         "--grid", "20:1024"], tmp_path, "gap")
    assert code == EXIT_NOCONV
    gp = json.loads((out / "gap.json").read_text())["gap"]
    for key in ("status_V", "status_infty"):
        assert gp[key]["converged"] is False and 1e-5 < gp[key]["residual_weak"] < 1e-4
    assert "trapped Nehari solve did not converge" in capsys.readouterr().err
    code, out = run_cli(["sweep", "--sweep-param", "lambda", "--sweep-values", "0.4,0.6",
                         "--grid", "20:512"], tmp_path, "sweep")
    assert code == EXIT_NOCONV
    results = json.loads((out / "sweep.json").read_text())["sweep"]["results"]
    assert [r["converged"] for r in results] == [False, True]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_ratio_budget_below_one_exits_config(tmp_path, capsys, budget):
    code, out = run_cli(["ratio", f"--budget={budget}"], tmp_path)
    assert code == EXIT_CONFIG
    assert "budget must be at least 1" in capsys.readouterr().err
    assert not (out / "ratio.json").exists()


def test_rearrange_rejects_grids_above_the_transform_limit(tmp_path, capsys,
                                                          fresh_transforms):
    from biharm.rearrangement import MAX_TRANSFORM_NODES
    g = bh.build_grid(20.0, MAX_TRANSFORM_NODES + 1, 4)
    src = tmp_path / "big.csv"
    save_field_csv(str(src), bh.RadialField(g, np.exp(-g.nodes**2)))
    code, out = run_cli(["rearrange", "--input", str(src)], tmp_path)
    assert code == EXIT_CONFIG
    assert "at most 4096 nodes" in capsys.readouterr().err
    assert fresh_transforms.cache_info().misses == 0
    assert not (out / "rearrange.json").exists()


@pytest.mark.parametrize("args, artifact", [
    (["solve"], "solve.json"),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.3"], "gap.json")])
def test_failed_descent_factorization_exits_noconv(tmp_path, capsys, monkeypatch,
                                                   args, artifact):
    from biharm import solvers

    def fail(band):
        raise RuntimeError("banded factorization: singular block")

    monkeypatch.setattr(solvers.spla, "splu", fail)
    code, out = run_cli(args, tmp_path)
    assert code == EXIT_NOCONV
    assert "error: the descent operator could not be factored" in capsys.readouterr().err
    assert not (out / artifact).exists()


@pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
def test_qr_failure_exits_noconv(tmp_path, capsys, monkeypatch, fresh_transforms, routine):
    def fail(*args):
        return {"info": -4}                 # LAPACK: the fourth argument was illegal

    monkeypatch.setattr(np.linalg.lapack_lite, routine, fail)
    g = bh.build_grid(20.0, 512, 4)
    src = tmp_path / "in.csv"
    save_field_csv(str(src), bh.RadialField(g, np.exp(-g.nodes**2)))
    code, out = run_cli(["rearrange", "--input", str(src)], tmp_path)
    assert code == EXIT_NOCONV
    assert f"Hankel transform: QR failed (LAPACK {routine} info -4)" in capsys.readouterr().err
    assert not (out / "rearrange.json").exists()


def test_eigensolver_failure_exits_noconv(tmp_path, capsys, monkeypatch, fresh_transforms):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    g = bh.build_grid(20.0, 512, 4)
    src = tmp_path / "in.csv"
    save_field_csv(str(src), bh.RadialField(g, np.exp(-g.nodes**2)))
    code, out = run_cli(["rearrange", "--input", str(src)], tmp_path)
    assert code == EXIT_NOCONV
    assert "eigensolver failed" in capsys.readouterr().err
    assert not (out / "rearrange.json").exists()


@pytest.mark.parametrize("args", [["--b-values", "nan"], ["--b-values", "3,inf"],
                                  ["--b-values", "0,3"], ["--b-values=-3,5"],
                                  ["--b-values", "3,5,9"], ["--b-values", "0.02"],
                                  ["--b-values", "3,0.02"]])
def test_moser_bad_input_exits_3_without_report(tmp_path, args):
    code, out = run_cli(["moser"] + args, tmp_path)
    assert code == EXIT_CONFIG
    assert not (out / "moser.json").exists()


_THETA_AND_F = "--theta names the exact-growth family and --f a user nonlinearity"


@pytest.mark.parametrize("args, message", [
    (["check", "--g", "t^4", "--K", "nan"], "K must be positive and finite"),
    (["check", "--g", "t^4", "--K", "inf"], "K must be positive and finite"),
    (["ratio", "--L", "nan"], "L must be positive and finite"),
    (["ratio", "--L", "inf"], "L must be positive and finite"),
    (["sweep", "--sweep-param", "lambda"], "--sweep-values"),
    (["rearrange"], "rearrange requires --input"),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.7"],
     "f(t)/t -> 0.7 as t -> 0, not below V0=0.6"),
    (["solve", "--dim", "3"], "dimension must be 2 or 4"),
    (["solve", "--gamma", "inf"], "gamma must be positive and finite"),
    (["check", "--theta", "nan"], "theta must be positive and finite"),
    (["ratio", "--theta", "nan"], "theta must be positive and finite"),
    (["ratio", "--alpha0", "0", "--f", "t*exp(t^2)"], "alpha0 must be positive and finite"),
    (["solve", "--f", "0*t"], "no sign change before the overflow cap"),
    (["gap", "--V", "1.2-0.4*exp(-t^2)", "--f", "0*t"], "no sign change before the overflow cap"),
    (["solve", "--grid", "20"], "--grid takes r_max:n_points"),
    (["solve", "--grid", "20:abc"], "--grid takes r_max:n_points"),
    (["solve", "--dim", "abc"], "--dim takes an integer, got 'abc'"),
    (["ratio", "--budget", "1.5"], "--budget takes an integer, got '1.5'"),
    (["moser", "--b-values", "abc"], "--b-values takes comma-separated numbers"),
    (["sweep", "--sweep-param", "lambda", "--sweep-values", "0.3,x"],
     "--sweep-values takes comma-separated numbers, got '0.3,x'"),
    (["check", "--f", "(" * 250 + "t" + ")" * 250], "expression nested too deeply"),
    (["moser", "--b-values", "3,3"], "b values must be distinct, got 3.0,3.0"),
    (["gap", "--V", "1.2-0.4*exp(-t^2)", "--f", "0*t", "--lambda", "0.3"],
     "--lambda scales only the built-in exp-critical nonlinearity, not --f or --theta"),
    # no rate these commands read bounds f: t f(t) is measured at the cap
    (["check", "--f", "0.5*t*exp(30*t^2)"], "overflows at the overflow cap 6.0"),
    (["ratio", "--f", "0.5*t*exp(30*t^2)"], "overflows at the overflow cap 6.0"),
    (["solve", "--f", "0.5*t*exp(30*t^2)"], "overflows at the overflow cap 6.0"),
    # alpha0 is the rate of a user f; the built-in and theta families carry their own
    (["ratio", "--alpha0", "5", "--budget", "4"], "--alpha0 5 is the rate of a user --f"),
    (["ratio", "--theta", "1", "--alpha0", "2"], "--alpha0 2 is the rate of a user --f"),
    # a non-finite lambda, or an f that is NaN at the cap, is refused before any solve
    (["solve", "--lambda", "nan"], "lam must be positive and finite, got nan"),
    (["solve", "--f", "t^3*log(t)"], "overflows at the overflow cap 6.0 or is NaN there"),
    (["gap", "--V", "1.2", "--lambda", "nan"], "lam must be positive and finite, got nan"),
    (["ratio", "--lambda", "nan", "--budget", "4"], "lam must be positive and finite, got nan"),
    (["ratio", "--dim", "2", "--lambda", "nan"], "lam must be positive and finite, got nan"),
    # an f that is NaN inside the cap, here at t = 0, is refused as well
    (["check", "--f", "t*exp(2*t^2)+0/t"], "is not finite inside the overflow cap 6.0"),
    (["ratio", "--f", "t*exp(2*t^2)+0/t"], "is not finite inside the overflow cap 6.0"),
    (["solve", "--f", "t*exp(2*t^2)+0/t"], "is not finite inside the overflow cap 6.0"),
    # no swept gamma enters the nonlinearity: a bad one is refused before any value
    (["sweep", "--theta", "nan", "--sweep-param", "gamma", "--sweep-values", "1,1.2"],
     "theta must be positive and finite, got nan"),
    (["sweep", "--lambda", "nan", "--sweep-param", "gamma", "--sweep-values", "1,1.2"],
     "lam must be positive and finite, got nan"),
    # the presence of --alpha0 is refused, whatever its value: 1 is a user f's default
    (["ratio", "--alpha0", "1", "--budget", "4"], "--alpha0 1 is the rate of a user --f"),
    # --theta and --f name two nonlinearities: every command that builds one refuses both
    (["solve", "--theta", "2", "--f", "t", "--grid", "20:256"], _THETA_AND_F),
    (["sweep", "--theta", "2", "--f", "t", "--sweep-param", "gamma", "--sweep-values", "1,1.2"],
     _THETA_AND_F),
    (["gap", "--V", "1.2-0.4*exp(-t^2)", "--theta", "2", "--f", "t"], _THETA_AND_F),
    (["ratio", "--theta", "3", "--f", "t*exp(t^2)", "--budget", "2"], _THETA_AND_F),
    (["check", "--theta", "3", "--f", "t*exp(t^2)"], _THETA_AND_F),
    # K scales only the growth class of --g: its presence without --g is refused
    (["check", "--K", "0"], "--K 0 scales the growth class of --g"),
    (["check", "--K", "1"], "--K 1 scales the growth class of --g"),
    # the standing hypothesis lim f(t)/t < V0 holds for every f, however it is spelled
    (["solve", "--f", "t*exp(2*t^2)"], "f(t)/t -> 1.0 as t -> 0, not below V0=1.0"),
    (["solve", "--f", "2*t*exp(2*t^2)"], "f(t)/t -> 2.0 as t -> 0, not below V0=1.0"),
    (["solve", "--f", "1.2*t*exp(2*t^2)"], "f(t)/t -> 1.2 as t -> 0, not below V0=1.0"),
    (["gap", "--V", "1-0.4*exp(-t^2)", "--f", "0.7*t*exp(2*t^2)"],
     "f(t)/t -> 0.7 as t -> 0, not below V0=0.6"),
    # a ratio search with no candidate under the cap is an out-of-range L
    (["ratio", "--L", "1e300", "--budget", "2"],
     "no ratio candidate fits under the overflow cap 6.0 at L=1e+300"),
    (["ratio", "--dim", "2", "--theta", "3", "--L", "1e4", "--budget", "8"],
     "no ratio candidate fits under the overflow cap 6.0 at L=10000"),
    (["ratio", "--f", "t*exp(2*t^2)", "--alpha0", "1e-300", "--budget", "2"],
     "no ratio candidate fits under the overflow cap 6.0 at L=3.15827e+302"),
    # each value sets the swept parameter: its own flag is refused
    (["sweep", "--sweep-param", "gamma", "--gamma", "0.7", "--sweep-values", "0.9,1.1"],
     "--gamma 0.7 is the swept parameter: --sweep-values sets it"),
    (["sweep", "--sweep-param", "lambda", "--lambda", "0.3", "--sweep-values", "0.4,0.5"],
     "--lambda 0.3 is the swept parameter: --sweep-values sets it"),
])
def test_bad_input_exits_3_without_report(tmp_path, capsys, args, message):
    code, out = run_cli(args, tmp_path)
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / f"{args[0]}.json").exists()


@pytest.mark.parametrize("args, alpha0", [
    (["--f", "0.5*t*exp(2*t^2)", "--alpha0", "1"], 1.0),
    (["--f", "0.5*t*exp(2*t^2)"], 1.0),       # a user f's rate defaults to 1
    (["--theta", "1"], None)])                 # the family carries its own rate
def test_ratio_echoes_the_alpha0_it_used(tmp_path, args, alpha0):
    code, out = run_cli(["ratio", "--budget", "4", *args], tmp_path)
    assert code == EXIT_OK
    assert json.loads((out / "ratio.json").read_text())["config"]["alpha0"] == alpha0


# VmHWM, not ru_maxrss: the latter keeps the forking test process's peak across exec
_MOSER_RSS_PROBE = """
import json, os, sys
from biharm.cli import main
code = main(["moser", "--b-values", sys.argv[2], "--out-dir", sys.argv[1]])
rows = json.load(open(os.path.join(sys.argv[1], "moser.json")))["moser"]["rows"]
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, ",".join(r["method"] for r in rows), hwm)
"""


def test_moser_command_peak_rss(tmp_path):
    # b = 8 sums a 1.8e8-node mesh; VmHWM is in KiB
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    res = subprocess.run([sys.executable, "-c", _MOSER_RSS_PROBE, str(tmp_path), "3,5,8"],
                         capture_output=True, text=True, check=True, env=env)
    code, methods, rss = res.stdout.split()
    assert int(code) == EXIT_OK
    assert methods == "finite_difference,finite_difference,closed_form"
    assert int(rss) <= 200 * 1024


def test_moser_finite_difference_peak_rss(tmp_path):
    # b = 6.77 is evaluated on a 1.9e6-node grid: its Laplacian rows take 76 MB
    # (peak 191 MB); the former CSR matrix peaked at 369 MB
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    res = subprocess.run([sys.executable, "-c", _MOSER_RSS_PROBE, str(tmp_path), "6.77"],
                         capture_output=True, text=True, check=True, env=env)
    code, methods, rss = res.stdout.split()
    assert int(code) == EXIT_OK
    assert methods == "finite_difference"
    assert int(rss) <= 300 * 1024


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps library functions by name (model.adaptive_simpson,
    # functionals.evaluate_all, sequences.moser_field, ...); deleting or renaming
    # one of them breaks every traced benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = 'import sys; sys.path.insert(0, "perfbench"); import tracing; tracing.install()'
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    res = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr

"""Command-line surface: flag parsing, dispatch and serialization.

Subcommands and their flags, besides --out-dir (``_COMMANDS``): solve and
sweep take --gamma, --grid and the nonlinearity flags --dim --lambda --f
--theta, and sweep --sweep-param and --sweep-values; gap takes --V, --grid
and the nonlinearity flags; ratio takes the nonlinearity flags, --alpha0 (the
rate of a user f, which sets the default --L; refused without --f), --L and
--budget; check the nonlinearity flags but --lambda, which cancels from every
condition, --g and --K (refused without --g); moser --b-values (at K = 1,
which scales every K out); rearrange --input and --dim.  A user --f has F =
int_0^t f, integrated by the run; --theta and --f name two nonlinearities and
are refused together.  The probes ratio and check build only a
nonlinearity: the sharp ratio and the growth conditions depend on F and the
dimension alone.  check reports the conditions of its nonlinearity, and the
growth class of --g when it is given.  Every command refuses a dimension
other than 2 or 4.  Each report's ``config`` echoes the command and the fields
its flags set, each read back by its --flag=value (--grid=grid_r_max:grid_n).
solve and sweep minimize on the Nehari manifold, as gap does, and report the
Pohozaev defect.  Each handler returns its report sections and exit code;
``run`` writes <command>.json from them, under the version and config
header, so a command whose input is refused writes no report.

Reports are canonical JSON (sorted keys; floats in Python's shortest
round-trip form, nan and infinities as strings) so identical run
configurations produce byte-identical artifacts; fields go to CSV with
full-precision round-tripping.  Artifacts are written atomically.  This
module imports only what every command uses (grid, model, expressions);
each handler imports its own layer, so a command loads no module it does not
run.

Exit codes: 0 success, 2 solver non-convergence or a numerical failure (a
solve whose returned state has ``residual_weak`` above 1e-5 or, in solve and
sweep, a Pohozaev defect above 3e-5 (UNDER_RESOLVED), a factorization or
eigensolver that breaks down, or a ``gap`` with a Nehari sub-solve above 1e-5
or whose comparison level, an upper bound of m_V, falls below m_V; the report of
a solve that ran is still written), 3 usage or input error (a flag the
command does not take, a missing or malformed flag value, malformed or
non-finite CSV fields, a rearrange field beyond the overflow cap, an f that
overflows at the overflow cap, --theta with --f, a problem whose f breaks the
standing hypothesis lim f(t)/t < V0 = inf V, however f is given, a problem
whose scaling projection finds no sign change before the cap, a ratio whose
L leaves no candidate under the cap, ...; a ``sweep`` still writes
sweep.json with an error entry for each value that gives such a problem).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from . import grid as g
from .expressions import parse_expression
from .grid import RadialField
from .model import (ADAMS_BETA, ConstantPotential, NonlinearitySpec, OverflowCapError,
                    ProblemConfig, check_conditions, exact_growth_family, exp_critical,
                    radial_potential, user_nonlinearity)

EXIT_OK, EXIT_NOCONV, EXIT_CONFIG = 0, 2, 3


# --- canonical serialization ---------------------------------------------------

def _canon(obj):
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if obj != obj:
            return "nan"
        if obj in (float("inf"), float("-inf")):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canon(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    return obj


def dump_report(obj) -> str:
    return json.dumps(_canon(obj), sort_keys=True, indent=2) + "\n"


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_field_csv(path: str, u: RadialField):
    row = "{:.17g},{:.17g}".format
    lines = ["r,u", *(row(r, v) for r, v in zip(u.grid.nodes.tolist(), u.values.tolist()))]
    atomic_write(path, "\n".join(lines) + "\n")


def load_field_csv(path: str, dimension: int = 4) -> RadialField:
    """Read an 'r,u' CSV on a uniform grid from 0; malformed input raises ValueError.

    Blank lines are skipped.  Each row is parsed straight into floats, so no
    list of the file's lines or cells is held.
    """
    r, u = [], []
    with open(path) as fh:
        lines = (ln.strip() for ln in fh)
        if next((ln for ln in lines if ln), "").lower() != "r,u":
            raise ValueError(f"{path}: expected header 'r,u'")
        for ln in lines:
            if not ln:
                continue
            cells = ln.split(",")
            if len(cells) != 2:
                raise ValueError(f"{path}: every data row needs two columns 'r,u'")
            r.append(float(cells[0]))
            u.append(float(cells[1]))
    if not r:
        raise ValueError(f"{path}: no data rows")
    r = np.array(r)
    grd = g.build_grid(float(r[-1]), len(r), dimension)
    if not np.allclose(grd.nodes, r, rtol=0, atol=1e-9 * max(r[-1], 1.0)):
        raise ValueError(f"{path}: nodes are not a uniform grid from 0")
    return g.as_field(grd, u)


# --- run configuration -----------------------------------------------------------

@dataclass
class RunConfig:
    """One run: the command and the fields of its flags (``config_from_args``)."""

    command: str
    dimension: int = 4
    gamma: float = 1.0
    lam: Optional[float] = None          # None: 0.5 for exp_critical, filled by run()
    grid_r_max: Optional[float] = None   # None: DEFAULT_GRID[dimension], filled by run()
    grid_n: Optional[int] = None
    potential_expr: Optional[str] = None
    f_expr: Optional[str] = None
    alpha0: Optional[float] = None       # None: 1.0 for a user f, filled by run()
    theta: Optional[float] = None     # exact-growth family parameter
    g_expr: Optional[str] = None
    K: Optional[float] = None            # None: 1.0 with g_expr, filled by run()
    L: Optional[float] = None
    budget: int = 400
    b_values: tuple = (3.0, 5.0, 8.0)
    sweep_param: Optional[str] = None
    sweep_values: tuple = ()
    input_field: Optional[str] = None
    out_dir: str = "out"


def _nonlinearity(rc: RunConfig) -> NonlinearitySpec:
    """The nonlinearity rc names; ``rc.alpha0`` is the rate a user f declares."""
    if rc.lam is not None and (rc.theta is not None or rc.f_expr is not None):
        raise ValueError("--lambda scales only the built-in exp-critical nonlinearity, "
                         "not --f or --theta")
    if rc.theta is not None and rc.f_expr is not None:
        raise ValueError("--theta names the exact-growth family and --f a user "
                         "nonlinearity: give one of them")
    if rc.theta is not None:
        return exact_growth_family(rc.theta)
    if rc.f_expr is not None:
        return user_nonlinearity(rc.f_expr, rc.alpha0)
    return exp_critical(rc.lam, rc.dimension)


def _build_problem(rc: RunConfig):
    grd = g.build_grid(rc.grid_r_max, rc.grid_n, rc.dimension)
    spec = _nonlinearity(rc)
    pot = (radial_potential(parse_expression(rc.potential_expr), grd) if rc.potential_expr
           else ConstantPotential(rc.gamma))
    return grd, ProblemConfig(rc.dimension, pot, spec)


def _report_header(rc: RunConfig) -> dict:
    read = ("command",) + _read_fields(rc.command)
    return {"version": __version__, "config": {name: getattr(rc, name) for name in read}}


# --- command implementations -------------------------------------------------------

# |pohozaev_defect| above this exits solve and sweep with 2: benchmark problems read
# at most 2.0e-6, 2-D lambda 0.22, 1.2e-3 off its resolved level, reads 5.5e-5
_DEFECT_GATE = 3e-5


def _ground_state(rc: RunConfig):
    """rc's Nehari ground state, the summary solve and sweep report, and the exit code:
    2 unless the state converged with its Pohozaev defect within ``_DEFECT_GATE``."""
    from .solvers import gaussian_start, minimize_nehari

    grd, config = _build_problem(rc)
    rep = minimize_nehari(config, gaussian_start(grd))
    resolved = abs(rep.pohozaev_defect) <= _DEFECT_GATE
    if not resolved:
        rep.warnings.append(f"UNDER_RESOLVED: Pohozaev defect {rep.pohozaev_defect:.2e} "
                            f"exceeds {_DEFECT_GATE:g}; refine --grid")
    summary = {"objective": rep.objective, "pohozaev_defect": rep.pohozaev_defect,
               "constraint_residual": rep.constraint_residual, "converged": rep.converged,
               "warnings": rep.warnings}
    return rep, summary, EXIT_OK if rep.converged and resolved else EXIT_NOCONV


def _cmd_solve(rc: RunConfig):
    rep, summary, code = _ground_state(rc)
    save_field_csv(os.path.join(rc.out_dir, "solution.csv"), rep.field)
    # recovered_residual_weak, the residual of solution.csv, is the key the benchmark reads
    return {"solve": {**summary, "residual_weak": rep.residual_weak, "iterations": rep.iterations,
                      "recovered_residual_weak": rep.residual_weak, "trace": rep.trace}}, code


def _cmd_rearrange(rc: RunConfig):
    if not rc.input_field:
        raise ValueError("rearrange requires --input <field.csv>")
    from .rearrangement import fourier_rearrange

    u = load_field_csv(rc.input_field, rc.dimension)
    w = fourier_rearrange(u)
    save_field_csv(os.path.join(rc.out_dir, "rearrange_output.csv"),
                   RadialField(u.grid, w.values))
    return {"rearrange": asdict(w.report)}, EXIT_OK


def _cmd_moser(rc: RunConfig):
    from .sequences import moser_estimates, moser_mesh

    rows = []
    if len(set(rc.b_values)) < len(rc.b_values):   # the excess fit needs distinct b
        raise ValueError(f"b values must be distinct, got {','.join(map(format, rc.b_values))}")
    for b in rc.b_values:
        moser_mesh(b)  # every b is checked before any is computed
    for b in rc.b_values:
        est = moser_estimates(b)
        rows.append({"b": b, "l2_sq": est["l2_sq"], "lap_l2_sq": est["lap_l2_sq"],
                     "excess": est["lap_l2_sq"] - ADAMS_BETA[4],
                     "n_points": est["n_points"], "method": est["method"]})
    bs = np.array([r["b"] for r in rows])
    ex = np.array([abs(r["excess"]) for r in rows])
    slope = float(np.polyfit(np.log(bs), np.log(ex), 1)[0]) if len(rows) >= 2 else float("nan")
    return {"moser": {"rows": rows, "fitted_excess_exponent": slope}}, EXIT_OK


def _cmd_ratio(rc: RunConfig):
    from .functionals import adams_ratio_search

    if rc.f_expr is None and rc.alpha0 is not None:
        raise ValueError(f"--alpha0 {rc.alpha0:g} is the rate of a user --f; without --f "
                         "the nonlinearity sets its own rate")
    spec = _nonlinearity(rc)
    L = rc.L if rc.L is not None else ADAMS_BETA[rc.dimension] / spec.alpha0
    return {"ratio": asdict(adams_ratio_search(spec, rc.dimension, L, rc.budget))}, EXIT_OK


def _cmd_check(rc: RunConfig):
    out = {}
    if rc.g_expr is None and rc.K is not None:
        raise ValueError(f"--K {rc.K:g} scales the growth class of --g; without --g "
                         "nothing reads it")
    if rc.g_expr is not None:
        from .diagnostics import classify_growth

        out["growth"] = asdict(classify_growth(parse_expression(rc.g_expr), rc.K))
    rep = check_conditions(_nonlinearity(rc), np.geomspace(0.1, 5.0, 200))
    out["conditions"] = asdict(rep)
    return out, EXIT_OK


def _cmd_gap(rc: RunConfig):
    if not rc.potential_expr:
        raise ValueError("gap requires --V <expression in t (= radius)>")
    from .solvers import gaussian_start, limiting_gap

    grd, config = _build_problem(rc)
    rep = limiting_gap(config, gaussian_start(grd))
    code = EXIT_OK
    for name, status in (("trapped", rep.status_V), ("limit", rep.status_infty)):
        if not status["converged"]:
            print(f"error: the {name} Nehari solve did not converge: "
                  + "; ".join(status["warnings"]), file=sys.stderr)
            code = EXIT_NOCONV
    # the projected limit minimizer is on the trapped manifold, so its level
    # bounds m_V from above; below m_V the trapped descent missed the minimum
    if rep.comparison_level < rep.m_V - 1e-9 * abs(rep.m_V):
        print(f"error: comparison level {rep.comparison_level:.10g} < m_V {rep.m_V:.10g}: "
              "the trapped solve missed the ground level of its own Nehari manifold",
              file=sys.stderr)
        code = EXIT_NOCONV
    return {"gap": asdict(rep)}, code


def _cmd_sweep(rc: RunConfig):
    if rc.sweep_param not in ("lambda", "gamma") or not rc.sweep_values:
        raise ValueError("sweep requires --sweep-param lambda|gamma and --sweep-values")
    # no swept value enters a user f, nor any nonlinearity of a gamma sweep: refuse
    # a bad one before any value runs
    if rc.sweep_param == "gamma" or rc.f_expr is not None:
        _nonlinearity(rc)

    def one(val):
        try:
            _, summary, code = _ground_state(replace(rc, **{"lam" if rc.sweep_param == "lambda"
                                                            else "gamma": val}))
        except (ValueError, OverflowCapError) as exc:     # this value only
            print(f"error: {rc.sweep_param} {val:g}: {exc}", file=sys.stderr)
            return {"value": val, "error": str(exc)}, EXIT_CONFIG
        return {"value": val, **summary}, code

    results, codes = zip(*[one(v) for v in rc.sweep_values])
    # a bad value (3) outranks a value that did not converge (2)
    return {"sweep": {"param": rc.sweep_param, "results": list(results)}}, max(codes)


def _read_fields(command: str) -> tuple:
    """The RunConfig fields that command's flags set, in flag-table order."""
    names = (_OPTIONS[flag][0] for flag in _COMMANDS[command][1])
    return tuple(n for name in names for n in (name if isinstance(name, tuple) else (name,)))


def _grid(text: str) -> tuple:
    r_max, n = text.split(":")
    return float(r_max), int(n)


def _numbers(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


# flag -> (RunConfig field, conversion of the flag's text); --grid sets two fields
_OPTIONS = {
    "--dim": ("dimension", int), "--gamma": ("gamma", float), "--lambda": ("lam", float),
    "--grid": (("grid_r_max", "grid_n"), _grid), "--V": ("potential_expr", str),
    "--f": ("f_expr", str), "--alpha0": ("alpha0", float),
    "--theta": ("theta", float), "--g": ("g_expr", str), "--K": ("K", float),
    "--L": ("L", float), "--budget": ("budget", int), "--b-values": ("b_values", _numbers),
    "--sweep-param": ("sweep_param", str), "--sweep-values": ("sweep_values", _numbers),
    "--input": ("input_field", str), "--out-dir": ("out_dir", str)}
_FORMS = {int: "an integer", float: "a number", _grid: "r_max:n_points",
          _numbers: "comma-separated numbers"}
_FLAG_HELP = {"--grid": "r_max:n_points", "--b-values": "comma-separated b sweep",
              "--sweep-values": "comma-separated values",
              **{flag: f"{what}, an expression in t; write {flag}=EXPR if it begins with '-'"
                 for flag, what in (("--V", "radial potential (t = radius)"), ("--g", "g"),
                                    ("--f", "f, whose F = int_0^t f the run integrates"))}}

# each command takes the flags its handler reads (via _nonlinearity and _build_problem)
# and --out-dir; the fields they set are its report's config echo (_read_fields)
_NONLINEARITY = ("--dim", "--lambda", "--f", "--theta")
_PROBLEM = ("--gamma",) + _NONLINEARITY              # constant potential gamma
_COMMANDS = {"solve": (_cmd_solve, _PROBLEM + ("--grid",)),
             "rearrange": (_cmd_rearrange, ("--input", "--dim")),
             "moser": (_cmd_moser, ("--b-values",)),
             "ratio": (_cmd_ratio, _NONLINEARITY + ("--alpha0", "--L", "--budget")),
             # lambda cancels from every condition check reports
             "check": (_cmd_check, ("--dim", "--f", "--theta", "--g", "--K")),
             "gap": (_cmd_gap, ("--V",) + _NONLINEARITY + ("--grid",)),
             "sweep": (_cmd_sweep, _PROBLEM + ("--grid", "--sweep-param", "--sweep-values"))}

_SOLVER_HELP = (". The solver descends on --grid (implicit step, backtracking line search, "
                "exact scaling projection), then polishes on --grid with damped Newton and "
                "a final projection; a polish after 5 steps that converges below the "
                "descent's level ends the solve, else the descent runs until it stagnates. "
                "A solve converges when the residual_weak of the state it reports is "
                "at most 1e-5; otherwise the command exits 2, as solve and sweep do when "
                f"the Pohozaev defect of the state exceeds {_DEFECT_GATE:g} (UNDER_RESOLVED).")
_HELP = {"solve": "ground state on the Nehari manifold (constant potential)",
         "gap": "Nehari ground levels with the trapping potential --V and its limit",
         "sweep": "Nehari ground states over --sweep-values",
         "rearrange": "Fourier rearrangement of the field in --input, with its checks",
         "moser": "norms of the Moser log-profiles at each of --b-values",
         "ratio": "evidence on sup 2 int F(u) / ||u||^2 under ||Du||^2 <= --L",
         "check": "growth conditions of the nonlinearity, and the class of --g"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):      # usage errors exit EXIT_CONFIG, not argparse's 2
        self.exit(EXIT_CONFIG, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """One subparser per command, or only ``command``'s; each flag's text is kept by name."""
    ap = _Parser(prog="biharm",
                 description="Radial variational solver for bi-harmonic ground states")
    # the usage lists every command; not on the full parser, whose errors name it by metavar
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in _COMMANDS if command is None else (command,):
        flags = _COMMANDS[name][1]
        solver = name in ("solve", "gap", "sweep")
        p = sub.add_parser(name, help=_HELP[name], allow_abbrev=False,
                           description=_HELP[name] + (_SOLVER_HELP if solver else ""))
        for flag in flags + ("--out-dir",):
            p.add_argument(flag, dest=flag, metavar=flag[2:].upper().replace("-", "_"),
                           help=_FLAG_HELP.get(flag))
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run the flags set; a malformed value raises ValueError naming its flag."""
    rc = RunConfig(command=args.command)
    for flag, text in vars(args).items():
        if flag in _OPTIONS and text is not None:
            field, convert = _OPTIONS[flag]
            try:
                value = convert(text)
            except ValueError:
                raise ValueError(f"{flag} takes {_FORMS[convert]}, got {text!r}") from None
            for name, v in zip(field, value) if isinstance(field, tuple) else [(field, value)]:
                setattr(rc, name, v)
    return rc


def with_default_grid(rc: RunConfig) -> RunConfig:
    """rc with each grid field it leaves None taken from the dimension's default grid,
    lam 0.5 when it leaves lam None and names the built-in nonlinearity, alpha0
    1.0 when it leaves alpha0 None and names a user f, and K 1.0 when it leaves K
    None and names a g."""
    r_max, n = g.DEFAULT_GRID[rc.dimension]
    builtin = rc.theta is None and rc.f_expr is None
    return replace(rc, grid_r_max=r_max if rc.grid_r_max is None else rc.grid_r_max,
                   grid_n=n if rc.grid_n is None else rc.grid_n,
                   lam=0.5 if rc.lam is None and builtin else rc.lam,
                   alpha0=1.0 if rc.alpha0 is None and rc.f_expr is not None else rc.alpha0,
                   K=1.0 if rc.K is None and rc.g_expr is not None else rc.K)


def run(rc: RunConfig) -> int:
    """Dispatch one run configuration and write its report; returns the exit code."""
    if rc.command not in _COMMANDS:
        raise ValueError(f"unknown command {rc.command!r}")
    if rc.dimension not in g.DEFAULT_GRID:
        raise ValueError(f"dimension must be 2 or 4, got {rc.dimension}")
    rc = with_default_grid(rc)
    sections, code = _COMMANDS[rc.command][0](rc)
    # text positionally: the benchmark tracer's cli.io span reads args[1]
    atomic_write(os.path.join(rc.out_dir, f"{rc.command}.json"),
                 dump_report({**_report_header(rc), **sections}))
    return code


def main(argv=None) -> int:
    # frozen once, no later collection and no exit-time sweep traverses the import heap
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        code = run(config_from_args(args))
    except (ValueError, OSError, KeyError, OverflowCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    return code


if __name__ == "__main__":
    sys.exit(main())

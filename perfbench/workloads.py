"""The benchmark workloads: seeded `biharm` CLI ops and the checks of their output.

A workload turns a random generator into one pass, a list of ops.  An op is a
biharm command line (without --out-dir), the report it writes and a check of
that report.  A check returns None when the output is right and a one-line
reason when it is not.  Tolerances come from the repository's tests and
acceptance criteria.  Every op uses the default grid and solver options.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Op:
    name: str                                   # unique within a pass
    argv: list
    report: str                                 # file the op writes, e.g. "solve.json"
    check: Callable[[dict], Optional[str]]


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _num(x) -> float:
    return float(x)                             # canonical JSON writes "nan"/"inf" as text


# --- checks ---------------------------------------------------------------------------

def _check_solve(dim: int):
    def check(rep):
        s = rep["solve"]
        obj = _num(s["objective"])
        if not _num(s["constraint_residual"]) <= 1e-9 * (1 + abs(obj)):
            return f"constraint_residual {s['constraint_residual']}"
        if not _num(s["recovered_residual_weak"]) <= 1e-5:
            return f"recovered_residual_weak {s['recovered_residual_weak']}"
        if dim == 4 and not obj < 8 * math.pi ** 2:
            return f"objective {obj} >= 8 pi^2"
        return None
    return check


def _check_sweep(rep):
    rows = rep["sweep"]["results"]
    for r in rows:
        obj = _num(r["objective"])
        if not r["converged"]:
            return f"lambda {r['value']} did not converge"
        if not _num(r["constraint_residual"]) <= 1e-9 * (1 + abs(obj)):
            return f"lambda {r['value']}: constraint_residual {r['constraint_residual']}"
    objs = [_num(r["objective"]) for r in rows]
    if not all(a > b for a, b in zip(objs, objs[1:])):
        return f"objective not decreasing in lambda: {objs}"
    return None


def _check_gap(rep):
    gp = rep["gap"]
    m_v, m_inf, comp = _num(gp["m_V"]), _num(gp["m_infty"]), _num(gp["comparison_level"])
    if not gp["both_positive"]:
        return "levels not both positive"
    if not m_v < comp <= m_inf:
        return f"comparison level {comp} not in (m_V {m_v}, m_infty {m_inf}]"
    if not _num(gp["gap"]) > 1e-3:
        return f"gap {gp['gap']} <= 1e-3"
    return None


def _check_verdict(expected):
    def check(rep):
        got = rep["ratio"]["verdict"]
        if got not in expected:
            return f"verdict {got}, expected {' or '.join(expected)}"
        lb = _num(rep["ratio"]["ratio_lower_bound"])
        if not (math.isfinite(lb) and lb > 0):
            return f"ratio_lower_bound {lb}"
        return None
    return check


def _check_moser(rep):
    rows = rep["moser"]["rows"]
    ex = [_num(r["excess"]) for r in rows]
    if not all(e > 0 for e in ex):
        return f"non-positive excess {ex}"
    if not all(a > b for a, b in zip(ex, ex[1:])):
        return f"excess not decreasing in b: {ex}"
    return None


def _check_rearrange(rep):
    return "rearrangement report flagged" if rep["rearrange"]["flagged"] else None


# Growth shapes of acceptance criterion 9: (g, K, check of the verdicts).
_EXP_SHAPE = "exp(2*t^2)-1-2*t^2"
_SHAPES = [
    (_EXP_SHAPE, 1 / 1.9,
     lambda c: c["bounded_verdict"] == "fails" and c["limsup_infinity"] == "inf"),
    (_EXP_SHAPE, 1 / 2.0,
     lambda c: c["bounded_verdict"] == "inconclusive" and c["infinity_boundary"]
     and 0 < _num(c["limsup_infinity"]) < math.inf),
    (_EXP_SHAPE, 1 / 2.1,
     lambda c: c["bounded_verdict"] == "holds" and _num(c["limsup_infinity"]) == 0.0),
    ("t", 1.0,
     lambda c: c["bounded_verdict"] == "fails" and c["limsup_origin"] == "inf"),
    ("t^4", 1.0,
     lambda c: c["bounded_verdict"] == "holds" and c["compact_verdict"] == "holds"),
]


def _check_growth(expected):
    def check(rep):
        c = rep["growth"]
        return None if expected(c) else f"verdicts {c} differ from criterion 9"
    return check


def _user_F(c: float, t):
    """Closed-form antiderivative of f = c t exp(2 t^2)."""
    return 0.25 * c * np.expm1(2.0 * t * t)


def _check_user_conditions(c: float):
    t = np.geomspace(0.1, 5.0, 200)               # the probe grid `check` uses
    f = c * t * np.exp(2.0 * t * t)
    F = _user_F(c, t)
    worst, M0 = float(np.min(t * f / F)), float(np.max(F / f))

    def check(rep):
        k = rep["conditions"]
        if not (k["ar_holds"] and k["critical"]):
            return f"conditions {k}"
        for key, want in (("worst_ratio", worst), ("M0", M0)):
            if not abs(_num(k[key]) - want) <= 1e-7 * abs(want):
                return f"{key} {k[key]} != closed form {want}"
        return None
    return check


def _check_user_ratio(c: float):
    """The best Gaussian candidate's ratio, recomputed with the closed-form F."""
    r = np.linspace(0.0, 20.0, 2048)               # default 4-D grid
    w = r ** 3
    w[0] *= 0.5
    w[-1] *= 0.5

    def check(rep):
        rat = rep["ratio"]
        bad = _check_verdict(("finite_evidence", "divergence_evidence"))(rep)
        if bad:
            return bad
        p = rat["argmax_family_params"]
        if p.get("family") != "gaussian":
            return f"argmax family {p.get('family')}, expected gaussian"
        u = _num(p["amplitude"]) * np.exp(-((r / _num(p["sigma"])) ** 2))
        want = 2.0 * float(np.dot(w, _user_F(c, u))) / float(np.dot(w, u * u))
        got = _num(rat["ratio_lower_bound"])
        if not abs(got - want) <= 1e-7 * abs(want):
            return f"ratio_lower_bound {got} != closed form {want}"
        return None
    return check


# --- workloads ----------------------------------------------------------------------------

# The 4-D solve and gap ops run one fixed configuration.  Their cost is chaotic in
# the inputs: the refined Newton polish of `solve --gamma 1` applies the stencil
# 1242 times at --lambda 0.400 and 100 times at 0.402 (7.6 s against 1.0 s), so
# seeded 4-D inputs made the per-run time spread by 30% from seed to seed.  The
# fixed ones are the configurations the repository already documents: the
# default solve (which exits 2, ROADMAP item 3) and the gap of tests/test_cli.py.
SOLVE_4D = ["solve", "--dim", "4", "--gamma", "1", "--lambda", "0.5"]
GAP_4D = ["gap", "--dim", "4", "--V", "1-0.4*exp(-t^2)", "--lambda", "0.3"]
# moser streams about 20*exp(b^2/4) nodes in chunks of 2^23, so its time grows as
# exp(b^2/4) and its peak RSS depends on where the profile's junctions fall in the
# chunks (983 MB at b = 7.40, 883 MB at 7.45, 1010 MB at 7.50).  A seeded b in
# [7.4, 7.5] spread the probes' peak RSS by 12% from seed to seed, so b_max is the
# top of that range: 2.6e7 nodes.
MOSER = ["moser", "--b-values", "3,5,7.5"]


def ground_state(rng, inputs: str) -> list[Op]:
    gamma = rng.uniform(0.8, 1.25)
    lam = gamma * rng.uniform(0.3, 0.7)
    sweep_gamma = rng.uniform(0.8, 1.25)
    lams = [sweep_gamma * rng.uniform(0.3, 0.5), sweep_gamma * rng.uniform(0.5, 0.7)]
    return [
        Op("solve4d", SOLVE_4D, "solve.json", _check_solve(4)),
        Op("solve2d", ["solve", "--dim", "2", "--gamma", _fmt(gamma), "--lambda", _fmt(lam)],
           "solve.json", _check_solve(2)),
        Op("sweep2d", ["sweep", "--dim", "2", "--gamma", _fmt(sweep_gamma),
                       "--sweep-param", "lambda", "--sweep-values", ",".join(map(_fmt, lams))],
           "sweep.json", _check_sweep),
    ]


def trapped_gap(rng, inputs: str) -> list[Op]:
    g_inf = rng.uniform(0.9, 1.3)
    depth = g_inf * rng.uniform(0.3, 0.5)
    width = rng.uniform(1.0, 2.0)
    lam = (g_inf - depth) * rng.uniform(0.4, 0.8)
    pot = f"{_fmt(g_inf)}-{_fmt(depth)}*exp(-(t/{_fmt(width)})^2)"
    return [
        Op("gap4d", GAP_4D, "gap.json", _check_gap),
        Op("gap2d", ["gap", "--dim", "2", "--V", pot, "--lambda", _fmt(lam)], "gap.json",
           _check_gap),
    ]


def _two_bump_csv(rng, path: str):
    """Ring plus opposite-signed core on the default 4-D grid (criterion 2's bumps)."""
    r = np.linspace(0.0, 20.0, 2048)
    sign = rng.choice([-1.0, 1.0])
    s1, s2 = rng.uniform(1.2, 2.5), rng.uniform(0.8, 1.2)
    u = (sign * rng.uniform(0.4, 0.7) * (r / s1) ** 2 * np.exp(-((r / s1) ** 2))
         - sign * rng.uniform(0.1, 0.5) * np.exp(-((r / s2) ** 2)))
    with open(path, "w") as fh:
        fh.write("r,u\n")
        fh.writelines(f"{format(a, '.17g')},{format(b, '.17g')}\n" for a, b in zip(r, u))


def probes(rng, inputs: str) -> list[Op]:
    lam = rng.uniform(0.3, 0.7)
    g_expr, K, expected = _SHAPES[rng.integers(len(_SHAPES))]
    csv = os.path.join(inputs, "two_bump.csv")
    _two_bump_csv(rng, csv)
    any_verdict = ("finite_evidence", "divergence_evidence")
    return [
        Op("ratio_exp", ["ratio", "--lambda", _fmt(lam)], "ratio.json",
           _check_verdict(any_verdict)),
        Op("ratio_theta1", ["ratio", "--theta", "1"], "ratio.json",
           _check_verdict(("divergence_evidence",))),
        Op("ratio_theta3", ["ratio", "--theta", "3"], "ratio.json",
           _check_verdict(("finite_evidence",))),
        Op("moser", MOSER, "moser.json", _check_moser),
        Op("check_g", ["check", "--g", g_expr, "--K", repr(K)], "check.json",
           _check_growth(expected)),
        Op("rearrange", ["rearrange", "--input", csv], "rearrange.json", _check_rearrange),
    ]


def user_expr(rng, inputs: str) -> list[Op]:
    c = float(_fmt(rng.uniform(0.25, 1.0)))
    f_expr = f"{_fmt(c)}*t*exp(2*t^2)"
    return [
        Op("check_f", ["check", "--f", f_expr], "check.json", _check_user_conditions(c)),
        Op("ratio_f", ["ratio", "--f", f_expr, "--budget", "4"], "ratio.json",
           _check_user_ratio(c)),
    ]


WORKLOADS = {"ground_state": ground_state, "trapped_gap": trapped_gap,
             "probes": probes, "user_expr": user_expr}

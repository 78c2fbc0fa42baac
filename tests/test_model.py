import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biharm as bh
from biharm.model import (_PROBE_T, OVERFLOW_CAP, OverflowCapError, _exprel2, adaptive_simpson,
                          check_cap, check_conditions, tail_slope)
from biharm.solvers import _Ops
from oracles import exp_critical_config


LAM = 0.5


@pytest.fixture(scope="module")
def cfg():
    return exp_critical_config(1.0, LAM)


def test_eval_f_exp_critical():
    spec = bh.exp_critical(0.5)
    assert spec.f(0.0) == 0.0
    assert spec.f(1.0) == pytest.approx(0.5 * np.e**2, rel=1e-12)
    assert spec.f(-1.0) == pytest.approx(-0.5 * np.e**2, rel=1e-12)


def test_eval_f_overflow_guard():
    check_cap(OVERFLOW_CAP)
    with pytest.raises(OverflowCapError):
        check_cap(7.0)
    with pytest.raises(OverflowCapError):
        check_cap(np.array([0.5, -7.0]))


def test_f_F_consistency_simpson():
    # |F(t) - Simpson(f, 0, t)| <= 1e-8 (1 + |F|) across the families
    for spec in (bh.exp_critical(0.7), bh.exact_growth_family(1.0),
                 bh.user_nonlinearity("t^3")):
        for t in np.linspace(0.25, 5.0, 8):
            F_direct = float(np.asarray(spec.F(t)))
            F_quad = adaptive_simpson(lambda s: float(np.asarray(spec.f(s))), 0.0, t)
            assert abs(F_direct - F_quad) <= 1e-8 * (1 + abs(F_direct))


@pytest.mark.parametrize("c", [0.25, 0.7, 1.0])
def test_user_F_matches_closed_form(c):
    F = bh.user_nonlinearity(f"{c}*t*exp(2*t^2)").F
    t = np.geomspace(1e-6, 6.0, 400)
    t = np.concatenate([-t[::-1], t])
    exact = 0.25 * c * np.expm1(2.0 * t * t)
    assert np.max(np.abs(F(t) / exact - 1.0)) <= 1e-12


def test_user_F_shapes_zero_and_parity():
    F = bh.user_nonlinearity("t^3").F
    assert isinstance(F(2.0), float)
    assert np.shape(F(np.array(2.0))) == ()
    assert F(np.ones((3, 4))).shape == (3, 4)
    assert F(0.0) == 0.0
    # odd f, even F: both signs integrate the same nodes
    assert F(-2.0) == F(2.0) == pytest.approx(4.0, rel=1e-14)
    got = F(np.array([[1.0, np.nan], [-1.0, 0.5]]))
    assert np.isnan(got[0, 1])
    assert got[0, 0] == got[1, 0] == pytest.approx(0.25, rel=1e-14)
    assert got[1, 1] == pytest.approx(0.5**4 / 4, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(f_expr=st.sampled_from(["t^3", "1", "exp(-t^2)", "0.5*t*exp(2*t^2)",
                               "t*exp(t^2)/(1+t^2)", "t^2+2*t"]),
       t=st.floats(-6.0, 6.0))
def test_user_F_agrees_with_simpson(f_expr, t):
    spec = bh.user_nonlinearity(f_expr)
    F_gauss = spec.F(t)
    F_quad = adaptive_simpson(lambda s: float(np.asarray(spec.f(s))), 0.0, t)
    assert abs(F_gauss - F_quad) <= 1e-8 * (1 + abs(F_gauss))


def test_gauss_rule_is_leggauss_8():
    from biharm.model import _GAUSS_NODES, _GAUSS_WEIGHTS
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert _GAUSS_NODES.tobytes() == nodes.tobytes()
    assert _GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def _user_config(dim, f_expr, alpha0):
    spec = bh.user_nonlinearity(f_expr, alpha0=alpha0)
    return bh.ProblemConfig(bh.ConstantPotential(1.0), spec)


@pytest.mark.parametrize("alpha0", [0.0, -1.0, float("inf"), float("nan"), 20.0, 19.62])
def test_overflow_cap_is_validated(alpha0):
    # the cap 6 admits alpha0 only if alpha0 cap^2 + 2 ln cap < ln(DBL_MAX),
    # that is alpha0 < 19.6166
    bad = "overflow cap 6.0" if np.isfinite(alpha0) and alpha0 > 0 else "positive and finite"
    with pytest.raises(ValueError, match=bad):
        _user_config(4, "t*exp(2*t^2)", alpha0)


@pytest.mark.parametrize("dim, alpha0", [(4, 6.0), (4, 18.7), (2, 1.0), (2, 19.61)])
def test_functionals_finite_up_to_an_accepted_cap(dim, alpha0):
    from biharm.functionals import evaluate_all
    # slope 0.5 at 0, below V0 = 1 as the standing hypothesis asks
    cfg = _user_config(dim, f"0.5*t*exp({alpha0}*t^2)", alpha0)
    grid = bh.build_grid(10.0, 256, dim)
    vals = OVERFLOW_CAP * np.exp(-grid.nodes**2)
    with np.errstate(over="raise", invalid="raise"):
        rep = evaluate_all(bh.RadialField(grid, vals), cfg)
    assert np.all(np.isfinite([rep["energy_I"], rep["pohozaev_G"], rep["nehari_N"]]))
    with pytest.raises(OverflowCapError):
        evaluate_all(bh.RadialField(grid, 1.01 * vals), cfg)


@pytest.mark.parametrize("f_expr, alpha0, refused", [
    ("0.5*t*exp(30*t^2)", None, True),            # declares the default rate 1
    ("0.5*t*exp(30*t^2)", 19.0, True),            # a rate the alpha0 rule accepts
    ("t*exp(19.62*t^2)", None, True),             # t f(t) = exp(709.90) at t = 6
    ("t*exp(19.61*t^2)", None, False),            # exp(709.54): the alpha0 rule's edge too
    ("-t*exp(30*t^2)", None, True),               # infinite, of either sign
    ("t^3*log(t)", None, True),                   # NaN at -cap
    ("t*exp(2*t^2)*sqrt(t^2-1)", None, True),     # NaN for |t| < 1, so int_0^t f at +-cap
])
def test_nonlinearity_measures_its_own_overflow(f_expr, alpha0, refused):
    # the rate a user f declares bounds nothing: t f(t) and F(t) are measured at +-cap
    args = (f_expr,) if alpha0 is None else (f_expr, alpha0)
    if not refused:
        spec = bh.user_nonlinearity(*args)
        t = np.array([-OVERFLOW_CAP, OVERFLOW_CAP])
        assert np.all(np.isfinite(t * spec.f(t))) and np.all(np.isfinite(spec.F(t)))
        return
    with pytest.raises(ValueError, match="overflows at the overflow cap 6.0"):
        bh.user_nonlinearity(*args)


@pytest.mark.parametrize("f_expr, where", [
    ("t*exp(2*t^2)+0/(t-0.75)", "t = 0.75"),          # 0/0 at t = 0.75 only
    ("t^3+0/t", "t = 0"),                             # 0/0 at the origin only
])
def test_nonlinearity_refuses_nan_inside_the_cap(f_expr, where):
    # finite at +-cap is not enough: t f(t) and F(t) are scanned on [-cap, cap]
    with pytest.raises(ValueError, match=f"not finite inside the overflow cap 6.0: .* {where}$"):
        bh.user_nonlinearity(f_expr)


# VmHWM, not ru_maxrss: the latter keeps the forking test process's peak across
# exec, so a large test process would hide any growth
_RSS_PROBE = """
import numpy as np
import biharm as bh

def status(key):
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith(key + ":")))

F = bh.user_nonlinearity("0.5*t*exp(2*t^2)").F
t = np.linspace(-6.0, 6.0, 2_500_000)
F(t[:1000])
before = status("VmRSS")
out = F(t)
assert np.all(np.isfinite(out))
print(status("VmHWM") - before)
"""


def test_user_F_memory_is_bounded():
    # peak growth over the resident size before the call, in KiB; 2.5e6
    # doubles of output alone are 19 MiB
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    res = subprocess.run([sys.executable, "-c", _RSS_PROBE], capture_output=True,
                         text=True, check=True, env=env)
    assert int(res.stdout.split()[-1]) <= 64 * 1024


def test_f_zero_at_zero():
    for spec in (bh.exp_critical(1.0), bh.exact_growth_family(2.0),
                 bh.user_nonlinearity("t*exp(t^2)")):
        assert abs(float(np.asarray(spec.f(0.0)))) < 1e-12


# g_lam(t) = (lam/a)(exp(a t^2) - 1 - a t^2) = (lam/a) _exprel2(a t^2), a = 2 in 4-D

def test_g_lambda_values():
    assert _exprel2(0.0) == 0.0
    # lam=2 variant: g(1) = e^2 - 3
    assert _exprel2(2.0) == pytest.approx(np.e**2 - 3.0, rel=1e-12)


def test_g_lambda_small_t_series():
    # 4-term Taylor oracle: g(t)/lam = t^4 + (2/3) t^6 + ...
    lam = LAM
    for t in (1e-4, 1e-3, 1e-5):
        series = lam * (t**4 + (2.0 / 3.0) * t**6 + (2.0 / 6.0) * t**8)
        assert lam / 2 * _exprel2(2 * t * t) == pytest.approx(series, rel=1e-6)


def test_g_lambda_large_t_expm1_form():
    for t in (0.5, 1.0, 2.5):
        direct = (LAM / 2) * (np.expm1(2 * t * t)) - LAM * t * t
        assert LAM / 2 * _exprel2(2 * t * t) == pytest.approx(direct, rel=1e-12)


def test_superquadraticity(cfg):
    # t f(t) - 2 F(t) >= 0 for the exp-critical family
    spec = cfg.nonlinearity
    t = np.geomspace(1e-3, 5.0, 200)
    vals = t * spec.f(t) - 2.0 * spec.F(t)
    assert np.all(vals >= -1e-14)


def _pose(cfg, dim=4):
    """The operator bundle of cfg on a small grid: where a problem meets a grid."""
    return _Ops(bh.build_grid(10.0, 64, dim), cfg)


def test_potentials():
    pot = bh.ConstantPotential(1.0)
    assert pot(7.0) == 1.0
    g = bh.default_grid(4)
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    ops = _Ops(g, bh.ProblemConfig(prof, bh.exp_critical(0.3)))
    assert ops.V[0] == pytest.approx(0.6)
    assert ops.gamma == ops.V[-1] >= 1.0 - 1e-6
    # trapping shape: minimum strictly below the boundary value
    assert np.min(ops.V) == pytest.approx(0.6, abs=1e-9)
    assert np.min(ops.V) < ops.gamma


def test_potential_validation_rejects_bad_shapes():
    g = bh.default_grid(4)
    with pytest.raises(ValueError, match="potential must be positive"):
        _Ops(g, bh.ProblemConfig(lambda r: -np.ones_like(np.asarray(r, float)),
                                 bh.exp_critical(0.3)))
    with pytest.raises(ValueError, match="not finite"):
        _Ops(g, bh.ProblemConfig(lambda r: np.where(np.asarray(r, float) > 5.0, np.inf, 1.0),
                                 bh.exp_critical(0.3)))


def test_config_standing_hypothesis():
    with pytest.raises(ValueError, match=r"f\(t\)/t -> 1.5 as t -> 0, not below V0=1.0"):
        _pose(exp_critical_config(1.0, 1.5))      # lam >= gamma
    with pytest.raises(ValueError, match=r"f\(t\)/t -> 1.0 as t -> 0, not below V0=1.0"):
        _pose(exp_critical_config(1.0, 1.0))
    assert _pose(exp_critical_config(1.0, 0.5)).m == 2
    assert bh.model.ADAMS_BETA == {4: pytest.approx(32 * np.pi**2), 2: pytest.approx(4 * np.pi)}


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_exp_critical_refuses_a_lam_that_is_not_positive_and_finite(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        bh.exp_critical(lam)


def test_config_reads_lam_and_the_rate_from_the_nonlinearity():
    # lam lives in f and F alone: the nonlinearity is (kind, f, F, alpha0), and
    # the slope the standing hypothesis reads is lam bit for bit
    import dataclasses
    cfg = exp_critical_config(1.0, 0.3, dimension=2)
    h = 2.0**-511
    assert float(cfg.nonlinearity.f(h)) / h == 0.3
    assert [fd.name for fd in dataclasses.fields(bh.NonlinearitySpec)] == \
        ["kind", "f", "F", "alpha0"]
    assert not hasattr(cfg, "lam")
    # a problem is (V, f); the grid it is posed on decides the rest
    assert [fd.name for fd in dataclasses.fields(bh.ProblemConfig)] == \
        ["potential", "nonlinearity"]
    assert cfg.nonlinearity.alpha0 == bh.model.EXP_RATE[2] == 1.0
    with pytest.raises(ValueError, match="does not match the dimension"):
        _pose(bh.ProblemConfig(bh.ConstantPotential(1.0), bh.exp_critical(0.3, 4)), dim=2)
    with pytest.raises(ValueError, match="dimension must be 2 or 4"):
        exp_critical_config(1.0, 0.3, dimension=3)


@pytest.mark.parametrize("make, slope", [
    (lambda: bh.exp_critical(0.7), 0.7),
    (lambda: bh.user_nonlinearity("0.7*t*exp(2*t^2)"), 0.7),   # the same f, spelled out
    (lambda: bh.user_nonlinearity("t*exp(2*t^2)+0.5*t"), 1.5),
    (lambda: bh.user_nonlinearity("t^3"), 0.0),
    (lambda: bh.exact_growth_family(2.0), 0.0),
], ids=["builtin", "user-builtin", "user-slope-1.5", "user-cubic", "theta"])
def test_standing_hypothesis_reads_the_slope_of_every_nonlinearity(make, slope):
    # lim f(t)/t as t -> 0 must stay below V0, whatever family f belongs to
    assert _pose(bh.ProblemConfig(bh.ConstantPotential(slope + 0.1), make())).linear_slope \
        == slope
    if slope > 0:
        with pytest.raises(ValueError, match=f"f\\(t\\)/t -> {slope} as t -> 0, "
                                             f"not below V0={slope}"):
            _pose(bh.ProblemConfig(bh.ConstantPotential(slope), make()))


def test_standing_hypothesis_refuses_a_nan_slope():
    # f is finite on the scan points, 0 included, and NaN just above 0
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where((t != 0) & (np.abs(t) < 1e-100), np.nan, t * np.exp(2 * t * t))

    spec = bh.NonlinearitySpec("user", f, lambda t: 0.25 * np.expm1(2 * np.asarray(t) ** 2), 2.0)
    with pytest.raises(ValueError, match="f\\(t\\)/t -> nan as t -> 0"):
        _pose(bh.ProblemConfig(bh.ConstantPotential(1.0), spec))


def test_check_conditions_exp_critical():
    spec = bh.exp_critical(1.0)
    rep = check_conditions(spec)
    # the ratio t f / F decreases to 2 as t -> 0+, stays above it
    x = 2 * 0.1**2
    boundary = 2 * x / -np.expm1(-x)
    assert rep["worst_ratio"] == pytest.approx(boundary, rel=1e-6)
    assert rep["worst_ratio"] > 2.0
    assert rep["ar_holds"]
    assert rep["upper_bound_holds"] and np.isfinite(rep["M0"])
    assert rep["alpha0_estimate"] == pytest.approx(2.0, abs=0.15)
    assert rep["critical"]


def test_check_conditions_exact_growth():
    rep = check_conditions(bh.exact_growth_family(1.0))
    assert rep["ar_holds"]
    assert rep["upper_bound_holds"]
    assert rep["alpha0_estimate"] == pytest.approx(1.0, abs=0.2)


def test_check_conditions_subcritical_flagged():
    rep = check_conditions(bh.user_nonlinearity("2*t"))
    assert rep["alpha0_estimate"] == pytest.approx(0.0, abs=0.05)
    assert not rep["critical"]


@pytest.mark.parametrize("spec, holds", [
    (bh.exp_critical(0.5, 4), True), (bh.exp_critical(0.5, 2), True),
    (bh.exact_growth_family(1.0), True), (bh.user_nonlinearity("0.5*t*exp(2*t^2)"), True),
    (bh.user_nonlinearity("t"), False), (bh.user_nonlinearity("2*t"), False)],
    ids=["exp_critical_4d", "exp_critical_2d", "theta1", "user_exp", "t", "2t"])
def test_upper_bound_holds_only_where_F_over_f_turns_down(spec, holds):
    # M0 is the maximum of F/f on the probes, so F <= M0 f holds there by construction;
    # F/f still rising at the last probe point (t/2 for f = t) bounds nothing beyond it
    rep = check_conditions(spec)
    assert rep["upper_bound_holds"] is holds
    assert rep["M0"] == np.max(spec.F(_PROBE_T) / spec.f(_PROBE_T))


# alpha0_estimate on check's probe grid as recorded at 9530ade, before it was
# fitted through tail_slope
@pytest.mark.parametrize("spec, estimate", [
    (bh.exp_critical(0.5, 4), 2.0313187913765387),
    (bh.exp_critical(0.5, 2), 1.0313187913765387),
    (bh.exact_growth_family(1.0), 1.0078654015285224),
    (bh.user_nonlinearity("2*t"), 0.031318791376538625)])
def test_check_conditions_alpha0_estimate_pinned(spec, estimate):
    rep = check_conditions(spec)
    assert rep["alpha0_estimate"] == pytest.approx(estimate, rel=1e-12, abs=0)


def test_tail_slope_needs_three_finite_pairs():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert tail_slope(x, 3.0 * x - 1.0) == pytest.approx(3.0, rel=1e-12)
    assert tail_slope(x, np.array([2.0, np.nan, 6.0, 8.0])) == pytest.approx(2.0, rel=1e-12)
    assert np.isnan(tail_slope(x[:2], x[:2]))
    # a pair counts only when both coordinates are finite
    assert np.isnan(tail_slope(x, np.array([1.0, np.inf, 3.0, np.nan])))
    assert np.isnan(tail_slope(np.array([np.nan, 2.0, 3.0, -np.inf]), x))

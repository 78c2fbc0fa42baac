import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import biharm as bh
from biharm.grid import apply_stencil
from biharm.model import OVERFLOW_CAP
from biharm.solvers import (_Ops, _ops_for, _project, gaussian_start, limiting_gap,
                            minimize_nehari, minimize_pohozaev, project_nehari,
                            project_pohozaev, residual_weak)
from oracles import (exp_critical_config, gradient_action, gradient_quadratic,
                     nehari_energy_identity_gap, nehari_sign_scan)

LAM = 0.5


@pytest.fixture(scope="module")
def cfg():
    return exp_critical_config(1.0, LAM)


@pytest.fixture(scope="module")
def g4():
    return bh.default_grid(4)


@pytest.fixture(scope="module")
def gauss(g4):
    return bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))


@pytest.fixture(scope="module")
def solved(cfg, g4):
    init = bh.RadialField(g4, np.exp(-g4.nodes**2))
    return minimize_pohozaev(cfg, init)


def dilated(u, theta):
    """u(x / S), S = (1 - 2 theta)^(1/n) on R^n: the same samples on the grid S r_max.

    This maps a Pohozaev minimizer with multiplier theta onto a solution of the
    plain equation; scaling the radii transforms the discrete multiplier
    equation exactly, with no interpolation.
    """
    S = (1.0 - 2.0 * theta) ** (1.0 / u.grid.dimension)
    grid = bh.build_grid(S * u.grid.r_max, u.grid.n_points, u.grid.dimension)
    return bh.RadialField(grid, u.values.copy())


# --- projections -------------------------------------------------------------

def test_project_pohozaev_matches_scan_oracle(cfg, g4, gauss):
    s0 = project_pohozaev(gauss, cfg)
    # independent fine-scan oracle for the sign change of s -> G(su)
    from biharm.functionals import evaluate_all
    svals = np.linspace(0.5 * s0, 1.5 * s0, 10_000)
    gs = np.array([evaluate_all(bh.RadialField(g4, s * gauss.values), cfg)["pohozaev_G"]
                   for s in svals[::100]])
    # bracketing scan (coarse then refined around the crossing)
    sign_flip = np.nonzero(np.diff(np.sign(gs)))[0]
    assert len(sign_flip) == 1
    lo, hi = svals[::100][sign_flip[0]], svals[::100][sign_flip[0] + 1]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        val = evaluate_all(bh.RadialField(g4, mid * gauss.values), cfg)["pohozaev_G"]
        if val > 0:
            lo = mid
        else:
            hi = mid
    assert s0 == pytest.approx(0.5 * (lo + hi), abs=1e-8)
    assert 0 < s0 <= 6.0


def test_project_pohozaev_scale_consistency(cfg, g4, gauss):
    s0 = project_pohozaev(gauss, cfg)
    for c in (0.5, 2.0):
        sc = project_pohozaev(bh.RadialField(g4, c * gauss.values), cfg)
        assert sc == pytest.approx(s0 / c, rel=1e-8)


def test_project_zero_field_errors(cfg, g4):
    z = bh.RadialField(g4, np.zeros(g4.n_points))
    with pytest.raises(ValueError):
        project_pohozaev(z, cfg)
    with pytest.raises(ValueError):
        project_nehari(z, cfg)


@pytest.mark.parametrize("project", [project_pohozaev, project_nehari])
def test_project_refuses_a_non_finite_ray(g4, gauss, project):
    # f and F are NaN on 0.01 < |t| < 0.04, which the field's tail crosses on the
    # ray, and finite on every point of the nonlinearity's own scan of [-cap, cap]
    # (spacing 0.046875), so only the projection can refuse them
    base = bh.exp_critical(0.5)

    def nan_in_a_gap(fn):
        return lambda t: np.where((np.abs(t) > 0.01) & (np.abs(t) < 0.04), np.nan, fn(t))

    spec = bh.NonlinearitySpec("user", nan_in_a_gap(base.f), nan_in_a_gap(base.F),
                               alpha0=2.0)
    config = bh.ProblemConfig(bh.ConstantPotential(1.0), spec)
    with pytest.raises(ValueError, match="functional is nan at scale"):
        project(gauss, config)


def test_project_nehari_residual(cfg, g4):
    rng = np.random.default_rng(2)
    for _ in range(5):
        vals = rng.uniform(0.2, 1.0) * np.exp(-(g4.nodes / rng.uniform(0.8, 2.0)) ** 2)
        u = bh.RadialField(g4, vals)
        t = project_nehari(u, cfg)
        from biharm.functionals import evaluate_all
        rep = evaluate_all(bh.RadialField(g4, t * vals), cfg)
        assert abs(rep["nehari_N"]) <= 1e-10 * (1 + rep["mass_terms"]["l2_sq"])


def test_nehari_sign_scan_unique(cfg, g4):
    rng = np.random.default_rng(4)
    for _ in range(10):
        vals = rng.uniform(0.1, 1.2) * np.exp(-(g4.nodes / rng.uniform(0.7, 2.5)) ** 2) \
            * (1 + rng.uniform(-0.3, 0.3) * (g4.nodes / 2) ** 2)
        u = bh.RadialField(g4, vals)
        count, brackets = nehari_sign_scan(u, cfg)
        assert count == 1
        t = project_nehari(u, cfg)
        lo, hi = brackets[0]
        assert lo <= t <= hi


def test_potential_ordering_of_projections(g4):
    # V <= gamma pointwise gives t_u(V) <= t_u(gamma)
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    cfg_V = bh.ProblemConfig(prof, bh.exp_critical(0.3, 4))
    cfg_c = bh.ProblemConfig(bh.ConstantPotential(1.0), bh.exp_critical(0.3, 4))
    u = bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))
    assert project_nehari(u, cfg_V) <= project_nehari(u, cfg_c) + 1e-10


# --- projection properties ----------------------------------------------------
#
# One configuration per dimension and nonlinearity, all with the trapping well
# 1 - 0.4 exp(-r^2) (gamma = V(r_max) = 1): the exp-critical family, the
# exact-growth family and a parsed f whose F is integrated numerically.

def _ray_configs():
    out = {}
    for dim in (4, 2):
        grid = bh.default_grid(dim)
        well = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
        user_f = "0.3*t*exp(2*t^2)" if dim == 4 else "0.3*t*exp(t^2)"
        for kind, spec in (("exp", bh.exp_critical(0.3, dim)),
                           ("exact", bh.exact_growth_family(1.5)),
                           ("user", bh.user_nonlinearity(user_f))):
            out[dim, kind] = (grid, bh.ProblemConfig(well, spec))
    return out


_RAY_CONFIGS = _ray_configs()
_CONSTRAINTS = {"G": (project_pohozaev, _Ops.G, _Ops.G_ray),
                "N": (project_nehari, _Ops.N, _Ops.N_ray)}
_ray_case = st.tuples(st.sampled_from(sorted(_RAY_CONFIGS)), st.sampled_from("GN"),
                      st.floats(0.1, 2.0), st.floats(0.5, 2.5))


def _ray_setup(case):
    """(grid, config, ops, projection, functional, ray, nodal values) of a case."""
    key, which, amp, sigma = case
    grid, cfg = _RAY_CONFIGS[key]
    vals = amp * np.exp(-(grid.nodes / sigma) ** 2)
    return (grid, cfg, _ops_for(grid, cfg), *_CONSTRAINTS[which], vals)


def _project_or_reject(project, grid, vals, cfg):
    try:
        return project(bh.RadialField(grid, vals), cfg)
    except bh.OverflowCapError:
        reject()          # the ray does not cross zero below the overflow cap


def _term_size(ops, v):
    """Sum of the magnitudes of the integrals G and N are built from."""
    return (ops.quad_form(v) + float(np.dot(ops.w, (ops.V + ops.gamma) * v * v))
            + abs(float(np.dot(ops.w, ops.f(v) * v))) + 2.0 * abs(ops.F_mass(v)))


@settings(max_examples=40, deadline=None)
@given(case=_ray_case, frac=st.floats(1e-6, 1.0))
def test_ray_equals_functional(case, frac):
    # s from 1e-6 of the overflow-cap scale up to it (no squares underflow)
    grid, cfg, ops, _, functional, ray, vals = _ray_setup(case)
    s = frac * OVERFLOW_CAP / float(np.max(vals))
    got, want = ray(ops, vals)(s), functional(ops, s * vals)
    assert abs(got - want) <= 1e-12 * _term_size(ops, s * vals)
    if functional is _Ops.G:
        # G and its ray are one formula: at s = 1 they agree bit for bit
        assert ray(ops, vals)(1.0) == functional(ops, vals)


@settings(max_examples=40, deadline=None)
@given(case=_ray_case, amp2=st.floats(0.1, 2.0))
def test_projection_scale_covariance(case, amp2):
    grid, cfg, ops, project, _, _, vals = _ray_setup(case)
    c = amp2 / float(np.max(vals))
    s = _project_or_reject(project, grid, vals, cfg)
    sc = _project_or_reject(project, grid, c * vals, cfg)
    assert abs(c * sc - s) <= 1e-12 * s


@settings(max_examples=40, deadline=None)
@given(case=_ray_case)
def test_projection_meets_the_constraint(case):
    grid, cfg, ops, project, functional, ray, vals = _ray_setup(case)
    s = _project_or_reject(project, grid, vals, cfg)
    v = s * vals
    if case[1] == "G":
        assert abs(functional(ops, v)) <= 1e-13 * (1.0 + ops.l2(v))
    else:
        # N's natural norm is Q + int V u^2.  The root is exact for the ray;
        # a fresh N(s u) also carries the rounding of Q(s u) against s^2 Q(u)
        # (up to about 5e-13 relative for the widest fields here).
        norm_sq = ops.quad_form(v) + ops.pot_mass(v)
        assert abs(ray(ops, vals)(s)) <= 1e-13 * (1.0 + norm_sq)
        assert abs(functional(ops, v)) <= 1e-12 * (1.0 + norm_sq)


def _bisect(fun, lo, hi):
    """Sign change of fun in [lo, hi], fun(lo) > 0 >= fun(hi), to adjacent floats."""
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fun(mid) > 0 else (lo, mid)
    return hi


@pytest.mark.parametrize("which", ["G", "N"])
@pytest.mark.parametrize("dim", [4, 2])
def test_projection_brackets_from_the_manifold_scale(dim, which):
    # the bracket starts at s = 1, where descent and polish iterates put the
    # root, so fields scaled off the manifold by 0.25-4 take few ray evaluations
    grid, cfg = _RAY_CONFIGS[dim, "exp"]
    project, _, ray = _CONSTRAINTS[which]
    ops = _ops_for(grid, cfg)
    bump = 0.5 * np.exp(-(grid.nodes / 1.5) ** 2)
    on = project(bh.RadialField(grid, bump), cfg) * bump
    for c in (0.25, 0.5, 0.8, 1.25, 2.0, 4.0):
        calls = []

        def counted(ops, u):
            fun = ray(ops, u)
            return lambda s: calls.append(s) or fun(s)
        s = _project(bh.RadialField(grid, c * on), cfg, counted)
        assert len(calls) <= 14, (c, len(calls))
        want = _bisect(ray(ops, c * on), 0.5 / c, 2.0 / c)
        assert s == pytest.approx(want, rel=1e-13, abs=0.0)


# --- gradients vs finite differences ------------------------------------------

def test_gradients_match_finite_differences(cfg, g4):
    rng = np.random.default_rng(8)
    u0 = bh.RadialField(g4, 0.9 * np.exp(-(g4.nodes / 1.3) ** 2))
    from biharm import grid as gr
    from biharm.functionals import evaluate_all

    def J(vals):
        return 0.5 * gr.quad_form_sq(bh.RadialField(g4, vals))

    def I(vals):
        return evaluate_all(bh.RadialField(g4, vals), cfg)["energy_I"]

    gJ = gradient_quadratic(u0, cfg)
    gI = gradient_action(u0, cfg)
    for _ in range(20):
        v = rng.normal(size=g4.n_points) * np.exp(-(g4.nodes / rng.uniform(1, 3)) ** 2)
        # J is quadratic (no truncation error): a larger step suppresses the
        # cancellation noise of evaluating the functional twice
        epsJ = 1e-2 / max(np.max(np.abs(v)), 1e-9)
        epsI = 1e-4 / max(np.max(np.abs(v)), 1e-9)
        fdJ = (J(u0.values + epsJ * v) - J(u0.values - epsJ * v)) / (2 * epsJ)
        fdI = (I(u0.values + epsI * v) - I(u0.values - epsI * v)) / (2 * epsI)
        assert fdJ == pytest.approx(float(np.dot(gJ, v)), rel=1e-5)
        assert fdI == pytest.approx(float(np.dot(gI, v)), rel=1e-5)


# --- constrained minimization ---------------------------------------------------

def test_minimize_pohozaev_report(cfg, solved):
    rep = solved
    assert rep.converged
    assert rep.constraint_residual <= 1e-9 * (1 + abs(rep.objective))
    assert 2 * rep.lagrange_theta - 1 < 0
    assert rep.objective < 8 * np.pi**2
    # objective trace non-increasing over the descent phase
    objs = [t[1] for t in rep.trace]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(objs[:-2], objs[1:-1]))


def test_minimize_pohozaev_rejects_bad_config(g4):
    cfg2 = exp_critical_config(1.0, 0.5)
    z = bh.RadialField(g4, np.zeros(g4.n_points))
    with pytest.raises(ValueError):
        minimize_pohozaev(cfg2, z)


def test_lambda_monotonicity(g4):
    # larger lam relaxes the constraint: smaller objective.  Near lam = gamma
    # the state flattens toward the truncation radius, so probe at 0.8.
    rep_lo = minimize_pohozaev(exp_critical_config(1.0, 0.5),
                               bh.RadialField(g4, np.exp(-g4.nodes**2)))
    rep_hi = minimize_pohozaev(exp_critical_config(1.0, 0.8),
                               bh.RadialField(g4, np.exp(-g4.nodes**2)))
    assert rep_hi.objective < rep_lo.objective


def test_recover_solution_properties(cfg, solved):
    rep = solved
    ut = dilated(rep.field, rep.lagrange_theta)
    assert residual_weak(ut, cfg) <= 1e-6
    from biharm.functionals import evaluate_all
    fr = evaluate_all(ut, cfg)
    scale = fr["mass_terms"]["lap_l2_sq"] + fr["mass_terms"]["pot_l2_sq"]
    assert abs(fr["nehari_N"]) <= 1e-6 * scale
    assert abs(fr["pohozaev_G"]) <= 1e-6 * (1 + fr["mass_terms"]["l2_sq"])


def test_residual_weak_zero_and_bump(cfg, g4, gauss):
    z = bh.RadialField(g4, np.zeros(g4.n_points))
    assert residual_weak(z, cfg) == 0.0
    assert residual_weak(gauss, cfg) > 0.1      # a non-solution is O(1) off


# --- Nehari minimization ----------------------------------------------------------

def test_minimize_nehari_constant(cfg, g4):
    rep = minimize_nehari(cfg, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2)))
    assert rep.converged
    assert rep.residual_weak <= 1e-6
    assert rep.constraint_residual <= 1e-9 * (1 + abs(rep.objective))
    gap = nehari_energy_identity_gap(rep.field, cfg, LAM)
    assert gap <= 1e-8 * (1 + abs(rep.objective))


@pytest.mark.parametrize("route, lam, n, converged", [
    ("pohozaev", 0.5, 2048, True), ("pohozaev", 0.1, 2048, False),
    ("nehari", 0.3, 2048, True), ("nehari", 0.3, 1024, False)])
def test_converged_is_the_reported_residual_within_the_gate(route, lam, n, converged):
    # the status reads the returned, projected state: at lambda 0.1 Newton's
    # own residual meets 1e-5, but the state after the final projection misses it
    g = bh.build_grid(20.0, n, 4)
    init = bh.RadialField(g, np.exp(-g.nodes**2 / 2))
    if route == "pohozaev":
        rep = minimize_pohozaev(exp_critical_config(1.0, lam), init)
    else:
        pot = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
        rep = minimize_nehari(bh.ProblemConfig(pot, bh.exp_critical(lam, 4)), init)
    assert rep.converged == (rep.residual_weak <= 1e-5) == converged
    gate_warnings = [w for w in rep.warnings if "convergence gate" in w]
    assert len(gate_warnings) == (0 if converged else 1)


def test_minimize_nehari_zero_init(cfg, g4):
    with pytest.raises(ValueError):
        minimize_nehari(cfg, bh.RadialField(g4, np.zeros(g4.n_points)))


def test_minimize_nehari_trapping(g4):
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    cfg_V = bh.ProblemConfig(prof, bh.exp_critical(0.3, 4))
    rep = minimize_nehari(cfg_V, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2)))
    assert rep.converged
    assert rep.objective > 0


def test_limiting_gap(g4):
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    cfg_V = bh.ProblemConfig(prof, bh.exp_critical(0.3, 4))
    rep = limiting_gap(cfg_V, gaussian_start(g4))
    assert rep["both_positive"]
    assert rep["gap"] > 1e-3
    # the projected limit minimizer sits between the two levels
    assert rep["m_V"] <= rep["comparison_level"] <= rep["m_infty"] + 1e-9


def test_limiting_gap_hypothesis_violated(g4):
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    cfg_bad = bh.ProblemConfig(prof, bh.exp_critical(0.7, 4))
    with pytest.raises(ValueError, match="not below V0=0.6"):
        limiting_gap(cfg_bad, gaussian_start(g4))


def test_level_consistency_pohozaev_vs_nehari(cfg, g4, solved):
    ut = dilated(solved.field, solved.lagrange_theta)
    from biharm.functionals import evaluate_all
    I_val = evaluate_all(ut, cfg)["energy_I"]
    rep_n = minimize_nehari(cfg, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2)))
    assert abs(I_val - rep_n.objective) <= 1e-4 * abs(rep_n.objective)


def test_monotonicity_in_potential(g4):
    # V1 <= V2 pointwise gives m(V1) <= m(V2)
    prof1 = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    prof2 = lambda r: 1.0 - 0.1 * np.exp(-np.asarray(r, float) ** 2)
    m = []
    for prof in (prof1, prof2):
        cfg_V = bh.ProblemConfig(prof, bh.exp_critical(0.3, 4))
        m.append(minimize_nehari(cfg_V, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))).objective)
    assert m[0] <= m[1] + 1e-8


def test_2d_solve(g4):
    cfg2 = exp_critical_config(1.0, 0.5, dimension=2)
    g2 = bh.default_grid(2)
    rep = minimize_nehari(cfg2, bh.RadialField(g2, np.exp(-g2.nodes**2 / 2)))
    assert rep.converged
    assert rep.residual_weak <= 1e-6
    gap = nehari_energy_identity_gap(rep.field, cfg2, 0.5)
    assert gap <= 1e-8 * (1 + abs(rep.objective))


def test_ops_cache_is_bounded(g4):
    from biharm import solvers
    for lam in np.linspace(0.1, 0.9, 200):
        solvers._ops_for(g4, exp_critical_config(1.0, float(lam)))
    info = solvers._ops_for.cache_info()
    assert info.currsize <= info.maxsize


def test_ops_cache_hit_is_the_same_pair(g4):
    from biharm import solvers
    cfg_a, cfg_b = exp_critical_config(1.0, 0.3), exp_critical_config(1.0, 0.3)
    ops_a = solvers._ops_for(g4, cfg_a)
    assert solvers._ops_for(g4, cfg_a) is ops_a
    assert solvers._ops_for(g4, cfg_b).config is cfg_b


def test_a_problem_on_a_grid_of_another_dimension_is_refused(cfg):
    # a problem holds no dimension: the grid decides it, and the 4-D rate of
    # exp(2 t^2) is refused on a 2-D grid, where the critical rate is 1
    from biharm.functionals import evaluate_all
    g2 = bh.default_grid(2)
    u = bh.RadialField(g2, np.exp(-g2.nodes**2 / 2))
    for run in (minimize_pohozaev, minimize_nehari, lambda c, f: evaluate_all(f, c)):
        with pytest.raises(ValueError,
                           match="exp-critical coefficient does not match the dimension"):
            run(cfg, u)


def test_one_config_reads_the_facts_of_each_grid_it_is_posed_on():
    # a well 0.004 wide: V0 = min V is what the nodes of each grid sample of it
    well = lambda r: 1.2 - 0.9 * np.exp(-((np.asarray(r, float) - 1.005) / 0.002) ** 2)
    cfg = bh.ProblemConfig(well, bh.exp_critical(0.5, 4))
    coarse = _Ops(bh.build_grid(20.0, 2048, 4), cfg)
    assert np.min(coarse.V) == pytest.approx(0.6296, abs=1e-4)
    assert coarse.gamma == 1.2 and coarse.linear_slope == 0.5
    fine = bh.build_grid(20.0, 4001, 4)         # a node at r = 1.005, where V = 0.3
    with pytest.raises(ValueError, match=r"f\(t\)/t -> 0.5 as t -> 0, not below V0=0\.2999"):
        _Ops(fine, cfg)
    # the theta family has no dimension: one config runs on a 4-D and a 2-D grid
    theta = bh.ProblemConfig(bh.ConstantPotential(1.0), bh.exact_growth_family(1.5))
    for dim in (4, 2):
        rep = minimize_nehari(theta, gaussian_start(bh.default_grid(dim)))
        assert rep.converged and rep.objective > 0
        assert _ops_for(rep.field.grid, theta).m == dim // 2


def test_2d_gap_builds_one_ops_per_problem():
    # the trapped and the limit problem, each on the caller's grid only
    from biharm import solvers
    g2 = bh.build_grid(30.0, 512, 2)
    cfg = bh.ProblemConfig(lambda r: 1.1 - 0.4 * np.exp(-(np.asarray(r, float) / 1.5) ** 2),
                           bh.exp_critical(0.4, 2))
    solvers._ops_for.cache_clear()
    rep = solvers.limiting_gap(cfg, bh.RadialField(g2, np.exp(-g2.nodes**2 / 2)))
    assert solvers._ops_for.cache_info().misses == 2
    assert rep["gap"] > 0


def test_2d_objective_converges_at_fourth_order():
    # successive differences of the 2-D ground level shrink ~16x per halving of h
    cfg2 = exp_critical_config(1.1, 0.5, dimension=2)
    objs = []
    for n in (1024, 2048, 4096):
        g2 = bh.build_grid(30.0, n, 2)
        rep = minimize_pohozaev(cfg2, bh.RadialField(g2, np.exp(-g2.nodes**2 / 2)))
        assert rep.converged
        objs.append(rep.objective)
    assert (objs[1] - objs[0]) / (objs[2] - objs[1]) >= 12.0


def test_4d_objective_converges_at_fourth_order():
    # the 4-D ground level (gamma 1, lambda 0.5) on 20:n, n = 1024, 2048, 4096
    cfg4 = exp_critical_config(1.0, 0.5)
    objs = []
    for n in (1024, 2048, 4096):
        g = bh.build_grid(20.0, n, 4)
        rep = minimize_pohozaev(cfg4, bh.RadialField(g, np.exp(-g.nodes**2 / 2)))
        assert rep.converged
        objs.append(rep.objective)
    assert (objs[1] - objs[0]) / (objs[2] - objs[1]) >= 12.0


def test_polish_newton_stops_at_the_rounding_floor(cfg, solved, monkeypatch):
    # from a polished state one Newton step reaches the residual's rounding
    # floor; steps that move u by less than its rounding are not taken
    from biharm import solvers
    calls = []
    splu = solvers.spla.splu
    monkeypatch.setattr(solvers.spla, "splu", lambda A: calls.append(1) or splu(A))
    ops = solvers._ops_for(solved.field.grid, cfg)
    u = solvers._damped_newton_pde(ops, solved.field.values)
    assert ops.nrm(ops.pde_residual(u)) <= 1e-5 * (ops.nrm(ops.f(u)) + ops.nrm(ops.V * u))
    assert len(calls) <= 3

def _pde_residual_longdouble(ops, u, lam):
    """(-D)^m u + V u - f(u) for f = lam t exp(a t^2), with every step in np.longdouble.

    The stencil rows are built here from their formula, so the reference
    carries neither the rounding of the double rows nor that of the matvecs.
    """
    ld = np.longdouble
    r_max, n, dim = ops.grid.key()
    h = ld(r_max) / ld(n - 1)
    r = np.arange(1, n, dtype=ld) * h
    rows = np.zeros((n, 5), dtype=ld)
    rows[1:] = (np.array([-1, 16, -30, 16, -1], dtype=ld) / (12 * h * h)
                + (dim - 1) / r[:, None] * np.array([1, -8, 0, 8, -1], dtype=ld) / (12 * h))
    rows[0, 2:] = dim * np.array([-30, 32, -2], dtype=ld) / (12 * h * h)
    rows[1, 2] += rows[1, 0]            # even extension: u_{-1} = u_1
    rows[1, 0] = 0
    rows[n - 2, 4] = rows[n - 1, 3:] = 0  # Dirichlet ghosts past r_max
    assert np.max(np.abs(rows - ops.L)) <= 1e-15 * np.max(np.abs(ops.L))
    uq = u.astype(ld)
    lap = apply_stencil(rows, uq)
    a0u = apply_stencil(rows, lap) if dim == 4 else -lap
    return a0u + ops.V.astype(ld) * uq - ld(lam) * uq * np.exp(ld(ops.spec.alpha0) * uq * uq)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is plain double here")
@pytest.mark.parametrize("dim, r_max, n", [(4, 20.0, 2048), (2, 30.0, 2048), (4, 20.0, 8192)])
def test_residual_floor_bounds_the_rounding_of_the_residual(dim, r_max, n):
    # the double residual stays within residual_floor of an extended-precision
    # one, on the polished ground state and on smooth random fields
    grd = bh.build_grid(r_max, n, dim)
    lam = 0.5
    cfg = exp_critical_config(1.0, lam, dimension=dim)
    ground = minimize_pohozaev(cfg, bh.RadialField(grd, np.exp(-grd.nodes**2 / 2)))
    assert ground.converged
    ops = _ops_for(grd, cfg)
    rng = np.random.default_rng(7)
    fields = [ground.field.values]
    for _ in range(4):
        amps, widths = rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 4.0, 3)
        fields.append(sum(a * np.exp(-grd.nodes**2 / w) for a, w in zip(amps, widths)))
    for u in fields:
        exact = np.asarray(_pde_residual_longdouble(ops, u, lam), dtype=float)
        assert ops.nrm(ops.pde_residual(u) - exact) <= ops.residual_floor(u)


@pytest.mark.parametrize("dim, gamma, lam",
                         [(4, 1.0, 0.5), (4, 1.0, 0.3), (2, 1.0, 0.5), (2, 1.1, 0.55)])
def test_newton_polish_factors_at_most_twice(monkeypatch, dim, gamma, lam):
    # from the stagnated descent iterate the polish stops at the residual's
    # rounding bound, two Newton steps on the default grids; the handoff trial
    # is switched off, so Newton starts where the full descent ends
    from biharm import solvers
    monkeypatch.setattr(solvers, "_HANDOFF_STEP", solvers._DESCENT_STEPS + 1)
    calls, in_newton = [], []
    splu, newton = solvers.spla.splu, solvers._damped_newton_pde
    monkeypatch.setattr(solvers.spla, "splu",
                        lambda A: calls.append(bool(in_newton)) or splu(A))

    def traced_newton(*args):
        in_newton.append(1)
        try:
            return newton(*args)
        finally:
            in_newton.clear()

    monkeypatch.setattr(solvers, "_damped_newton_pde", traced_newton)
    grd = bh.default_grid(dim)
    rep = minimize_pohozaev(exp_critical_config(gamma, lam, dimension=dim),
                            bh.RadialField(grd, np.exp(-grd.nodes**2 / 2)))
    assert rep.converged
    assert calls.count(True) <= 2


@pytest.mark.parametrize("dim, gamma, lam", [(4, 1.0, 0.5), (2, 1.1, 0.55)])
def test_a_solve_factors_its_descent_operator_once(monkeypatch, dim, gamma, lam):
    # the descent makes one factorization and each Newton step one more
    from biharm import solvers
    calls, in_newton = [], []
    splu, newton = solvers.spla.splu, solvers._damped_newton_pde
    monkeypatch.setattr(solvers.spla, "splu",
                        lambda A: calls.append(bool(in_newton)) or splu(A))

    def traced_newton(*args):
        in_newton.append(1)
        try:
            return newton(*args)
        finally:
            in_newton.clear()

    monkeypatch.setattr(solvers, "_damped_newton_pde", traced_newton)
    grd = bh.default_grid(dim)
    rep = minimize_pohozaev(exp_critical_config(gamma, lam, dimension=dim),
                            bh.RadialField(grd, np.exp(-grd.nodes**2 / 2)))
    assert rep.converged
    assert calls.count(False) == 1
    assert len(calls) <= 6


# --- the handoff: after _HANDOFF_STEP descent steps a copy is polished once ------

def _without_handoff(run):
    """run() with the handoff trial switched off, so the descent runs until it stagnates."""
    from biharm import solvers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_HANDOFF_STEP", solvers._DESCENT_STEPS + 1)
        return run()


def _gauss_init(dim):
    grd = bh.default_grid(dim)
    return bh.RadialField(grd, np.exp(-grd.nodes**2 / 2))


# the Pohozaev route at (4, 0.5) is the benchmark's SOLVE_4D
@pytest.mark.parametrize("route", [minimize_pohozaev, minimize_nehari])
@pytest.mark.parametrize("dim, lam", [(4, 0.5), (4, 0.3), (2, 0.5), (2, 0.3)])
def test_handoff_keeps_the_level_of_the_full_descent(route, dim, lam):
    # Newton takes over after 5 descent steps, below the descent's level there,
    # and lands on the level that the polish of the full descent reports
    from biharm.solvers import _HANDOFF_STEP
    cfg, init = exp_critical_config(1.0, lam, dimension=dim), _gauss_init(dim)
    rep = route(cfg, init)
    full = _without_handoff(lambda: route(cfg, init))
    assert rep.converged and full.converged
    assert rep.iterations == _HANDOFF_STEP < full.iterations
    assert rep.objective < rep.trace[_HANDOFF_STEP][1]
    assert abs(rep.objective - full.objective) <= 1e-12 * full.objective


def test_handoff_keeps_the_gap_levels():
    # the benchmark's GAP_4D: both Nehari solves hand over after 5 steps
    from biharm.expressions import parse_expression
    init = _gauss_init(4)
    cfg = bh.ProblemConfig(parse_expression("1-0.4*exp(-t^2)"), bh.exp_critical(0.3, 4))
    rep = limiting_gap(cfg, init)
    full = _without_handoff(lambda: limiting_gap(cfg, init))
    assert rep["status_V"]["iterations"] == rep["status_infty"]["iterations"] == 5
    assert min(full["status_V"]["iterations"], full["status_infty"]["iterations"]) > 5
    for level in ("m_V", "m_infty"):
        assert abs(rep[level] - full[level]) <= 1e-12 * full[level]
    # I_V at the projected limit minimizer moves with the minimizer's rounding
    assert rep["comparison_level"] == pytest.approx(full["comparison_level"], rel=1e-9)


@pytest.mark.parametrize("args", [["--lambda", "0.1"], ["--lambda", "0.2"],
                                  ["--dim", "2", "--lambda", "0.1"]])
def test_a_rejected_handoff_leaves_the_report_unchanged(tmp_path, monkeypatch, args):
    # at small lambda the trial misses the 1e-5 gate; the descent goes on from its
    # untouched iterate, so the report is byte for byte that of the full descent
    from biharm import solvers
    from biharm.cli import EXIT_NOCONV, main
    newton, trials = solvers._damped_newton_pde, []

    def counted_newton(ops, u, iters=solvers._NEWTON_ITERS):
        trials.append(iters == solvers._HANDOFF_NEWTON_ITERS)
        return newton(ops, u, iters)

    monkeypatch.setattr(solvers, "_damped_newton_pde", counted_newton)
    assert main(["solve", *args, "--out-dir", str(tmp_path / "handoff")]) == EXIT_NOCONV
    assert trials.count(True) == 1
    assert _without_handoff(
        lambda: main(["solve", *args, "--out-dir", str(tmp_path / "full")])) == EXIT_NOCONV
    assert trials.count(True) == 1
    for name in ("solve.json", "solution.csv"):
        assert (tmp_path / "handoff" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_a_trial_root_above_the_descent_level_is_rejected(monkeypatch):
    # a Newton root above the descent's level is a higher critical point, not the
    # ground state.  Here the trial's root is lifted one unit above it (the first
    # objective call after the trial's Newton is the one that judges the trial):
    # it is rejected, and the solve is the full descent's, step for step
    from biharm import solvers
    cfg, init = exp_critical_config(1.0, 0.5, dimension=2), _gauss_init(2)
    full = _without_handoff(lambda: minimize_nehari(cfg, init))
    newton, action, lift = solvers._damped_newton_pde, _Ops.I, []

    def trial_newton(ops, u, iters=solvers._NEWTON_ITERS):
        lift.append(iters == solvers._HANDOFF_NEWTON_ITERS)
        return newton(ops, u, iters)

    def lifted_action(ops, u):
        return action(ops, u) + (1.0 if lift and lift.pop() else 0.0)

    monkeypatch.setattr(solvers, "_damped_newton_pde", trial_newton)
    monkeypatch.setattr(_Ops, "I", lifted_action)
    rep = minimize_nehari(cfg, init)
    assert rep.iterations == full.iterations > solvers._HANDOFF_STEP
    assert rep.trace == full.trace
    assert rep.objective == full.objective
    assert np.array_equal(rep.field.values, full.field.values)


def test_descent_stays_short_where_the_multiplier_moves_far(g4, gauss):
    # c = 1 - 2 theta starts near 3.7 here; a descent factor at c = 1 instead
    # of the start's c0 took 73 steps, a fresh factor per step 28
    cfg = bh.ProblemConfig(bh.ConstantPotential(1.0), bh.exact_growth_family(1.5))
    rep = minimize_pohozaev(cfg, gauss)
    assert rep.converged
    assert rep.iterations <= 40


def test_gradient_action_honours_the_cap(cfg, g4):
    with pytest.raises(bh.OverflowCapError):
        gradient_action(bh.RadialField(g4, 8.0 * np.exp(-g4.nodes**2)), cfg)

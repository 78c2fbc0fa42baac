import numpy as np
import pytest

import biharm as bh
from biharm.solvers import (SolverOptions, gradient_action, gradient_quadratic,
                            limiting_gap, minimize_nehari, minimize_pohozaev,
                            nehari_sign_scan, project_nehari, project_pohozaev,
                            recover_solution, residual_weak)


@pytest.fixture(scope="module")
def cfg():
    return bh.exp_critical_config(1.0, 0.5)


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


# --- projections -------------------------------------------------------------

def test_project_pohozaev_matches_scan_oracle(cfg, g4, gauss):
    s0 = project_pohozaev(gauss, cfg)
    # independent fine-scan oracle for the sign change of s -> G(su)
    from biharm.functionals import evaluate_all
    svals = np.linspace(0.5 * s0, 1.5 * s0, 10_000)
    gs = np.array([evaluate_all(bh.RadialField(g4, s * gauss.values), cfg).pohozaev_G
                   for s in svals[::100]])
    # bracketing scan (coarse then refined around the crossing)
    sign_flip = np.nonzero(np.diff(np.sign(gs)))[0]
    assert len(sign_flip) == 1
    lo, hi = svals[::100][sign_flip[0]], svals[::100][sign_flip[0] + 1]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        val = evaluate_all(bh.RadialField(g4, mid * gauss.values), cfg).pohozaev_G
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


def test_project_nehari_residual(cfg, g4):
    rng = np.random.default_rng(2)
    for _ in range(5):
        vals = rng.uniform(0.2, 1.0) * np.exp(-(g4.nodes / rng.uniform(0.8, 2.0)) ** 2)
        u = bh.RadialField(g4, vals)
        t = project_nehari(u, cfg)
        from biharm.functionals import evaluate_all
        rep = evaluate_all(bh.RadialField(g4, t * vals), cfg)
        assert abs(rep.nehari_N) <= 1e-10 * (1 + rep.mass_terms.l2_sq)


def test_nehari_sign_scan_unique(cfg, g4):
    rng = np.random.default_rng(4)
    for _ in range(10):
        vals = rng.uniform(0.1, 1.2) * np.exp(-(g4.nodes / rng.uniform(0.7, 2.5)) ** 2) \
            * (1 + rng.uniform(-0.3, 0.3) * (g4.nodes / 2) ** 2)
        u = bh.RadialField(g4, vals)
        count, brackets = nehari_sign_scan(u, cfg, 1000)
        assert count == 1
        t = project_nehari(u, cfg)
        lo, hi = brackets[0]
        assert lo <= t <= hi


def test_potential_ordering_of_projections(g4):
    # V <= gamma pointwise gives t_u(V) <= t_u(gamma)
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    pot = bh.radial_potential(prof, g4)
    cfg_V = bh.ProblemConfig(4, 0.3, pot, bh.exp_critical(0.3, 4))
    cfg_c = bh.ProblemConfig(4, 0.3, bh.ConstantPotential(1.0), bh.exp_critical(0.3, 4))
    u = bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))
    assert project_nehari(u, cfg_V) <= project_nehari(u, cfg_c) + 1e-10


# --- gradients vs finite differences ------------------------------------------

def test_gradients_match_finite_differences(cfg, g4):
    rng = np.random.default_rng(8)
    u0 = bh.RadialField(g4, 0.9 * np.exp(-(g4.nodes / 1.3) ** 2))
    from biharm import grid as gr
    from biharm.functionals import evaluate_all

    def J(vals):
        return 0.5 * gr.lap_l2_sq(bh.RadialField(g4, vals))

    def I(vals):
        return evaluate_all(bh.RadialField(g4, vals), cfg).energy_I

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
    cfg2 = bh.exp_critical_config(1.0, 0.5)
    z = bh.RadialField(g4, np.zeros(g4.n_points))
    with pytest.raises(ValueError):
        minimize_pohozaev(cfg2, z)


def test_lambda_monotonicity(g4):
    # larger lam relaxes the constraint: smaller objective.  Near lam = gamma
    # the state flattens toward the truncation radius, so probe at 0.8.
    rep_lo = minimize_pohozaev(bh.exp_critical_config(1.0, 0.5),
                               bh.RadialField(g4, np.exp(-g4.nodes**2)))
    rep_hi = minimize_pohozaev(bh.exp_critical_config(1.0, 0.8),
                               bh.RadialField(g4, np.exp(-g4.nodes**2)))
    assert rep_hi.objective < rep_lo.objective


def test_recover_solution_properties(cfg, solved):
    rep = solved
    ut = recover_solution(rep.field, rep.lagrange_theta, cfg)
    assert residual_weak(ut, cfg) <= 1e-6
    from biharm.functionals import evaluate_all
    fr = evaluate_all(ut, cfg)
    scale = fr.mass_terms.lap_l2_sq + fr.mass_terms.pot_l2_sq
    assert abs(fr.nehari_N) <= 1e-6 * scale
    assert abs(fr.pohozaev_G) <= 1e-6 * (1 + fr.mass_terms.l2_sq)


def test_recover_theta_zero_is_identity(cfg, gauss):
    out = recover_solution(gauss, 0.0, cfg)
    assert out.grid.r_max == gauss.grid.r_max
    assert np.array_equal(out.values, gauss.values)


def test_recover_theta_too_large(cfg, gauss):
    with pytest.raises(ValueError):
        recover_solution(gauss, 0.6, cfg)


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
    gap = bh.nehari_energy_identity_gap(rep.field, cfg)
    assert gap <= 1e-8 * (1 + abs(rep.objective))


def test_minimize_nehari_zero_init(cfg, g4):
    with pytest.raises(ValueError):
        minimize_nehari(cfg, bh.RadialField(g4, np.zeros(g4.n_points)))


def test_minimize_nehari_trapping(g4):
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    pot = bh.radial_potential(prof, g4)
    cfg_V = bh.ProblemConfig(4, 0.3, pot, bh.exp_critical(0.3, 4))
    rep = minimize_nehari(cfg_V, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2)))
    assert rep.converged
    assert rep.objective > 0


def test_limiting_gap(g4):
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    pot = bh.radial_potential(prof, g4)
    cfg_V = bh.ProblemConfig(4, 0.3, pot, bh.exp_critical(0.3, 4))
    rep = limiting_gap(cfg_V)
    assert rep.both_positive
    assert rep.gap > 1e-3
    # the projected limit minimizer sits between the two levels
    assert rep.m_V <= rep.comparison_level <= rep.m_infty + 1e-9


def test_limiting_gap_hypothesis_violated(g4):
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    pot = bh.radial_potential(prof, g4)
    with pytest.raises(ValueError):
        cfg_bad = bh.ProblemConfig(4, 0.7, pot, bh.exp_critical(0.7, 4))
        limiting_gap(cfg_bad)


def test_level_consistency_pohozaev_vs_nehari(cfg, g4, solved):
    ut = recover_solution(solved.field, solved.lagrange_theta, cfg)
    from biharm.functionals import evaluate_all
    I_val = evaluate_all(ut, cfg).energy_I
    rep_n = minimize_nehari(cfg, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2)))
    assert abs(I_val - rep_n.objective) <= 1e-4 * abs(rep_n.objective)


def test_monotonicity_in_potential(g4):
    # V1 <= V2 pointwise gives m(V1) <= m(V2)
    prof1 = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    prof2 = lambda r: 1.0 - 0.1 * np.exp(-np.asarray(r, float) ** 2)
    m = []
    for prof in (prof1, prof2):
        pot = bh.radial_potential(prof, g4)
        cfg_V = bh.ProblemConfig(4, 0.3, pot, bh.exp_critical(0.3, 4))
        m.append(minimize_nehari(cfg_V, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))).objective)
    assert m[0] <= m[1] + 1e-8


def test_2d_solve(g4):
    cfg2 = bh.exp_critical_config(1.0, 0.5, dimension=2)
    g2 = bh.default_grid(2)
    rep = minimize_nehari(cfg2, bh.RadialField(g2, np.exp(-g2.nodes**2 / 2)))
    assert rep.converged
    assert rep.residual_weak <= 1e-6
    gap = bh.nehari_energy_identity_gap(rep.field, cfg2)
    assert gap <= 1e-8 * (1 + abs(rep.objective))


def test_ops_cache_is_bounded(g4):
    from biharm import solvers
    for lam in np.linspace(0.1, 0.9, 200):
        solvers._ops_for(g4, bh.exp_critical_config(1.0, float(lam)))
    info = solvers._ops_for.cache_info()
    assert info.currsize <= info.maxsize


def test_ops_cache_hit_is_the_same_pair(g4):
    from biharm import solvers
    cfg_a, cfg_b = bh.exp_critical_config(1.0, 0.3), bh.exp_critical_config(1.0, 0.3)
    ops_a = solvers._ops_for(g4, cfg_a)
    assert solvers._ops_for(g4, cfg_a) is ops_a
    assert solvers._ops_for(g4, cfg_b).config is cfg_b



def test_2d_gap_builds_one_ops_per_problem():
    # the trapped and the limit problem, each on the caller's grid only
    from biharm import solvers
    g2 = bh.build_grid(30.0, 512, 2)
    pot = bh.radial_potential(
        lambda r: 1.1 - 0.4 * np.exp(-(np.asarray(r, float) / 1.5) ** 2), g2)
    cfg = bh.ProblemConfig(2, 0.4, pot, bh.exp_critical(0.4, 2))
    solvers._ops_for.cache_clear()
    rep = solvers.limiting_gap(cfg, bh.RadialField(g2, np.exp(-g2.nodes**2 / 2)))
    assert solvers._ops_for.cache_info().misses == 2
    assert rep.gap > 0


def test_2d_objective_converges_at_fourth_order():
    # successive differences of the 2-D ground level shrink ~16x per halving of h
    cfg2 = bh.exp_critical_config(1.1, 0.5, dimension=2)
    objs = []
    for n in (1024, 2048, 4096):
        g2 = bh.build_grid(30.0, n, 2)
        rep = minimize_pohozaev(cfg2, bh.RadialField(g2, np.exp(-g2.nodes**2 / 2)))
        assert rep.converged
        objs.append(rep.objective)
    assert (objs[1] - objs[0]) / (objs[2] - objs[1]) >= 12.0


def test_gradient_action_honours_the_cap(cfg, g4):
    with pytest.raises(bh.OverflowCapError):
        gradient_action(bh.RadialField(g4, 8.0 * np.exp(-g4.nodes**2)), cfg)

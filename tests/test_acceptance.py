"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Default grid: r_max=20, N=2048 for the bi-harmonic problem (r_max=30 for the
2-D problem).  Tolerances are pinned in the asserts.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json

import numpy as np
import pytest

import biharm as bh
from biharm.cli import main as cli_main
from biharm.functionals import evaluate_all
from biharm.solvers import (gaussian_start, limiting_gap, minimize_nehari, minimize_pohozaev,
                            project_nehari, residual_weak)
from oracles import (exp_critical_config, gradient_action, gradient_quadratic,
                     nehari_energy_identity_gap, nehari_sign_scan)

GAMMA, LAM = 1.0, 0.5


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return exp_critical_config(GAMMA, LAM)


@pytest.fixture(scope="module")
def g4():
    return bh.default_grid(4)


@pytest.fixture(scope="module")
def pipeline(cfg, g4):
    """Shared ground-state pipeline runs for criteria 5 and 6."""
    inits = [(1.0, 1.0), (0.6, 1.4), (1.4, 0.8)]
    runs = []
    for a, s in inits:
        rep = minimize_pohozaev(cfg, bh.RadialField(g4, a * np.exp(-(g4.nodes / s) ** 2)))
        runs.append(rep)
    rep_n = minimize_nehari(cfg, bh.RadialField(g4, np.exp(-g4.nodes**2 / 2)))
    return runs, rep_n


def smooth_even_bumps(grid, rng, amp_cap=1.5):
    vals = np.zeros(grid.n_points)
    for _ in range(rng.integers(1, 4)):
        a = rng.uniform(0.1, 0.7) * rng.choice([-1.0, 1.0])
        s = rng.uniform(0.8, 2.5)
        p = rng.integers(0, 3)
        vals += a * (grid.nodes / s) ** (2 * p) * np.exp(-((grid.nodes / s) ** 2))
    m = np.max(np.abs(vals))
    if m > amp_cap:
        vals *= amp_cap / m
    return vals


def test_criterion_1_operator_accuracy():
    """Laplacian/bi-Laplacian on exp(-r^2/2): observed order >= 1.9."""
    errs_l, errs_b = [], []
    for n in (512, 1024, 2048):
        g = bh.build_grid(20.0, n, 4)
        L = bh.grid.laplacian_matrix(g)
        lap = bh.grid.apply_stencil(L, np.exp(-g.nodes**2 / 2))
        lap_t = (g.nodes**2 - 4) * np.exp(-g.nodes**2 / 2)
        bil_t = (g.nodes**4 - 12 * g.nodes**2 + 24) * np.exp(-g.nodes**2 / 2)
        el = lap - lap_t
        eb = bh.grid.apply_stencil(L, lap) - bil_t
        errs_l.append(np.sqrt(np.dot(g.weights, el**2)))
        errs_b.append(np.sqrt(np.dot(g.weights, eb**2)))
    orders = [np.log2(errs_l[i] / errs_l[i + 1]) for i in range(2)] \
        + [np.log2(errs_b[i] / errs_b[i + 1]) for i in range(2)]
    report("criterion 1 (operator accuracy)", min(orders) >= 1.9,
           f"observed orders {[f'{o:.2f}' for o in orders]}")


def test_criterion_2_plancherel_rearrangement(g4):
    """100 randomized smooth bumps: Plancherel, monotonicity, idempotence."""
    rng = np.random.default_rng(7)
    worst = {"planch": 0.0, "quad": -np.inf, "exp": -np.inf, "idem": 0.0}
    for _ in range(100):
        vals = smooth_even_bumps(g4, rng)
        u = bh.RadialField(g4, vals)
        p = bh.hankel_transform(g4, vals)
        n_u = np.sqrt(np.dot(g4.weights, vals**2))
        n_p = np.sqrt(np.dot(g4.weights, p**2))
        worst["planch"] = max(worst["planch"], abs(n_p - n_u) / n_u)
        w = bh.fourier_rearrange(u)
        r = w.report
        worst["quad"] = max(worst["quad"],
                            np.sqrt(r.quad_moment_out / r.quad_moment_in) - 1.0)
        worst["exp"] = max(worst["exp"], 1.0 - r.exp_mass_out / max(r.exp_mass_in, 1e-300))
        w2 = bh.fourier_rearrange(bh.RadialField(g4, w.values))
        worst["idem"] = max(worst["idem"],
                            np.sqrt(np.dot(g4.weights, (w2.values - w.values) ** 2)) / n_u)
    ok = (worst["planch"] <= 1e-6 and worst["quad"] <= 1e-6
          and worst["exp"] <= 1e-4 and worst["idem"] <= 1e-6)
    report("criterion 2 (Plancherel/rearrangement, 100 fields)", ok,
           f"planch={worst['planch']:.2e} quad={worst['quad']:.2e} "
           f"exp={worst['exp']:.2e} idem={worst['idem']:.2e}")


def test_criterion_3_concentration_asymptotics():
    """||D psi_b||^2 = 32 pi^2 K + O(1/b^2): fitted exponent in [-2.4, -1.6].

    b = 8 resolves its concentration scale on a mesh of 1.8e8 nodes, whose
    sums moser_estimates evaluates in closed form in milliseconds.
    """
    beta = 32 * np.pi**2
    bs = (3.0, 5.0, 8.0)
    excess, l2b2 = [], []
    for b in bs:
        est = bh.moser_estimates(b)
        excess.append(abs(est["lap_l2_sq"] - beta))
        l2b2.append(est["l2_sq"] * b * b)
    slope = float(np.polyfit(np.log(bs), np.log(excess), 1)[0])
    bounded = max(l2b2) / min(l2b2) < 1.5
    ok = -2.4 <= slope <= -1.6 and bounded
    report("criterion 3 (concentration asymptotics)", ok,
           f"fitted exponent {slope:.3f}; ||psi||^2 b^2 in "
           f"[{min(l2b2):.3f}, {max(l2b2):.3f}]")


def test_criterion_4_gradient_check(cfg, g4):
    """Discrete gradients match central finite differences along 20 directions."""
    rng = np.random.default_rng(8)
    from biharm import grid as gr

    u0 = bh.RadialField(g4, 0.9 * np.exp(-(g4.nodes / 1.3) ** 2))
    gJ = gradient_quadratic(u0, cfg)
    gI = gradient_action(u0, cfg)

    def J(vals):
        return 0.5 * gr.quad_form_sq(bh.RadialField(g4, vals))

    def I(vals):
        return evaluate_all(bh.RadialField(g4, vals), cfg).energy_I

    worst = 0.0
    for _ in range(20):
        v = rng.normal(size=g4.n_points) * np.exp(-(g4.nodes / rng.uniform(1, 3)) ** 2)
        epsJ = 1e-2 / max(np.max(np.abs(v)), 1e-9)
        epsI = 1e-4 / max(np.max(np.abs(v)), 1e-9)
        fdJ = (J(u0.values + epsJ * v) - J(u0.values - epsJ * v)) / (2 * epsJ)
        fdI = (I(u0.values + epsI * v) - I(u0.values - epsI * v)) / (2 * epsI)
        worst = max(worst, abs(fdJ - np.dot(gJ, v)) / abs(fdJ),
                    abs(fdI - np.dot(gI, v)) / abs(fdI))
    report("criterion 4 (gradient vs finite differences)", worst <= 1e-5,
           f"worst relative error {worst:.2e}")


def test_criterion_5_ground_state_pipeline(cfg, g4, pipeline):
    """Multi-start agreement, level bound, recovered-solution residuals."""
    runs, rep_n = pipeline
    objs = [r.objective for r in runs]
    spread = (max(objs) - min(objs)) / objs[0]
    ok = spread <= 1e-6
    detail = [f"A spread {spread:.2e}"]

    below = all(o < 8 * np.pi**2 for o in objs)
    ok &= below
    detail.append(f"A={objs[0]:.6f} < 8pi^2={8 * np.pi**2:.4f}: {below}")

    # the Pohozaev minimizer solves the plain equation after the dilation
    # u(x / S), S = (1 - 2 theta)^(1/4): the same samples on the grid S r_max
    rep = runs[0]
    S = (1.0 - 2.0 * rep.lagrange_theta) ** 0.25
    ut = bh.RadialField(bh.build_grid(S * g4.r_max, g4.n_points, 4), rep.field.values.copy())
    rw = residual_weak(ut, cfg)
    fr = evaluate_all(ut, cfg)
    scale_n = fr.mass_terms.lap_l2_sq + fr.mass_terms.pot_l2_sq
    scale_g = (cfg.gamma - LAM) * fr.mass_terms.l2_sq \
        + abs(fr.mass_terms.F_mass) + 1.0
    n_rel = abs(fr.nehari_N) / scale_n
    g_rel = abs(fr.pohozaev_G) / scale_g
    ok &= rw <= 1e-6 and n_rel <= 1e-6 and g_rel <= 1e-6
    detail.append(f"rw={rw:.2e} |N|/scale={n_rel:.2e} |G|/scale={g_rel:.2e}")

    lvl = abs(fr.energy_I - rep_n.objective) / abs(rep_n.objective)
    ok &= lvl <= 1e-4
    detail.append(f"|I-m|/m={lvl:.2e}")
    report("criterion 5 (ground-state pipeline)", ok, "; ".join(detail))


def test_criterion_6_energy_identity(cfg, g4):
    """Identity gap <= 1e-8 (1+|I|) for 20 random projected fields."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        vals = smooth_even_bumps(g4, rng, amp_cap=1.2)
        if np.max(np.abs(vals)) < 1e-3:
            continue
        u = bh.RadialField(g4, vals)
        t = project_nehari(u, cfg)
        proj = bh.RadialField(g4, t * vals)
        gap = nehari_energy_identity_gap(proj, cfg, LAM)
        I_val = evaluate_all(proj, cfg).energy_I
        worst = max(worst, gap / (1.0 + abs(I_val)))
    report("criterion 6 (on-manifold energy identity)", worst <= 1e-8,
           f"worst gap/(1+|I|) = {worst:.2e}")


def test_criterion_7_trapping_gap(g4):
    """0 < m_V < m_inf with gap > 1e-3; degenerate well gives gap ~ 0."""
    prof = lambda r: 1.0 - 0.4 * np.exp(-np.asarray(r, float) ** 2)
    pot = bh.radial_potential(prof, g4)
    cfg_V = bh.ProblemConfig(4, pot, bh.exp_critical(0.3, 4))
    rep = limiting_gap(cfg_V, gaussian_start(g4))
    ok = rep.both_positive and rep.m_V < rep.m_infty and rep.gap > 1e-3

    const = lambda r: np.full_like(np.asarray(r, float), 1.0)
    pot_c = bh.radial_potential(const, g4)
    cfg_D = bh.ProblemConfig(4, pot_c, bh.exp_critical(0.3, 4))
    rep_d = limiting_gap(cfg_D, gaussian_start(g4))
    ok &= abs(rep_d.gap) <= 1e-6
    report("criterion 7 (trapping-potential gap)", ok,
           f"m_V={rep.m_V:.6f} m_inf={rep.m_infty:.6f} gap={rep.gap:.4f}; "
           f"degenerate gap={rep_d.gap:.2e}")


def test_criterion_8_projection_uniqueness(cfg, g4):
    """Sign scan of t -> N(t u): exactly one change; projection in the bracket."""
    rng = np.random.default_rng(23)
    ok = True
    worst_off = 0.0
    for _ in range(50):
        vals = smooth_even_bumps(g4, rng, amp_cap=1.2)
        if np.max(np.abs(vals)) < 1e-3:
            vals = 0.5 * np.exp(-g4.nodes**2 / 2)
        u = bh.RadialField(g4, vals)
        count, brackets = nehari_sign_scan(u, cfg)
        ok &= count == 1
        t = project_nehari(u, cfg)
        lo, hi = brackets[0]
        ok &= lo - 1e-8 <= t <= hi + 1e-8
        worst_off = max(worst_off, max(lo - t, t - hi, 0.0))
    report("criterion 8 (projection uniqueness, 50 fields)", ok,
           f"all scans single-crossing; worst bracket offset {worst_off:.1e}")


def test_criterion_9_growth_classifier():
    """Verdict matrix for the exponential shape and polynomial probes."""
    def g_shape(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(2 * t * t) - 1.0 - 2.0 * t * t

    v19 = bh.classify_growth(g_shape, 1.0 / 1.9)
    v20 = bh.classify_growth(g_shape, 1.0 / 2.0)
    v21 = bh.classify_growth(g_shape, 1.0 / 2.1)
    lin = bh.classify_growth(lambda t: np.asarray(t, float), 1.0)
    quart = bh.classify_growth(lambda t: np.asarray(t, float) ** 4, 1.0)
    ok = (v19.bounded_verdict == "fails" and np.isinf(v19.limsup_infinity)
          and v20.bounded_verdict == "inconclusive" and v20.infinity_boundary
          and np.isfinite(v20.limsup_infinity) and v20.limsup_infinity > 0
          and v21.bounded_verdict == "holds" and v21.limsup_infinity == 0.0
          and lin.bounded_verdict == "fails" and np.isinf(lin.limsup_origin)
          and quart.bounded_verdict == "holds" and quart.compact_verdict == "holds")
    report("criterion 9 (growth classifier matrix)", ok,
           f"1/K=1.9:{v19.bounded_verdict} 2.0:{v20.bounded_verdict}"
           f"(boundary,lim={v20.limsup_infinity:.3f}) 2.1:{v21.bounded_verdict}; "
           f"t:{lin.bounded_verdict} t^4:{quart.bounded_verdict}")


def test_criterion_10_laplacian_analogue():
    """-Du + u = 0.5 u exp(u^2) on R^2: residual and identity at tolerance."""
    cfg2 = exp_critical_config(1.0, 0.5, dimension=2)
    g2 = bh.default_grid(2)
    rep = minimize_nehari(cfg2, bh.RadialField(g2, np.exp(-g2.nodes**2 / 2)))
    gap = nehari_energy_identity_gap(rep.field, cfg2, 0.5)
    ok = rep.converged and rep.residual_weak <= 1e-6 \
        and gap <= 1e-8 * (1 + abs(rep.objective))
    report("criterion 10 (2-D analogue)", ok,
           f"m={rep.objective:.6f} rw={rep.residual_weak:.2e} gap={gap:.2e}")


def test_criterion_11_theta_family_evidence():
    """Exact-growth family: theta=1 diverges at the threshold, theta=3 stays finite."""
    verdicts = {}
    for theta in (1.0, 3.0):
        spec = bh.exact_growth_family(theta)
        L = bh.model.ADAMS_BETA[4] / spec.alpha0
        verdicts[theta] = bh.adams_ratio_search(spec, 4, L, budget=300).verdict
    ok = verdicts[1.0] == "divergence_evidence" and verdicts[3.0] == "finite_evidence"
    report("criterion 11 (exact-growth ratio evidence)", ok,
           f"theta=1: {verdicts[1.0]}; theta=3: {verdicts[3.0]}")


def test_criterion_12_determinism(tmp_path):
    """Identical run configurations produce byte-identical artifacts."""
    ok = True
    for name, args in (
        ("check", ["check", "--g", "t^4", "--K", "1"]),
        ("solve", ["solve", "--gamma", "1", "--lambda", "0.5", "--grid", "20:512"]),
    ):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / name / sub
            code = cli_main(args + ["--out-dir", str(d)])
            assert code == 0
            outs.append((d / f"{name}.json").read_bytes())
        ok &= outs[0] == outs[1]
    report("criterion 12 (determinism)", ok, "byte-identical JSON reports")

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biharm as bh
from biharm.rearrangement import (fourier_radial, fourier_rearrange,
                                  inverse_fourier_radial, rearrange_values,
                                  schwarz_profile)


@pytest.fixture(scope="module")
def g4():
    return bh.default_grid(4)


def smooth_even_bumps(grid, rng, n_max=3, amp_cap=1.5):
    """Random smooth-as-R^4-fields profiles: signed polynomial-Gaussian mixtures."""
    vals = np.zeros(grid.n_points)
    for _ in range(rng.integers(1, n_max + 1)):
        a = rng.uniform(0.1, 0.7) * rng.choice([-1.0, 1.0])
        s = rng.uniform(0.8, 2.5)
        p = rng.integers(0, 3)
        vals += a * (grid.nodes / s) ** (2 * p) * np.exp(-((grid.nodes / s) ** 2))
    m = np.max(np.abs(vals))
    if m > amp_cap:
        vals *= amp_cap / m
    return vals


def test_gaussian_fixed_point(g4):
    u = bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))
    p = fourier_radial(u)
    assert np.max(np.abs(p.values - u.values)) < 1e-6


def test_transform_of_zero(g4):
    p = fourier_radial(bh.RadialField(g4, np.zeros(g4.n_points)))
    assert np.all(p.values == 0.0)


def test_plancherel_randomized(g4):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        vals = smooth_even_bumps(g4, rng)
        u = bh.RadialField(g4, vals)
        p = fourier_radial(u)
        n_u = np.sqrt(np.dot(g4.weights, vals**2))
        n_p = np.sqrt(np.dot(g4.weights, p.values**2))
        worst = max(worst, abs(n_p - n_u) / n_u)
    assert worst <= 1e-8


def test_self_inverse(g4):
    rng = np.random.default_rng(3)
    vals = smooth_even_bumps(g4, rng)
    u = bh.RadialField(g4, vals)
    back = inverse_fourier_radial(fourier_radial(u))
    rel = np.sqrt(np.dot(g4.weights, (back.values - vals) ** 2)
                  / np.dot(g4.weights, vals**2))
    assert rel < 1e-10


def test_2d_transform_includes_the_origin_node():
    # the 2-D origin weight is part of the quadrature norm, so the transform
    # must act on node 0 too: exp(-r^2/2) is its own transform on R^2
    g2 = bh.build_grid(30.0, 1024, 2)
    u = bh.RadialField(g2, np.exp(-g2.nodes**2 / 2))
    assert np.max(np.abs(fourier_radial(u).values - u.values)) < 1e-3
    vals = smooth_even_bumps(g2, np.random.default_rng(5))
    p = fourier_radial(bh.RadialField(g2, vals))
    n_u = np.dot(g2.weights, vals**2)
    assert abs(np.dot(g2.weights, p.values**2) - n_u) <= 1e-12 * n_u
    back = inverse_fourier_radial(p).values
    assert np.dot(g2.weights, (back - vals) ** 2) <= 1e-20 * n_u


def test_schwarz_decreasing_fixed_point(g4):
    vals = np.exp(-g4.nodes**2 / 3)
    from biharm.rearrangement import SpectralProfile
    p = SpectralProfile(g4, vals)
    out = schwarz_profile(p).values
    assert np.max(np.abs(out - vals)) < 1e-10


def test_schwarz_sign_invariance(g4):
    vals = np.sin(g4.nodes) * np.exp(-((g4.nodes - 3) ** 2))
    a = rearrange_values(vals, g4.weights)
    b = rearrange_values(-vals, g4.weights)
    assert np.array_equal(a, b)


def test_schwarz_output_decreasing(g4):
    rng = np.random.default_rng(9)
    vals = smooth_even_bumps(g4, rng)
    out = rearrange_values(vals, g4.weights)
    assert np.all(np.diff(out) <= 1e-12)


def test_schwarz_annulus_layer_cake(g4):
    # annulus indicator pushed to a centered ball of equal measure
    c = 0.8
    vals = np.where((g4.nodes > 3.0) & (g4.nodes < 4.0), c, 0.0)
    out = rearrange_values(vals, g4.weights)
    lvl = c / 2
    m_orig = np.sum(g4.weights[np.abs(vals) > lvl])
    m_out = np.sum(g4.weights[out > lvl])
    quantum = np.max(g4.weights)
    assert abs(m_orig - m_out) <= 3 * quantum
    # mass sits at the center
    assert out[1] == pytest.approx(c, rel=1e-6)


def test_schwarz_equimeasurable_quantum(g4):
    rng = np.random.default_rng(13)
    vals = smooth_even_bumps(g4, rng)
    out = rearrange_values(vals, g4.weights)
    quantum = np.max(g4.weights)
    for lvl in np.quantile(np.abs(vals[np.abs(vals) > 1e-9]), [0.2, 0.5, 0.8]):
        m_orig = np.sum(g4.weights[np.abs(vals) > lvl])
        m_out = np.sum(g4.weights[out > lvl])
        assert abs(m_orig - m_out) <= 3 * quantum


def test_rearrange_gaussian_identity(g4):
    u = bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))
    w = fourier_rearrange(u)
    assert not w.report.flagged
    # forward + inverse each carry the <= 1e-6 single-transform error
    assert np.max(np.abs(w.values - u.values)) < 2.5e-6
    assert abs(w.report.l2_out - w.report.l2_in) <= 1e-9 * w.report.l2_in
    assert w.report.quad_moment_out <= w.report.quad_moment_in * (1 + 1e-9)


def test_rearrange_two_bump_checks(g4):
    vals = (0.8 * (g4.nodes / 1.5) ** 2 * np.exp(-((g4.nodes / 1.5) ** 2))
            - 0.4 * np.exp(-((g4.nodes / 0.9) ** 2)))
    u = bh.RadialField(g4, vals)
    w = fourier_rearrange(u)
    r = w.report
    assert not r.flagged
    assert abs(r.l2_out - r.l2_in) <= 1e-6 * r.l2_in
    # genuine strict decrease of the derivative moment for this field
    assert r.quad_moment_out < r.quad_moment_in * (1 - 1e-4)
    assert r.exp_mass_out >= r.exp_mass_in * (1 - 1e-6)


def test_rearrange_zero(g4):
    w = fourier_rearrange(bh.RadialField(g4, np.zeros(g4.n_points)))
    assert np.all(w.values == 0.0)


def test_idempotence_randomized(g4):
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        vals = smooth_even_bumps(g4, rng)
        u = bh.RadialField(g4, vals)
        w1 = fourier_rearrange(u)
        w2 = fourier_rearrange(bh.RadialField(g4, w1.values))
        num = np.sqrt(np.dot(g4.weights, (w2.values - w1.values) ** 2))
        den = np.sqrt(np.dot(g4.weights, vals**2))
        worst = max(worst, num / den)
    assert worst <= 1e-6


def test_transform_cache_is_a_bounded_lru(monkeypatch):
    rearr = bh.rearrangement
    monkeypatch.setattr(rearr, "_transform_cache", OrderedDict())
    grids = [bh.build_grid(20.0, 16 + k, 4) for k in range(6)]
    built = [rearr._transform_for(grid) for grid in grids]
    assert len(rearr._transform_cache) <= 4
    assert rearr._transform_for(bh.build_grid(20.0, 21, 4)) is built[-1]
    assert rearr._transform_for(grids[0]) is not built[0]


def _dense_reflector(grid):
    """Reference transform from a full eigh: reflect the resolved negative eigenspace."""
    rearr = bh.rearrangement
    M, sroot, pos = rearr._kernel_matrix(grid)
    lam, V = np.linalg.eigh(M)
    Vn = V[:, lam < -rearr._TAU]

    def transform(values):
        x = values[pos] * sroot
        out = np.empty_like(values)
        out[pos] = (x - 2.0 * Vn @ (Vn.T @ x)) / sroot
        if not pos[0]:
            out[0] = 0.5 * float(np.dot(sroot * sroot, values[pos]))
        return out
    return transform


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 4]), n=st.integers(16, 700), r_max=st.floats(2.0, 30.0),
       seed=st.integers(0, 2**16))
def test_transform_is_an_involutive_isometry(dim, n, r_max, seed):
    # n below r_max^2/pi + 128 takes the full eigenproblem, above it the sketch
    grid = bh.build_grid(r_max, n, dim)
    vals = np.random.default_rng(seed).normal(size=n)
    p = fourier_radial(bh.RadialField(grid, vals)).values
    back = inverse_fourier_radial(bh.rearrangement.SpectralProfile(grid, p)).values
    n_u = np.dot(grid.weights, vals**2)
    assert abs(np.dot(grid.weights, p**2) - n_u) <= 1e-12 * n_u
    assert np.dot(grid.weights, (back - vals) ** 2) <= 1e-24 * n_u


def test_fourier_radial_matches_dense_eigh_reference():
    rng = np.random.default_rng(11)
    for grid in (bh.default_grid(4), bh.default_grid(2), bh.build_grid(20.0, 512, 4)):
        reference = _dense_reflector(grid)
        for _ in range(5):
            vals = smooth_even_bumps(grid, rng)
            got = fourier_radial(bh.RadialField(grid, vals)).values
            assert np.max(np.abs(got - reference(vals))) <= 1e-10


def test_sketch_widens_until_it_holds_the_resolved_eigenspace(monkeypatch):
    # 128 columns are fewer than the 139 resolved eigenvalues of this 4-D
    # grid, so the sketch has to double once
    rearr = bh.rearrangement
    monkeypatch.setattr(rearr, "_transform_cache", OrderedDict())
    monkeypatch.setattr(rearr, "_SKETCH_MARGIN", 0)
    widths, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: widths.append(a.shape[1]) or qr(a))
    grid = bh.build_grid(20.0, 512, 4)
    vals = smooth_even_bumps(grid, np.random.default_rng(2))
    got = fourier_radial(bh.RadialField(grid, vals)).values
    monkeypatch.undo()
    assert widths == [128, 128, 256, 256]
    assert np.max(np.abs(got - _dense_reflector(grid)(vals))) <= 1e-10


def test_rearrange_does_not_depend_on_how_the_kernel_is_rounded(g4, monkeypatch):
    # J1(x)/x sqrt(W_i W_j) and J1(x) sqrt(x) sqrt(tau_i tau_j), tau = W / r^3,
    # are the same matrix up to rounding; only the null space, which the
    # transform leaves alone, tells them apart
    from scipy.special import j1
    rearr = bh.rearrangement
    vals = (0.8 * (g4.nodes / 1.5) ** 2 * np.exp(-((g4.nodes / 1.5) ** 2))
            - 0.4 * np.exp(-((g4.nodes / 0.9) ** 2)))
    u = bh.RadialField(g4, vals)
    base = fourier_rearrange(u).values

    def rewritten(grid):
        W = grid.weights / bh.grid.SURFACE_MEASURE[4]
        pos = W > 0.0
        r = grid.nodes[pos]
        tau = W[pos] / r**3
        X = np.outer(r, r)
        return j1(X) * np.sqrt(X) * np.sqrt(np.outer(tau, tau)), np.sqrt(W[pos]), pos

    monkeypatch.setattr(rearr, "_transform_cache", OrderedDict())
    monkeypatch.setattr(rearr, "_kernel_matrix", rewritten)
    assert np.max(np.abs(fourier_rearrange(u).values - base)) <= 1e-9


import numpy as np
import pytest
import scipy.sparse as sp

import biharm as bh
from biharm.grid import (apply_stencil, apply_stencil_transpose, boundary_decay_ratio,
                         laplacian_matrix, laplacian_stencil_rows, mesh_slice,
                         quad_form_sq, rescale_grid, stencil_square)


def l2_sq(u):
    return float(np.dot(u.grid.weights, u.values**2))


@pytest.fixture(scope="module")
def g4():
    return bh.build_grid(20.0, 2048, 4)


@pytest.fixture(scope="module")
def g2():
    return bh.build_grid(30.0, 2048, 2)


def test_build_grid_basics(g4):
    assert g4.nodes[0] == 0.0
    assert g4.nodes[-1] == 20.0
    assert np.all(np.diff(g4.nodes) > 0)
    assert g4.h == pytest.approx(20.0 / 2047, rel=1e-14)
    assert g4.weights[0] == 0.0          # r^3 factor kills the origin weight
    assert np.all(g4.weights >= 0)


@pytest.mark.parametrize("args", [(20.0, 16, 4), (30.0, 2048, 2), (2.5, 623983, 4),
                                  (29.97, 223, 4), (2.0, 1495892, 4)])
def test_mesh_and_stencil_slices_carry_the_bits_of_the_whole_grid(args):
    # blocked sums of meshes too large to hold rely on every slice of nodes,
    # weights and stencil rows being bit-identical to the whole grid's
    grid = bh.build_grid(*args)
    n = grid.n_points
    assert np.array_equal(grid.nodes, np.linspace(0.0, args[0], n))
    whole = laplacian_stencil_rows(grid.key())
    for a, b in [(0, 1), (0, 3), (1, 2), (1, 6), (2, 9), (3, 4), (n // 2, n // 2 + 7),
                 (n - 5, n - 1), (n - 2, n), (n - 1, n)]:
        part = laplacian_stencil_rows(grid.key(), a, b)
        assert np.array_equal(part, whole[a:b]), (a, b)
        nodes, weights = mesh_slice(grid.key(), a, b)
        assert np.array_equal(nodes, grid.nodes[a:b]), (a, b)
        assert np.array_equal(weights, grid.weights[a:b]), (a, b)


def test_build_grid_2d_weight_pattern(g2):
    # s_1 r_i h, half weight at r_max, Euler-Maclaurin term s_1 h^2/12 at the origin
    h = g2.h
    inner = 2 * np.pi * g2.nodes[1:-1] * h
    assert np.allclose(g2.weights[1:-1], inner, rtol=1e-14)
    assert g2.weights[-1] == pytest.approx(2 * np.pi * 30.0 * h / 2, rel=1e-14)
    assert g2.weights[0] == pytest.approx(2 * np.pi * h * h / 12, rel=1e-14)


def test_build_grid_errors():
    with pytest.raises(ValueError):
        bh.build_grid(-1.0, 2048, 4)
    with pytest.raises(ValueError):
        bh.build_grid(20.0, 2048, 3)
    with pytest.raises(ValueError):
        bh.build_grid(20.0, 8, 4)


def test_integrate_gaussian(g4):
    assert np.dot(g4.weights, np.exp(-g4.nodes**2)) == pytest.approx(np.pi**2, rel=1e-9)


def test_integrate_zero(g4):
    assert np.dot(g4.weights, np.zeros(2048)) == 0.0


def test_integrate_r2_gaussian(g4):
    u = g4.nodes**2 * np.exp(-g4.nodes**2)
    assert np.dot(g4.weights, u) == pytest.approx(2 * np.pi**2, rel=1e-9)


def test_integrate_linear_monotone(g4):
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, 2048)
    b = rng.uniform(0, 1, 2048)
    ia = np.dot(g4.weights, a)
    ib = np.dot(g4.weights, b)
    iab = np.dot(g4.weights, 2.0 * a + 3.0 * b)
    assert iab == pytest.approx(2 * ia + 3 * ib, rel=1e-12)
    assert ia >= 0.0


def test_ball_volume_indicator(g4):
    # smoothed indicator of a ball reproduces pi^2 rho^4 / 2
    rho = 5.0
    u = 0.5 * (1.0 - np.tanh((g4.nodes - rho) / 0.05))
    vol = np.pi**2 * rho**4 / 2
    assert np.dot(g4.weights, u) == pytest.approx(vol, rel=1e-3)


def test_laplacian_r2_interior(g4):
    lap = apply_stencil(laplacian_matrix(g4), g4.nodes**2)
    # away from the outer (Dirichlet-ghost) rows the result is 2n to rounding
    assert np.max(np.abs(lap[:-3] - 8.0)) < 1e-7


def test_laplacian_constant(g4):
    lap = apply_stencil(laplacian_matrix(g4), np.ones(2048))
    assert np.max(np.abs(lap[:-3])) < 1e-10


def test_laplacian_gaussian(g4):
    lap = apply_stencil(laplacian_matrix(g4), np.exp(-g4.nodes**2 / 2))
    truth = (g4.nodes**2 - 4.0) * np.exp(-g4.nodes**2 / 2)
    assert np.max(np.abs(lap - truth)) < 1e-6


def test_laplacian_2d_gaussian(g2):
    lap = apply_stencil(laplacian_matrix(g2), np.exp(-g2.nodes**2 / 2))
    truth = (g2.nodes**2 - 2.0) * np.exp(-g2.nodes**2 / 2)
    assert np.max(np.abs(lap - truth)) < 1e-6


def test_bilaplacian_r4_interior(g4):
    # interior = away from the Dirichlet-ghost rows; tolerance at the rounding
    # scale of the composed stencil, eps * |u|_inf / h^4
    L = laplacian_matrix(g4)
    bl = apply_stencil(L, apply_stencil(L, g4.nodes**4))
    tol = 50 * np.finfo(float).eps * 20.0**4 / g4.h**4
    assert np.max(np.abs(bl[1:-8] - 192.0)) < tol


def test_bilaplacian_quadratic(g4):
    L = laplacian_matrix(g4)
    bl = apply_stencil(L, apply_stencil(L, 3.0 * g4.nodes**2 + 1.0))
    tol = 50 * np.finfo(float).eps * 1201.0 / g4.h**4
    assert np.max(np.abs(bl[:-8])) < tol


def test_bilaplacian_gaussian_vs_analytic(g4):
    # independent oracle: the closed-form radial bi-Laplacian
    L = laplacian_matrix(g4)
    bl = apply_stencil(L, apply_stencil(L, np.exp(-g4.nodes**2 / 2)))
    truth = (g4.nodes**4 - 12 * g4.nodes**2 + 24) * np.exp(-g4.nodes**2 / 2)
    err = np.abs(bl - truth)
    assert np.max(err[1:]) < 1e-3          # node 0 has zero weight, own closure
    w2 = np.sqrt(np.dot(g4.weights, (bl - truth) ** 2))
    assert w2 < 1e-5


def test_refinement_order():
    errs_l, errs_b = [], []
    for n in (512, 1024, 2048):
        g = bh.build_grid(20.0, n, 4)
        u, L = np.exp(-g.nodes**2 / 2), laplacian_matrix(g)
        lap = apply_stencil(L, u)
        el = lap - (g.nodes**2 - 4) * np.exp(-g.nodes**2 / 2)
        eb = apply_stencil(L, lap) - (g.nodes**4 - 12 * g.nodes**2 + 24) * np.exp(-g.nodes**2 / 2)
        errs_l.append(np.sqrt(np.dot(g.weights, el**2)))
        errs_b.append(np.sqrt(np.dot(g.weights, eb**2)))
    for errs in (errs_l, errs_b):
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9


def test_h_norms_gaussian(g4):
    u = bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))
    assert l2_sq(u) == pytest.approx(np.pi**2, rel=1e-9)
    # quadrature of the analytic (r^2-4)^2 e^{-r^2} integrand gives 6 pi^2
    assert quad_form_sq(u) == pytest.approx(6 * np.pi**2, rel=1e-6)


def test_h_norms_zero(g4):
    u = bh.RadialField(g4, np.zeros(2048))
    assert l2_sq(u) == 0.0 and quad_form_sq(u) == 0.0


def test_scale_law_n4():
    # u_s(r) = u(r/s) on a proportionally scaled grid
    g = bh.build_grid(20.0, 2048, 4)
    u = bh.RadialField(g, np.exp(-g.nodes**2 / 2))
    for s in (0.5, 2.0):
        gs = rescale_grid(g, s)
        us = bh.RadialField(gs, u.values.copy())
        assert l2_sq(us) == pytest.approx(s**4 * l2_sq(u), rel=1e-6)
        assert quad_form_sq(us) == pytest.approx(quad_form_sq(u), rel=1e-6)


def test_quad_form_2d_positive(g2):
    rng = np.random.default_rng(3)
    vals = np.exp(-(g2.nodes - 3) ** 2) * rng.uniform(0.5, 1.0)
    assert quad_form_sq(bh.RadialField(g2, vals)) > 0


def test_stencil_rows_match_matrix(g4):
    rows = laplacian_stencil_rows(g4.key())
    u = np.exp(-g4.nodes**2 / 3) * (1 + g4.nodes**2)
    via_rows = apply_stencil(rows, u)
    via_mat = apply_stencil(laplacian_matrix(g4), u)
    assert np.max(np.abs(via_rows - via_mat)) < 1e-9


def test_boundary_decay_ratio(g4):
    assert boundary_decay_ratio(bh.RadialField(g4, np.exp(-g4.nodes))) > 1e-10
    assert boundary_decay_ratio(bh.RadialField(g4, np.exp(-g4.nodes**2))) < 1e-10


def _laplacian_matrix_loop(grid):
    """Entry-by-entry assembly from the stencil rows (reference)."""
    n = grid.n_points
    coef = laplacian_stencil_rows(grid.key())
    rows, cols, vals = [], [], []
    for i in range(n):
        for k in range(5):
            j = i - 2 + k
            if 0 <= j < n and coef[i, k] != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(coef[i, k])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("args", [(20.0, 16, 4), (20.0, 2048, 4), (30.0, 4096, 2)])
def test_laplacian_matrix_equals_loop_assembly(args):
    # the rows, their transpose and their square against the entry-by-entry
    # matrix (sparse: the 4096-node one would take 134 MB dense); only the
    # order of summation differs, so each entry is held to a few ulps of the
    # sum of the magnitudes it adds up
    grid = bh.build_grid(*args)
    rows, ref = laplacian_matrix(grid), _laplacian_matrix_loop(grid)
    u = np.random.default_rng(5).standard_normal(grid.n_points)
    tol = 4 * np.finfo(float).eps
    assert np.all(np.abs(apply_stencil(rows, u) - ref @ u) <= tol * (abs(ref) @ abs(u)))
    assert np.all(np.abs(apply_stencil_transpose(rows, u) - ref.T @ u)
                  <= tol * (abs(ref).T @ abs(u)))
    square, bound = (ref @ ref).tocoo(), abs(ref) @ abs(ref)
    assert np.max(np.abs(square.row - square.col)) <= 4
    band = stencil_square(rows)
    at = (square.row, square.col - square.row + 4)
    assert np.all(np.abs(band[at] - square.data)
                  <= tol * bound[square.row, square.col].A1)
    rest = band.copy()
    rest[at] = 0.0
    assert not rest.any()


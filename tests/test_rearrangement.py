import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biharm as bh
from biharm.cli import save_field_csv
from biharm.rearrangement import (fourier_rearrange, hankel_kernel, hankel_transform,
                                  rearrange_values)


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
    u = np.exp(-g4.nodes**2 / 2)
    assert np.max(np.abs(hankel_transform(g4, u) - u)) < 1e-6


def test_transform_of_zero(g4):
    assert np.all(hankel_transform(g4, np.zeros(g4.n_points)) == 0.0)


def test_plancherel_randomized(g4):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        vals = smooth_even_bumps(g4, rng)
        p = hankel_transform(g4, vals)
        n_u = np.sqrt(np.dot(g4.weights, vals**2))
        n_p = np.sqrt(np.dot(g4.weights, p**2))
        worst = max(worst, abs(n_p - n_u) / n_u)
    assert worst <= 1e-8


def test_self_inverse(g4):
    rng = np.random.default_rng(3)
    vals = smooth_even_bumps(g4, rng)
    back = hankel_transform(g4, hankel_transform(g4, vals))
    rel = np.sqrt(np.dot(g4.weights, (back - vals) ** 2)
                  / np.dot(g4.weights, vals**2))
    assert rel < 1e-10


def test_2d_transform_includes_the_origin_node():
    # the 2-D origin weight is part of the quadrature norm, so the transform
    # must act on node 0 too: exp(-r^2/2) is its own transform on R^2
    g2 = bh.build_grid(30.0, 1024, 2)
    u = np.exp(-g2.nodes**2 / 2)
    assert np.max(np.abs(hankel_transform(g2, u) - u)) < 1e-3
    vals = smooth_even_bumps(g2, np.random.default_rng(5))
    p = hankel_transform(g2, vals)
    n_u = np.dot(g2.weights, vals**2)
    assert abs(np.dot(g2.weights, p**2) - n_u) <= 1e-12 * n_u
    back = hankel_transform(g2, p)
    assert np.dot(g2.weights, (back - vals) ** 2) <= 1e-20 * n_u


def test_schwarz_decreasing_fixed_point(g4):
    vals = np.exp(-g4.nodes**2 / 3)
    out = rearrange_values(vals, g4.weights)
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


def test_rearrange_flags_grids_too_coarse_for_the_transform(g4):
    # h r_max = 4.05 > pi: the frequency grid runs past the nodes' Nyquist pi / h
    coarse = bh.build_grid(29.97, 223, 4)
    rep = fourier_rearrange(bh.RadialField(coarse, np.exp(-coarse.nodes**2))).report
    assert not rep.resolved and rep.flagged
    rep = fourier_rearrange(bh.RadialField(g4, np.exp(-g4.nodes**2))).report
    assert g4.h * g4.r_max < 0.2
    assert rep.resolved and not rep.flagged


def test_rearrange_zero(g4):
    w = fourier_rearrange(bh.RadialField(g4, np.zeros(g4.n_points)))
    assert np.all(w.values == 0.0)


def _worst_second_rearrangement_move(grid):
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        vals = smooth_even_bumps(grid, rng)
        w1 = fourier_rearrange(bh.RadialField(grid, vals))
        w2 = fourier_rearrange(bh.RadialField(grid, w1.values))
        num = np.sqrt(np.dot(grid.weights, (w2.values - w1.values) ** 2))
        den = np.sqrt(np.dot(grid.weights, vals**2))
        worst = max(worst, num / den)
    return worst


def test_idempotence_randomized(g4):
    assert _worst_second_rearrangement_move(g4) <= 1e-6


def test_idempotence_randomized_2d():
    # worst of these ten fields: 2.3e-7, not rounding level as in 4-D (5.7e-15)
    assert _worst_second_rearrangement_move(bh.default_grid(2)) <= 1e-6


def test_transform_cache_is_a_bounded_lru(fresh_transforms):
    rearr = bh.rearrangement
    grids = [bh.build_grid(20.0, 16 + k, 4) for k in range(6)]
    built = [rearr._transform_for(grid) for grid in grids]
    assert fresh_transforms.cache_info().currsize == 4
    # a repeated geometry is a hit, also through a new grid object
    assert rearr._transform_for(bh.build_grid(20.0, 21, 4)) is built[-1]
    assert rearr._transform_for(grids[0]) is not built[0]


def _dense_reflector(grid):
    """Reference transform from a full eigh of the dense kernel, scipy's Bessel functions.

    Reflects the resolved negative eigenspace of M = k(r_i r_j) sqrt(W_i W_j).
    M is ordered by decreasing weight: eigh of this graded matrix is then
    accurate at the tiny 4-D rows near the origin, which the transform divides
    by sqrt(W).  In node order it is off by up to 1.7e-7 there (r_max 2.84).
    """
    from scipy.special import j0, j1
    W = grid.weights / bh.grid.SURFACE_MEASURE[grid.dimension]
    pos = W > 0.0
    r, sroot = grid.nodes[pos][::-1], np.sqrt(W[pos])[::-1]
    X = np.outer(r, r)
    M = j0(X) if grid.dimension == 2 else j1(X) / X
    M *= np.outer(sroot, sroot)
    lam, V = np.linalg.eigh(M)
    Vn, sroot = V[::-1, lam < -bh.rearrangement._TAU], sroot[::-1]

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
    # grids with n below the interpolation point count (up to 596 at r_max 30)
    # take the reduced QR of a wide interpolation matrix
    grid = bh.build_grid(r_max, n, dim)
    vals = np.random.default_rng(seed).normal(size=n)
    p = hankel_transform(grid, vals)
    back = hankel_transform(grid, p)
    n_u = np.dot(grid.weights, vals**2)
    assert abs(np.dot(grid.weights, p**2) - n_u) <= 1e-12 * n_u
    assert np.dot(grid.weights, (back - vals) ** 2) <= 1e-24 * n_u


def test_fourier_radial_matches_dense_eigh_reference():
    rng = np.random.default_rng(11)
    for grid in (bh.default_grid(4), bh.default_grid(2), bh.build_grid(20.0, 512, 4)):
        reference = _dense_reflector(grid)
        for _ in range(5):
            vals = smooth_even_bumps(grid, rng)
            got = hankel_transform(grid, vals)
            assert np.max(np.abs(got - reference(vals))) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 4]), n=st.integers(16, 700), r_max=st.floats(2.0, 30.0),
       seed=st.integers(0, 2**16))
def test_fourier_radial_matches_dense_eigh_reference_on_random_grids(dim, n, r_max, seed):
    # measured: the worst of 308 random grids was 3.1e-10 (4-D, r_max 6.17,
    # n 559); eigenvectors near -_TAU are fixed only to eps / _TAU
    grid = bh.build_grid(r_max, n, dim)
    vals = smooth_even_bumps(grid, np.random.default_rng(seed))
    got = hankel_transform(grid, vals)
    assert np.max(np.abs(got - _dense_reflector(grid)(vals))) <= 2e-9


def test_rearrange_does_not_depend_on_the_interpolation_degree(g4, monkeypatch,
                                                               fresh_transforms):
    # above the degree rule the interpolant of the kernel sits at rounding, so
    # a 1.5x degree moves only what eigenvectors near -_TAU owe to rounding:
    # 6.6e-12 to 1.0e-11 measured, 8.8e-11 at 1.6x
    rearr = bh.rearrangement
    vals = (0.8 * (g4.nodes / 1.5) ** 2 * np.exp(-((g4.nodes / 1.5) ** 2))
            - 0.4 * np.exp(-((g4.nodes / 0.9) ** 2)))
    u = bh.RadialField(g4, vals)
    base = fourier_rearrange(u).values
    rule = rearr._degree
    fresh_transforms.cache_clear()
    monkeypatch.setattr(rearr, "_degree", lambda r_max: 2 * ((3 * rule(r_max) + 3) // 4))
    assert rearr._degree(g4.r_max) >= 1.5 * rule(g4.r_max)
    assert np.max(np.abs(fourier_rearrange(u).values - base)) <= 1e-9


def test_transform_refuses_radii_beyond_the_interpolation_limit(fresh_transforms):
    rearr = bh.rearrangement
    with pytest.raises(ValueError, match="interpolation points at r_max 58"):
        rearr._transform_for(bh.build_grid(58.0, 64, 4))
    assert fresh_transforms.cache_info().misses == 0


def test_bessel_kernels_match_scipy():
    from scipy.special import j0, j1
    switch = bh.rearrangement._HANKEL_FROM
    x = np.concatenate([[0.0, 1e-300, 1e-150, 1e-12, 1e-6],
                        np.linspace(0.0, 900.0, 400_001),
                        np.nextafter(switch, 0.0) - 1e-3 * np.arange(20),
                        switch + 1e-3 * np.arange(20)])
    k2, k4 = hankel_kernel(x, 2), hankel_kernel(x, 4)
    assert k2[0] == 1.0 and k4[0] == 0.5
    nz = x > 0
    # measured on x86_64: 1.3e-15 (J0), 1.0e-15 (J1) and 2.8e-16 (J1/x).  The
    # largest sit near x = 257, where scipy rounds its phase x - pi/4: there
    # mpmath puts these within 3e-18 of J0 and scipy 1.3e-15 from it
    assert np.max(np.abs(k2 - j0(x))) <= 2e-15
    assert np.max(np.abs(x * k4 - j1(x))) <= 2e-15
    assert np.max(np.abs(k4[nz] - j1(x[nz]) / x[nz])) <= 2e-15


def test_rearrange_matches_dense_reference_on_two_bump_fields(g4):
    # ring plus opposite-signed core, both signs, with the parameter ranges of
    # the benchmark's `rearrange` input.  The report's three checks cannot see
    # rounding noise in the output; a dense build of the transform, which does
    # not share that noise, can
    reference = _dense_reflector(g4)
    rng = np.random.default_rng(17)
    r = g4.nodes
    for sign in (1.0, -1.0, 1.0, -1.0):
        s1, s2 = rng.uniform(1.2, 2.5), rng.uniform(0.8, 1.2)
        vals = (sign * rng.uniform(0.4, 0.7) * (r / s1) ** 2 * np.exp(-((r / s1) ** 2))
                - sign * rng.uniform(0.1, 0.5) * np.exp(-((r / s2) ** 2)))
        want = reference(rearrange_values(reference(vals), g4.weights))
        got = fourier_rearrange(bh.RadialField(g4, vals))
        assert not got.report.flagged
        assert np.max(np.abs(got.values - want)) <= 1e-9


_BUILD_GRIDS = [(20.0, 2048, 4), (30.0, 2048, 2), (20.0, 4096, 4)]


@pytest.mark.parametrize("r_max, n, dim", _BUILD_GRIDS)
def test_transform_build_memory_is_bounded(r_max, n, dim, fresh_transforms):
    # the build holds one row leaf of its n x m interpolation matrix and the
    # stacked leaf triangles, never the whole matrix.  Measured peak / (n m 8 B):
    # 1.04, 1.51 and 0.72 on these grids; 2.01, 2.18 and 2.01 when the whole
    # matrix and the QR's copy of it were held
    rearr = bh.rearrangement
    grid = bh.build_grid(r_max, n, dim)
    n_pos = int(np.count_nonzero(grid.weights > 0.0))
    m = rearr._degree(r_max) // 2 + 1
    tracemalloc.start()
    try:
        fresh_transforms(grid.key())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * n_pos * m * 8


@pytest.mark.parametrize("r_max, n, dim", _BUILD_GRIDS)
def test_leaf_build_matches_a_one_leaf_build(r_max, n, dim, monkeypatch, fresh_transforms):
    # with one leaf the build is the plain Householder QR of the whole matrix;
    # the leaves change only rounding.  Measured: 4.5e-14 of the largest output
    rearr = bh.rearrangement
    grid = bh.build_grid(r_max, n, dim)
    n_pos = int(np.count_nonzero(grid.weights > 0.0))
    assert rearr._leaf_count(n_pos, rearr._degree(r_max) // 2 + 1) >= 2
    rng = np.random.default_rng(1)
    fields = [smooth_even_bumps(grid, rng) for _ in range(5)]
    leaves = [hankel_transform(grid, v) for v in fields]
    fresh_transforms.cache_clear()
    monkeypatch.setattr(rearr, "_leaf_count", lambda n, m: 1)
    for got, v in zip(leaves, fields):
        want = hankel_transform(grid, v)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n, m", [(300, 100), (100, 300), (97, 97), (130, 1)])
def test_in_place_qr_has_the_bits_of_numpy_raw_qr(n, m):
    A = np.random.default_rng(n * m).normal(size=(n, m))
    h, tau = np.linalg.qr(A, mode="raw")
    Q = np.linalg.qr(A)[0]
    ht = np.ascontiguousarray(A.T)                 # H = ht.T is A, Fortran-ordered
    got = bh.rearrangement._geqrf(ht)
    assert np.array_equal(ht, h) and np.array_equal(got, tau)
    assert np.array_equal(bh.rearrangement._orgqr(ht, got), Q)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_rearrange_peak_rss_is_bounded(g4, tmp_path):
    # tracemalloc cannot see the buffers of numpy's linalg gufuncs and of
    # LAPACK, which once held two more copies of the interpolation matrix.
    # A child reads its own high-water RSS, VmHWM (ru_maxrss would include
    # what the forking parent held).  Measured on x86_64 over a child that
    # only loads the CSV: rearrange +9.2 MB; +15.5 MB with those copies
    src = tmp_path / "in.csv"
    save_field_csv(str(src), bh.RadialField(g4, 0.8 * (g4.nodes / 1.5) ** 2
                                            * np.exp(-((g4.nodes / 1.5) ** 2))
                                            - 0.4 * np.exp(-((g4.nodes / 0.9) ** 2))))
    child = ("import sys\n"
             "import biharm.cli as cli\n"
             "if sys.argv[1] == 'rearrange':\n"
             "    assert cli.main(['rearrange', '--input', sys.argv[2], '--out-dir', sys.argv[3]]) == 0\n"
             "else:\n"
             "    cli.load_field_csv(sys.argv[2])\n"
             "with open('/proc/self/status') as fh:\n"
             "    print(next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)),
               **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

    def hwm_mb(mode):
        res = subprocess.run([sys.executable, "-c", child, mode, str(src), str(tmp_path / "out")],
                             env=env, capture_output=True, text=True, check=True)
        return int(res.stdout) / 1024.0

    load, rearrange = hwm_mb("load"), hwm_mb("rearrange")
    assert rearrange - load <= 12.0, (load, rearrange)

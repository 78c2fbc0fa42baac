import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biharm as bh
from biharm import banded
from biharm.solvers import _ops_for
from oracles import exp_critical_config


def _dense(band):
    """The n x n matrix of a band given by its rows, entry by entry."""
    n, width = band.shape
    p = width // 2
    mat = np.zeros((n, n))
    for i in range(n):
        for k in range(width):
            if 0 <= i - p + k < n:
                mat[i, i - p + k] = band[i, k]
    return mat


def _newton_diagonal(grid, seed):
    """V - f'(u) of the exp-critical f = 0.3 t exp(a t^2) at a Gaussian u, V a well."""
    rng = np.random.default_rng(seed)
    a = 2.0 if grid.dimension == 4 else 1.0
    u = rng.uniform(0.1, 1.2) * np.exp(-(grid.nodes / rng.uniform(0.5, 3.0)) ** 2)
    return 1.0 - 0.4 * np.exp(-grid.nodes ** 2) - 0.3 * (1 + 2 * a * u * u) * np.exp(a * u * u)


# Worst relative distance from the dense LU solution over 300 random draws of
# these grids and diagonals: 8.1e-8 (4-D) and 3.8e-12 (2-D), at condition
# numbers up to 1.2e11 and 1.4e6.  Pivoting stays inside the p x p blocks, so
# the 4-D bi-Laplacian loses digits to its conditioning.
FORWARD_BOUND = {4: 1e-6, 2: 1e-10}
# Worst componentwise backward error max|Mx - b| / max(|M||x| + |b|) of the
# same draws: 8.3e-15 (4-D), 1.4e-15 (2-D).
BACKWARD_BOUND = 1e-13


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 4]), n=st.integers(16, 700), r_max=st.floats(2.0, 30.0),
       newton=st.booleans(), shift=st.floats(0.05, 3.0), seed=st.integers(0, 2**16))
def test_factor_matches_dense_solve(dim, n, r_max, newton, shift, seed):
    # n runs over non-multiples of the block size p (2 in 2-D, 4 in 4-D) too
    grid = bh.build_grid(r_max, n, dim)
    ops = _ops_for(grid, exp_critical_config(1.0, 0.3, dim))
    diag = _newton_diagonal(grid, seed) if newton else shift
    band = ops.A0.copy()
    band[:, band.shape[1] // 2] += diag
    mat = _dense(band)
    b = np.random.default_rng(seed).normal(size=n)
    x = ops.factor(diag).solve(b)
    ref = np.linalg.solve(mat, b)
    assert np.linalg.norm(x - ref) <= FORWARD_BOUND[dim] * np.linalg.norm(ref)
    backward = np.max(np.abs(mat @ x - b)) / np.max(np.abs(mat) @ np.abs(x) + np.abs(b))
    assert backward <= BACKWARD_BOUND


def test_factor_solves_repeatedly_and_returns_fresh_arrays():
    grid = bh.build_grid(20.0, 1001, 4)
    ops = _ops_for(grid, exp_critical_config(1.0, 0.3))
    fac = ops.factor(ops.V)
    b1, b2 = np.random.default_rng(1).normal(size=(2, 1001))
    x1 = fac.solve(b1)
    x2 = fac.solve(b2)
    assert np.array_equal(fac.solve(b1), x1)
    assert not np.shares_memory(x1, x2)


@pytest.mark.parametrize("n, p", [(37, 2), (301, 2), (37, 4), (301, 4)])
def test_entries_outside_the_matrix_are_ignored(n, p):
    rng = np.random.default_rng(n + p)
    band = rng.normal(size=(n, 2 * p + 1))      # junk in the corners past the edges
    band[:, p] += 4.0 * (2 * p + 1)
    b = rng.normal(size=n)
    x = banded.splu(band).solve(b)
    assert np.allclose(_dense(band) @ x, b, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, row", [(300, 0), (300, 5), (300, 299), (40, 17)])
def test_singular_matrix_raises(n, row):
    # a zero row sits in an even block, an odd one, the last one, or the dense tail
    grid = bh.build_grid(20.0, n, 4)
    band = _ops_for(grid, exp_critical_config(1.0, 0.3)).A0.copy()
    band[:, 4] += 0.7
    band[row] = 0.0
    with pytest.raises(RuntimeError):
        banded.splu(band)


def test_non_finite_matrix_raises():
    grid = bh.build_grid(20.0, 300, 2)
    band = _ops_for(grid, exp_critical_config(1.0, 0.3, 2)).A0.copy()
    band[7, 2] = np.nan
    with pytest.raises(RuntimeError):
        banded.splu(band)

"""Fourier rearrangement w = T^{-1}[(T u)^*] for radial fields.

The radial Fourier transform is realized through the Hankel kernel
(rho r)^-nu J_nu(rho r) (nu = n/2 - 1) on the shared node set, symmetrized
with the square roots of the package's own quadrature weights into a
symmetric matrix M.  Space and frequency are both cut at r_max, so M has
only about r_max^2/pi resolved eigenvalues (the time-frequency concentration
count of Slepian's prolate functions): they lie near +-1, apart from a
short plunge toward 0.  All others sit at rounding level, where their signs
are noise.  The transform is the reflector T = I - 2 U U^T, with U an
orthonormal basis of the resolved negative eigenspace (eigenvalue below
-_TAU), found by a randomized range finder.  So T equals M snapped to +-1 on
the resolved eigenspace and maps the numerical null space to itself;
snapping the null space too would follow the sign of rounding and make the
output depend on how M is rounded.  T is an exact isometry in the
quadrature norms and its own inverse, which is what makes the rearrangement
identities (Plancherel equality, the Hardy-Littlewood moment inequality,
idempotence) hold to rounding instead of drifting at truncation level.

The decreasing rearrangement works on the discrete measure: node values are
sorted by magnitude (ties by radius), their quadrature weights accumulated,
and the sorted profile is re-read at each node's own half-weight measure
coordinate by linear interpolation.  Radially decreasing profiles are exact
fixed points.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import SURFACE_MEASURE, RadialField, RadialGrid, lru_get

# LRU of 4, keyed by grid.key(): the 2,048-node transforms hold U of 1.1 MB
# (4-D, 69 columns) and 2.5 MB (2-D, 150 columns)
_transform_cache: OrderedDict = OrderedDict()

# The build holds M in full (n^2 doubles, 134 MB at 4,096 nodes) and costs
# O(n^2 k) time.  Measured on x86_64 (2 vCPUs), a whole rearrangement took
# 0.4-0.5 s and peaked at 129 MB for 2,048 nodes in 4-D (0.6 s, 144 MB in
# 2-D), and 1.2-1.4 s and 255 MB for 4,096 (2-D: 1.7 s, 285 MB).  Larger
# grids are refused.
MAX_TRANSFORM_NODES = 4096

# Eigenvalues with |lambda| <= _TAU form the numerical null space.  On the
# default 4-D grid 139 eigenvalues exceed 1e-8 and 144 exceed 1e-12; the
# smallest is 1.5e-19.  Rewriting the kernel as J1(x) sqrt(x) sqrt(tau_i tau_j)
# moved the two-bump rearrangement by 1.6e-11 with _TAU = 1e-8, 2.6e-8 with
# 1e-10 and 2.9e-7 with 1e-12: eigenvectors near the threshold are fixed only
# to eps / _TAU.
_TAU = 1e-8
# rows of M per Bessel call: 0.11 s for the default 4-D M at 64-512 rows,
# 0.19 s in one block, which also needs n x n temporaries
_BLOCK_ROWS = 256
# sketch columns beyond the concentration count r_max^2/pi.  The default
# grids resolve 139 eigenvalues in 4-D (count 128) and 300 in 2-D (count 287);
# a margin of 16 left the 2-D eigenspace 1e-5 from the dense eigh's, 32 and
# more reach its own 1e-8.  Margin 128 costs 0.29 s against 0.15 s at 16 (4-D).
_SKETCH_MARGIN = 128


def _kernel_matrix(grid: RadialGrid):
    """Symmetric Hankel matrix on the nodes of positive weight.

    Those are all nodes in 2-D, where the origin carries the Euler-Maclaurin
    weight, and the nodes r > 0 in 4-D.  With W = weights / s_{n-1}, so that
    sum_j W_j f_j is the quadrature of the integral of f r^(n-1) dr, the
    matrix is k(r_i r_j) sqrt(W_i W_j), with k(x) = J0(x) in 2-D and J1(x)/x
    in 4-D.  Built in row blocks from the upper triangle, so no n x n
    temporary sits beside it.
    """
    from scipy.special import j0, j1
    W = grid.weights / SURFACE_MEASURE[grid.dimension]
    pos = W > 0.0
    r = grid.nodes[pos]
    sroot = np.sqrt(W[pos])
    M = np.empty((len(r), len(r)))
    for lo in range(0, len(r), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        rows = M[lo:hi, lo:]          # on and right of the diagonal
        X = np.outer(r[lo:hi], r[lo:])
        if grid.dimension == 2:
            j0(X, out=rows)
        else:
            j1(X, out=rows)
            rows /= X
        rows *= np.outer(sroot[lo:hi], sroot[lo:])
        M[lo:, lo:hi] = rows.T        # r_i r_j = r_j r_i exactly: M is symmetric
    return M, sroot, pos


def _negative_eigenspace(M: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal basis of the eigenvectors of M with eigenvalue below -_TAU.

    A randomized range finder (Halko, Martinsson & Tropp 2011): a Gaussian
    sketch of ``count`` + _SKETCH_MARGIN columns, one power iteration, and a
    Rayleigh-Ritz eigh of the small projected matrix.  The sketch has caught
    the whole resolved eigenspace once its smallest Ritz value is below _TAU
    in magnitude; otherwise the width doubles.  From n columns on this is the
    full eigenproblem.
    """
    n = len(M)
    k = count + _SKETCH_MARGIN
    rng = np.random.default_rng(0)     # a fixed sketch: the same U on every build
    while k < n:
        Q = np.linalg.qr(M @ rng.standard_normal((n, k)))[0]
        Q = np.linalg.qr(M @ Q)[0]
        theta, S = np.linalg.eigh(Q.T @ (M @ Q))
        if np.min(np.abs(theta)) < _TAU:
            return Q @ S[:, theta < -_TAU]
        k *= 2
    lam, V = np.linalg.eigh(M)
    return V[:, lam < -_TAU]


def _build_transform(grid: RadialGrid):
    """(U, sroot, pos): T = I - 2 U U^T acts on x = values[pos] * sroot.

    U spans the resolved negative eigenspace of :func:`_kernel_matrix`.  T
    equals the eigenvalue-snapped M on the resolved eigenspace and maps the
    numerical null space (|lambda| <= _TAU), where snapping would follow the
    sign of rounding noise, to itself.
    """
    M, sroot, pos = _kernel_matrix(grid)
    U = _negative_eigenspace(M, int(np.ceil(grid.r_max ** 2 / np.pi)))
    return U, sroot, pos


def _transform_for(grid: RadialGrid):
    if grid.n_points > MAX_TRANSFORM_NODES:
        raise ValueError(f"the Hankel transform takes at most {MAX_TRANSFORM_NODES} "
                         f"nodes, got {grid.n_points}")
    return lru_get(_transform_cache, grid.key(), 4, lambda: _build_transform(grid))


@dataclass(eq=False)
class SpectralProfile:
    """Radial Fourier profile on the mirrored frequency grid rho_j = r_j."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)


def _apply(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    U, sroot, pos = _transform_for(grid)
    x = values[pos] * sroot
    out = np.empty_like(values)
    out[pos] = (x - 2.0 * (U @ (U.T @ x))) / sroot
    if not pos[0]:
        # zero-weight 4-D origin: the plain quadrature row, k(0) = 1/2
        out[0] = 0.5 * float(np.dot(sroot * sroot, values[pos]))
    return out


def fourier_radial(u: RadialField) -> SpectralProfile:
    """Forward transform; self-inverse by construction."""
    return SpectralProfile(u.grid, _apply(u.grid, u.values))


def inverse_fourier_radial(p: SpectralProfile) -> RadialField:
    return RadialField(p.grid, _apply(p.grid, p.values))


def schwarz_profile(p: SpectralProfile) -> SpectralProfile:
    """Radially decreasing profile equimeasurable with |p| on the grid measure."""
    return SpectralProfile(p.grid, rearrange_values(p.values, p.grid.weights))


def rearrange_values(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Decreasing rearrangement of |values| on the discrete measure.

    The sorted squared layer-cake is re-read by exact cell averages of the
    square over each node's own measure cell, so the weighted l2 mass is
    preserved to rounding and radially decreasing inputs are exact fixed
    points.  Ties sort by radius, zero-weight nodes take the essential sup.
    """
    p = np.abs(values)
    if np.all(np.diff(p) <= 0.0):
        return p                       # decreasing profiles are exact fixed points
    order = np.lexsort((np.arange(len(p)), -p))
    ps = p[order]
    ws = weights[order]
    block_edges = np.concatenate([[0.0], np.cumsum(ws)])
    q_cum = np.concatenate([[0.0], np.cumsum(ws * ps * ps)])
    cell_edges = np.concatenate([[0.0], np.cumsum(weights)])
    cell_edges[-1] = block_edges[-1]  # identical mass, different summation order
    q_at = np.interp(cell_edges, block_edges, q_cum)
    cell_int = np.diff(q_at)
    out = np.empty_like(p)
    pos = weights > 0
    out[pos] = np.sqrt(np.maximum(cell_int[pos], 0.0) / weights[pos])
    out[~pos] = ps[0] if len(ps) else 0.0
    return out


@dataclass
class RearrangementReport:
    """Rearrangement property checks attached to a rearranged field."""

    l2_in: float
    l2_out: float
    quad_moment_in: float     # int rho^4 |T u|^2 (rho^2 for n=2)
    quad_moment_out: float
    exp_mass_in: float
    exp_mass_out: float
    l2_ok: bool
    quad_ok: bool
    exp_ok: bool
    flagged: bool


@dataclass(eq=False)
class RearrangedField(RadialField):
    report: Optional[RearrangementReport] = None


def fourier_rearrange(u: RadialField, exp_coeff: float = None) -> RearrangedField:
    """w = inverse(schwarz(forward(u))) with the three property checks.

    The L2 and derivative-norm checks are evaluated spectrally (through the
    exactly isometric transform); the exponential-mass check compares the
    physical quadratures of exp(a u^2) - 1.  A check failing beyond tolerance
    flags the report; the field is still returned.
    """
    gridobj = u.grid
    a = exp_coeff if exp_coeff is not None else (2.0 if gridobj.dimension == 4 else 1.0)
    w = gridobj.weights
    power = 4 if gridobj.dimension == 4 else 2

    uh = _apply(gridobj, u.values)
    us = rearrange_values(uh, w)
    out = _apply(gridobj, us)

    l2_in = float(np.dot(w, uh * uh))
    l2_out = float(np.dot(w, us * us))
    mom_in = float(np.dot(w * gridobj.nodes**power, uh * uh))
    mom_out = float(np.dot(w * gridobj.nodes**power, us * us))
    em_in = float(np.dot(w, np.expm1(a * u.values**2)))
    em_out = float(np.dot(w, np.expm1(a * out**2)))

    scale = max(l2_in, 1e-300)
    l2_ok = abs(l2_out - l2_in) <= 1e-6 * scale
    quad_ok = mom_out <= mom_in * (1.0 + 1e-6) + 1e-12
    exp_ok = em_out >= em_in * (1.0 - 1e-6) - 1e-12

    report = RearrangementReport(l2_in, l2_out, mom_in, mom_out, em_in, em_out,
                                 l2_ok, quad_ok, exp_ok,
                                 flagged=not (l2_ok and quad_ok and exp_ok))
    return RearrangedField(gridobj, out, report)

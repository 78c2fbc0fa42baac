"""Fourier rearrangement w = T^{-1}[(T u)^*] for radial fields.

The radial Fourier transform is realized through the Hankel kernel
(rho r)^-nu J_nu(rho r) (nu = n/2 - 1) on the shared node set, symmetrized
with the square roots of the package's own quadrature weights and made
*exactly* involutive by snapping the eigenvalues of the symmetric kernel
matrix to +-1.  In the package's own quadrature norms the transform is then
an exact isometry and its own inverse, which is what makes the rearrangement
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

# LRU of 4, keyed by grid.key(): a 2048-node transform takes 33 MB
_transform_cache: OrderedDict = OrderedDict()

# The dense build costs O(n^2) memory and O(n^3) time.  Measured on x86_64
# (2 vCPUs), a whole rearrangement took 1.5 s and peaked at 260 MB for 2,048
# nodes and 9.9 s and 837 MB for 4,096; larger grids are refused.
MAX_TRANSFORM_NODES = 4096


def _build_transform(grid: RadialGrid):
    """Eigen-snapped symmetric Hankel matrix on the nodes of positive weight.

    Those are all nodes in 2-D, where the origin carries the Euler-Maclaurin
    weight, and the nodes r > 0 in 4-D.  With W = weights / s_{n-1}, so that
    sum_j W_j f_j is the quadrature of the integral of f r^(n-1) dr, the
    matrix is k(r_i r_j) sqrt(W_i W_j), with k(x) = J0(x) in 2-D and J1(x)/x
    in 4-D.
    """
    from scipy.special import j0, j1
    W = grid.weights / SURFACE_MEASURE[grid.dimension]
    pos = W > 0.0
    r = grid.nodes[pos]
    X = np.outer(r, r)
    sroot = np.sqrt(W[pos])
    M = (j0(X) if grid.dimension == 2 else j1(X) / X) * np.outer(sroot, sroot)
    lam, Q = np.linalg.eigh(M)
    signs = np.where(lam >= 0.0, 1.0, -1.0)
    T = (Q * signs[None, :]) @ Q.T
    return T, sroot, pos


def _transform_for(grid: RadialGrid):
    if grid.n_points > MAX_TRANSFORM_NODES:
        raise ValueError(f"the dense Hankel transform takes at most {MAX_TRANSFORM_NODES} "
                         f"nodes, got {grid.n_points}")
    return lru_get(_transform_cache, grid.key(), 4, lambda: _build_transform(grid))


@dataclass(eq=False)
class SpectralProfile:
    """Radial Fourier profile on the mirrored frequency grid rho_j = r_j."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)


def _apply(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    T, sroot, pos = _transform_for(grid)
    out = np.empty_like(values)
    out[pos] = (T @ (values[pos] * sroot)) / sroot
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

"""Radial meshes, quadrature and radial differential operators.

Profiles u(r) sampled on a uniform mesh stand for radial fields u(|x|) on
R^n (n = 2 or 4).  Quadrature weights absorb the surface measure
s_{n-1} r^{n-1}, so ``np.dot(grid.weights, u)`` is the full R^n integral.
They are the trapezoid rule plus, in 2-D, the Euler-Maclaurin origin term
2 pi u(0) h^2/12, so quadrature is O(h^4) for smooth even profiles in both
dimensions.

The Laplacian Du = u'' + ((n-1)/r) u' is discretized with fourth-order
central differences (five-point stencils).  At the axis, regularity gives
Du(0) = n u''(0) and the even extension u(-r) = u(r) closes the stencils at
the first two nodes; past r_max homogeneous Dirichlet ghost values close the
outer rows.  Fourth order matters, for the stencils and the quadrature
alike: the quadrature-level Pohozaev identity at a discrete solution
inherits their errors, and an O(h^2) scheme or rule leaves a defect far
above the identity tolerances the solvers are held to.

Operators are kept as stencil rows, row i holding the 2p + 1 coefficients at
offsets -p..p (p = 2 for L): ``laplacian_matrix`` builds them for a grid,
``apply_stencil`` applies them, ``stencil_square`` forms the rows of L L,
and ``banded`` factors such rows plus a diagonal.  Nothing here caches rows:
the operator bundle of a (grid, problem) pair, ``functionals._Functionals``,
builds them once and refuses a problem whose dimension is not the grid's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SURFACE_MEASURE = {2: 2.0 * np.pi, 4: 2.0 * np.pi**2}

# grid defaults per dimension (r_max, n_points)
DEFAULT_GRID = {4: (20.0, 2048), 2: (30.0, 2048)}


@dataclass(eq=False)
class RadialGrid:
    """Uniform radial mesh on [0, r_max] with R^n quadrature weights."""

    r_max: float
    n_points: int
    dimension: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return self.nodes[1] - self.nodes[0]

    def key(self):
        return (float(self.r_max), int(self.n_points), int(self.dimension))


@dataclass(eq=False)
class RadialField:
    """Sampled radial profile on a grid."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy())


def build_grid(r_max: float, n_points: int, dimension: int) -> RadialGrid:
    """Uniform mesh with trapezoid-rule weights times s_{n-1} r^{n-1}.

    In 2-D the origin weight carries the Euler-Maclaurin end correction, so
    integrals of smooth even profiles are O(h^4) in both dimensions.
    """
    if dimension not in SURFACE_MEASURE:
        raise ValueError(f"dimension must be 2 or 4, got {dimension}")
    if not np.isfinite(r_max) or r_max <= 0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if n_points < 16:
        raise ValueError(f"n_points must be >= 16, got {n_points}")
    geometry = (float(r_max), int(n_points), int(dimension))
    return RadialGrid(*geometry, *mesh_slice(geometry))


def mesh_slice(geometry, start: int = 0, stop=None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights start..stop-1 of ``build_grid(*geometry)``, bit for bit.

    ``geometry`` is a grid's ``key()``, (r_max, n_points, dimension).  Node i
    is i h with h = r_max / (n_points - 1), the last node r_max itself, as
    ``np.linspace`` gives them; so a slice of a mesh too large to hold
    carries the bits the whole mesh would.
    """
    r_max, n, dim = geometry
    stop = n if stop is None else stop
    h = r_max / (n - 1)
    nodes = np.arange(start, stop) * h
    if stop == n:
        nodes[-1] = r_max
    w = SURFACE_MEASURE[dim] * nodes ** (dim - 1) * h
    if start == 0:
        w[0] *= 0.5
    if stop == n:
        w[-1] *= 0.5
    if dim == 2 and start == 0:
        # Euler-Maclaurin origin term h^2/12 (2 pi r u)'(0) = 2 pi u(0) h^2/12;
        # in 4-D (r^3 u)'(0) = 0 and the trapezoid rule is already O(h^4)
        w[0] = SURFACE_MEASURE[2] * h * h / 12.0
    return nodes, w


def default_grid(dimension: int) -> RadialGrid:
    r_max, n = DEFAULT_GRID[dimension]
    return build_grid(r_max, n, dimension)


def as_field(grid: RadialGrid, values) -> RadialField:
    """Validated field: one finite value per node, else ValueError."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError("field length does not match grid")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    return RadialField(grid, values)


# fourth-order central coefficients for u'' and u' at offsets -2..+2
_D2 = (-1.0, 16.0, -30.0, 16.0, -1.0)     # / (12 h^2)
_D1 = (1.0, -8.0, 0.0, 8.0, -1.0)         # / (12 h)


def laplacian_stencil_rows(geometry, start: int = 0, stop=None):
    """Stencil coefficients at offsets -2..+2 of rows start..stop-1.

    ``geometry`` is a grid's ``key()``, (r_max, n_points, dimension).  Row i
    of the operator is sum_k coef[i, k] * u_{i-2+k}; out-of-range columns on
    the left are folded back by the even extension, on the right they are
    Dirichlet ghosts (the origin and ghost closures), so every coefficient
    that would reach outside the grid is zero.  A row carries the same bits
    whatever range it is built in.  Each column is contiguous (the array is
    the transpose of a (5, rows) one).
    """
    r_max, n, dim = geometry
    stop = n if stop is None else stop
    h = float(r_max) / (n - 1)
    coef = np.zeros((5, stop - start)).T
    first = max(start, 1)
    r = np.arange(first, stop) * h
    for k in range(5):
        coef[first - start:, k] = _D2[k] / (12 * h * h) + (dim - 1) / r * _D1[k] / (12 * h)
    if start == 0:
        # origin row: n * u''(0), fourth order under the even extension:
        # u''(0) = (-30 u0 + 32 u1 - 2 u2) / (12 h^2)
        coef[0, 2] = dim * -30.0 / (12 * h * h)
        coef[0, 3] = dim * 32.0 / (12 * h * h)
        coef[0, 4] = dim * -2.0 / (12 * h * h)
    if start <= 1 < stop:
        # row 1 references u_{-1} = u_1: fold offset -2 onto +0
        coef[1 - start, 2] += coef[1 - start, 0]
        coef[1 - start, 0] = 0.0
    # Dirichlet ghosts past r_max
    for row, ks in ((n - 2, [4]), (n - 1, [3, 4])):
        if start <= row < stop:
            coef[row - start, ks] = 0.0
    return coef


def laplacian_matrix(grid: RadialGrid) -> np.ndarray:
    """Stencil rows of the radial Laplacian on ``grid``, built afresh for :func:`apply_stencil`."""
    return laplacian_stencil_rows(grid.key())


def apply_stencil(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-stencil matvec: out_i = sum_k coef[i, k] u_{i-p+k}, width 2p + 1.

    Adds the centre column first, then offsets -p..-1 and 1..p in turn.  Out_i
    rounds by about eps sum_k |coef[i, k] u_{i-p+k}|, far above eps |out_i|
    on fine meshes, where rows of order 1/h^2 nearly cancel on smooth u.
    """
    n, p = len(u), coef.shape[1] // 2
    out = coef[:, p] * u
    for k in range(coef.shape[1]):
        d = k - p
        if d > 0:
            out[:n - d] += coef[:n - d, k] * u[d:]
        elif d < 0:
            out[-d:] += coef[-d:, k] * u[:n + d]
    return out


def apply_stencil_transpose(coef: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The transposed matvec: out_j = sum_i coef[i, j - i + p] v_i."""
    n, p = len(v), coef.shape[1] // 2
    out = coef[:, p] * v
    for k in range(coef.shape[1]):
        d = k - p
        if d > 0:
            out[d:] += coef[:n - d, k] * v[:n - d]
        elif d < 0:
            out[:n + d] += coef[-d:, k] * v[-d:]
    return out


def stencil_square(coef: np.ndarray) -> np.ndarray:
    """Rows (width 4p + 1) of the product L L of the stencil rows ``coef`` (2p + 1)."""
    n, p = len(coef), coef.shape[1] // 2
    out = np.zeros((n, 4 * p + 1), dtype=coef.dtype)
    for e in range(-p, p + 1):
        lo, hi = max(0, -e), min(n, n - e)       # rows i whose column i + e exists
        for f in range(-p, p + 1):
            out[lo:hi, e + f + 2 * p] += coef[lo:hi, e + p] * coef[lo + e:hi + e, f + p]
    return out


def quad_form_sq(u: RadialField, L=None) -> float:
    """Leading quadratic term: ||Du||_2^2 for n=4, ||u'||_2^2 for n=2.

    In 2-D it is the weighted pairing <-Lu, u> = -u^T W L u, which matches
    the face-flux Dirichlet energy up to an O(h^4) origin term on smooth even
    profiles.  Its exact gradient is -(W L + (W L)^T) u, which equals the
    -2 W L u of the stencil equation the 2-D solvers solve only where W L is
    symmetric: not at the origin rows, nor at the Dirichlet ghost rows.
    ``L`` is the grid's Laplacian rows, for callers that hold them.
    """
    lap = apply_stencil(laplacian_matrix(u.grid) if L is None else L, u.values)
    return quad_form_of(u.grid.weights, lap, u.values, u.grid.dimension)


def quad_form_of(w: np.ndarray, lap: np.ndarray, u: np.ndarray, dimension: int) -> float:
    """:func:`quad_form_sq` from the weights w, the stencil product lap = L u and u."""
    if dimension == 4:
        return float(np.dot(w, lap * lap))
    return -float(np.dot(w, lap * u))


def rescale_grid(grid: RadialGrid, factor: float) -> RadialGrid:
    """Grid with r_max scaled by ``factor`` and the same node count.

    The samples of u on ``grid``, read on the result, are u(r / factor)
    exactly, with no interpolation.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return build_grid(grid.r_max * factor, grid.n_points, grid.dimension)


def boundary_decay_ratio(u: RadialField) -> float:
    """|u(r_max)| / max|u|; large values flag truncation problems."""
    m = float(np.max(np.abs(u.values)))
    if m == 0.0:
        return 0.0
    return float(abs(u.values[-1])) / m

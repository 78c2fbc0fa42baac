"""Fourier rearrangement w = T^{-1}[(T u)^*] for radial fields.

The radial Fourier transform is realized through the Hankel kernel
(rho r)^-nu J_nu(rho r) (nu = n/2 - 1) on the shared node set, symmetrized
with the square roots of the package's own quadrature weights W into the
symmetric M_ij = k(r_i r_j) sqrt(W_i W_j), with k(x) = J0(x) in 2-D and
J1(x)/x in 4-D.  Space and frequency are both cut at r_max, so M has only
about r_max^2/pi resolved eigenvalues (the time-frequency concentration
count of Slepian's prolate functions): they lie near +-1, apart from a
short plunge toward 0.  All others sit at rounding level, where their signs
are noise.  The transform is the reflector T = I - 2 U U^T, with U an
orthonormal basis of the resolved negative eigenspace (eigenvalue below
-_TAU).  So T equals M snapped to +-1 on the resolved eigenspace and maps
the numerical null space to itself; snapping the null space too would
follow the sign of rounding and make the output depend on how M is
rounded.  T is an exact isometry in the quadrature norms and its own
inverse, which is what makes the rearrangement identities (Plancherel
equality, the Hardy-Littlewood moment inequality, idempotence) hold to
rounding instead of drifting at truncation level.  ``hankel_transform``
applies T.

M is never formed.  k(x y) is band-limited in each variable, so barycentric
interpolation at the Chebyshev points c of [-r_max, r_max] (Berrut &
Trefethen, SIAM Review 2004) factors it to rounding: M = A K A^T, with
A = diag(sqrt W) L, L the interpolation matrix from the points to the
nodes, and K = k(c c^T).  k is even, so the points +-c fold into the m
points c >= 0 (283 at r_max 20, 596 at r_max 30).  A = QR is factored by
Householder reflectors (LAPACK's geqrf, in place), and the eigenpairs of M
are Q times those of the m x m matrix R K R^T.  A is never held whole: it is
factored as a tall-skinny QR over p row leaves (Demmel, Grigori, Hoemmen &
Langou, SIAM J. Sci. Comput. 2012), one leaf at a time, and each leaf's Q,
n / p x m, is formed in its own buffer by LAPACK's orgqr.  So the build holds
one leaf of A and the p stacked m x m leaf triangles; only where p = 1, for
n below about 2.25 m, is the one leaf all of A.  J0 and J1 come from
Miller's backward recurrence below x = 25 and from Hankel's asymptotic
expansion above.

The decreasing rearrangement works on the discrete measure: node values are
sorted by magnitude (ties by radius), their quadrature weights accumulated,
and the sorted profile is re-read over each node's own measure cell
(``rearrange_values``).  Radially decreasing profiles are exact fixed points.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import lapack_lite

from .grid import SURFACE_MEASURE, RadialField, RadialGrid, build_grid
from .model import EXP_RATE, check_cap

# The build holds one row leaf of the n x m matrix A (about sqrt(n m) rows),
# the p m x m leaf triangles, and K, R and R K R^T (m x m), for m
# interpolation points: 283 at r_max 20, 596 at 30.  Measured on x86_64
# (2 vCPUs, one BLAS thread), a whole `rearrange` run took 0.22-0.26 s from
# import and peaked at 38 MB for 2,048 nodes in 4-D (2-D: 0.42-0.53 s,
# 54 MB), and 0.31-0.36 s and 39 MB for 4,096 nodes in 4-D.  Larger grids
# are refused, and so are radii above 56.7, where m passes 2,048: at r_max 56
# on 4,096 nodes a run took 4.7-4.8 s and 253 MB.  There p = 1, A is held
# whole, and most of the time goes to its QR and Q, R K R^T and eigh.
MAX_TRANSFORM_NODES = 4096
MAX_INTERPOLATION_POINTS = 2048

# Block sizes of the build: A is filled _INTERP_ROWS rows at a time and K
# _KERNEL_ROWS rows at a time.  Best of 15 timings of each step on the
# default 4-D grid (2-D), on the machine above, in two sets where given as a
# range:
# - A: 128 and 256 rows 5.7-6.4 ms (10.8-14.4), 64 and 512 rows 6.4-9.7 ms
#   (13.6-20.6), all rows in one block 10.2-11.5 ms (22.9-26.1).  128 rows
#   make temporaries of 0.3 MB (0.6 MB in 2-D); with 256 rows a 4-D
#   `rearrange` run peaked 0.7 MB higher.
# - K: 16 rows 8.4-12.4 ms (22.8-28.8), 32 to 128 rows 6.1-8.4 ms
#   (17.6-22.2), within the host's noise of each other.  64 rows of 2,048
#   points make temporaries of 1 MB.
_INTERP_ROWS = 128
_KERNEL_ROWS = 64

# Eigenvalues with |lambda| <= _TAU form the numerical null space.  On the
# default 4-D grid 139 eigenvalues exceed 1e-8 and 144 exceed 1e-12; the
# smallest is 1.5e-19.  Rewriting the kernel as J1(x) sqrt(x) sqrt(tau_i tau_j)
# moved the two-bump rearrangement by 1.6e-11 with _TAU = 1e-8, 2.6e-8 with
# 1e-10 and 2.9e-7 with 1e-12: eigenvectors near the threshold are fixed only
# to eps / _TAU.
_TAU = 1e-8

# Bessel functions: Miller's recurrence below _HANKEL_FROM, started at order
# _MILLER_START; Hankel's expansion with _HANKEL_TERMS terms from it on.
# Against scipy on [0, 900], the recurrence started at 50, 56 and 60 was off
# by 2.6e-12, 8.6e-16 and 5.0e-16, and 10, 12 and 14 expansion terms by
# 2.6e-14, 1.9e-15 and 1.3e-15; the last is scipy's own phase rounding.
_HANKEL_FROM = 25.0
_MILLER_START = 64
_HANKEL_TERMS = 14


def _miller(x: np.ndarray):
    """(J0(x), J1(x)/x) for 0 <= x < _HANKEL_FROM, Miller's recurrence (A&S 9.12).

    The recurrence J_{k-1} = (2k/x) J_k - J_{k+1} runs on G_k = J_k k!/(x/2)^k,
    which is G_{k-1} = G_k - G_{k+1} q/(k(k+1)) with q = x^2/4: nothing
    overflows as x -> 0, and x = 0 gives G = 1.  The start G_N = 1 is
    normalized by 1 = J0 + 2 sum_j J_2j, summed in nested form on the way down.
    """
    q = 0.25 * x * x
    g, g_up, tail = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(_MILLER_START, 0, -1):
        g, g_up = g - g_up * (q / (k * (k + 1))), g          # G_{k-1}, G_k
        if k % 2 == 1 and k > 1:                               # k-1 even, >= 2
            tail = (g + tail) * (q / ((k - 2) * (k - 1)))
    norm = g + 2.0 * tail
    return g / norm, 0.5 * g_up / norm


def _hankel(x: np.ndarray, order: int) -> np.ndarray:
    """J_order(x) for x >= _HANKEL_FROM, order 0 or 1 (A&S 9.2.5-9.2.10).

    With t_k = prod_{j <= k} (4 order^2 - (2j - 1)^2) / (8 j x), P sums
    (-1)^(k/2) t_k over even k and Q sums (-1)^((k-1)/2) t_k over odd k.  The
    phase x - (order/2 + 1/4) pi is taken apart into cos x and sin x, so no
    multiple of pi is subtracted from a large x.
    """
    p, q, t = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
    for k in range(1, _HANKEL_TERMS + 1):
        t = t * ((4 * order * order - (2 * k - 1) ** 2) / (8.0 * k)) / x
        if k % 2:
            q += (-1) ** (k // 2) * t
        else:
            p += (-1) ** (k // 2) * t
    c, s = np.cos(x), np.sin(x)
    if order == 0:
        return (p * (c + s) + q * (c - s)) / np.sqrt(np.pi * x)
    return (p * (s - c) + q * (s + c)) / np.sqrt(np.pi * x)


def hankel_kernel(x, dimension: int) -> np.ndarray:
    """k(x) for x >= 0: J0(x) in 2-D, J1(x)/x in 4-D (1/2 at x = 0)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x < _HANKEL_FROM
    out[near] = _miller(x[near])[0 if dimension == 2 else 1]
    far = x[~near]
    out[~near] = _hankel(far, 0) if dimension == 2 else _hankel(far, 1) / far
    return out


def _degree(r_max: float) -> int:
    """Even Chebyshev degree that interpolates k(x y), |x|, |y| <= r_max, to rounding.

    Measured against scipy's k: the degree at which L K L^T first came within
    1e-13 of k on a 700 x 700 sample, in 4-D (2-D) at r_max 2, 5, 10, 20 and
    30, was 20 (20), 52 (52), 136 (144), 456 (464) and 972 (984).  The rule
    gives 70, 96, 190, 564 and 1190, where L K L^T is within 1.4e-15 (4-D)
    and 6.5e-15 (2-D) of k.
    """
    return 2 * int(np.ceil((1.25 * r_max * r_max + 64.0) / 2.0))


def _chebyshev(r_max: float):
    """(c, w): the Chebyshev points c >= 0 of [-r_max, r_max] and their barycentric weights.

    The p + 1 points are x_j = r_max cos(j pi / p), p = _degree(r_max), with
    weights (-1)^j halved at the ends (Berrut & Trefethen, SIAM Review 2004).
    p is even, so -c_j is a point with the weight of c_j.  The points are
    written as sines, which makes c = 0 exact.
    """
    p = _degree(r_max)
    c = r_max * np.sin(np.pi * (p - 2 * np.arange(p // 2 + 1)) / (2 * p))
    w = (-1.0) ** np.arange(len(c))
    w[[0, -1]] *= 0.5
    return c, w


def _interpolation(out: np.ndarray, r: np.ndarray, scale: np.ndarray, c, w) -> None:
    """out <- diag(scale) L, with f(r) = L f(c) for even f, in blocks of _INTERP_ROWS rows.

    L is the barycentric interpolation matrix from the points (c, w) of
    ``_chebyshev`` to the nodes r.  The terms w_j / (r - c_j) + w_j / (r + c_j)
    of the points +-c_j fill one column; the point 0 enters both at half
    weight.  A node that is one of the points takes a unit row.  Each row is
    computed on its own, so a row has the same bits in any block or leaf.
    """
    for i in range(0, len(r), _INTERP_ROWS):
        x = r[i:i + _INTERP_ROWS, None]
        with np.errstate(divide="ignore"):
            rows = w / (x - c)
            rows += w / (x + c)
        hit = x == c
        at = hit.any(axis=1)
        rows[at] = hit[at]
        rows /= rows.sum(axis=1, keepdims=True)
        rows *= scale[i:i + _INTERP_ROWS, None]
        out[i:i + _INTERP_ROWS] = rows


def _kernel_matrix(c: np.ndarray, dimension: int) -> np.ndarray:
    """K = k(c c^T), evaluated in blocks of _KERNEL_ROWS rows of its upper triangle."""
    m = len(c)
    K = np.empty((m, m))
    for i in range(0, m, _KERNEL_ROWS):
        rows = K[i:i + _KERNEL_ROWS, i:]
        rows[...] = hankel_kernel(np.outer(c[i:i + _KERNEL_ROWS], c[i:]), dimension)
        K[i:, i:i + _KERNEL_ROWS] = rows.T
    return K


def _lapack(routine: str, *args) -> None:
    """lapack_lite.<routine>(*args, work, lwork, info); an error raises RuntimeError."""
    def run(work, lwork):
        info = getattr(lapack_lite, routine)(*args, work, lwork, 0)["info"]
        if info != 0:
            raise RuntimeError(f"Hankel transform: QR failed (LAPACK {routine} info {info})")

    work = np.empty(1)
    run(work, -1)                  # a query: the best workspace size lands in work
    work = np.empty(max(1, int(work[0])))
    run(work, len(work))


def _geqrf(ht: np.ndarray) -> np.ndarray:
    """Householder QR of H = ht.T in place, by LAPACK's geqrf; returns tau.

    ht is C-contiguous, so H is Fortran-ordered, the layout LAPACK takes.
    Afterwards H holds R on and above its diagonal and the reflectors below,
    the bits of ``np.linalg.qr(H, mode="raw")``, whose h is ht, in place.
    """
    m, n = ht.shape
    tau = np.empty(min(n, m))
    _lapack("dgeqrf", n, m, ht, max(1, n), tau)
    return tau


def _orgqr(ht: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Q of the QR that ``_geqrf`` left in H = ht.T, formed in place by LAPACK's orgqr.

    Q is the n x k view ht[:k].T, k = len(tau), over the first k columns of
    H, with the bits of ``np.linalg.qr(H)[0]``; R must be copied out first.
    """
    k, n = len(tau), ht.shape[1]
    _lapack("dorgqr", n, k, k, ht[:k], max(1, n), tau)
    return ht[:k].T


def _leaf_count(n: int, m: int) -> int:
    """Row leaves p of the build for n rows and m points: round(sqrt(n / m)), at least 1.

    One leaf of n / p rows and the stack of p triangles of m x m hold
    n m / p + p m^2 entries, least at p = sqrt(n / m).  Each of p >= 2 leaves
    has at least m rows, since n / m >= (p - 1/2)^2 >= p.
    """
    return max(1, round(math.sqrt(n / m)))


# Keyed by a grid's key(), the 4 latest geometries: the 2,048-node transforms
# hold U of 1.1 MB (4-D, 69 columns) and 2.5 MB (2-D, 150 columns).
@functools.lru_cache(maxsize=4)
def _build_transform(geometry):
    """(U, sroot, pos): T = I - 2 U U^T acts on x = values[pos] * sroot.

    pos marks the nodes of positive weight: all nodes in 2-D, where the
    origin carries the Euler-Maclaurin weight, and r > 0 in 4-D.  U spans
    the resolved negative eigenspace of M = A K A^T.  A = QR is a tall-skinny
    QR over p row leaves: A_i = Q_i R_i, and the stacked R_i = Q_top R, each
    by geqrf, with Q formed in place by orgqr.  Pass 1 factors one leaf at a
    time in one buffer and keeps only R_i, at rows i m of the stack (each
    leaf has at least m rows); the buffer is dropped before K, R K R^T and
    the eigensolver.  Pass 2 refactors each leaf and multiplies its Q_i into
    its m rows of Q_top S, with S the resolved eigenvectors of R K R^T.  With
    p = 1 the leaf is A.  T equals the eigenvalue-snapped M on the resolved
    eigenspace and maps the numerical null space (|lambda| <= _TAU), where
    snapping would follow the sign of rounding noise, to itself.
    """
    grid = build_grid(*geometry)
    W = grid.weights / SURFACE_MEASURE[grid.dimension]
    pos = W > 0.0
    sroot = np.sqrt(W[pos])
    # rows in decreasing weight: Householder QR is then accurate row by row
    # (Cox & Higham 1998), which the tiny 4-D rows near the origin need,
    # since hankel_transform divides them by sroot
    r, scale = grid.nodes[pos][::-1], sroot[::-1]
    c, w = _chebyshev(grid.r_max)
    n, m = len(r), len(c)
    p = _leaf_count(n, m)
    edges = [n * i // p for i in range(p + 1)]
    leaf_size = -(-n // p) * m                                    # the largest leaf

    def leaf(buf, i):
        """(ht_i, tau_i): leaf i of A filled into buf as ht_i.T and factored in place."""
        a, b = edges[i], edges[i + 1]
        ht = buf[:(b - a) * m].reshape(m, b - a)
        _interpolation(ht.T, r[a:b], scale[a:b], c, w)
        return ht, _geqrf(ht)

    if p == 1:
        ht, tau = leaf(np.empty(leaf_size), 0)
    else:
        buf = np.empty(leaf_size)
        ht = np.empty((m, p * m))                 # the R_i, stacked in ht.T
        for i in range(p):
            ht[:, i * m:(i + 1) * m] = np.tril(leaf(buf, i)[0][:, :m])
        del buf
        tau = _geqrf(ht)
    R = np.tril(ht[:, :len(tau)]).T
    Q = _orgqr(ht, tau)
    B = R @ _kernel_matrix(c, grid.dimension) @ R.T
    del R
    B += B.T
    B *= 0.5
    try:
        theta, S = np.linalg.eigh(B)
    except np.linalg.LinAlgError as exc:
        # LinAlgError is a ValueError, which callers read as bad input
        raise RuntimeError(f"Hankel transform: eigensolver failed ({exc})") from None
    del B
    X = Q @ S[:, theta < -_TAU]
    del Q, ht, S
    if p == 1:
        return X[::-1].copy(), sroot, pos
    U = np.empty((n, X.shape[1]))              # in node order: row j is row n - 1 - j of A
    buf = np.empty(leaf_size)
    for i in range(p):
        a, b = edges[i], edges[i + 1]
        U[n - b:n - a] = (_orgqr(*leaf(buf, i)) @ X[i * m:(i + 1) * m])[::-1]
    return U, sroot, pos


def _transform_for(grid: RadialGrid):
    if grid.n_points > MAX_TRANSFORM_NODES:
        raise ValueError(f"the Hankel transform takes at most {MAX_TRANSFORM_NODES} "
                         f"nodes, got {grid.n_points}")
    m = _degree(grid.r_max) // 2 + 1
    if m > MAX_INTERPOLATION_POINTS:
        raise ValueError(f"the Hankel transform needs {m} interpolation points at r_max "
                         f"{grid.r_max:g}, at most {MAX_INTERPOLATION_POINTS} are allowed")
    return _build_transform(grid.key())


def hankel_transform(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """The radial Fourier transform T of nodal values; T is its own inverse.

    The frequency grid is the node set itself, rho_j = r_j.
    """
    U, sroot, pos = _transform_for(grid)
    x = values[pos] * sroot
    out = np.empty_like(values)
    out[pos] = (x - 2.0 * (U @ (U.T @ x))) / sroot
    if not pos[0]:
        # zero-weight 4-D origin: the plain quadrature row, k(0) = 1/2
        out[0] = 0.5 * float(np.dot(sroot * sroot, values[pos]))
    return out


def rearrange_values(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Decreasing rearrangement of |values| on the discrete measure.

    The sorted squared layer-cake is re-read by exact cell averages of the
    square over each node's own measure cell, so the weighted l2 mass is
    preserved to rounding and radially decreasing inputs are exact fixed
    points.  Ties sort by radius, zero-weight nodes take the essential sup.
    Each cell integrates its own overlaps with the sorted blocks, p_k^2 times
    the overlap's length: a cell whose mass is far below the total keeps its
    digits, which a difference of running sums of p^2 would cancel away.
    """
    p = np.abs(values)
    if np.all(np.diff(p) <= 0.0):
        return p                       # decreasing profiles are exact fixed points
    order = np.lexsort((np.arange(len(p)), -p))
    ps = p[order]
    block_edges = np.concatenate([[0.0], np.cumsum(weights[order])])
    cell_edges = np.concatenate([[0.0], np.cumsum(weights)])
    cell_edges[-1] = block_edges[-1]  # identical mass, different summation order
    # every piece between consecutive edges of the two lists lies in one block
    # and one cell; an empty block or cell starts no piece of positive length
    edges = np.sort(np.concatenate([block_edges, cell_edges]))   # np.union1d loads numpy.ma
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    block = np.searchsorted(block_edges, edges[:-1], side="right") - 1
    cell = np.searchsorted(cell_edges, edges[:-1], side="right") - 1
    cell_int = np.bincount(cell, weights=ps[block] * ps[block] * np.diff(edges),
                           minlength=len(p))
    out = np.empty_like(p)
    pos = weights > 0
    out[pos] = np.sqrt(cell_int[pos] / weights[pos])
    out[~pos] = ps[0] if len(ps) else 0.0
    return out


def fourier_rearrange(u: RadialField) -> tuple[RadialField, dict]:
    """(w, report): w = T[(T u)^*] and the report of the three property checks.

    The L2 and derivative-norm checks are evaluated spectrally (through the
    exactly isometric transform); the exponential-mass check compares the
    physical quadratures of exp(a u^2) - 1, with a = ``model.EXP_RATE[n]``.
    A check failing beyond tolerance flags the report; the field is still
    returned.  So does a grid with h r_max > pi: the frequency grid
    rho_j = r_j then runs past the nodes' Nyquist frequency pi / h, and the
    transform is an isometry but not a Hankel transform, which the three
    checks cannot see.  An input or rearranged field beyond the overflow cap,
    whose exponential mass overflows, raises OverflowCapError (``check_cap``).
    Nodes 0-4 of w, where the transform divides by sqrt(W), hold only about 1e-10
    across transform builds (a 1e-16 relative change in K moves them by up to 1.2e-11,
    the row-leaf build by up to 2.0e-10); compare them no tighter than that.

    The report's keys: ``l2_in``/``l2_out``, the spectral l2 norms squared of
    T u and its rearrangement; ``quad_moment_in``/``quad_moment_out``, their
    moments int rho^n |.|^2 (rho^4 in 4-D, rho^2 in 2-D);
    ``exp_mass_in``/``exp_mass_out``; the checks ``l2_ok``, ``quad_ok`` and
    ``exp_ok``; ``resolved``, h r_max <= pi; and ``flagged``, whether any check
    fails or the grid is not resolved.
    """
    check_cap(u.values)
    gridobj = u.grid
    a = EXP_RATE[gridobj.dimension]
    w = gridobj.weights
    power = gridobj.dimension

    uh = hankel_transform(gridobj, u.values)
    us = rearrange_values(uh, w)
    out = hankel_transform(gridobj, us)
    check_cap(out)

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
    resolved = bool(gridobj.h * gridobj.r_max <= np.pi)

    report = {"l2_in": l2_in, "l2_out": l2_out, "quad_moment_in": mom_in,
              "quad_moment_out": mom_out, "exp_mass_in": em_in, "exp_mass_out": em_out,
              "l2_ok": l2_ok, "quad_ok": quad_ok, "exp_ok": exp_ok, "resolved": resolved,
              "flagged": not (l2_ok and quad_ok and exp_ok and resolved)}
    return RadialField(gridobj, out), report

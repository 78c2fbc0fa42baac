"""The concentrating log profiles psi_{b,K} ("Moser profiles") and their estimates.

psi_{b,K} is a parabolic core on [0, R^{1/4}] with R = exp(-b^2/K), the
branch 4K |log r| / b on (R^{1/4}, 1], and a smooth cap on [1, 2]; it drives
the sharp-constant probes.  The log branch carries ||D psi||^2 = 32 pi^2 K in
4-D and ||psi'||^2 = 8 pi K in 2-D: L at K = (L / ``model.ADAMS_BETA[n]``) (n / 4).

The cap is a quintic Hermite blend matching value and slope (C^1 with the
log branch) with zero curvature at both ends; branch radii are snapped to
grid nodes so the Laplacian stencil never straddles a sub-cell kink.
``moser_sums`` adds up the grid sums of a log profile in fixed node blocks,
so meshes of millions of nodes are never held whole; its node-range kernel
(``grid``'s nodes, weights and stencil rows) also sums the core and junction
nodes of ``moser_estimates``' closed form.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import grid as g
from .grid import RadialField, RadialGrid


def quintic_blend(x, x0, x1, v0, d0, v1, d1):
    """Hermite quintic with prescribed end values/slopes and zero curvature.

    ``x`` is an array of radii or a numpy ``Polynomial`` in another variable.
    """
    s = x1 - x0
    t = (x - x0) / s
    h00 = 1.0 - 10.0 * t**3 + 15.0 * t**4 - 6.0 * t**5
    h10 = t - 6.0 * t**3 + 8.0 * t**4 - 3.0 * t**5
    h01 = 10.0 * t**3 - 15.0 * t**4 + 6.0 * t**5
    h11 = -4.0 * t**3 + 7.0 * t**4 - 3.0 * t**5
    return v0 * h00 + d0 * s * h10 + v1 * h01 + d1 * s * h11


def _check_moser(b: float, K: float):
    if not all(np.isfinite(v) and v > 0 for v in (b, K)):
        raise ValueError(f"moser parameters must be finite and positive, got "
                         f"b={b:g}, K={K:g}")


def _snap(geometry, r: float) -> tuple[int, float]:
    """Index and radius of the node of ``build_grid(*geometry)`` nearest to r."""
    r_max, n, _ = geometry
    i = min(max(int(round(r / (r_max / (n - 1)))), 0), n - 1)
    return i, float(g.mesh_slice(geometry, i, i + 1)[0][0])


def _moser_branch_nodes(b: float, K: float, geometry):
    """Indices of the nodes r14 = R^{1/4}, 1 and 2 snap to, and the arguments
    (b, K_eff, r14, r_one, r_two) of :func:`_moser_profile` on them."""
    _check_moser(b, K)
    r_max, n, _ = geometry
    r14 = float(np.exp(-b * b / (4.0 * K)))
    if r14 < 8.0 * (r_max / (n - 1)):
        raise ValueError(
            f"under-resolved concentration region: scale {r14:.3e} needs h <= {r14/8:.3e}")
    if r_max < 2.0:
        raise ValueError("log-profile support [0, 2] exceeds the domain")
    indices, radii = zip(*(_snap(geometry, r) for r in (r14, 1.0, 2.0)))
    if indices[0] == indices[1]:
        raise ValueError(f"b = {b:g} is too small for K = {K:g}: R^(1/4) = {r14:.6g} "
                         "snaps onto the node of r = 1, which leaves no log branch")
    K_eff = b * b / (4.0 * abs(np.log(radii[0])))   # see moser_field
    return indices, (b, K_eff, *radii)


def _moser_profile(r, b, K, r14, r_one, r_two):
    """psi_{b,K} at radii r for branch radii already snapped to the mesh."""
    out = np.zeros_like(r)
    core = r <= r14
    logb = (r > r14) & (r <= r_one)
    cap = (r > r_one) & (r < r_two)
    out[core] = b - 2.0 * K * r[core] ** 2 / (r14 * r14 * b) + 2.0 * K / b
    out[logb] = -4.0 * K * np.log(r[logb]) / b
    cap_val = -4.0 * K * np.log(r_one) / b
    out[cap] = quintic_blend(r[cap], r_one, r_two, cap_val, -4.0 * K / (b * r_one), 0.0, 0.0)
    return out


def moser_field(b: float, K: float, grid: RadialGrid) -> RadialField:
    """Concentrating log profile psi_{b,K} on the grid.

    Branch radii are snapped to grid nodes; the energy parameter is then
    re-derived from the snapped concentration radius (K_eff = b^2 / (4 |log
    r14|), a relative O(h) adjustment) so all three branches join with exact
    C^1 continuity -- an unmatched junction value of size O(h) would inject
    O(1/h) noise into the Laplacian.  The signed -log(r) form is used so the
    branch stays smooth if the snapped end lies slightly past r = 1.
    """
    _, profile = _moser_branch_nodes(b, K, grid.key())
    return RadialField(grid, _moser_profile(grid.nodes, *profile))


# Nodes per block of :func:`moser_sums`; each block carries a 2-node halo on
# either side for the stencil, so the sums take O(block) memory at any mesh size.
# 2^15 sums the 623,983-node ratio candidate in 48 ms and the 1,495,892-node
# mesh of b = 6.7 in 132 ms; 2^14 and 2^16 are 2-19% slower (x86_64, 1 thread).
_BLOCK = 1 << 15


def _moser_node_sums(geometry, i0: int, i1: int, profile: tuple, F=None) -> tuple:
    """(||psi||^2, quadratic form, int F(psi) or 0.0) on nodes i0..i1-1.

    ``profile`` holds the arguments of :func:`_moser_profile` after r.  A
    2-node halo on either side feeds the stencil; nodes, weights and stencil
    rows carry the bits the whole grid ``build_grid(*geometry)`` gives them.
    """
    j0, j1 = max(i0 - 2, 0), min(i1 + 2, geometry[1])
    r, w = g.mesh_slice(geometry, j0, j1)
    u = _moser_profile(r, *profile)
    lap = g.apply_stencil(g.laplacian_stencil_rows(geometry, j0, j1), u)
    rows = slice(i0 - j0, i1 - j0)        # the halo rows lack neighbours
    u, lap, w = u[rows], lap[rows], w[rows]
    quad = g.quad_form_of(w, lap, u, geometry[2])
    F_mass = float(np.dot(w, np.asarray(F(u), dtype=float))) if F is not None else 0.0
    return float(np.dot(w, u * u)), quad, F_mass


def moser_sums(b: float, K: float, r_max: float, n_points: int, dimension: int,
               F: Optional[Callable] = None) -> dict:
    """Grid sums of psi_{b,K} on ``build_grid(r_max, n_points, dimension)``, blockwise.

    Returns ``l2_sq`` (||psi||^2), ``quad_form`` (``grid.quad_form_sq``:
    ||D psi||^2 in 4-D, -<L psi, psi> in 2-D) and ``F_mass`` (int F(psi), None
    without ``F``).  Each block of :func:`_moser_node_sums` carries the bits the
    whole grid and :func:`moser_field` give it, so only the order of summation
    differs from the full-mesh sums.  The blocks stop at r_two + 2h: psi
    vanishes from r_two on and its Laplacian two nodes later.
    """
    geometry = (float(r_max), int(n_points), int(dimension))
    (_, _, i_two), profile = _moser_branch_nodes(b, K, geometry)
    stop = min(i_two + 3, n_points)
    l2 = quad = F_mass = 0.0
    for i0 in range(0, stop, _BLOCK):
        part = _moser_node_sums(geometry, i0, min(i0 + _BLOCK, stop), profile, F)
        l2, quad, F_mass = l2 + part[0], quad + part[1], F_mass + part[2]
    return {"l2_sq": l2, "quad_form": quad, "F_mass": F_mass if F is not None else None}


# --- norm estimates for strongly concentrated profiles ---------------------------

# Below this mesh width, rounding of the profile values near r = 1 swamps the
# five-point stencil at that junction: excess * b^2 reads 5136.14 at b = 8.0 and
# 5136.17 at 8.25, then drifts 0.16% at 8.5 and 21% at 9.0 (K = 1).
_H_MIN = 4e-9
# Coarser meshes (at most 2e6 nodes) are summed node by node with the stencil,
# in blocks (moser_sums); finer ones in closed form.
_H_CLOSED_FORM = 1e-6


def moser_mesh(b: float) -> tuple[int, float]:
    """Node count and width of the uniform mesh on [0, 2] resolving psi_{b,1}.

    The mesh has 10 nodes per concentration scale r14 = exp(-b^2/4).  K = 1
    serves every K, as psi_{b,K} = sqrt(K) psi_{b/sqrt(K),1}.  Raises
    ValueError unless b is finite and positive, the mesh is no finer than the
    rounding floor of 4e-9 and r14 snaps below r = 1.
    """
    _check_moser(b, 1.0)
    b_max = 2.0 * np.sqrt(np.log(1.0 / (10 * _H_MIN)))
    if b > b_max:
        raise ValueError(
            f"b = {b:g} needs a mesh width below {_H_MIN:g}, where rounding swamps the "
            "r = 1 junction stencil; the largest admissible b is "
            f"{np.floor(b_max * 1000) / 1000:.3f}")
    r14 = float(np.exp(-b * b / 4.0))
    n = max(int(np.ceil(2.0 / (r14 / 10))) + 1, 4097)
    _moser_branch_nodes(b, 1.0, (2.0, n, 4))
    return n, 2.0 / (n - 1)


def moser_estimates(b: float) -> dict:
    """l2 and Laplacian-norm sums of psi_{b,1} on the mesh of :func:`moser_mesh`.

    Both are the sums of the grid operators on that mesh: trapezoid weights
    2 pi^2 r^3 h and the fourth-order stencil.  On meshes with h > 1e-6
    (at most 2e6 nodes) :func:`moser_sums` adds them up node by node,
    in blocks of fixed size, so no mesh is held whole (``method``
    "finite_difference").  On finer meshes the stencil
    applied to a smooth O(1) profile is dominated by double-precision
    cancellation, so each branch Laplacian is taken in closed form -- the
    truncation-free limit of the same stencil -- and the sums are evaluated
    exactly in O(1) time (``method`` "closed_form"): on the core and the
    five-node junction neighbourhoods of r = 1 and 2 by the node-range kernel
    of :func:`moser_sums` (the grid's weights and stencil rows), by digamma
    and Euler-Maclaurin on the log branch, and by the terminating
    Euler-Maclaurin series of a polynomial on the quintic cap.  ``n_points`` is
    the size of the mesh the sums represent.
    """
    n, h = moser_mesh(b)
    if h > _H_CLOSED_FORM:
        sums = moser_sums(b, 1.0, 2.0, n, 4)
        return {"l2_sq": sums["l2_sq"], "lap_l2_sq": sums["quad_form"], "n_points": n,
                "h": h, "method": "finite_difference"}
    geometry = (2.0, n, 4)
    (i14, i_one, i_two), profile = _moser_branch_nodes(b, 1.0, geometry)
    _, K, r14, r_one, r_two = profile     # K re-derived from the snapped radius

    # core and junction neighbourhoods node by node, with the grid's weights
    # and stencil rows (even extension at the axis, Dirichlet ghosts past r = 2)
    l2 = lap2 = 0.0
    for i0, i1 in ((0, i14 + 3), (i_one - 2, i_one + 3), (i_two - 2, n)):
        part = _moser_node_sums(geometry, i0, i1, profile)
        l2, lap2 = l2 + part[0], lap2 + part[1]

    # log branch, nodes i14+3 .. i_one-3: weight * (8K / (b r^2))^2 = 4c / i, and
    # c r^3 log^2 r by Euler-Maclaurin to h^2 (the h^4 term is below 1e-20)
    s3 = g.SURFACE_MEASURE[4]
    c = s3 * 16.0 * K * K / (b * b)
    lap2 += 4.0 * c * (_digamma(i_one - 2) - _digamma(i14 + 3))

    def end_terms(x, side):
        # antiderivative of x^3 log^2 x, trapezoid end term, h^2 derivative term
        L = np.log(x)
        return (x**4 * (L * L / 4.0 - L / 8.0 + 1.0 / 32.0) + side * h / 2.0 * x**3 * L * L
                + h * h / 12.0 * x * x * L * (3.0 * L + 2.0))

    l2 += c * (end_terms((i_one - 3) * h, 1.0) - end_terms((i14 + 3) * h, -1.0))

    from numpy.polynomial import Polynomial

    # quintic cap, nodes i_one+3 .. i_two-3, as polynomials in t = (r - r_one) / s,
    # stored in powers of 2t - 1 (powers of t cost ~3 digits to cancellation)
    s, m = r_two - r_one, i_two - i_one
    rt = Polynomial([r_one, s]).convert(domain=[0.0, 1.0])
    u = quintic_blend(rt, r_one, r_two, -4.0 * K * np.log(r_one) / b, -4.0 * K / (b * r_one),
                      0.0, 0.0)
    du, d2u = u.deriv() / s, u.deriv(2) / s**2
    l2 += s3 * s * _node_sum(rt**3 * u**2, 3, m - 3, m)
    lap2 += s3 * s * _node_sum(rt * (rt * d2u + 3.0 * du) ** 2, 3, m - 3, m)
    return {"l2_sq": float(l2), "lap_l2_sq": float(lap2), "n_points": n, "h": h,
            "method": "closed_form"}


# Bernoulli numbers B_2 .. B_14, each the float nearest the exact fraction:
# enough for the cap polynomials (degree <= 13) and for the asymptotic series
# of digamma from x = 12 on
_BERNOULLI = {2: 1 / 6, 4: -1 / 30, 6: 1 / 42, 8: -1 / 30, 10: 5 / 66, 12: -691 / 2730,
              14: 7 / 6}


def _digamma(x: int) -> float:
    """psi(x) for an integer x >= 1.

    Shifted up to x >= 12 by psi(x) = psi(x + 1) - 1/x, then
    ln x - 1/(2x) - sum_k B_2k / (2k x^2k) to B_14; the first omitted term is
    below 3e-18 there.
    """
    shift = 0.0
    while x < 12:
        shift -= 1.0 / x
        x += 1
    inv2 = 1.0 / (float(x) * x)
    series = sum(bk / k * inv2 ** (k // 2) for k, bk in _BERNOULLI.items())
    return shift + math.log(x) - 0.5 / x - series


def _node_sum(p: Polynomial, j0: int, j1: int, m: int) -> float:
    """sum_{j=j0}^{j1} p(j/m) / m; exact, as the Euler-Maclaurin series of a
    polynomial ends at its degree."""
    a, c = j0 / m, j1 / m
    P = p.integ()
    total = P(c) - P(a) + (p(a) + p(c)) / (2.0 * m)
    for k in range(2, p.degree() + 2, 2):
        dp = p.deriv(k - 1)
        total += _BERNOULLI[k] / math.factorial(k) * (dp(c) - dp(a)) / float(m) ** k
    return float(total)

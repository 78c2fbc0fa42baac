"""Concentration and plateau test families with their asymptotic estimates.

Two spherically symmetric families drive the boundedness/compactness
counterexamples and the sharp-constant probes:

* plateau profiles: value a on [0, R], the parabolic ramp
  a (1 - R^2 - r^2 + 2 R r) on (R, R+1], and a smooth cap on (R+1, R+2];
* concentrating log profiles ("Moser profiles"): a parabolic core on
  [0, R^{1/4}] with R = exp(-b^2/K), the branch 4K |log r| / b on
  (R^{1/4}, 1], and a smooth cap on [1, 2].

Caps are quintic Hermite blends matching value and slope (C^1 with the inner
branch) with zero curvature at both ends; branch radii are snapped to grid
nodes so the Laplacian stencil never straddles a sub-cell kink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import grid as g
from .grid import RadialField, RadialGrid


def quintic_blend(x, x0, x1, v0, d0, v1, d1):
    """Hermite quintic with prescribed end values/slopes and zero curvature."""
    s = x1 - x0
    t = (np.asarray(x, dtype=float) - x0) / s
    h00 = 1.0 - 10.0 * t**3 + 15.0 * t**4 - 6.0 * t**5
    h10 = t - 6.0 * t**3 + 8.0 * t**4 - 3.0 * t**5
    h01 = 10.0 * t**3 - 15.0 * t**4 + 6.0 * t**5
    h11 = -4.0 * t**3 + 7.0 * t**4 - 3.0 * t**5
    return v0 * h00 + d0 * s * h10 + v1 * h01 + d1 * s * h11


@dataclass
class MoserParams:
    """Parameters of the two families; use the constructors below."""

    a_k: float = 0.0       # plateau height
    R_k: float = 0.0       # plateau radius / concentration scale
    b_k: float = 0.0       # log-profile height
    S_k: float = 1.0       # dilation
    K: float = 1.0         # energy budget parameter

    @staticmethod
    def plateau(a: float, R: float) -> "MoserParams":
        if a <= 0 or R <= 0:
            raise ValueError("plateau parameters must be positive")
        return MoserParams(a_k=a, R_k=R)

    @staticmethod
    def moser(b: float, K: float, S: float = 1.0) -> "MoserParams":
        if b <= 0 or K <= 0 or S <= 0:
            raise ValueError("moser parameters must be positive")
        return MoserParams(b_k=b, K=K, S_k=S, R_k=float(np.exp(-b * b / K)))


def _snap(grid: RadialGrid, r: float) -> float:
    i = int(round(r / grid.h))
    return grid.nodes[min(max(i, 0), grid.n_points - 1)]


def plateau_field(params: MoserParams, grid: RadialGrid) -> RadialField:
    """Plateau profile on the grid; branch radii snapped to nodes."""
    a, R = params.a_k, params.R_k
    if R + 2.0 > grid.r_max:
        raise ValueError("plateau support exceeds the domain")
    R1 = _snap(grid, R)
    R2 = _snap(grid, R1 + 1.0)
    R3 = _snap(grid, R1 + 2.0)
    r = grid.nodes
    out = np.zeros_like(r)
    core = r <= R1
    ramp = (r > R1) & (r <= R2)
    cap = (r > R2) & (r < R3)
    out[core] = a
    out[ramp] = a * (1.0 - R1**2 - r[ramp] ** 2 + 2.0 * R1 * r[ramp])
    ramp_end = a * (1.0 - (R2 - R1) ** 2)
    ramp_slope = -2.0 * a * (R2 - R1)
    out[cap] = quintic_blend(r[cap], R2, R3, ramp_end, ramp_slope, 0.0, 0.0)
    field = RadialField(grid, out)
    field.snap_report = {"R": R1 - R, "R+1": R2 - (R1 + 1.0), "R+2": R3 - (R1 + 2.0)}
    return field


def _moser_branch_radii(params: MoserParams, grid: RadialGrid):
    b, K = params.b_k, params.K
    r14 = float(np.exp(-b * b / (4.0 * K)))
    if r14 < 8.0 * grid.h:
        raise ValueError(
            f"under-resolved concentration region: scale {r14:.3e} needs h <= {r14/8:.3e}")
    if grid.r_max < 2.0:
        raise ValueError("log-profile support [0, 2] exceeds the domain")
    return _snap(grid, r14), _snap(grid, 1.0), _snap(grid, 2.0)


def moser_field(params: MoserParams, grid: RadialGrid) -> RadialField:
    """Concentrating log profile psi_{b,K} on the grid.

    Branch radii are snapped to grid nodes; the energy parameter is then
    re-derived from the snapped concentration radius (K_eff = b^2 / (4 |log
    r14|), a relative O(h) adjustment) so all three branches join with exact
    C^1 continuity -- an unmatched junction value of size O(h) would inject
    O(1/h) noise into the Laplacian.  The signed -log(r) form is used so the
    branch stays smooth if the snapped end lies slightly past r = 1.
    """
    b = params.b_k
    r14, r_one, r_two = _moser_branch_radii(params, grid)
    K = b * b / (4.0 * abs(np.log(r14)))   # consistent with the snapped radius
    Rk_sqrt = r14 * r14
    r = grid.nodes
    out = np.zeros_like(r)
    core = r <= r14
    logb = (r > r14) & (r <= r_one)
    cap = (r > r_one) & (r < r_two)
    out[core] = b - 2.0 * K * r[core] ** 2 / (Rk_sqrt * b) + 2.0 * K / b
    out[logb] = -4.0 * K * np.log(r[logb]) / b
    cap_val = -4.0 * K * np.log(r_one) / b
    out[cap] = quintic_blend(r[cap], r_one, r_two, cap_val, -4.0 * K / (b * r_one), 0.0, 0.0)
    field = RadialField(grid, out)
    field.snap_report = {"R^(1/4)": r14 - float(np.exp(-b * b / (4 * params.K))),
                         "1": r_one - 1.0, "2": r_two - 2.0,
                         "K_eff": K - params.K}
    return field


def dilate(u: RadialField, S: float) -> RadialField:
    """Resampled profile u(r/S) on the same grid (monotone cubic interpolation)."""
    if S <= 0:
        raise ValueError("dilation factor must be positive")
    vals = u.values
    mag = np.abs(vals)
    peak = float(np.max(mag))
    if peak > 0:
        support = float(u.grid.nodes[np.max(np.nonzero(mag > 1e-13 * peak)[0])])
        if S * support > u.grid.r_max * (1.0 + 1e-12):
            raise ValueError("dilated support escapes the domain")
    interp = PchipInterpolator(u.grid.nodes, vals, extrapolate=False)
    out = interp(u.grid.nodes / S)
    return RadialField(u.grid, np.nan_to_num(out, nan=0.0))


# --- streamed norm estimates for strongly concentrated profiles ----------------

def moser_estimates(b: float, K: float, nodes_per_scale: int = 10,
                    chunk: int = 1 << 23) -> dict:
    """l2 and Laplacian-norm estimates of psi_{b,K} on a support-sized grid.

    Uses the same uniform mesh, trapezoid weights and flux stencil as the
    grid operators, streamed in chunks so meshes of 1e8+ nodes never
    materialize.  Where the stencil's three points fall inside one analytic
    branch, the branch Laplacian is evaluated in closed form: at mesh widths
    below ~1e-6 the finite-difference form of a smooth O(1) profile is
    dominated by double-precision cancellation, while the closed form is the
    truncation-free limit of the same stencil (the two agree to O(h^2),
    verified at moderate b in the test suite).  Junction nodes always use the
    discrete stencil.
    """
    r14 = float(np.exp(-b * b / (4.0 * K)))
    r_max = 2.0
    h_want = r14 / nodes_per_scale
    n = int(np.ceil(r_max / h_want)) + 1
    n = max(n, 4097)
    h = r_max / (n - 1)
    s3 = 2.0 * np.pi**2

    i14 = max(int(round(r14 / h)), 1)
    i_one = int(round(1.0 / h))
    i_two = int(round(2.0 / h))
    r14s, r_ones, r_twos = i14 * h, i_one * h, i_two * h
    K = b * b / (4.0 * abs(np.log(r14s)))  # re-derived from the snapped radius
    Rk_sqrt = r14s * r14s
    cap_val = -4.0 * K * np.log(r_ones) / b
    cap_slope = -4.0 * K / (b * r_ones)

    def values(r):
        out = np.zeros_like(r)
        core = r <= r14s
        logb = (r > r14s) & (r <= r_ones)
        cap = (r > r_ones) & (r < r_twos)
        out[core] = b - 2.0 * K * r[core] ** 2 / (Rk_sqrt * b) + 2.0 * K / b
        out[logb] = -4.0 * K * np.log(r[logb]) / b
        out[cap] = quintic_blend(r[cap], r_ones, r_twos, cap_val, cap_slope, 0.0, 0.0)
        return out

    def branch_laplacian(r):
        """Analytic radial Laplacian of each branch (n = 4)."""
        out = np.zeros_like(r)
        core = r <= r14s
        logb = (r > r14s) & (r <= r_ones)
        cap = (r > r_ones) & (r < r_twos)
        out[core] = -16.0 * K / (Rk_sqrt * b)
        out[logb] = -8.0 * K / (b * r[logb] ** 2)
        if np.any(cap):
            rc = r[cap]
            s = r_twos - r_ones
            t = (rc - r_ones) / s
            d1 = (cap_val * (-30 * t**2 + 60 * t**3 - 30 * t**4)
                  + cap_slope * s * (1 - 18 * t**2 + 32 * t**3 - 15 * t**4)) / s
            d2 = (cap_val * (-60 * t + 180 * t**2 - 120 * t**3)
                  + cap_slope * s * (-36 * t + 96 * t**2 - 60 * t**3)) / s**2
            out[cap] = d2 + 3.0 * d1 / rc
        return out

    use_fd_everywhere = h > 1e-6
    junction_idx = set()
    for j0 in (0, i14, i_one, i_two):
        junction_idx.update(range(j0 - 2, j0 + 3))
    junction_idx = {j for j in junction_idx if 0 <= j < n}

    l2 = 0.0
    lap2 = 0.0
    i0 = 0
    while i0 < n:
        i1 = min(i0 + chunk, n)
        lo, hi = max(i0 - 2, 0), min(i1 + 2, n)
        r = np.arange(lo, hi) * h
        u = values(r)
        own = slice(i0 - lo, i0 - lo + (i1 - i0))
        ro = r[own]
        wt = s3 * ro**3 * h
        if i0 == 0:
            wt[0] = 0.0  # r^3 weight vanishes; half-weight is moot
        if i1 == n:
            wt[-1] *= 0.5
        uo = u[own]
        l2 += float(np.dot(wt, uo * uo))

        if use_fd_everywhere:
            lap = _chunk_stencil(u, lo, i0, i1, ro, h, n)
        else:
            lap = branch_laplacian(ro)
            for j in junction_idx:
                if i0 <= j < i1:
                    lap[j - i0] = _point_stencil(j, h, n, values)
        lap2 += float(np.dot(wt, lap * lap))
        i0 = i1
    return {"l2_sq": l2, "lap_l2_sq": lap2, "n_points": n, "h": h}


def _fd4_laplacian(j, h, n, uvals):
    """Fourth-order radial Laplacian (n=4) at node j from u_{j-2}..u_{j+2}.

    uvals holds the five stencil values with even extension/ghosts already
    applied; mirrors grid.laplacian_stencil_rows.
    """
    um2, um1, u0, up1, up2 = uvals
    if j == 0:
        return 4.0 * (-30.0 * u0 + 32.0 * up1 - 2.0 * up2) / (12.0 * h * h)
    r = j * h
    d2 = (-um2 + 16.0 * um1 - 30.0 * u0 + 16.0 * up1 - up2) / (12.0 * h * h)
    d1 = (um2 - 8.0 * um1 + 8.0 * up1 - up2) / (12.0 * h)
    return d2 + 3.0 * d1 / r


def _chunk_stencil(u_halo, halo_start, i0, i1, ro, h, n):
    """Vectorized fourth-order stencil on one chunk.

    u_halo covers global nodes [halo_start, halo_start + len(u_halo)); the
    chunk owns [i0, i1).  Left-of-axis references use the even extension,
    right-of-domain references are Dirichlet ghosts.
    """
    m = i1 - i0
    sten = np.empty((5, m))
    glob0 = np.arange(i0, i1)
    for k, d in enumerate((-2, -1, 0, 1, 2)):
        glob = np.abs(glob0 + d)            # even extension across the axis
        seg = np.zeros(m)
        ok = glob < n
        seg[ok] = u_halo[glob[ok] - halo_start]
        sten[k] = seg
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = (-sten[0] + 16 * sten[1] - 30 * sten[2] + 16 * sten[3] - sten[4]) / (12 * h * h)
        d1 = (sten[0] - 8 * sten[1] + 8 * sten[3] - sten[4]) / (12 * h)
        lap = d2 + 3.0 * d1 / ro
    if i0 == 0:
        lap[0] = 4.0 * (-30 * sten[2][0] + 32 * sten[3][0] - 2 * sten[4][0]) / (12 * h * h)
    return lap


def _point_stencil(j, h, n, values):
    rs = np.array([(j + d) * h for d in (-2, -1, 0, 1, 2)])
    uvals = values(np.abs(rs))          # even extension
    for k, d in enumerate((-2, -1, 0, 1, 2)):
        if j + d >= n:
            uvals[k] = 0.0
    return _fd4_laplacian(j, h, n, uvals)


# --- necessity witnesses --------------------------------------------------------

@dataclass
class WitnessReport:
    mode: str
    table: list        # per-k dict: params, l2_sq, lap_l2_sq, G
    verdict: str


class WitnessInapplicableError(ValueError):
    """The supplied g satisfies the condition the witness is meant to violate."""


def _g_integral(gfun: Callable, u: RadialField) -> float:
    vals = np.asarray(gfun(np.abs(u.values)), dtype=float)
    return float(np.dot(u.grid.weights, vals))


def necessity_witness(mode: str, gfun: Callable, K: float = 1.0,
                      ks=(2, 4, 8), dimension: int = 4
                      ) -> tuple[list[RadialField], WitnessReport]:
    """Finite-k counterexample sequences for a g violating the growth conditions.

    Modes and parameter couplings:

    * ``unbounded_origin``    a_k -> 0, c_k = g(a_k)/a_k^2 -> inf,
                              R_k = a_k^{-1/4} + a_k^{-1/2} c_k^{-1/8}
    * ``noncompact_origin``   a_k -> 0, R_k = a_k^{-1/2}
    * ``unbounded_infinity``  b_k -> inf, c_k = b_k^2 R_k g(b_k) -> inf,
                              S_k^4 = b_k^2 c_k^{-1/2}
    * ``noncompact_infinity`` S_k^4 = b_k^2

    Raises WitnessInapplicableError when g does not violate the respective
    condition on the sampled range.
    """
    if dimension != 4:
        raise ValueError("witness construction is for the 4-dimensional problem")
    table = []

    if mode in ("unbounded_origin", "noncompact_origin"):
        a_vals = np.array([1.0 / k for k in ks], dtype=float)
        y = np.asarray(gfun(a_vals), dtype=float) / a_vals**2
        if mode == "unbounded_origin":
            if not (y[-1] > 2.0 * y[0] and np.all(np.diff(y) > 0)):
                raise WitnessInapplicableError(
                    "g(t)/t^2 does not diverge at the origin on the sampled range")
        else:
            if y[-1] < 1e-8:
                raise WitnessInapplicableError("g(t)/t^2 vanishes at the origin")
        fields = []
        for k, a in zip(ks, a_vals):
            c = float(gfun(a)) / a**2
            if mode == "unbounded_origin":
                R = a ** (-0.25) + a ** (-0.5) * c ** (-0.125)
            else:
                R = a ** (-0.5)
            grd = g.build_grid(max(R + 3.0, 6.0), 4096, 4)
            fld = plateau_field(MoserParams.plateau(a, R), grd)
            table.append({"k": int(k), "a": a, "R": R,
                          "l2_sq": g.l2_sq(fld), "lap_l2_sq": g.lap_l2_sq(fld),
                          "G": _g_integral(gfun, fld)})
            fields.append(fld)
        if mode == "unbounded_origin":
            verdict = "mass vanishes while G grows"
        else:
            verdict = "G stays bounded away from zero under vanishing"
        return fields, WitnessReport(mode, table, verdict)

    if mode in ("unbounded_infinity", "noncompact_infinity"):
        bs = np.array([2.5 + 0.5 * i for i in range(len(ks))], dtype=float)
        cs = bs**2 * np.exp(-bs**2 / K) * np.asarray(gfun(bs), dtype=float)
        if mode == "unbounded_infinity" and not (np.all(np.diff(cs) > 0) and cs[-1] > 2 * cs[0]):
            raise WitnessInapplicableError(
                "t^2 exp(-t^2/K) g(t) does not diverge on the sampled range")
        if mode == "noncompact_infinity" and cs[-1] < 1e-12:
            raise WitnessInapplicableError("t^2 exp(-t^2/K) g(t) vanishes at infinity")
        fields = []
        for k, b, c in zip(ks, bs, cs):
            S = (b * b * c ** (-0.5)) ** 0.25 if mode == "unbounded_infinity" else np.sqrt(b)
            r14 = float(np.exp(-b * b / (4.0 * K)))
            h_need = min(r14, S * r14) / 10.0
            r_max = max(2.2 * S, 2.2)
            n = min(int(np.ceil(r_max / h_need)) + 1, 4_000_000)
            grd = g.build_grid(r_max, max(n, 4096), 4)
            psi = moser_field(MoserParams.moser(b, K, S), grd)
            fld = dilate(psi, S)
            table.append({"k": int(k), "b": float(b), "c": float(c), "S": float(S),
                          "l2_sq": g.l2_sq(fld), "lap_l2_sq": g.lap_l2_sq(fld),
                          "G": _g_integral(gfun, fld)})
            fields.append(fld)
        if mode == "unbounded_infinity":
            verdict = "G/||u||^2 grows along the sweep"
        else:
            verdict = "G stays bounded away from zero under vanishing"
        return fields, WitnessReport(mode, table, verdict)

    raise ValueError(f"unknown witness mode {mode!r}")

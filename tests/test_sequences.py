import numpy as np
import pytest

import biharm as bh
from biharm.grid import quad_form_sq
from biharm.sequences import (_digamma, _moser_branch_nodes, moser_estimates, moser_field,
                              moser_sums, quintic_blend)


def l2_sq(u):
    return float(np.dot(u.grid.weights, u.values**2))


def fd_slope(field, r0):
    """One-sided difference quotients around radius r0."""
    g = field.grid
    i = int(round(r0 / g.h))
    left = (field.values[i] - field.values[i - 1]) / g.h
    right = (field.values[i + 1] - field.values[i]) / g.h
    return left, right


# --- plateau family ---------------------------------------------------------

def plateau_field(a, R, grid):
    """Plateau profile: value a on [0, R], the parabolic ramp
    a (1 - R^2 - r^2 + 2 R r) on (R, R+1] and a quintic cap on (R+1, R+2],
    with the branch radii snapped to nodes."""
    if R + 2.0 > grid.r_max:
        raise ValueError("plateau support exceeds the domain")

    def snap(r):
        return grid.nodes[min(int(round(r / grid.h)), grid.n_points - 1)]

    R1 = snap(R)
    R2, R3 = snap(R1 + 1.0), snap(R1 + 2.0)
    r = grid.nodes
    out = np.zeros_like(r)
    ramp = (r > R1) & (r <= R2)
    cap = (r > R2) & (r < R3)
    out[r <= R1] = a
    out[ramp] = a * (1.0 - R1**2 - r[ramp] ** 2 + 2.0 * R1 * r[ramp])
    out[cap] = quintic_blend(r[cap], R2, R3, a * (1.0 - (R2 - R1) ** 2), -2.0 * a * (R2 - R1),
                             0.0, 0.0)
    return bh.RadialField(grid, out)


def test_plateau_values():
    g = bh.build_grid(20.0, 4096, 4)
    fld = plateau_field(0.1, 5.0, g)
    assert fld.values[0] == pytest.approx(0.1)
    assert np.all(np.abs(fld.values[g.nodes >= 7.0 + g.h]) < 1e-14)


def test_plateau_continuity_c1():
    g = bh.build_grid(20.0, 4096, 4)
    fld = plateau_field(0.2, 4.0, g)
    vals = fld.values
    # value continuity across branch radii
    assert np.max(np.abs(np.diff(vals))) < 0.2 * 3 * g.h  # no jumps beyond slope scale
    for r0 in (4.0, 5.0):
        left, right = fd_slope(fld, r0)
        assert abs(left - right) < 1e-3


def test_plateau_mass_estimates():
    # int u^2 <= c a^2 R^4 with stable c, int (Du)^2 <= c a^2 R^3
    # the R^2 shell correction biases a small-R power fit low, so the
    # exponent is probed in the asymptotic range
    a = 0.1
    Rs = np.array([12.0, 20.0, 30.0])
    cs_l2, laps = [], []
    for R in Rs:
        g = bh.build_grid(R + 4.0, 16384, 4)
        fld = plateau_field(a, R, g)
        cs_l2.append(l2_sq(fld) / (a**2 * R**4))
        laps.append(quad_form_sq(fld))
    assert max(cs_l2) / min(cs_l2) < 1.6
    slope = np.polyfit(np.log(Rs), np.log(laps), 1)[0]
    assert 2.8 <= slope <= 3.2


def test_plateau_ball_lower_bound():
    # measured G(phi) >= vol(B_1) g(a) R^4 (1 - 2%) for g = t^2
    a, R = 0.3, 6.0
    g = bh.build_grid(R + 4.0, 8192, 4)
    fld = plateau_field(a, R, g)
    G = np.dot(g.weights, fld.values**2)
    bound = (np.pi**2 / 2) * a**2 * R**4
    assert G >= bound * 0.98


def test_plateau_domain_error():
    g = bh.build_grid(6.0, 2048, 4)
    with pytest.raises(ValueError):
        plateau_field(0.1, 5.0, g)


# --- concentrating log profiles ----------------------------------------------

def test_moser_center_value():
    g = bh.build_grid(2.0, 8192, 4)
    fld = moser_field(3.0, 1.0, g)
    _, (_, K_eff, *_) = _moser_branch_nodes(3.0, 1.0, g.key())
    assert fld.values[0] == pytest.approx(3.0 + 2.0 * K_eff / 3.0, rel=1e-12)


def test_moser_consistency_relation():
    # continuity at the concentration radius encodes b^2 = K |log R|
    g = bh.build_grid(2.0, 8192, 4)
    fld = moser_field(3.0, 1.0, g)
    r14 = np.exp(-9.0 / 4.0)
    i = int(round(r14 / g.h))
    # value b at the junction, C^1 across it
    assert fld.values[i] == pytest.approx(3.0, rel=1e-9)
    left, right = fd_slope(fld, g.nodes[i])
    assert abs(left - right) / abs(left) < 1e-2


def test_moser_norm_estimates_small_b():
    g = bh.build_grid(2.0, 16384, 4)
    fld = moser_field(3.0, 1.0, g)
    # ||psi||_2^2 <= c K^2 / b^2
    assert l2_sq(fld) * 9.0 < 30.0
    # Delta-norm near 32 pi^2 K with the O(1/b^2) excess
    assert quad_form_sq(fld) == pytest.approx(888.8, rel=0.01)


def test_moser_under_resolution_error():
    g = bh.build_grid(2.0, 2048, 4)
    with pytest.raises(ValueError, match="under-resolved"):
        moser_field(6.0, 1.0, g)


def test_moser_estimates_match_ops():
    est = moser_estimates(3.0)
    g = bh.build_grid(2.0, est["n_points"], 4)
    fld = moser_field(3.0, 1.0, g)
    assert est["lap_l2_sq"] == pytest.approx(quad_form_sq(fld), rel=2e-3)
    assert est["l2_sq"] == pytest.approx(l2_sq(fld), rel=1e-6)


def test_moser_concentration_of_exp_mass():
    g = bh.build_grid(2.0, 65536, 4)
    fld = moser_field(4.0, 1.0, g)
    r14 = np.exp(-4.0)
    em = np.expm1(2.0 * fld.values**2)
    inside = g.nodes <= r14 * (1 + 1e-9)
    frac = np.dot(g.weights[inside], em[inside]) / np.dot(g.weights, em)
    assert frac > 0.99


# --- necessity witnesses ----------------------------------------------------------
#
# Finite-k counterexample sequences in 4-D for a g that violates a growth
# condition.  Each row holds l2_sq = ||u||^2, lap_l2_sq = ||D u||^2 and
# G = int g(|u|).

def g_integral(gfun, fld):
    return float(np.dot(fld.grid.weights, np.asarray(gfun(np.abs(fld.values)), dtype=float)))


def origin_witness(mode, gfun, ks):
    """Plateaus of height a_k = 1/k -> 0 and radius R_k = a_k^{-1/4} +
    a_k^{-1/2} c_k^{-1/8}, c_k = g(a_k)/a_k^2 -> inf ("unbounded_origin"),
    or R_k = a_k^{-1/2} ("noncompact_origin")."""
    rows = []
    for k in ks:
        a = 1.0 / k
        c = float(gfun(a)) / a**2
        R = a ** (-0.25) + a ** (-0.5) * c ** (-0.125) if mode == "unbounded_origin" \
            else a ** (-0.5)
        fld = plateau_field(a, R, bh.build_grid(max(R + 3.0, 6.0), 4096, 4))
        rows.append({"l2_sq": l2_sq(fld), "lap_l2_sq": quad_form_sq(fld),
                     "G": g_integral(gfun, fld)})
    return rows


def infinity_witness(mode, gfun, K=1.0):
    """psi_{b,K}(r / S) for b = 2.5, 3, 3.5, with c = b^2 exp(-b^2/K) g(b) and
    S^4 = b^2 c^{-1/2} ("unbounded_infinity", c -> inf) or S^4 = b^2
    ("noncompact_infinity").

    psi is summed by moser_sums on the undilated mesh ``mesh`` = (r_max, n):
    radius max(2.2 S, 2.2) / S, 10 nodes per r14 and at least 4096.  The R^4
    dilation is exact: ||.||^2 and G scale by S^4, ||D .||^2 does not change.
    """
    rows = []
    for b in (2.5, 3.0, 3.5):
        c = b * b * np.exp(-b * b / K) * float(gfun(b))
        S = (b * b * c ** (-0.5)) ** 0.25 if mode == "unbounded_infinity" else np.sqrt(b)
        r_max = max(2.2 * S, 2.2) / S
        n = max(int(np.ceil(r_max / (np.exp(-b * b / (4.0 * K)) / 10.0))) + 1, 4096)
        sums = moser_sums(b, K, r_max, n, 4, gfun)
        rows.append({"b": b, "S": S, "mesh": (r_max, n), "l2_sq": S**4 * sums["l2_sq"],
                     "lap_l2_sq": sums["quad_form"], "G": S**4 * sums["F_mass"]})
    return rows


def test_witness_unbounded_origin():
    # g(t) = t has t^-2 g -> inf at the origin
    # ball term ~ sqrt(k) must beat the near-flat shell term: sample far apart
    rows = origin_witness("unbounded_origin", lambda t: np.asarray(t), ks=(16, 64, 256))
    l2 = [row["l2_sq"] for row in rows]
    G = [row["G"] for row in rows]
    assert l2[0] > l2[1] > l2[2]          # mass decreasing toward 0
    assert G[0] < G[1] < G[2]             # G grows
    lap = [row["lap_l2_sq"] for row in rows]
    # a^2 R^3 -> 0: the Delta-mass falls under any fixed budget eventually
    assert lap[0] > lap[1] > lap[2]
    assert lap[2] < 32 * np.pi**2


def test_witness_noncompact_origin():
    rows = origin_witness("noncompact_origin", lambda t: np.asarray(t) ** 2, ks=(2, 4, 8))
    G = [row["G"] for row in rows]
    lap = [row["lap_l2_sq"] for row in rows]
    assert min(G) > (np.pi**2 / 2) * 0.9          # bounded away from zero
    assert lap[0] > lap[1] > lap[2]               # Delta-mass vanishes


def _boundary_growth(t):
    """(exp(t^2) - 1 - t^2 - t^4/2) / t^2: c -> 1 at infinity, g(0) = 0."""
    t2 = np.asarray(t, dtype=float) ** 2
    num = np.expm1(t2) - t2 - t2 * t2 / 2.0
    return np.divide(num, t2, out=np.zeros_like(t2), where=t2 > 0)


# g for each witness at infinity; the noncompact one has boundary growth,
# c_k -> const > 0
_INFINITY_WITNESSES = {
    "unbounded_infinity": lambda t: np.asarray(t) ** 4 * np.exp(np.asarray(t) ** 2),
    "noncompact_infinity": _boundary_growth,
}


def test_witness_unbounded_infinity():
    rows = infinity_witness("unbounded_infinity", _INFINITY_WITNESSES["unbounded_infinity"])
    ratio = [row["G"] / row["l2_sq"] for row in rows]
    assert ratio[0] < ratio[1] < ratio[2]


def test_witness_noncompact_infinity():
    rows = infinity_witness("noncompact_infinity", _INFINITY_WITNESSES["noncompact_infinity"])
    G = [row["G"] for row in rows]
    assert min(G) > 0.1 * max(G)          # non-vanishing along the sweep


@pytest.mark.parametrize("mode", sorted(_INFINITY_WITNESSES))
def test_witness_dilation_is_exact(mode):
    # psi(r/S) is psi on the undilated mesh read on the mesh S r_max: the
    # S^4-scaled sums of moser_sums on the undilated mesh are the sums on the
    # dilated one.  The Laplacian sums carry the double rounding of a
    # fourth-order stencil on each grid (up to 5e-11 relative here); an
    # interpolated dilation is off by 2.6e-4 to 7e-3.
    gfun = _INFINITY_WITNESSES[mode]
    for row in infinity_witness(mode, gfun):
        pre = bh.build_grid(*row["mesh"], 4)
        assert pre.nodes[1] <= 0.1 * np.exp(-row["b"] ** 2 / 4.0)   # h <= r14 / 10
        dil = bh.build_grid(row["S"] * pre.r_max, pre.n_points, 4)
        fld = bh.RadialField(dil, moser_field(row["b"], 1.0, pre).values)
        assert row["lap_l2_sq"] == pytest.approx(quad_form_sq(fld), rel=1e-9, abs=0)
        assert row["l2_sq"] == pytest.approx(l2_sq(fld), rel=1e-12, abs=0)
        assert row["G"] == pytest.approx(g_integral(gfun, fld), rel=1e-12, abs=0)


def _full_mesh_sums(b, K, r_max, n, dim, F):
    """The sums of moser_sums on the whole mesh, with the grid operators."""
    grid = bh.build_grid(r_max, n, dim)
    psi = moser_field(b, K, grid)
    F_mass = float(np.dot(grid.weights, F(psi.values))) if F is not None else None
    return {"l2_sq": l2_sq(psi), "quad_form": quad_form_sq(psi), "F_mass": F_mass}, psi


_USER_F = bh.user_nonlinearity("0.5*t*exp(2*t^2)").F
_EXP_F = bh.exp_critical(0.5).F


@pytest.mark.parametrize("dim, b, K, r_max, n, F", [
    (4, 3.0, 1.0, 2.0, 4097, None),            # moser_estimates' mesh, r_two the last node
    (4, 2.5, 0.5, 2.5, 2252, _EXP_F),          # ratio-search candidates
    (4, 3.0, 0.7, 2.5, 3000, _USER_F),
    (4, 4.0, 1.3, 3.0, 7001, None),
    (4, 2.0, 1.0, 2.0, 700, _USER_F),
    (2, 2.5, 0.4, 2.5, 5000, _EXP_F),
    (2, 3.0, 0.8, 2.5, 3001, _USER_F),
    (2, 2.0, 1.0, 2.0, 600, None),
])
def test_moser_sums_match_full_mesh(dim, b, K, r_max, n, F, monkeypatch):
    ref, psi = _full_mesh_sums(b, K, r_max, n, dim, F)
    # the branch nodes r14, 1 and 2 snap to, as moser_field snaps them
    h = r_max / (n - 1)
    i14 = int(round(np.exp(-b * b / (4.0 * K)) / h))
    i_one, i_two = int(round(1.0 / h)), int(round(2.0 / h))
    assert psi.values[i_two - 1] != 0.0 and not np.any(psi.values[i_two:])
    # one block (the mesh is smaller than the default), then block edges on
    # r14, r_one and r_two and at rows 1, 2 and 3 of the origin closure
    for block in (bh.sequences._BLOCK, i14, i_one, i_two, i_two - 1) \
            + ((1, 2, 3, 7) if n <= 1000 else ()):
        monkeypatch.setattr(bh.sequences, "_BLOCK", block)
        got = moser_sums(b, K, r_max, n, dim, F)
        assert set(got) == set(ref)
        for key in ("l2_sq", "quad_form", "F_mass"):
            if F is None and key == "F_mass":
                assert got[key] is None
                continue
            assert got[key] == pytest.approx(ref[key], rel=1e-13, abs=0), (block, key)


def test_moser_sums_reject_what_moser_field_rejects():
    with pytest.raises(ValueError, match="under-resolved"):
        moser_sums(6.0, 1.0, 2.0, 2048, 4)
    with pytest.raises(ValueError, match="exceeds the domain"):
        moser_sums(3.0, 1.0, 1.5, 4096, 4)
    with pytest.raises(ValueError, match="finite and positive"):
        moser_sums(np.nan, 1.0, 2.0, 4096, 4)


def _streamed_moser_estimates(b, K, chunk=1 << 20):
    """The chunked node-by-node sums that moser_estimates replaced (h <= 1e-6).

    Closed-form branch Laplacians, the discrete stencil at the five nodes
    around each junction, trapezoid weights 2 pi^2 r^3 h.
    """
    r14 = float(np.exp(-b * b / (4.0 * K)))
    n = max(int(np.ceil(2.0 / (r14 / 10))) + 1, 4097)
    h = 2.0 / (n - 1)
    i14, i_one, i_two = max(int(round(r14 / h)), 1), int(round(1.0 / h)), int(round(2.0 / h))
    r14s, r_ones, r_twos = i14 * h, i_one * h, i_two * h
    K = b * b / (4.0 * abs(np.log(r14s)))
    cap_val, cap_slope = -4.0 * K * np.log(r_ones) / b, -4.0 * K / (b * r_ones)

    def branches(r):
        return r <= r14s, (r > r14s) & (r <= r_ones), (r > r_ones) & (r < r_twos)

    def values(r):
        out = np.zeros_like(r)
        core, logb, cap = branches(r)
        out[core] = b - 2.0 * K * r[core] ** 2 / (r14s * r14s * b) + 2.0 * K / b
        out[logb] = -4.0 * K * np.log(r[logb]) / b
        out[cap] = bh.sequences.quintic_blend(r[cap], r_ones, r_twos, cap_val, cap_slope,
                                              0.0, 0.0)
        return out

    def branch_laplacian(r):
        out = np.zeros_like(r)
        core, logb, cap = branches(r)
        out[core] = -16.0 * K / (r14s * r14s * b)
        out[logb] = -8.0 * K / (b * r[logb] ** 2)
        rc, s = r[cap], r_twos - r_ones
        t = (rc - r_ones) / s
        d1 = (cap_val * (-30 * t**2 + 60 * t**3 - 30 * t**4)
              + cap_slope * s * (1 - 18 * t**2 + 32 * t**3 - 15 * t**4)) / s
        d2 = (cap_val * (-60 * t + 180 * t**2 - 120 * t**3)
              + cap_slope * s * (-36 * t + 96 * t**2 - 60 * t**3)) / s**2
        out[cap] = d2 + 3.0 * d1 / rc
        return out

    def point_stencil(j):
        um2, um1, u0, up1, up2 = [values(np.array([abs(j + d) * h]))[0] if j + d < n else 0.0
                                  for d in (-2, -1, 0, 1, 2)]
        if j == 0:
            return 4.0 * (-30.0 * u0 + 32.0 * up1 - 2.0 * up2) / (12.0 * h * h)
        d2 = (-um2 + 16.0 * um1 - 30.0 * u0 + 16.0 * up1 - up2) / (12.0 * h * h)
        d1 = (um2 - 8.0 * um1 + 8.0 * up1 - up2) / (12.0 * h)
        return d2 + 3.0 * d1 / (j * h)

    junction = {j0 + d for j0 in (0, i14, i_one, i_two) for d in range(-2, 3)}
    l2 = lap2 = 0.0
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        r = np.arange(i0, i1) * h
        wt = 2.0 * np.pi**2 * r**3 * h
        if i1 == n:
            wt[-1] *= 0.5
        u, lap = values(r), branch_laplacian(r)
        for j in junction:
            if i0 <= j < i1:
                lap[j - i0] = point_stencil(j)
        l2 += float(np.dot(wt, u * u))
        lap2 += float(np.dot(wt, lap * lap))
    return {"l2_sq": l2, "lap_l2_sq": lap2, "n_points": n}


def test_moser_estimates_closed_form_matches_streamed_sums():
    est = moser_estimates(7.0)
    ref = _streamed_moser_estimates(7.0, 1.0)
    assert est["method"] == "closed_form"
    assert est["n_points"] == ref["n_points"] == 4_179_627
    assert est["l2_sq"] == pytest.approx(ref["l2_sq"], rel=1e-12)
    assert est["lap_l2_sq"] == pytest.approx(ref["lap_l2_sq"], rel=1e-12)
    beta = 32.0 * np.pi**2
    assert est["lap_l2_sq"] - beta == pytest.approx(ref["lap_l2_sq"] - beta, rel=1e-12)


@pytest.mark.parametrize("b", [5.0, 6.0, 6.5])
def test_moser_estimates_closed_form_meets_finite_difference(b, monkeypatch):
    # the two sides of the _H_CLOSED_FORM fork on the same mesh: the closed
    # form leaves out the stencil's truncation error on the log branch, which
    # is 7.5e-7 to 1.1e-6 of the Laplacian norm here
    fd = moser_estimates(b)
    monkeypatch.setattr(bh.sequences, "_H_CLOSED_FORM", 1.0)
    cf = moser_estimates(b)
    assert (fd["method"], cf["method"]) == ("finite_difference", "closed_form")
    assert cf["n_points"] == fd["n_points"]
    assert cf["l2_sq"] == pytest.approx(fd["l2_sq"], rel=1e-13, abs=0)
    assert cf["lap_l2_sq"] == pytest.approx(fd["lap_l2_sq"], rel=2e-6, abs=0)


@pytest.mark.parametrize("b, l2_sq, lap_l2_sq", [
    (3.0, 2.4692698664294497, 889.1480593742762),
    (5.0, 0.8883669069333653, 521.189963278451),
])
def test_moser_estimates_finite_difference_pinned(b, l2_sq, lap_l2_sq):
    # values of the former chunked five-point stencil on the same mesh
    est = moser_estimates(b)
    assert est["method"] == "finite_difference"
    assert est["l2_sq"] == pytest.approx(l2_sq, rel=1e-8)
    assert est["lap_l2_sq"] == pytest.approx(lap_l2_sq, rel=1e-8)
    beta = 32.0 * np.pi**2
    assert est["lap_l2_sq"] - beta == pytest.approx(lap_l2_sq - beta, rel=1e-8)


@pytest.mark.parametrize("b, K", [(0.0, 1.0), (-3.0, 1.0), (np.inf, 1.0), (np.nan, 1.0),
                                  (3.0, -1.0), (3.0, 0.0), (3.0, np.inf), (3.0, np.nan)])
def test_moser_estimates_rejects_bad_parameters(b, K):
    # moser_estimates fixes K = 1; the log-profile sums, which take K, refuse a bad one
    with pytest.raises(ValueError, match="finite and positive"):
        moser_estimates(b) if K == 1.0 else moser_sums(b, K, 2.0, 4097, 4)


def test_moser_estimates_rejects_mesh_below_rounding_floor():
    assert moser_estimates(8.25)["h"] >= 4e-9
    with pytest.raises(ValueError, match="largest admissible b is 8.254"):
        moser_estimates(9.0)


@pytest.mark.parametrize("b, K", [(3.0, 0.5), (6.0, 4.0), (7.0, 1.7)])
def test_moser_sums_scale_out_K(b, K):
    # psi_{b,K} = sqrt(K) psi_{b/sqrt(K),1} on the same mesh and snapped nodes, so
    # moser_estimates' K = 1 serves every K
    n, _ = bh.sequences.moser_mesh(b / np.sqrt(K))
    got = moser_sums(b, K, 2.0, n, 4)
    unit = moser_sums(b / np.sqrt(K), 1.0, 2.0, n, 4)
    for key in ("l2_sq", "quad_form"):
        assert got[key] == pytest.approx(K * unit[key], rel=1e-10, abs=0)


@pytest.mark.parametrize("x", [12, 13, 20, 10**2, 10**3, 10**6, 10**9, 2 * 10**9])
def test_digamma_matches_scipy(x):
    # the asymptotic series from x = 12 on, up to the largest i_one - 2 a mesh reaches
    from scipy.special import digamma

    assert _digamma(x) == digamma(x)

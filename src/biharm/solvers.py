"""Manifold projections, constrained ground-state solvers and residuals.

Both solvers run one descent-and-polish loop (``_minimize``); they differ only
in the right-hand side of the implicit step, the objective, the constraint
functional and its projection:

1. Descent on the caller's grid.  The descent operator A0 + diag is factored
   once per solve, and each step is one solve against that factor, which
   treats the stiff linear part implicitly (a damped step of the
   preconditioned gradient flow; at full step it is the classic normalized
   fixed-point iteration for ground states).  A backtracking line search
   rescales each trial point back onto the constraint manifold and accepts
   it once the objective does not increase.  After ``_HANDOFF_STEP`` (5)
   steps a copy is polished once (point 2, at most 8 Newton steps), and the
   solve ends there if the copy meets the 1e-5 gate without rising above the
   descent's objective (a root above it is a higher critical point).  Else
   the descent goes on untouched until the objective falls by less than
   ``_STAGNATION_TOL`` (1e-10, relative) over ``_STAGNATION_WINDOW`` steps,
   or for ``_DESCENT_STEPS`` (400) steps.  These are constants, not options:
   on converged runs a stagnation tolerance from 1e-12 to 1e-4, a cap from
   100 to 1000 steps or the handoff moved no level by more than 3.4e-13
   relative (``gap``'s comparison level by at most 7.3e-11).
   The zero-crossing scale is unique for both constraints (the tests scan
   the ray's sign), which is what makes the scaling projection (``_project``)
   well defined: it is the root
   of one scalar function, the ray s -> G(s u) or N(s u) with its quadratic
   parts computed once, found by Brent's method on a doubling bracket.

2. Polish on the same grid: damped Newton on the discrete Euler-Lagrange
   equation, an exact projection onto the constraint, and the report.  Each
   Newton step factors its Jacobian and solves once; Newton stops when the
   residual reaches its rounding bound (``_Ops.residual_floor``), in 3-6
   steps from the fifth descent step.  All of it is double precision: where
   the polish converges (up to 8,192 nodes in 4-D) the residual's floor is
   the rounding of u itself, which no wider type for the residual lowers.
   ``converged`` reads the returned, projected state: ``residual_weak`` <= 1e-5.

Every linear system is A0 + diag with A0 = (-D)^m, whose band (L L in 4-D,
-L in 2-D) is built once per (grid, config) from the stencil rows.  The
descent operator and the Newton Jacobian are factored by block cyclic
reduction (``banded``, reached as ``spla.splu``), which pivots within p x p
blocks but not across them; in 4-D that loses digits to the bi-Laplacian's
conditioning, which the damped Newton steps absorb.

The commands take the constant-potential ground state from ``minimize_nehari``,
whose level is the Pohozaev one (Jeanjean & Tanaka 2003); the polish reports
the Pohozaev defect G(u) / (gamma ||u||^2), 0 for every continuum solution
(Pohozaev 1965).  ``minimize_pohozaev``, the independent reference, minimizes
1/2 ||Du||^2 on {G=0}, with the multiplier theta of ||Du||^2 = (2 theta - 1)
int (gamma u - f(u)) u; before its polish the dilation u(x / (1-2 theta)^{1/(2m)})
onto the plain equation is a linear resample on the same grid (``_gauge_dilate``).
No command runs that route; it stays here because the benchmark tracer wraps
``minimize_pohozaev`` and ``project_pohozaev``.  The exact discrete gradients
of Q and I that the tests check against finite differences live in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import banded as spla
from . import grid as g
from .grid import RadialField, RadialGrid
from .model import OVERFLOW_CAP, ConstantPotential, OverflowCapError, ProblemConfig, check_cap

_NEWTON_ITERS = 60          # polish Newton steps at most
_DESCENT_STEPS = 400        # descent steps at most
_HANDOFF_STEP = 5           # after this descent step a copy is polished once, with
_HANDOFF_NEWTON_ITERS = 8   # at most this many Newton steps
_STAGNATION_TOL = 1e-10     # the descent ends once the objective falls by less than
_STAGNATION_WINDOW = 12     # this, relative, over this many steps
_RESIDUAL_GATE = 1e-5       # converged: the reported residual_weak at most this
_TRUNCATION_GATE = 1e-8     # BOUNDARY_TRUNCATION: r_max moves the level by more than this


@dataclass
class SolveReport:
    field: RadialField
    objective: float
    lagrange_theta: Optional[float]
    residual_weak: float
    constraint_residual: float
    iterations: int
    trace: list = field(repr=False, default_factory=list)
    warnings: list = field(default_factory=list)
    pohozaev_defect: Optional[float] = None   # G(u) / (gamma ||u||^2); None unless V is constant

    @property
    def converged(self) -> bool:
        """The returned state solves its equation: ``residual_weak`` within the gate."""
        return self.residual_weak <= _RESIDUAL_GATE


# --- the discrete operator bundle ---------------------------------------------

class _Ops:
    """The functionals and the discrete operators of one (grid, config) pair.

    With Q(u) = ``grid.quad_form_sq(u)``, ||Du||^2 on R^4 or ||u'||^2 on R^2, and the
    limiting constant gamma = V(r_max), every nonlinearity is evaluated on nodal
    values through its own F and f:

        I(u) = 1/2 (Q(u) + int V u^2) - int F(u)
        G(u) = gamma ||u||^2 - 2 int F(u)
        N(u) = Q(u) + int V u^2 - int f(u) u

    For the exp-critical f(t) = lam t exp(a t^2), a = 2 on R^4 and 1 on R^2,
    int F(u) = (lam/(2a)) int (exp(a u^2) - 1).  The rays ``G_ray``/``N_ray``
    give s -> G(s u) and s -> N(s u), the scalar functions the scaling
    projections find the root of; G and N are their values at s = 1.  Nothing
    is clamped: callers keep amplitudes within the overflow cap (``check_cap``
    on entry, or the bracketing of the projections).
    """

    def __init__(self, gridobj: RadialGrid, config: ProblemConfig):
        if gridobj.dimension != config.dimension:
            raise ValueError(f"a {config.dimension}-D problem on a {gridobj.dimension}-D grid")
        self.grid = gridobj
        self.config = config
        self.w = gridobj.weights
        self.L = g.laplacian_matrix(gridobj)
        self.V = np.asarray(config.potential(gridobj.nodes), dtype=float)
        self.spec = config.nonlinearity
        self.m = config.order
        # rows of (-D)^m as a band, half-bandwidth 2m
        self.A0 = g.stencil_square(self.L) if self.m == 2 else -self.L
        self.A0_abs = np.abs(self.A0)     # for residual_floor

    def f(self, u):
        return np.asarray(self.spec.f(u), dtype=float)

    def fprime(self, u):
        """f'(u) for Newton, of every family: the central difference of f, step 1e-6."""
        return (self.f(u + 1e-6) - self.f(u - 1e-6)) / 2e-6

    def l2(self, u):
        return float(np.dot(self.w, u * u))

    def quad_form(self, u):
        return g.quad_form_sq(RadialField(self.grid, u), self.L)

    def pot_mass(self, u):
        return float(np.dot(self.w, self.V * u * u))

    def F_mass(self, u):
        """int F(u)."""
        return float(np.dot(self.w, np.asarray(self.spec.F(u), dtype=float)))

    def I(self, u):
        """Action with the actual potential."""
        return 0.5 * (self.quad_form(u) + self.pot_mass(u)) - self.F_mass(u)

    def G(self, u):
        """Pohozaev functional gamma ||u||^2 - 2 int F(u)."""
        return self.G_ray(u)(1.0)

    def N(self, u):
        """Nehari functional with the actual potential."""
        return self.N_ray(u)(1.0)

    # The quadratic parts of a ray scale as s^2 and are computed once; each s
    # then costs one pass of the nonlinearity, with no matvec.

    def G_ray(self, u) -> Callable[[float], float]:
        """s -> G(s u) = s^2 gamma ||u||^2 - 2 int F(s u)."""
        quad = self.config.gamma * self.l2(u)
        return lambda s: s * s * quad - 2.0 * self.F_mass(s * u)

    def N_ray(self, u) -> Callable[[float], float]:
        """s -> N(s u) = s^2 (Q(u) + int V u^2) - int f(s u) s u."""
        quad = self.quad_form(u) + self.pot_mass(u)
        w = self.w
        return lambda s: s * s * quad - float(np.dot(w, self.f(s * u) * (s * u)))

    def factor(self, diag):
        """Factorization of A0 + diag(diag), ``diag`` a vector or a scalar."""
        band = self.A0.copy()
        band[:, 2 * self.m] += diag
        return spla.splu(band)

    def nrm(self, v):
        return float(np.sqrt(np.dot(self.w, v * v)))

    def pde_residual(self, u, coeff: float = 1.0):
        """(-D)^m u + coeff (V u - f(u)); (-D)^m u is L L u in 4-D, -L u in 2-D."""
        lap = g.apply_stencil(self.L, u)
        a0u = g.apply_stencil(self.L, lap) if self.m == 2 else -lap
        return a0u + coeff * (self.V * u - self.f(u))

    def residual_floor(self, u):
        """eps || |A0| |u| + |V u| + |f(u)| ||, the rounding bound of ``pde_residual(u)``."""
        au = np.abs(u)
        bound = g.apply_stencil(self.A0_abs, au) + np.abs(self.V) * au + np.abs(self.f(u))
        return np.finfo(float).eps * self.nrm(bound)

    def residual_weak(self, u, coeff: float = 1.0):
        """||(-D)^m u + coeff (V u - f(u))|| / (||f(u)|| + ||V u||)."""
        fu = self.f(u)
        den = self.nrm(fu) + self.nrm(self.V * u)
        if den == 0.0:
            return 0.0
        return self.nrm(self.pde_residual(u, coeff)) / den

    def truncation_shift(self, u, level):
        """Estimated relative move of ``level`` were the domain R^n, not [0, r_max].

        Past r_max u solves (-D)^m u + c u = 0, c = V(r_max) - lim f(t)/t: it decays like
        exp(-kappa r), kappa = c^(1/2m) sin(pi/2m), with action c u^2, and the last two decay
        lengths hold e^4 - 1 times the action beyond r_max.  Where r_max limits the level
        this reads 0.4-0.7 times its move to 2 r_max at the same h.  It underestimates as
        lim f(t)/t approaches V(r_max), where r_max spans few decay lengths and u near r_max
        is not yet that tail: 4-D gamma 0.52, lam 0.5 reads 5.1e-5, while doubling r_max
        moves the level by 5.7e-4.
        """
        c = self.V[-1] - self.config.linear_slope
        kappa = c ** (0.5 / self.m) * np.sin(0.5 * np.pi / self.m)
        tail = self.grid.nodes >= self.grid.r_max - 2.0 / kappa
        return c * float(np.dot(self.w[tail], u[tail] ** 2)) / np.expm1(4.0) / abs(level)

    def theta_hat(self, u):
        """Multiplier from ||Du||^2 = (2 theta - 1) int (gamma u - f(u)) u."""
        gam = self.config.gamma
        denom = float(np.dot(self.w, (gam * u - self.f(u)) * u))
        return 0.5 * (1.0 + self.quad_form(u) / denom)


# Grids and configs hash by identity, so the cache keeps each key object alive
# while it is cached and a hit always belongs to the very same pair.
@functools.lru_cache(maxsize=8)
def _ops_for(gridobj: RadialGrid, config: ProblemConfig) -> _Ops:
    return _Ops(gridobj, config)


# --- scaling projections --------------------------------------------------------

def _project(u: RadialField, config: ProblemConfig, ray: Callable) -> float:
    """Scale s > 0 with ray(ops, u.values)(s) = 0, e.g. ``_Ops.G_ray``.

    The ray s -> functional(s u) is built once, so every s costs one pass of
    the nonlinearity.  It starts positive and crosses zero once: bracket the
    crossing by doubling from s = 1, where descent and polish iterates put it
    (or by halving when it lies below the start), and close the bracket with
    ``_brent`` down to rounding.  A non-finite value raises ValueError.
    """
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        raise ValueError("cannot project the zero field")
    along = ray(_ops_for(u.grid, config), u.values)
    cap_scale = OVERFLOW_CAP / peak

    def fun(s):
        if np.isfinite(value := along(s)):
            return value
        raise ValueError(f"the scaling projection's functional is {value} at scale {s:.6g}")

    a = b = min(1.0, 0.5 * cap_scale)
    fb = fun(b)
    if fb <= 0:
        for _ in range(60):
            a *= 0.5
            fa = fun(a)
            if fa > 0:
                break
            b, fb = a, fa
        else:
            raise ValueError("no positive start for the scaling projection")
    else:
        while fb > 0:
            a, fa = b, fb
            b *= 2.0
            if b > cap_scale:
                raise OverflowCapError(
                    "no sign change before the overflow cap; rescale the input")
            fb = fun(b)
    return _brent(fun, a, fa, b, fb)


def _brent(fun: Callable, a: float, fa: float, b: float, fb: float) -> float:
    """Root of fun in the bracket [a, b], fa > 0 >= fb, by Brent's zeroin.

    Each step takes inverse quadratic interpolation through the last three
    points (a secant step when two coincide) if it stays inside the bracket
    and at least halves the step before last, and bisects otherwise (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).  Steps
    shorter than the rounding tolerance 2 eps |b| are lengthened to it, so
    the bracket [b, c] collapses to |c - b| <= 4 eps |b|; b, the end with the
    smaller |fun|, is returned.
    """
    eps2 = 2.0 * np.finfo(float).eps
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = eps2 * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            r = fb / fa
            if a == c:
                p, q = 2.0 * m * r, 1.0 - r
            else:
                qa, qb = fa / fc, fb / fc
                p = r * (2.0 * m * qa * (qa - qb) - (b - a) * (qb - 1.0))
                q = (qa - 1.0) * (qb - 1.0) * (r - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = fun(b)
    return float(b)


def project_pohozaev(u: RadialField, config: ProblemConfig) -> float:
    """Scale s0 > 0 with G(s0 u) = 0."""
    return _project(u, config, _Ops.G_ray)


def project_nehari(u: RadialField, config: ProblemConfig) -> float:
    """Scale t_u > 0 with N(t_u u) = 0."""
    return _project(u, config, _Ops.N_ray)


# --- the descent-and-polish loop -------------------------------------------------

def _damped_newton_pde(ops: _Ops, u: np.ndarray, iters: int = _NEWTON_ITERS):
    """Damped Newton for (-D)^m u + V u - f(u) = 0, down to ``_Ops.residual_floor``.

    Past that bound steps only chase rounding noise.  Steps that collapse
    the field toward zero are rejected: the trivial solution is a Newton
    attractor and reaching it would silently discard the ground state.
    """
    rho = ops.pde_residual(u)
    res = ops.nrm(rho)
    l2_floor = 1e-3 * ops.l2(u)
    for _ in range(iters):
        try:
            Alu = ops.factor(ops.V - ops.fprime(u))
        except RuntimeError:
            break
        du = Alu.solve(rho)
        # A step that moves u by less than its rounding only samples the
        # rounding noise of the residual, which then decides when Newton stops.
        min_step = max(1e-12, np.finfo(float).eps * ops.nrm(u) / max(ops.nrm(du), 1e-300))
        step = 1.0
        while step > min_step:
            un = u - step * du
            if float(np.max(np.abs(un))) < OVERFLOW_CAP and ops.l2(un) > l2_floor:
                rn = ops.pde_residual(un)
                if ops.nrm(rn) < res:
                    break
            step *= 0.5
        else:
            break
        u, rho, res = un, rn, ops.nrm(rn)
        if res <= ops.residual_floor(u):
            break
    return u


def _gauge_dilate(u: RadialField, S: float) -> np.ndarray:
    """u(r/S) resampled linearly on the same grid, tolerating a sub-1e-6 escaping tail.

    Linear is enough: the result is only the Newton start, which Newton then
    polishes to the rounding floor, so the interpolation error never reaches
    a reported field.
    """
    vals = u.values
    peak = float(np.max(np.abs(vals)))
    if peak > 0.0 and S > 1.0:
        cut = np.searchsorted(u.grid.nodes, u.grid.r_max / S)
        escaped = float(np.max(np.abs(vals[cut:]))) if cut < len(vals) else 0.0
        if escaped > 1e-6 * peak:
            raise ValueError("gauge dilation would push significant mass past r_max")
    return np.interp(u.grid.nodes / S, u.grid.nodes, vals, right=0.0)


def _minimize(ops: _Ops, vals: np.ndarray, descent: Callable, objective: Callable,
              functional: Callable, project: Callable, multiplier: bool) -> SolveReport:
    """Minimize objective(ops, u) on {functional(ops, u) = 0}, then polish.

    ``project(field, config)`` is the scaling projection onto the manifold.
    ``descent(u0)`` returns ``(diag, rhs)`` for the projected start u0: the
    descent factors A0 + diag once, and each step's target is
    v = (A0 + diag)^-1 rhs(u).  With ``multiplier`` (the Pohozaev route) the
    iterate is dilated by the integral-formula multiplier before the polish,
    so Newton solves the plain equation, and the report carries the
    multiplier of the polished state.

    The descent hands over to a polished copy after ``_HANDOFF_STEP`` steps if
    the copy passes, or else stops after ``_DESCENT_STEPS`` steps or once the
    objective stagnates; none is an option (see the module docstring).
    """
    config, grid0 = ops.config, ops.grid

    def reproject(grd, vec):
        return project(RadialField(grd, vec), config) * vec

    def polish(vec, newton_iters):
        """The report of vec dilated, Newton-polished and reprojected after ``it`` steps."""
        warns = []
        if multiplier:
            theta = ops.theta_hat(vec)
            if 2.0 * theta - 1.0 >= 0.0:
                raise ValueError(
                    f"the descent ended at multiplier theta = {theta:.6g}, but the "
                    "polish requires 2 theta - 1 < 0; is F the antiderivative of f?")
            try:
                vec = _gauge_dilate(RadialField(grid0, vec),
                                    (1.0 - 2.0 * theta) ** (1.0 / (2.0 * config.order)))
            except ValueError:
                warns.append("gauge dilation skipped (support would escape the domain)")
        u = reproject(grid0, _damped_newton_pde(ops, vec, newton_iters))
        theta = ops.theta_hat(u) if multiplier else None

        objective_out = objective(ops, u)
        constraint = abs(functional(ops, u))
        rw = ops.residual_weak(u, 1.0 if theta is None else 1.0 - 2.0 * theta)
        defect = (ops.G(u) / (config.gamma * ops.l2(u))
                  if isinstance(config.potential, ConstantPotential) else None)
        rep = SolveReport(RadialField(grid0, u), objective_out, theta, rw, constraint, it,
                          trace + [(it + 1, objective_out, constraint)], warns, defect)
        if not rep.converged:
            warns.append(f"residual_weak {rw:.2e} exceeds the convergence gate {_RESIDUAL_GATE:g}")
        if (shift := ops.truncation_shift(u, objective_out)) > _TRUNCATION_GATE:
            warns.append(f"BOUNDARY_TRUNCATION: r_max moves the level by about {shift:.1e} "
                         f"(estimate, relative), above {_TRUNCATION_GATE:g}")
        return rep

    # ---- descent on the caller's grid ----
    u = reproject(grid0, vals)
    diag, rhs = descent(u)
    try:
        Mlu = ops.factor(diag)
    except RuntimeError as exc:
        raise RuntimeError(f"the descent operator could not be factored: {exc}") from None
    obj = objective(ops, u)
    trace = [(0, obj, abs(functional(ops, u)))]
    tau, it = 1.0, 0
    for it in range(1, _DESCENT_STEPS + 1):
        v = Mlu.solve(rhs(u))
        accepted = False
        t_try = tau
        for _ in range(40):
            try:
                un = reproject(grid0, (1.0 - t_try) * u + t_try * v)
            except (OverflowCapError, ValueError):
                t_try *= 0.5
                continue
            on = objective(ops, un)
            if on <= obj + 1e-14 * max(abs(obj), 1.0):
                u, obj, accepted = un, on, True
                break
            t_try *= 0.5
        if not accepted:
            break
        tau = min(t_try * 1.5, 1.0)
        trace.append((it, obj, abs(functional(ops, u))))
        if it == _HANDOFF_STEP:
            try:
                trial = polish(u, _HANDOFF_NEWTON_ITERS)
            except (OverflowCapError, ValueError):
                trial = None
            # a root above the descent's level is a higher critical point
            if trial and trial.converged and trial.objective <= obj:
                return trial
        wnd = _STAGNATION_WINDOW
        if len(trace) > wnd and trace[-wnd - 1][1] - obj < _STAGNATION_TOL * max(abs(obj), 1e-30):
            break

    # ---- polish on the same grid ----
    return polish(u, _NEWTON_ITERS)


def minimize_pohozaev(config: ProblemConfig, init: RadialField) -> SolveReport:
    """Minimize 1/2 ||Du||^2 over {G = 0} (constant potential).

    The descent steps the multiplier-corrected equation
    (-D)^m v + c gamma v = c f(u), c = 1 - 2 theta(u).  c moves from step to
    step, so the operator is factored once at c0, the value at the projected
    start, and each step solves (A0 + c0 gamma) v = c f(u) + (c0 - c) gamma u,
    which has the same fixed points.  c0 rather than 1: theta is a gauge (Q
    and G scale under dilation), and in 4-D c sits far from 1 (2 to 10 on
    the default grid for gamma 0.8-1.25); there a factor at c = 1 takes 73
    descent steps for ``exact_growth_family(1.5)`` against 29 at c0.  The
    polish runs Newton on the plain equation after the gauge dilation and
    reports the integral-formula multiplier.
    """
    if not isinstance(config.potential, ConstantPotential):
        raise ValueError("the constrained route requires a constant potential")
    ops = _ops_for(init.grid, config)
    gam = config.gamma

    def descent(u0):
        c0 = 1.0 - 2.0 * ops.theta_hat(u0)

        def rhs(u):
            c = 1.0 - 2.0 * ops.theta_hat(u)
            return c * ops.f(u) + ((c0 - c) * gam) * u

        return c0 * gam, rhs

    return _minimize(ops, init.values, descent, lambda o, u: 0.5 * o.quad_form(u),
                     _Ops.G, project_pohozaev, True)


def minimize_nehari(config: ProblemConfig, init: RadialField) -> SolveReport:
    """Minimize the action on the Nehari manifold {N = 0}.

    The descent is the projected fixed-point iteration (-D)^m v + V v = f(u)
    with one factorization for the whole run; the exact projection every step
    pins its fixed points to genuine solutions.  The polish runs Newton on
    the full equation.
    """
    ops = _ops_for(init.grid, config)
    return _minimize(ops, init.values, lambda u0: (ops.V, ops.f), _Ops.I,
                     _Ops.N, project_nehari, False)


def residual_weak(u: RadialField, config: ProblemConfig) -> float:
    """Relative weak-form residual ||(-D)^m u + V u - f(u)|| / (||f|| + ||V u||)."""
    check_cap(u.values)
    return _ops_for(u.grid, config).residual_weak(u.values)


def gaussian_start(grd: RadialGrid) -> RadialField:
    """exp(-r^2/2) on grd: the start of every command's solve."""
    return RadialField(grd, np.exp(-grd.nodes**2 / 2.0))


def limiting_gap(config_V: ProblemConfig, init: RadialField) -> dict:
    """Ground levels with the trapping potential and its constant limit.

    Runs the Nehari minimization twice from the same init (with V, and with
    the constant gamma = lim V) and evaluates the comparison mechanism: the
    limit minimizer projected onto the trapped manifold must sit between the
    two levels.  Every f needs lim f(t)/t < V0, which ProblemConfig checks.
    The report's keys: the levels ``m_V`` and ``m_infty``, ``gap`` =
    m_infty - m_V, ``both_positive``; ``status_V`` and ``status_infty``, the
    trapped and the limit solve's ``converged``, ``residual_weak``,
    ``iterations``, ``pohozaev_defect`` (None for a varying V) and
    ``warnings``; and ``comparison_level``, I_V at the projected limit
    minimizer (nan if the projection fails).
    """
    gamma = config_V.potential.gamma_inf
    config_inf = ProblemConfig(config_V.dimension, ConstantPotential(gamma), config_V.nonlinearity)
    rep_V = minimize_nehari(config_V, init)
    rep_inf = minimize_nehari(config_inf, init)

    # project the limit minimizer onto the trapped manifold and evaluate I_V
    w_star = rep_inf.field
    try:
        t_w = project_nehari(w_star, config_V)
        comparison = _ops_for(w_star.grid, config_V).I(t_w * w_star.values)
    except (OverflowCapError, ValueError):
        comparison = float("nan")

    m_V, m_inf = rep_V.objective, rep_inf.objective
    keys = ("converged", "residual_weak", "iterations", "pohozaev_defect", "warnings")
    status_V, status_infty = ({k: getattr(r, k) for k in keys} for r in (rep_V, rep_inf))
    return {"m_V": m_V, "m_infty": m_inf, "gap": m_inf - m_V,
            "both_positive": bool(m_V > 0 and m_inf > 0), "status_V": status_V,
            "status_infty": status_infty, "comparison_level": comparison}

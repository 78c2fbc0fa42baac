"""Nonlinearities, potentials and problem configuration.

The central objects are nonlinearities (f, F, alpha0) with F' = f.  Built-in families:

* ``exp_critical(lam, dimension)`` -- f(t) = lam * t * exp(a t^2) with
  a = ``EXP_RATE[dimension]``, 2 in dimension 4 and 1 in dimension 2; F has
  the matching closed form, and lam lives in f and F alone.
* ``exact_growth_family(theta)`` -- F(t) = (exp(t^2)-1-t^2) / (1+|t|^theta),
  f = F' differentiated analytically.
* ``user_nonlinearity(f_expr, alpha0)`` -- f parsed from an expression; F is
  the vectorized composite Gauss-Legendre antiderivative of f
  (``gauss_antiderivative``), computed afresh on every call.

``ProblemConfig`` stores each fact of a problem once: the dimension, V, and
the nonlinearity; it checks the dimension and, for every f, the standing
hypothesis lim_{t->0+} f(t)/t < V0 = inf V.  The nonlinearity checks alpha0 and its own overflow:
alpha0 cap^2 + 2 ln(cap) < ln(DBL_MAX) (about 709.78), and t f(t) and F(t)
finite at t = +-cap, the same edge on f = t exp(alpha0 t^2), whatever rate
a user f declares, and finite on 257 points of [-cap, cap].

There is one overflow policy.  Amplitudes are capped at ``OVERFLOW_CAP``
(6.0): fields enter the functionals through ``check_cap``, which raises
OverflowCapError beyond the cap, and the scaling projections bracket their
scale below it; nothing is clamped, since a silent clamp would corrupt every
functional downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expressions import parse_expression
from .grid import RadialGrid

OVERFLOW_CAP = 6.0
_LOG_DBL_MAX = float(np.log(np.finfo(float).max))
# the points a nonlinearity is scanned on: spacing 3/64; 0 and +-cap are nodes
_SCAN = np.linspace(-OVERFLOW_CAP, OVERFLOW_CAP, 257)

ADAMS_BETA = {4: 32.0 * np.pi**2, 2: 4.0 * np.pi}
EXP_RATE = {4: 2.0, 2: 1.0}     # the critical rate a of exp(a t^2) on R^n

# superquadraticity exponent: the checker tests t f(t) >= mu F(t)
_AR_MU = 2.0


class OverflowCapError(FloatingPointError):
    """Trial amplitude exceeded the overflow cap (solver step too aggressive)."""


def check_cap(values):
    m = float(np.max(np.abs(values))) if np.ndim(values) else abs(float(values))
    if m > OVERFLOW_CAP:
        raise OverflowCapError(f"amplitude {m:.6g} exceeds overflow cap {OVERFLOW_CAP}")


def adaptive_simpson(fn: Callable, a: float, b: float) -> float:
    """Classic adaptive Simpson quadrature of fn over [a, b]."""
    tol, max_depth = 1e-10, 30

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = float(fn(xl)), float(fn(xr))
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        # scale-aware acceptance so huge integrands terminate at relative tol
        gate = 15.0 * tol * max(1.0, abs(left) + abs(right))
        if depth >= max_depth or abs(left + right - whole) <= gate:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, xm, f0, fl, f1, left, depth + 1)
                + recurse(xm, x2, f1, fr, f2, right, depth + 1))

    if a == b:
        return 0.0
    f0, f2 = float(fn(a)), float(fn(b))
    f1 = float(fn(0.5 * (a + b)))
    return recurse(a, b, f0, f1, f2, simpson(a, b, f0, f1, f2), 0)


# Composite Gauss-Legendre antiderivative: panel width (a power of two, so the
# knots k * _F_PANEL and the panel index of t are exact in binary), and the
# number of query points per vectorized evaluation of f, which bounds the
# temporaries (8 nodes each) whatever the input size.
_F_PANEL = 1.0 / 64.0
_F_CHUNK = 1 << 15


# nodes and weights of the 8-point Gauss-Legendre rule on [-1, 1]: the bits of
# numpy.polynomial.legendre.leggauss(8), which the tests check
_GAUSS_NODES = np.array((-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                         -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                         0.7966664774136267, 0.9602898564975362))
_GAUSS_WEIGHTS = np.array((0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                           0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                           0.22238103445337443, 0.10122853629037706))


def _gauss_panels(fn: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """8-point Gauss-Legendre integral of fn over each [a_i, b_i]."""
    half = 0.5 * (b - a)
    y = (a + half)[:, None] + half[:, None] * _GAUSS_NODES
    return half * (np.asarray(fn(y), dtype=float) * _GAUSS_WEIGHTS).sum(axis=1)


def gauss_antiderivative(fn: Callable, t):
    """F(t) = int_0^t fn, elementwise, for a vectorized integrand fn.

    Each sign is integrated on its own half-line: for s = +1 or -1,
    F(s y) = int_0^y g_s with g_s(x) = s fn(s x) and y = |t|.  int_0^y g_s is
    the sum over the whole panels [k h, (k+1) h] below y (one table per call,
    with max |t| / h entries for that sign) plus one partial panel [k h, y],
    each by 8-point Gauss-Legendre, h = ``_F_PANEL``.  Queries run in chunks of ``_F_CHUNK``.  The
    value at a point does not depend on the other points, an odd fn gives an
    exactly even F, and a non-finite t gives NaN at that entry only.  Returns
    a float for scalar input, else an array of t's shape.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.full(flat.shape, np.nan)
    finite = np.isfinite(flat)
    sides = []
    for s, top in ((1.0, np.max(flat, initial=0.0, where=finite)),
                   (-1.0, -np.min(flat, initial=0.0, where=finite))):
        g = fn if s > 0 else (lambda x: -np.asarray(fn(-x), dtype=float))
        knots = np.arange(int(np.floor(top / _F_PANEL)) + 1) * _F_PANEL
        table = np.concatenate(([0.0], np.cumsum(_gauss_panels(g, knots[:-1], knots[1:]))))
        sides.append((s, g, table))
    for lo in range(0, flat.size, _F_CHUNK):
        chunk = flat[lo:lo + _F_CHUNK]
        res = out[lo:lo + _F_CHUNK]
        ok = finite[lo:lo + _F_CHUNK]
        for s, g, table in sides:
            sel = ok & (chunk >= 0.0 if s > 0 else chunk < 0.0)
            y = np.abs(chunk[sel])
            k = np.floor(y / _F_PANEL).astype(np.intp)
            res[sel] = table[k] + _gauss_panels(g, k * _F_PANEL, y)
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def _exprel2(x):
    """exp(x) - 1 - x, accurate for small x (series below 1e-3)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    out = np.where(small,
                   0.5 * x * x * (1.0 + x / 3.0 + x * x / 12.0 + x**3 / 60.0),
                   np.expm1(np.where(small, 0.0, x)) - np.where(small, 0.0, x))
    return out


@dataclass(eq=False)
class NonlinearitySpec:
    """A nonlinearity: f, F = int_0^t f and the critical rate alpha0.

    ``f``/``F`` are vectorized callables, which alone hold a family's parameters
    (the exp-critical lam); f' is the central difference of f for every family
    (``solvers._Ops.fprime``).  ``alpha0`` is the critical exponential rate, for the
    exp-critical family the a in f = lam t exp(a t^2).
    An alpha0 or (F, f) that overflows at the cap, or is not finite below it, raises ValueError.
    """

    kind: str
    f: Callable
    F: Callable
    alpha0: float

    def __post_init__(self):
        alpha0, cap = self.alpha0, OVERFLOW_CAP
        if not (np.isfinite(alpha0) and alpha0 > 0):
            raise ValueError(f"alpha0 must be positive and finite, got {alpha0}")
        if alpha0 * cap * cap + 2.0 * np.log(cap) >= _LOG_DBL_MAX:
            raise ValueError(f"alpha0={alpha0} overflows below the overflow cap {cap}: "
                             f"alpha0 cap^2 + 2 ln(cap) must be below {_LOG_DBL_MAX:.2f}")
        t = _SCAN
        with np.errstate(all="ignore"):
            tf = t * np.asarray(self.f(t), dtype=float)
            Ft = np.asarray(self.F(t), dtype=float)
        if not np.all(np.isfinite([tf[0], tf[-1], Ft[0], Ft[-1]])):
            raise ValueError(f"the nonlinearity overflows at the overflow cap {cap} or is NaN "
                             f"there: t f(t) or F(t) is not finite at t = +-{cap}")
        if not np.all(ok := np.isfinite(tf) & np.isfinite(Ft)):
            raise ValueError(f"the nonlinearity is not finite inside the overflow cap {cap}: "
                             f"t f(t) or F(t) is NaN or infinite at t = {t[~ok][0]:g}")


def exp_critical(lam: float, dimension: int = 4) -> NonlinearitySpec:
    """f(t) = lam t exp(a t^2); a = alpha0 = ``EXP_RATE[dimension]``, lam = lim f(t)/t at 0."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if dimension not in EXP_RATE:
        raise ValueError("dimension must be 2 or 4")
    a = EXP_RATE[dimension]

    def f(t):
        t = np.asarray(t, dtype=float)
        return lam * t * np.exp(a * t * t)

    def F(t):
        t = np.asarray(t, dtype=float)
        return lam / (2.0 * a) * np.expm1(a * t * t)

    return NonlinearitySpec("exp_critical", f, F, alpha0=a)


def exact_growth_family(theta: float) -> NonlinearitySpec:
    """F(t) = (exp(t^2)-1-t^2)/(1+|t|^theta) with analytic derivative."""
    if not (np.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be positive and finite, got {theta}")

    def F(t):
        t = np.asarray(t, dtype=float)
        return _exprel2(t * t) / (1.0 + np.abs(t) ** theta)

    def f(t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        num = _exprel2(t * t)
        den = 1.0 + at**theta
        dnum = 2.0 * t * np.expm1(t * t)
        with np.errstate(invalid="ignore", divide="ignore"):
            dden = theta * np.sign(t) * np.where(at > 0, at ** (theta - 1.0), 0.0)
        return (dnum * den - num * dden) / (den * den)

    return NonlinearitySpec("exact_growth", f, F, alpha0=1.0)


def user_nonlinearity(f_expr: str, alpha0: float = 1.0) -> NonlinearitySpec:
    """Nonlinearity from an expression for f.

    F(t) = int_0^t f is integrated from f on every call by
    :func:`gauss_antiderivative`; nothing is kept between calls.  On the
    exp-critical profiles up to the overflow cap its error is about 1e-14
    relative.
    """
    f = parse_expression(f_expr)

    def F(t):
        return gauss_antiderivative(f, t)

    return NonlinearitySpec("user", f, F, alpha0=float(alpha0))


# --- potentials -------------------------------------------------------------

@dataclass(eq=False)
class ConstantPotential:
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")

    @property
    def v0(self) -> float:
        return self.gamma

    @property
    def gamma_inf(self) -> float:
        return self.gamma

    def __call__(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.gamma)


@dataclass(eq=False)
class RadialPotential:
    """Trapping-well potential: 0 < v0 = min V <= V(r_max) = gamma_inf."""

    profile: Callable
    v0: float
    gamma_inf: float

    def __call__(self, r):
        return np.asarray(self.profile(r), dtype=float)


def radial_potential(profile: Callable, grid: RadialGrid) -> RadialPotential:
    """RadialPotential with v0 = min V and gamma_inf = V(r_max) measured on the grid."""
    vals = np.asarray(profile(grid.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential not finite on the grid")
    if np.min(vals) <= 0:
        raise ValueError("potential must be positive")
    return RadialPotential(profile, float(np.min(vals)), float(vals[-1]))


Potential = ConstantPotential | RadialPotential


# --- problem configuration --------------------------------------------------

@dataclass(eq=False)
class ProblemConfig:
    """Operator/dimension pair with potential and nonlinearity.

    dimension=4 means the bi-harmonic operator (m=2); dimension=2 the
    Laplacian (m=1).  Every f must satisfy the standing hypothesis lim_{t->0+} f(t)/t < V0,
    the limit kept as ``linear_slope``, read as f(h)/h at h = 2^-511 (lam for the
    exp-critical family, whose rate must also be ``EXP_RATE[dimension]``; a NaN is refused).
    """

    dimension: int
    potential: Potential
    nonlinearity: NonlinearitySpec

    def __post_init__(self):
        if self.dimension not in (2, 4):
            raise ValueError("dimension must be 2 or 4")
        slope = self.linear_slope = float(self.nonlinearity.f(2.0**-511)) / 2.0**-511
        if not slope < self.potential.v0 - 1e-15:
            raise ValueError(f"standing hypothesis violated: f(t)/t -> {slope} as t -> 0, "
                             f"not below V0={self.potential.v0}")
        if (self.nonlinearity.kind == "exp_critical"
                and self.nonlinearity.alpha0 != EXP_RATE[self.dimension]):
            raise ValueError("exp-critical coefficient does not match the dimension")

    @property
    def order(self) -> int:
        return self.dimension // 2

    @property
    def gamma(self) -> float:
        return self.potential.gamma_inf


# --- growth-condition checker -------------------------------------------------

def tail_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x over the pairs where both are finite, NaN
    when fewer than three remain: the exponential order both growth probes fit."""
    good = np.isfinite(x) & np.isfinite(y)
    return float(np.polyfit(x[good], y[good], 1)[0]) if np.sum(good) > 2 else float("nan")


def check_conditions(spec: NonlinearitySpec, t_grid) -> dict:
    """Probe the growth conditions of (F, f) on a t grid in (0, OVERFLOW_CAP].

    The report checks superquadraticity and F <= M0 f.  Its keys:
    ``worst_ratio``, the min over the probes of t f(t) / F(t);
    ``mu``, the 2 it is compared against; ``ar_holds``; ``M0`` and ``t0``, with
    F <= M0 f on the probes from t0 on; ``upper_bound_holds``, whether F/f turned
    down before the last probe; ``alpha0_estimate``, the fitted d log f / d t^2
    on the tail; and ``critical``, whether that estimate exceeds 0.1.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0) or np.any(t > OVERFLOW_CAP):
        raise ValueError(f"t_grid must lie in (0, {OVERFLOW_CAP}]")
    t = np.sort(t)
    Fv = np.asarray(spec.F(t), dtype=float)
    fv = np.asarray(spec.f(t), dtype=float)
    if np.any(Fv <= 0):
        raise ValueError("F must be positive on the probe grid")

    ratio = t * fv / Fv
    worst = float(np.min(ratio))
    ar_holds = worst >= _AR_MU - 1e-9

    # fitted (t0, M0) for F <= M0 f on [t0, inf): first probe point with f > 0
    pos = fv > 0
    if np.any(pos):
        i0 = int(np.argmax(pos))
        t0 = float(t[i0])
        F_over_f = Fv[i0:] / fv[i0:]
        M0 = float(np.max(F_over_f))
        # F <= M0 f on the probes by construction; beyond them only if F/f turned down
        upper = bool(np.argmax(F_over_f) < len(F_over_f) - 1)
    else:
        t0, M0, upper = float("inf"), float("inf"), False

    # empirical critical exponent: tail slope of log f(t) against t^2, 0 if unfitted
    tail = t >= t[-1] * 0.6
    alpha0_est = tail_slope(t[tail] ** 2, np.log(np.maximum(fv[tail], 1e-300)))
    alpha0_est = 0.0 if np.isnan(alpha0_est) else alpha0_est
    critical = alpha0_est > 0.1

    return {"worst_ratio": worst, "mu": _AR_MU, "ar_holds": ar_holds, "M0": M0, "t0": t0,
            "upper_bound_holds": upper, "alpha0_estimate": alpha0_est, "critical": critical}

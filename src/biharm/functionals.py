"""Energy, Pohozaev and Nehari functionals, and the exponential-ratio search.

For the exp-critical family f(t) = lam t exp(a t^2), with a = 2 on R^4 and
a = 1 on R^2, and Q(u) = ``grid.quad_form_sq(u)``, ||Du||^2 on R^4 or
||u'||^2 on R^2:

    I(u) = 1/2 (Q(u) + int V u^2) - (lam/(2a)) int (exp(a u^2) - 1)
    G(u) = (gamma - lam) ||u||^2 - int g_lam(u)
    N(u) = Q(u) + int V u^2 - int f(u) u

with g_lam(t) = (lam/a)(exp(a t^2) - 1 - a t^2) and the limiting constant
gamma = V(r_max); G has no Q term.  Every nonlinearity is evaluated through
its own F and f, I = 1/2 (Q + int V u^2) - int F(u), G = gamma ||u||^2 -
2 int F(u) and N = Q + int V u^2 - int f(u) u, which for the exp-critical
family are the forms above.
``_Functionals`` is the one implementation: the solvers extend it with their
operators and ``evaluate_all`` reports it.  No command calls ``evaluate_all``:
the tests build their references on it (the Nehari energy identity in
``tests/oracles.py``), and the benchmark tracer wraps it.  The rays
``G_ray``/``N_ray`` give s -> G(s u) and s -> N(s u) with the quadratic parts
computed once, the scalar functions the scaling projections find the root of.
Amplitudes beyond the overflow cap raise OverflowCapError; nothing is clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import grid as g
from .grid import RadialField, RadialGrid
from .model import (ADAMS_BETA, OVERFLOW_CAP, NonlinearitySpec, OverflowCapError,
                    ProblemConfig, check_cap)


@dataclass
class MassTerms:
    l2_sq: float
    lap_l2_sq: float
    pot_l2_sq: float
    exp_mass: float       # int (exp(a u^2) - 1)
    exp_weighted: float   # int exp(a u^2) u^2
    F_mass: float         # int F(u)


@dataclass
class FunctionalReport:
    energy_I: float
    pohozaev_G: float
    nehari_N: float
    mass_terms: MassTerms


class _Functionals:
    """I, G and N of one (grid, config) pair, evaluated on nodal values.

    The one implementation of the functionals: ``solvers._Ops`` extends it
    with the discrete operators, and :func:`evaluate_all` reports through
    it.  Nothing is clamped; callers keep amplitudes within the overflow cap
    (``check_cap`` on entry, or the bracketing of the scaling projections).
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
        self.a = self.spec.alpha0

    def f(self, u):
        return np.asarray(self.spec.f(u), dtype=float)

    def fprime(self, u):
        if self.spec.fprime is not None:
            return np.asarray(self.spec.fprime(u), dtype=float)
        eps = 1e-6
        return (self.f(u + eps) - self.f(u - eps)) / (2 * eps)

    def l2(self, u):
        return float(np.dot(self.w, u * u))

    def quad_form(self, u):
        return g.quad_form_sq(RadialField(self.grid, u), self.L)

    def pot_mass(self, u):
        return float(np.dot(self.w, self.V * u * u))

    def exp_mass(self, u):
        """int (exp(a u^2) - 1)."""
        return float(np.dot(self.w, np.expm1(self.a * u * u)))

    def F_mass(self, u):
        """int F(u)."""
        return float(np.dot(self.w, np.asarray(self.spec.F(u), dtype=float)))

    def I(self, u):
        """Action with the actual potential."""
        return 0.5 * (self.quad_form(u) + self.pot_mass(u)) - self.F_mass(u)

    def G(self, u):
        """Pohozaev functional gamma ||u||^2 - 2 int F(u); equals ``G_ray(u)(1.0)``."""
        return self.config.gamma * self.l2(u) - 2.0 * self.F_mass(u)

    def N(self, u):
        """Nehari functional with the actual potential."""
        return self.quad_form(u) + self.pot_mass(u) - float(np.dot(self.w, self.f(u) * u))

    # Rays s -> functional(s u) for the scaling projections.  The quadratic
    # parts scale as s^2 and are computed once per ray; each s then costs one
    # pass of the nonlinearity, with no matvec.

    def G_ray(self, u) -> Callable[[float], float]:
        """s -> G(s u) = s^2 gamma ||u||^2 - 2 int F(s u)."""
        quad = self.config.gamma * self.l2(u)
        return lambda s: s * s * quad - 2.0 * self.F_mass(s * u)

    def N_ray(self, u) -> Callable[[float], float]:
        """s -> N(s u) = s^2 (Q(u) + int V u^2) - int f(s u) s u."""
        quad = self.quad_form(u) + self.pot_mass(u)
        w = self.w
        return lambda s: s * s * quad - float(np.dot(w, self.f(s * u) * (s * u)))


def evaluate_all(u: RadialField, config: ProblemConfig) -> FunctionalReport:
    """I, G and N of a field, with the integrals they are built from.

    For dimension 2 the quadratic term is the Dirichlet energy int |u'|^2;
    the Pohozaev functional uses the limiting constant gamma = V(r_max).
    Raises OverflowCapError if the field exceeds the overflow cap.
    """
    check_cap(u.values)
    core = _Functionals(u.grid, config)
    vals = u.values
    exp_weighted = float(np.dot(core.w, np.exp(core.a * vals * vals) * vals * vals))
    terms = MassTerms(core.l2(vals), core.quad_form(vals), core.pot_mass(vals),
                      core.exp_mass(vals), exp_weighted, core.F_mass(vals))
    return FunctionalReport(core.I(vals), core.G(vals), core.N(vals), terms)


# --- exponential-ratio (sharp-constant) search --------------------------------

@dataclass
class AdamsRatioReport:
    """Lower-bound evidence for sup 2 int F(u) / ||u||^2 under ||Du||^2 <= L."""

    L: float
    ratio_lower_bound: float
    argmax_family_params: dict
    threshold_R: float
    verdict: str              # "finite_evidence" | "divergence_evidence"
    trace: dict


def _ratio_of(values: np.ndarray, gridobj: RadialGrid, rows: np.ndarray,
              spec: NonlinearitySpec, L: float) -> tuple[float, float]:
    """Rescale amplitude so the quadratic form equals L, then 2 int F / ||u||^2.

    ``rows`` are the grid's Laplacian stencil rows.  Returns (ratio,
    amplitude); raises OverflowCapError through check_cap if the rescaled
    candidate exceeds the cap.
    """
    q = g.quad_form_sq(RadialField(gridobj, values), rows)
    if q <= 0:
        raise ValueError("degenerate candidate")
    scale = np.sqrt(L / q)
    vals = values * scale
    check_cap(vals)
    w = gridobj.weights
    F_mass = float(np.dot(w, np.asarray(spec.F(vals), dtype=float)))
    return 2.0 * F_mass / float(np.dot(w, vals * vals)), float(np.max(np.abs(vals)))


def adams_ratio_search(spec: NonlinearitySpec, dimension: int, L: float,
                       budget: int = 400) -> AdamsRatioReport:
    """Maximize 2 int F(u) / ||u||^2 under ||Du||^2 <= L on R^dimension.

    The supremum depends on F and the dimension alone; no potential enters.
    Gaussian candidates on the dimension's default grid, whose stencil rows
    are built once, are rescaled so the quadratic form equals L exactly and
    give the certified lower bound.  The concentration sweep follows the
    family's own budget: the log-profiles carry an O(1/b^2) excess over
    beta*K (beta = ``model.ADAMS_BETA[dimension]``, K = L / beta), and
    rescaling them down to L *exactly* suppresses the critical exponential
    mass by a constant factor of order exp(-c*K) that hides the divergence at
    any reachable height; evaluating them unrescaled, with budgets converging
    to L from above, reproduces the asymptotic pattern the family exists to
    exhibit.  Divergence evidence = monotone, non-saturating ratio growth
    along that sweep while the budgets approach L.  Verdicts are evidence,
    never proofs.  ``threshold_R`` is beta / ``spec.alpha0``.

    A log-profile with concentration scale r14 lives on the mesh of 10 nodes
    per r14 over [0, 2.5] (at most 2,500,001 nodes, as the sweep stops below
    r14 = 1e-5); ``sequences.moser_sums`` adds up its sums in fixed node
    blocks, so the search holds no mesh whole.  ``trace`` holds the
    (sigma, ratio) pairs, the (b, ratio, quad) triples, ``moser_nodes`` (the
    mesh size of each log-profile) and ``evaluations`` (the candidates
    evaluated, at most ``budget``).
    """
    if dimension not in ADAMS_BETA:
        raise ValueError(f"dimension must be 2 or 4, got {dimension}")
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    evals = 0
    best = (-np.inf, {})
    gauss_trace, moser_trace, moser_nodes = [], [], []

    base = g.default_grid(dimension)
    rows = g.laplacian_matrix(base)
    for sigma in np.geomspace(0.3, 6.0, 24):
        if evals >= budget:
            break
        evals += 1
        try:
            vals = np.exp(-((base.nodes / sigma) ** 2))
            ratio, amp = _ratio_of(vals, base, rows, spec, L)
        except (OverflowCapError, ValueError):
            continue
        gauss_trace.append((float(sigma), ratio))
        if ratio > best[0]:
            best = (ratio, {"family": "gaussian", "sigma": float(sigma), "amplitude": amp})

    # concentration sweep: ||D psi_b||^2 = beta * K + O(1/b^2), K = L / beta
    beta = ADAMS_BETA[dimension]
    K = L / beta
    for b in (2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5):
        if evals >= budget:
            break
        if b + 2.0 * K / b > OVERFLOW_CAP:
            break
        r14 = float(np.exp(-b * b / (4.0 * K)))
        if r14 < 1e-5:
            break                      # concentration scale below resolvable range
        n_pts = max(int(np.ceil(2.5 / (r14 / 10.0))) + 1, 512)
        evals += 1
        from .sequences import moser_sums  # loaded only if a log-profile runs

        sums = moser_sums(b, K, 2.5, n_pts, dimension, spec.F)
        ratio, quad = 2.0 * sums["F_mass"] / sums["l2_sq"], sums["quad_form"]
        moser_trace.append((float(b), ratio, float(quad)))
        moser_nodes.append(n_pts)
        if quad <= L * (1.0 + 1e-9) and ratio > best[0]:
            best = (ratio, {"family": "moser", "b": float(b), "K": float(K),
                            "amplitude": sums["max_abs"]})

    if not np.isfinite(best[0]):
        if not moser_trace:
            raise RuntimeError("budget exhausted without any feasible candidate")
        best = (0.0, {})

    verdict = "finite_evidence"
    if len(moser_trace) >= 3:
        rs = np.array([r for _, r, _ in moser_trace])
        qs = np.array([q for _, _, q in moser_trace])
        incr = np.diff(rs)
        growing = bool(np.all(incr[-3:] > 0))
        rel = incr[-1] / max(rs[-2], 1e-300)
        # budgets decrease toward L with the excess substantially consumed
        budgets_converge = bool(np.all(np.diff(qs) < 0)) \
            and (qs[-1] - L) < 0.8 * max(qs[0] - L, 1e-300)
        if growing and rel > 0.02 and rs[-1] > 1.5 * rs[0] and budgets_converge:
            verdict = "divergence_evidence"

    return AdamsRatioReport(float(L), float(best[0]), best[1], float(beta / spec.alpha0),
                            verdict, {"gaussian": gauss_trace, "moser": moser_trace,
                                      "moser_nodes": moser_nodes, "evaluations": evals})

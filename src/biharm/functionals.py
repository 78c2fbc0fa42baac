"""The exponential-ratio search, and the functionals of a field as a dict.

``evaluate_all`` reports the energy I, the Pohozaev functional G and the
Nehari functional N of a field, with the integrals they are built from, as
``solvers._Ops``, their one implementation, evaluates them.  No command calls
it: the tests build their references on it (the Nehari energy identity in
``tests/oracles.py``), and the benchmark tracer wraps it.  It loads
``solvers`` when called, so ``ratio``, which runs only the search, loads no
solver code.
"""

from __future__ import annotations

import numpy as np

from . import grid as g
from .grid import RadialField, RadialGrid
from .model import (ADAMS_BETA, OVERFLOW_CAP, NonlinearitySpec, OverflowCapError,
                    ProblemConfig, check_cap)


def evaluate_all(u: RadialField, config: ProblemConfig) -> dict:
    """I, G and N of a field, with the integrals they are built from.

    For dimension 2 the quadratic term is the Dirichlet energy int |u'|^2;
    the Pohozaev functional uses the limiting constant gamma = V(r_max).
    The keys are ``energy_I``, ``pohozaev_G``, ``nehari_N`` and ``mass_terms``,
    a dict of ``l2_sq``, ``lap_l2_sq`` (the quadratic form), ``pot_l2_sq``
    (int V u^2), ``exp_mass`` (int (exp(a u^2) - 1)), ``exp_weighted``
    (int exp(a u^2) u^2), both at the rate a = alpha0, and ``F_mass`` (int F(u)).
    Raises OverflowCapError if the field exceeds the overflow cap.
    """
    check_cap(u.values)
    from .solvers import _ops_for

    ops = _ops_for(u.grid, config)
    vals = u.values
    au2 = config.nonlinearity.alpha0 * vals * vals
    terms = {"l2_sq": ops.l2(vals), "lap_l2_sq": ops.quad_form(vals),
             "pot_l2_sq": ops.pot_mass(vals), "exp_mass": float(np.dot(ops.w, np.expm1(au2))),
             "exp_weighted": float(np.dot(ops.w, np.exp(au2) * vals * vals)),
             "F_mass": ops.F_mass(vals)}
    return {"energy_I": ops.I(vals), "pohozaev_G": ops.G(vals), "nehari_N": ops.N(vals),
            "mass_terms": terms}


# --- exponential-ratio (sharp-constant) search --------------------------------

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
                       budget: int = 400) -> dict:
    """Maximize 2 int F(u) / ||u||^2 under ||Du||^2 <= L on R^dimension.

    The supremum depends on F and the dimension alone; no potential enters.
    The bound is the Gaussian's: exp(-r^2) on the dimension's default grid,
    rescaled so the quadratic form equals L exactly; one width serves, as the
    quadratic form is dilation invariant and int F and ||u||^2 scale alike.
    The log-profiles that follow within ``budget`` are evidence for the
    verdict, never candidates: at K = (L / beta) (n / 4), beta =
    ``model.ADAMS_BETA[n]``, their log branch carries L, and each budget
    exceeds L by an O(1/b^2) excess.  Rescaling them down to L *exactly*
    would suppress the critical exponential mass by a factor of order
    exp(-c*K) that hides the divergence at any reachable height.  Divergence
    evidence = monotone, non-saturating ratio growth along that sweep while
    the budgets approach L.  Verdicts are evidence, never proofs.  Fewer than
    three log-profiles give no trend: the verdict is then "finite_evidence" by
    default, not from evidence (a ``budget`` of 1 runs none, and at
    L = beta / (2 alpha0) the 4-D exp-critical sweep runs two).

    A log-profile with concentration scale r14 lives on the mesh of 10 nodes
    per r14 over [0, 2.5] (at most 2,500,001 nodes, as the sweep stops below
    r14 = 1e-5); ``sequences.moser_sums`` adds up its sums in fixed node
    blocks, so the search holds no mesh whole.

    The report's keys: ``L``; ``ratio_lower_bound``, the Gaussian's ratio;
    ``argmax_family_params``, its ``family``, ``sigma`` and ``amplitude`` (empty,
    and a bound of 0.0, if it exceeds the cap); ``threshold_R``, beta /
    ``spec.alpha0``; ``verdict``, "finite_evidence" or "divergence_evidence";
    and ``trace``: ``gaussian``, the Gaussian's (sigma, ratio) pair if any;
    ``moser``, the (b, ratio, quad) triples; ``moser_nodes``, the mesh size of
    each log-profile; and ``evaluations``, the candidates evaluated, at most
    ``budget``.
    """
    if dimension not in ADAMS_BETA:
        raise ValueError(f"dimension must be 2 or 4, got {dimension}")
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    evals = 1
    bound, params, gauss_trace, moser_trace, moser_nodes = 0.0, {}, [], [], []
    base = g.default_grid(dimension)
    try:
        bound, amp = _ratio_of(np.exp(-base.nodes**2), base, g.laplacian_matrix(base), spec, L)
        gauss_trace.append((1.0, bound))
        params = {"family": "gaussian", "sigma": 1.0, "amplitude": amp}
    except (OverflowCapError, ValueError):
        pass

    # concentration sweep: ||D psi_b||^2 = L + O(1/b^2) at K = (L / beta) (n / 4)
    beta = ADAMS_BETA[dimension]
    K = L / beta * dimension / 4.0
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
        moser_trace.append((float(b), 2.0 * sums["F_mass"] / sums["l2_sq"],
                            float(sums["quad_form"])))
        moser_nodes.append(n_pts)

    if not (gauss_trace or moser_trace):
        raise ValueError(f"no ratio candidate fits under the overflow cap {OVERFLOW_CAP} "
                         f"at L={L:g}")

    verdict = "finite_evidence"     # by default below three log-profiles: no trend to read
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

    return {"L": float(L), "ratio_lower_bound": float(bound), "argmax_family_params": params,
            "threshold_R": float(beta / spec.alpha0), "verdict": verdict,
            "trace": {"gaussian": gauss_trace, "moser": moser_trace,
                      "moser_nodes": moser_nodes, "evaluations": evals}}

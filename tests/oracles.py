"""Reference functions the tests check the library against; no command runs them.

The paper's on-manifold energy identity, the single sign change of
t -> N(t u) that makes the Nehari projection well defined, and the exact
discrete gradients of Q and I (with the transposed stencil matvec they need),
plus the shorthand for the built-in constant-potential problem.
"""

import numpy as np

from biharm import grid as g
from biharm.functionals import evaluate_all
from biharm.grid import RadialField
from biharm.model import OVERFLOW_CAP, ConstantPotential, ProblemConfig, check_cap, exp_critical
from biharm.solvers import _ops_for


def exp_critical_config(gamma: float, lam: float, dimension: int = 4) -> ProblemConfig:
    """Constant-potential exp-critical problem (the workhorse configuration)."""
    return ProblemConfig(ConstantPotential(gamma), exp_critical(lam, dimension))


def nehari_energy_identity_gap(u: RadialField, config: ProblemConfig, lam: float) -> float:
    """|I(u) - (lam/2) int exp(a u^2) u^2 + (lam/(2a)) int (exp(a u^2) - 1)|.

    For the exp-critical family I(u) - N(u)/2 is the subtracted expression,
    so the gap equals |N(u)|/2 up to rounding and vanishes on the Nehari
    manifold, where I takes that on-manifold form.  ``lam`` is the lam the
    caller built config's f = lam t exp(a t^2) with.
    """
    rep = evaluate_all(u, config)
    if config.nonlinearity.kind != "exp_critical":
        raise ValueError("identity is defined for the exp-critical family")
    a = config.nonlinearity.alpha0
    terms = rep["mass_terms"]
    rhs = 0.5 * lam * terms["exp_weighted"] - lam / (2.0 * a) * terms["exp_mass"]
    return abs(rep["energy_I"] - rhs)


def nehari_sign_scan(u: RadialField, config: ProblemConfig):
    """Sign changes of t -> N(t u) on 1000 log-spaced t; returns (count, bracket)."""
    vals = u.values
    ray = _ops_for(u.grid, config).N_ray(vals)
    t_max = OVERFLOW_CAP / float(np.max(np.abs(vals)))
    ts = np.geomspace(1e-3, t_max, 1000)
    signs = np.array([np.sign(ray(t)) for t in ts])
    nz = signs != 0
    flips = np.nonzero(np.diff(signs[nz]) != 0)[0]
    idx = np.arange(len(ts))[nz]
    brackets = [(ts[idx[i]], ts[idx[i + 1]]) for i in flips]
    return len(brackets), brackets


def apply_stencil_transpose(coef: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The transposed matvec of ``grid.apply_stencil``: out_j = sum_i coef[i, j - i + p] v_i."""
    n, p = len(v), coef.shape[1] // 2
    out = coef[:, p] * v
    for k in range(coef.shape[1]):
        d = k - p
        if d > 0:
            out[d:] += coef[:n - d, k] * v[:n - d]
        elif d < 0:
            out[:n + d] += coef[-d:, k] * v[-d:]
    return out


def gradient_quadratic(u: RadialField, config: ProblemConfig) -> np.ndarray:
    """Euclidean gradient of 1/2 * (quadratic form) wrt the nodal values."""
    ops = _ops_for(u.grid, config)
    L, w, vals = ops.L, ops.w, u.values
    if ops.m == 2:
        return apply_stencil_transpose(L, w * g.apply_stencil(L, vals))
    return -0.5 * (apply_stencil_transpose(L, w * vals) + w * g.apply_stencil(L, vals))


def gradient_action(u: RadialField, config: ProblemConfig) -> np.ndarray:
    """Euclidean gradient of the action I wrt the nodal values."""
    check_cap(u.values)
    ops = _ops_for(u.grid, config)
    quad = gradient_quadratic(u, config)
    return quad + ops.w * (ops.V * u.values - ops.f(u.values))

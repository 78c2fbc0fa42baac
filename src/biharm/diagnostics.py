"""Numeric classifiers for the exponential growth conditions.

``classify_growth`` estimates, by log-log tail regression, the two limits

    limsup_{t->inf}  t^2 exp(-t^2/K) g(t)      and      limsup_{t->0} g(t)/t^2

and turns them into verdicts for the boundedness condition (both limits
finite) and the compactness condition (both limits zero).  Verdicts are
estimates, never proofs: the classifier distinguishes the exponential order
of g from the polynomial prefactor, and reports the razor's-edge case
(exponential order exactly 1/K, where the t^2-weighted limit diverges only
polynomially) as a bounded verdict ``inconclusive`` with a finite
exponential-order estimate; the compact verdict is then ``fails``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import tail_slope

SLOPE_TOL = 0.05     # per decade, the stability threshold for a trend


@dataclass
class GrowthClassification:
    K: float
    limsup_infinity: float       # estimate of lim t^2 exp(-t^2/K) g(t); inf if diverging
    limsup_origin: float         # estimate of lim g(t)/t^2; inf if diverging
    bounded_verdict: str         # "holds" | "fails" | "inconclusive"
    compact_verdict: str         # "holds" | "fails"
    infinity_boundary: bool      # exponential order matched 1/K exactly
    exp_order_estimate: float    # fitted d log g / d t^2 on the tail


def _geomean(y: np.ndarray) -> float:
    """Geometric mean of y floored at 1e-300: the estimate of a finite limit."""
    return float(np.exp(np.mean(np.log(np.maximum(y, 1e-300)))))


def _trend(y: np.ndarray, slope: float):
    """(limit, state) of probe values y whose log-log slope toward the limit point is
    ``slope``: falling, or at the 1e-300 floor of the logs, y vanishes; rising (or
    unfitted) it diverges, else it levels off."""
    if slope < -SLOPE_TOL or np.all(y <= 1e-300):
        return 0.0, "holds"
    if not slope <= SLOPE_TOL:
        return float("inf"), "fails"
    return _geomean(y), "boundary"


def classify_growth(gfun: Callable, K: float) -> GrowthClassification:
    """Classify g against the K-dependent growth conditions.

    g is probed at 400 log-spaced points on [1e-4, t_max], with t_max the
    first of 10, 8, 6.4, ... at which g is finite, or the first below 1.
    """
    if not (np.isfinite(K) and K > 0):
        raise ValueError(f"K must be positive and finite, got {K}")
    t_max = 10.0
    while t_max > 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(np.asarray(gfun(t_max), dtype=float))
        if np.isfinite(val):
            break
        t_max *= 0.8
    t = np.geomspace(1e-4, t_max, 400)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gv = np.asarray(gfun(t), dtype=float)
    if not np.any(np.isfinite(gv)):
        raise ValueError("g is not evaluable on the probe range")

    n = len(t)
    tail = slice(int(0.75 * n), n)      # last 25% of the log-spaced probes
    far = slice(int(0.9 * n), n)        # top decade, for the exponential order
    head = slice(0, max(int(0.25 * n), 4))
    logt = np.log10(t)

    # --- behavior at infinity: first the exponential order of g itself
    with np.errstate(divide="ignore", invalid="ignore"):
        logg = np.log(np.maximum(gv, 1e-300))
        y_inf = t**2 * np.exp(-t**2 / K) * gv
        logy = np.log10(np.maximum(y_inf, 1e-300))
    order = tail_slope(t[far] ** 2, logg[far])            # d log g / d t^2

    order_band = 0.02 / K               # 2% relative band around the critical rate
    if not order <= 1.0 / K + order_band:
        # a larger exponential order (or none fitted): diverges exponentially
        limsup_inf, inf_state = float("inf"), "fails"
    elif order < 1.0 / K - order_band:
        limsup_inf, inf_state = 0.0, "holds"
    else:
        # exponential orders match: the polynomial factor decides
        limsup_inf, inf_state = _trend(y_inf[far], tail_slope(logt[tail], logy[tail]))
        if inf_state == "fails":
            # the t^2-weighted probe diverges only polynomially: boundary case
            limsup_inf, inf_state = _geomean(np.exp(-t[far] ** 2 / K) * gv[far]), "boundary"

    # --- behavior at the origin, where log t decreases toward the limit
    with np.errstate(divide="ignore", invalid="ignore"):
        y0 = gv / t**2
        logy0 = np.log10(np.maximum(y0, 1e-300))
    limsup_0, origin_state = _trend(y0[head], -tail_slope(logt[head], logy0[head]))

    states = (inf_state, origin_state)
    if "fails" in states:
        bounded = "fails"
    elif states == ("holds", "holds"):
        bounded = "holds"
    else:
        bounded = "inconclusive"   # an exact-boundary finite limit

    # compactness requires both limits to vanish; a finite nonzero limit fails it
    compact = "holds" if states == ("holds", "holds") else "fails"

    return GrowthClassification(float(K), limsup_inf, limsup_0, bounded, compact,
                                inf_state == "boundary", order)


import numpy as np
import pytest

import biharm as bh
from biharm.diagnostics import classify_growth


def g_shape(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(2 * t * t) - 1.0 - 2.0 * t * t


def test_classifier_matrix_exp_shape():
    # closed-form: exp(-t^2/K) g(t) -> {inf, 1, 0} for 1/K = {1.9, 2.0, 2.1}
    cls_lo = classify_growth(g_shape, 1.0 / 1.9)
    assert cls_lo.bounded_verdict == "fails"
    assert np.isinf(cls_lo.limsup_infinity)

    cls_mid = classify_growth(g_shape, 1.0 / 2.0)
    assert cls_mid.bounded_verdict == "inconclusive"
    assert cls_mid.infinity_boundary
    assert cls_mid.limsup_infinity == pytest.approx(1.0, rel=0.05)

    cls_hi = classify_growth(g_shape, 1.0 / 2.1)
    assert cls_hi.bounded_verdict == "holds"
    assert cls_hi.limsup_infinity == 0.0


def test_classifier_quartic_holds():
    cls = classify_growth(lambda t: np.asarray(t) ** 4, 1.0)
    assert cls.bounded_verdict == "holds"
    assert cls.compact_verdict == "holds"
    assert cls.limsup_origin == 0.0 and cls.limsup_infinity == 0.0


def test_classifier_linear_fails_origin():
    cls = classify_growth(lambda t: np.asarray(t), 1.0)
    assert cls.bounded_verdict == "fails"
    assert np.isinf(cls.limsup_origin)


def test_classifier_boundary_origin():
    # g ~ c t^2 at zero: finite nonzero origin limit
    cls = classify_growth(lambda t: 3.0 * np.asarray(t) ** 2
                          * np.exp(-np.asarray(t) ** 2), 2.0)
    assert cls.limsup_origin == pytest.approx(3.0, rel=0.05)
    assert cls.compact_verdict == "fails"


def test_classifier_scale_coherence():
    base = classify_growth(g_shape, 0.5)
    scaled = classify_growth(lambda t: 7.0 * g_shape(t), 0.5)
    assert scaled.bounded_verdict == base.bounded_verdict
    assert scaled.limsup_infinity == pytest.approx(7.0 * base.limsup_infinity, rel=1e-6)


def test_compact_implies_bounded():
    for fn, K in ((lambda t: np.asarray(t) ** 4, 1.0),
                  (g_shape, 1.0 / 2.1), (g_shape, 1.0 / 1.9)):
        cls = classify_growth(fn, K)
        if cls.compact_verdict == "holds":
            assert cls.bounded_verdict == "holds"


def _ratio_search(f_expr, F_expr, K):
    """adams_ratio_search of int g(u) / ||u||^2, g = 2F, under ||D u||^2 <= 32 pi^2 K."""
    cfg = bh.ProblemConfig(4, bh.ConstantPotential(1.0), bh.user_nonlinearity(f_expr, F_expr))
    return bh.adams_ratio_search(cfg, 32 * np.pi**2 * K)


def test_bounded_probe_compact_class():
    # compact-class g = t^4 along the concentrating trials: bounded, non-increasing tail
    for K in (1.0, 3.0):
        rep = _ratio_search("2*t^3", "t^4/2", K)
        assert rep.verdict == "finite_evidence"
        rs = [r for _, r, _ in rep.trace["moser"]]
        assert len(rs) >= 3
        assert rs[-1] <= rs[0] * 1.05


def test_bounded_probe_blowup_class():
    # boundary-growth g = t^4 exp(t^2) along the same family: ratio grows
    for K in (1.0, 3.0):
        rep = _ratio_search("(2*t^3 + t^5)*exp(t^2)", "t^4*exp(t^2)/2", K)
        assert rep.verdict == "divergence_evidence"
        rs = [r for _, r, _ in rep.trace["moser"]]
        assert rs[0] < rs[1] < rs[2]


def test_exact_growth_theta_remark():
    # theta < 2: divergence evidence at the threshold; theta >= 2: finite
    for theta, expected in ((1.0, "divergence_evidence"), (3.0, "finite_evidence")):
        spec = bh.exact_growth_family(theta)
        cfg = bh.ProblemConfig(4, bh.ConstantPotential(1.0), spec)
        L = cfg.adams_beta / spec.alpha0
        rep = bh.adams_ratio_search(cfg, L, budget=300)
        assert rep.verdict == expected

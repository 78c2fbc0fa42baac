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
    assert cls_lo["bounded_verdict"] == "fails"
    assert np.isinf(cls_lo["limsup_infinity"])

    cls_mid = classify_growth(g_shape, 1.0 / 2.0)
    assert cls_mid["bounded_verdict"] == "inconclusive"
    assert cls_mid["infinity_boundary"]
    assert cls_mid["limsup_infinity"] == pytest.approx(1.0, rel=0.05)

    cls_hi = classify_growth(g_shape, 1.0 / 2.1)
    assert cls_hi["bounded_verdict"] == "holds"
    assert cls_hi["limsup_infinity"] == 0.0


def test_classifier_quartic_holds():
    cls = classify_growth(lambda t: np.asarray(t) ** 4, 1.0)
    assert cls["bounded_verdict"] == "holds"
    assert cls["compact_verdict"] == "holds"
    assert cls["limsup_origin"] == 0.0 and cls["limsup_infinity"] == 0.0


def test_classifier_linear_fails_origin():
    cls = classify_growth(lambda t: np.asarray(t), 1.0)
    assert cls["bounded_verdict"] == "fails"
    assert np.isinf(cls["limsup_origin"])


def test_classifier_reads_the_log_floor_as_a_vanishing_limit():
    # g = 0 sits at the 1e-300 floor of the probe logs: both limits vanish
    cls = classify_growth(lambda t: 0.0 * np.asarray(t, float), 1.0)
    assert (cls["bounded_verdict"], cls["compact_verdict"]) == ("holds", "holds")
    assert cls["limsup_origin"] == cls["limsup_infinity"] == 0.0


def test_classifier_boundary_origin():
    # g ~ c t^2 at zero: finite nonzero origin limit
    cls = classify_growth(lambda t: 3.0 * np.asarray(t) ** 2
                          * np.exp(-np.asarray(t) ** 2), 2.0)
    assert cls["limsup_origin"] == pytest.approx(3.0, rel=0.05)
    assert cls["compact_verdict"] == "fails"


def test_classifier_scale_coherence():
    base = classify_growth(g_shape, 0.5)
    scaled = classify_growth(lambda t: 7.0 * g_shape(t), 0.5)
    assert scaled["bounded_verdict"] == base["bounded_verdict"]
    assert scaled["limsup_infinity"] == pytest.approx(7.0 * base["limsup_infinity"], rel=1e-6)


def test_compact_implies_bounded():
    for fn, K in ((lambda t: np.asarray(t) ** 4, 1.0),
                  (g_shape, 1.0 / 2.1), (g_shape, 1.0 / 1.9)):
        cls = classify_growth(fn, K)
        if cls["compact_verdict"] == "holds":
            assert cls["bounded_verdict"] == "holds"


def _exp_over_quadratic(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return np.expm1(t * t) / (1.0 + t * t)


def _damped_exp(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return (np.exp(t * t) - 1.0 - t * t) * np.exp(0.05 * t) / (1.0 + t * t)


# classify_growth as recorded at 9530ade, before both probes fitted through
# model.tail_slope: (g, K, bounded, compact, infinity_boundary, limsup_infinity,
# limsup_origin, exp_order_estimate); criterion 9's five shapes come first
_INF = float("inf")
_PINNED = {
    "exp2_K1/1.9": (g_shape, 1 / 1.9, "fails", "fails", False, _INF, 0.0, 2.000000000024708),
    "exp2_K1/2": (g_shape, 1 / 2.0, "inconclusive", "fails", True,
                  0.9999999994456933, 0.0, 2.000000000024708),
    "exp2_K1/2.1": (g_shape, 1 / 2.1, "holds", "holds", False, 0.0, 0.0, 2.000000000024708),
    "t": (lambda t: np.asarray(t, float), 1.0, "fails", "fails", False,
          0.0, _INF, 0.012456675034533318),
    "t^4": (lambda t: np.asarray(t, float) ** 4, 1.0, "holds", "holds", False,
            0.0, 0.0, 0.04982670013813327),
    "(e^t^2-1)/(1+t^2)": (_exp_over_quadratic, 1.0, "inconclusive", "fails", False,
                          0.0, 0.9999997308188224, 0.9758601353743821),
    "3t^2": (lambda t: 3.0 * np.asarray(t, float) ** 2, 1.0, "inconclusive", "fails", False,
             0.0, 2.9999999999999996, 0.02491335006906662),
    "damped_exp": (_damped_exp, 1.0, "holds", "holds", False, 0.0, 0.0, 0.9796864602230935),
}


@pytest.mark.parametrize("name", _PINNED)
def test_classifier_pinned(name):
    g, K, bounded, compact, boundary, *estimates = _PINNED[name]
    cls = classify_growth(g, K)
    assert (cls["bounded_verdict"], cls["compact_verdict"], cls["infinity_boundary"]) \
        == (bounded, compact, boundary)
    got = (cls["limsup_infinity"], cls["limsup_origin"], cls["exp_order_estimate"])
    assert got == pytest.approx(tuple(estimates), rel=1e-12, abs=0)


def _ratio_search(f_expr, K):
    """adams_ratio_search of int g(u) / ||u||^2, g = 2F, under ||D u||^2 <= 32 pi^2 K."""
    return bh.adams_ratio_search(bh.user_nonlinearity(f_expr), 4, 32 * np.pi**2 * K)


def test_bounded_probe_compact_class():
    # compact-class g = t^4 along the concentrating trials: bounded, non-increasing tail
    for K in (1.0, 3.0):
        rep = _ratio_search("2*t^3", K)
        assert rep["verdict"] == "finite_evidence"
        rs = [r for _, r, _ in rep["trace"]["moser"]]
        assert len(rs) >= 3
        assert rs[-1] <= rs[0] * 1.05


def test_bounded_probe_blowup_class():
    # boundary-growth g = t^4 exp(t^2) along the same family: ratio grows
    for K in (1.0, 3.0):
        rep = _ratio_search("(2*t^3 + t^5)*exp(t^2)", K)
        assert rep["verdict"] == "divergence_evidence"
        rs = [r for _, r, _ in rep["trace"]["moser"]]
        assert rs[0] < rs[1] < rs[2]


def test_exact_growth_theta_remark():
    # theta < 2: divergence evidence at the threshold, as for the exp-critical
    # family; theta >= 2: finite.  In R^2 the log branch carries L at
    # K = L / (2 beta), and the last budget is within 10 % of it
    for dim in (4, 2):
        for spec, expected in ((bh.exact_growth_family(1.0), "divergence_evidence"),
                               (bh.exact_growth_family(3.0), "finite_evidence"),
                               (bh.exp_critical(0.5, dim), "divergence_evidence")):
            L = bh.model.ADAMS_BETA[dim] / spec.alpha0
            rep = bh.adams_ratio_search(spec, dim, L, budget=300)
            assert rep["verdict"] == expected, (dim, spec.kind)
            if dim == 2:
                assert rep["trace"]["moser"][-1][2] < 1.1 * L

import numpy as np
import pytest

import biharm as bh
from biharm.diagnostics import bounded_functional_probe, classify_growth


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


def test_bounded_probe_compact_class():
    # compact-class g with the concentrating trials: bounded, non-increasing tail
    gfun = lambda t: np.asarray(t) ** 4
    trials = []
    for b in (3.0, 4.0, 5.0):
        r14 = np.exp(-b * b / 4.0)
        n = max(int(np.ceil(2.5 / (r14 / 10.0))) + 1, 4096)
        grd = bh.build_grid(2.5, n, 4)
        trials.append(bh.moser_field(bh.MoserParams.moser(b, 1.0), grd))
    out = bounded_functional_probe(gfun, 3.0, trials)
    rs = out["ratios"]
    assert len(rs) == 3
    assert rs[-1] <= rs[0] * 1.05


def test_bounded_probe_blowup_class():
    # boundary-growth g along the same family: ratio grows
    gfun = lambda t: np.asarray(t) ** 4 * np.exp(np.asarray(t) ** 2)
    trials = []
    for b in (3.0, 4.0, 5.0):
        r14 = np.exp(-b * b / 4.0)
        n = max(int(np.ceil(2.5 / (r14 / 10.0))) + 1, 4096)
        grd = bh.build_grid(2.5, n, 4)
        trials.append(bh.moser_field(bh.MoserParams.moser(b, 1.0), grd))
    out = bounded_functional_probe(gfun, 3.0, trials)
    rs = out["ratios"]
    assert rs[0] < rs[1] < rs[2]


def test_bounded_probe_zero_and_skip():
    g4 = bh.default_grid(4)
    fld = bh.RadialField(g4, np.exp(-g4.nodes**2 / 2))
    out = bounded_functional_probe(lambda t: np.zeros_like(np.asarray(t, float)),
                                   1.0, [fld])
    assert out["max_ratio"] == 0.0
    # a trial violating the budget is skipped and reported
    big = bh.RadialField(g4, 40.0 * np.exp(-g4.nodes**2 / 2))
    out2 = bounded_functional_probe(lambda t: np.asarray(t) ** 2, 1e-4, [big])
    assert out2["skipped"]


def test_exact_growth_theta_remark():
    # theta < 2: divergence evidence at the threshold; theta >= 2: finite
    for theta, expected in ((1.0, "divergence_evidence"), (3.0, "finite_evidence")):
        spec = bh.exact_growth_family(theta)
        cfg = bh.ProblemConfig(4, bh.ConstantPotential(1.0), spec)
        L = cfg.adams_beta / spec.alpha0
        rep = bh.adams_ratio_search(cfg, L, budget=300)
        assert rep.verdict == expected

import numpy as np
import pytest

from evreflex.metrics import (
    aae_report,
    angle_error,
    depth_baseline,
    flow_aee,
    prf1,
)
from evreflex.types import FloatMap, FlowField, MapSemantics, UndefinedMetricError


def test_aee_identical_fields():
    rng = np.random.default_rng(0)
    f = FlowField(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))
    stats = flow_aee(f, f)
    assert stats.aee == 0.0 and stats.outlier_pct == 0.0


def test_aee_345_offset():
    shape = (8, 8)
    gt = FlowField(np.zeros(shape), np.zeros(shape))
    pred = FlowField(np.full(shape, 3.0), np.full(shape, 4.0))
    stats = flow_aee(pred, gt)
    assert stats.aee == pytest.approx(5.0)
    assert stats.outlier_pct == pytest.approx(100.0)


def test_aee_matches_loop_oracle():
    rng = np.random.default_rng(1)
    pu, pv = rng.normal(size=(2, 8, 8))
    gu, gv = rng.normal(size=(2, 8, 8))
    mask = rng.random((8, 8)) > 0.4
    stats = flow_aee(FlowField(pu, pv), FlowField(gu, gv), mask)
    errors = []
    for y in range(8):
        for x in range(8):
            if mask[y, x]:
                du = float(np.float32(pu[y, x])) - float(np.float32(gu[y, x]))
                dv = float(np.float32(pv[y, x])) - float(np.float32(gv[y, x]))
                errors.append((du * du + dv * dv) ** 0.5)
    assert stats.aee == pytest.approx(float(np.mean(errors)), rel=1e-9)
    assert stats.outlier_pct == pytest.approx(
        100.0 * np.mean([e > 3.0 for e in errors]), rel=1e-9
    )


def test_aee_empty_mask_is_undefined():
    f = FlowField(np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(UndefinedMetricError):
        flow_aee(f, f, np.zeros((4, 4), dtype=bool))


def _classes(shape):
    cls = np.zeros(shape)
    cls[:, : shape[1] // 2] = 1  # floor on the left half
    cls[0:2, 0:2] = 2  # a flying patch
    return FloatMap(cls, MapSemantics.CLASS_ID)


def test_prf1_perfect_prediction():
    rng = np.random.default_rng(2)
    gt = rng.random((8, 8)) > 0.5
    scores = prf1(gt, gt, _classes((8, 8)))
    for cid, score in scores.per_class.items():
        if score.tp + score.fn > 0:
            assert score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0
    assert scores.overall.f1 == 1.0


def test_prf1_all_negative_prediction():
    gt = np.ones((8, 8), dtype=bool)
    scores = prf1(np.zeros((8, 8), dtype=bool), gt, _classes((8, 8)))
    assert scores.overall.recall == 0.0 and scores.overall.f1 == 0.0


def test_prf1_matches_confusion_oracle():
    rng = np.random.default_rng(3)
    pred = rng.random((16, 16)) > 0.5
    gt = rng.random((16, 16)) > 0.5
    cls_vals = rng.integers(0, 3, (16, 16)).astype(np.float64)
    scores = prf1(pred, gt, FloatMap(cls_vals, MapSemantics.CLASS_ID))
    for cid in (0, 1, 2):
        tp = fp = fn = 0
        for y in range(16):
            for x in range(16):
                if int(cls_vals[y, x]) != cid:
                    continue
                if pred[y, x] and gt[y, x]:
                    tp += 1
                elif pred[y, x]:
                    fp += 1
                elif gt[y, x]:
                    fn += 1
        s = scores.per_class[cid]
        assert (s.tp, s.fp, s.fn) == (tp, fp, fn)
        if tp + fp:
            assert s.precision == pytest.approx(tp / (tp + fp))
        if tp + fn:
            assert s.recall == pytest.approx(tp / (tp + fn))
    # overall TP+FN equals the gt positive count exactly
    assert scores.overall.tp + scores.overall.fn == int(gt.sum())


def test_prf1_zero_support_class_reports_zeros():
    pred = np.zeros((4, 4), dtype=bool)
    gt = np.zeros((4, 4), dtype=bool)
    scores = prf1(pred, gt, _classes((4, 4)))
    for score in scores.per_class.values():
        assert score.f1 == 0.0 and score.tp == 0


def test_depth_baseline_cases():
    d = np.full((6, 6), 2.0)
    fm = FloatMap(d, MapSemantics.DEPTH_M)
    assert not depth_baseline(fm, 0.5).any()
    d2 = d.copy()
    d2[3, 3] = 0.3
    mask = depth_baseline(FloatMap(d2, MapSemantics.DEPTH_M), 0.5)
    assert mask[3, 3] and mask.sum() == 1


def test_depth_baseline_threshold_monotone():
    rng = np.random.default_rng(4)
    fm = FloatMap(rng.uniform(0.1, 3.0, (16, 16)), MapSemantics.DEPTH_M)
    near = depth_baseline(fm, 0.5)
    far = depth_baseline(fm, 1.5)
    assert not (near & ~far).any()


def test_depth_baseline_ignores_invalid_depth():
    d = np.zeros((4, 4))
    d[0, 0] = 0.2
    mask = depth_baseline(FloatMap(d, MapSemantics.DEPTH_M), 0.5)
    assert mask[0, 0] and mask.sum() == 1  # sentinel-0 pixels stay out


@pytest.mark.parametrize("threshold", [0.0, -0.5, np.inf, np.nan])
def test_depth_baseline_refuses_threshold_not_positive_and_finite(threshold):
    # a NaN threshold once gave an empty mask and an infinite one flagged
    # every valid pixel
    fm = FloatMap(np.full((4, 4), 2.0), MapSemantics.DEPTH_M)
    with pytest.raises(ValueError, match="^threshold_m must be positive and finite"):
        depth_baseline(fm, threshold)


def test_angle_error_cases():
    assert angle_error((1, 2, 3), (1, 2, 3)) == pytest.approx(0.0, abs=1e-9)
    assert angle_error((1, 0, 0), (0, 1, 0)) == pytest.approx(90.0)
    assert angle_error((1, 0, 0), (-1, 0, 0)) == pytest.approx(180.0)
    with pytest.raises(UndefinedMetricError):
        angle_error((0, 0, 0), (1, 0, 0))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324, 1.7e308])
def test_angle_error_holds_at_any_finite_scale(scale):
    # |v|^2 once overflowed to inf (a cosine of 0, so 90 degrees for parallel
    # vectors) or underflowed to 0 (refused as a zero vector)
    assert angle_error([scale, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0
    assert angle_error([1.0, 0.0, 0.0], [0.0, -scale, 0.0]) == pytest.approx(90.0)
    assert angle_error([-scale, 0.0, 0.0], [scale, 0.0, 0.0]) == pytest.approx(180.0)
    assert angle_error([scale, scale, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(45.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["pred_vec", "gt_vec"])
def test_angle_error_refuses_non_finite_vectors(which, bad):
    # a NaN cosine once clamped to 1, a perfect 0 degrees that aae_report
    # averaged in
    vecs = {"pred_vec": [1.0, 0.0, 0.0], "gt_vec": [1.0, 0.0, 0.0]}
    vecs[which] = [bad, 0.0, 0.0]
    with pytest.raises(ValueError, match=f"^{which} "):
        angle_error(**vecs)
    with pytest.raises(ValueError, match=f"^{which} "):
        aae_report([(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])),
                    (np.array(vecs["pred_vec"]), np.array(vecs["gt_vec"]))])


@pytest.mark.parametrize("pred, gt, which", [
    ([1.0, 0.0], [0.0, 1.0], "pred_vec"),  # once read as 90 degrees
    ([1.0, 0.0, 0.0], [0.0, 1.0], "gt_vec"),  # once failed inside numpy's dot
    ([[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0], "pred_vec"),
    ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], "gt_vec"),
    (1.0, [1.0, 0.0, 0.0], "pred_vec"),
])
def test_angle_error_refuses_anything_but_two_3_vectors(pred, gt, which):
    with pytest.raises(ValueError, match=f"^{which} must be a 3-vector"):
        angle_error(pred, gt)


def test_aae_report_identical_pairs():
    pairs = [(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))] * 12
    rep = aae_report(pairs)
    assert rep.aae_deg == pytest.approx(0.0, abs=1e-9)
    assert rep.aae_top10_deg == pytest.approx(0.0, abs=1e-9)


def test_aae_report_constructed_decile():
    # 10 samples; the largest-magnitude gt vector carries a 90 degree error
    pairs = [(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) for _ in range(9)]
    pairs.append((np.array([0.0, 5.0, 0.0]), np.array([5.0, 0, 0])))
    rep = aae_report(pairs)
    assert rep.aae_deg == pytest.approx(9.0)
    assert rep.aae_top10_deg == pytest.approx(90.0)


def test_aae_report_insufficient_samples_flags_top10():
    pairs = [(np.array([1.0, 0, 0]), np.array([1.0, 1.0, 0]))] * 5
    rep = aae_report(pairs)
    assert rep.aae_top10_deg is None
    assert rep.count == 5


def test_aae_report_matches_sort_oracle():
    rng = np.random.default_rng(5)
    pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(37)]
    rep = aae_report(pairs)
    errors = [angle_error(p, g) for p, g in pairs]
    assert rep.aae_deg == pytest.approx(float(np.mean(errors)), rel=1e-12)
    mags = [float(np.linalg.norm(g)) for _, g in pairs]
    order = sorted(range(37), key=lambda i: (-mags[i], i))[: 37 // 10]
    assert rep.aae_top10_deg == pytest.approx(
        float(np.mean([errors[i] for i in order])), rel=1e-12
    )
    assert rep.aae_deg <= 180.0 and rep.aae_deg >= 0.0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evreflex.flow import warp
from evreflex.tti import (
    TtiMap,
    estimate_tti_dynamic,
    estimate_tti_static,
    ground_truth_inverse_tti,
    threshold_collision,
    tti_mse,
)
from evreflex.types import (FloatMap, FlowField, MapSemantics, ShapeMismatchError,
                            UndefinedMetricError)


def _depth(value, shape=(8, 8)):
    return FloatMap(np.full(shape, value, dtype=np.float64), MapSemantics.DEPTH_M)


def _zero_flow(shape=(8, 8)):
    return FlowField(np.zeros(shape), np.zeros(shape))


def test_gt_tti_no_range_change_is_zero():
    rng = np.random.default_rng(0)
    shape = (8, 8)
    u = rng.uniform(-1.5, 1.5, shape)
    v = rng.uniform(-1.5, 1.5, shape)
    d = _depth(2.0)
    out = ground_truth_inverse_tti(d, d, FlowField(u, v), 0.1)
    assert np.allclose(out.values[out.valid], 0.0, atol=1e-7)


def test_gt_tti_scalar_case():
    out = ground_truth_inverse_tti(_depth(2.1), _depth(2.0), _zero_flow(), 0.1)
    assert out.values[4, 4] == pytest.approx(0.5, rel=1e-6)
    assert out.valid.all()


def test_gt_tti_receding_clamps_to_zero():
    out = ground_truth_inverse_tti(_depth(2.0), _depth(2.2), _zero_flow(), 0.1)
    assert (out.values == 0).all()
    assert out.valid.all()


def test_gt_tti_validity_rules():
    d_prev = np.full((8, 8), 2.0)
    d_curr = np.full((8, 8), 2.0)
    d_curr[3, 3] = 0.0  # invalid depth
    u = np.zeros((8, 8))
    u[0, 7] = 5.0  # warps out of the raster
    out = ground_truth_inverse_tti(
        FloatMap(d_prev, MapSemantics.DEPTH_M),
        FloatMap(d_curr, MapSemantics.DEPTH_M),
        FlowField(u, np.zeros((8, 8))),
        0.1,
    )
    assert not out.valid[3, 3]
    assert not out.valid[0, 7]
    assert out.valid[1, 1]


def test_gt_tti_occlusion_guard_masks_discontinuity():
    # previous depth has a 2 m foreground block against a 5 m background;
    # a half-pixel warp straddles the jump
    d_prev = np.full((8, 8), 5.0)
    d_prev[:, :4] = 2.0
    u = np.full((8, 8), 0.5)
    out = ground_truth_inverse_tti(
        FloatMap(d_prev, MapSemantics.DEPTH_M), _depth(2.0),
        FlowField(u, np.zeros((8, 8))), 0.1,
    )
    assert not out.valid[4, 3]  # footprint spans columns 3..4 of d_prev
    assert out.valid[4, 1] and out.valid[4, 5]  # footprints on one side of the jump


def test_gt_tti_rejects_bad_dt():
    with pytest.raises(ValueError):
        ground_truth_inverse_tti(_depth(2.0), _depth(2.0), _zero_flow(), 0.0)


BAD_INTERVALS = [0.0, np.inf, np.nan]


@pytest.mark.parametrize("dt", BAD_INTERVALS)
def test_gt_tti_refuses_dt_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        ground_truth_inverse_tti(_depth(2.0), _depth(1.9), _zero_flow(), dt)


@pytest.mark.parametrize("dt", BAD_INTERVALS)
def test_dynamic_refuses_dt_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        estimate_tti_dynamic(_zero_flow(), _depth(2.0), _depth(1.9), dt)


@pytest.mark.parametrize("dt", BAD_INTERVALS)
def test_static_refuses_dt_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        estimate_tti_static(_zero_flow(), _depth(2.0), dt)


@pytest.mark.parametrize("dt", BAD_INTERVALS)
def test_tti_map_refuses_dt_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        TtiMap(np.zeros((4, 5)), dt=dt, valid=np.ones((4, 5), dtype=bool))


def test_tti_map_freezes_its_mask():
    gt = ground_truth_inverse_tti(_depth(2.5), _depth(2.0), _zero_flow(), 0.5)
    with pytest.raises(ValueError):
        gt.valid[0, 0] = False
    mask = np.ones((4, 5), dtype=bool)
    t = TtiMap(np.zeros((4, 5)), dt=0.1, valid=mask)
    mask[:] = False
    assert t.valid.all() and not t.valid.flags.writeable


def test_tti_map_stores_its_raster_as_a_finite_non_negative_float32_copy():
    # TtiMap makes the copy and the checks of an INV_TTI_S FloatMap
    raw = np.full((4, 5), 0.5)
    t = TtiMap(raw, dt=0.1, valid=np.ones((4, 5), dtype=bool))
    raw[0, 0] = 9.0
    assert t.values.dtype == np.float32 and not t.values.flags.writeable
    assert np.all(t.values == np.float32(0.5))
    for bad in (-1.0, np.nan, np.inf):
        raw[0, 0] = bad
        with pytest.raises(ValueError):
            TtiMap(raw, dt=0.1, valid=np.ones((4, 5), dtype=bool))
    with pytest.raises(ShapeMismatchError):
        TtiMap(np.zeros((4, 5)), dt=0.1, valid=np.ones((5, 4), dtype=bool))


def test_tti_map_refuses_a_mask_that_is_not_bool():
    with pytest.raises(TypeError, match="^valid must be a bool array"):
        TtiMap(np.zeros((4, 5)), dt=0.1, valid=np.ones((4, 5)))


def test_static_zero_flow_is_zero():
    out = estimate_tti_static(_zero_flow(), _depth(2.0), 0.1)
    assert (out.values == 0).all()


def test_static_radial_expansion():
    shape = (16, 16)
    ys, xs = np.mgrid[0:16, 0:16].astype(np.float64)
    cx = cy = 7.5
    out = estimate_tti_static(
        FlowField(0.05 * (xs - cx), 0.05 * (ys - cy)), _depth(2.0, shape), 0.1
    )
    assert np.allclose(out.values[2:-2, 2:-2], 0.5, atol=1e-6)


def test_static_solenoidal_field_is_zero():
    shape = (16, 16)
    ys, xs = np.mgrid[0:16, 0:16].astype(np.float64)
    out = estimate_tti_static(
        FlowField(-0.1 * (ys - 7.5), 0.1 * (xs - 7.5)), _depth(2.0, shape), 0.1
    )
    assert np.abs(out.values).max() < 1e-6


def test_dynamic_no_change_is_zero():
    out = estimate_tti_dynamic(_zero_flow(), _depth(2.0), _depth(2.0), 0.1)
    assert np.allclose(out.values[out.valid], 0.0)


def test_dynamic_scalar_case():
    out = estimate_tti_dynamic(_zero_flow(), _depth(2.0), _depth(1.9), 0.1)
    assert out.values[4, 4] == pytest.approx(0.5, rel=1e-6)


def test_unit_coherence_halving_dt_doubles_tau():
    rng = np.random.default_rng(1)
    d_prev = FloatMap(rng.uniform(2.0, 2.2, (8, 8)), MapSemantics.DEPTH_M)
    d_curr = FloatMap(np.full((8, 8), 2.0), MapSemantics.DEPTH_M)
    a = ground_truth_inverse_tti(d_prev, d_curr, _zero_flow(), 0.1)
    b = ground_truth_inverse_tti(d_prev, d_curr, _zero_flow(), 0.05)
    assert np.allclose(b.values, 2 * a.values, rtol=1e-6)
    sa = estimate_tti_static(
        FlowField(0.05 * np.ones((8, 8)) * np.arange(8), np.zeros((8, 8))), d_curr, 0.1
    )
    sb = estimate_tti_static(
        FlowField(0.05 * np.ones((8, 8)) * np.arange(8), np.zeros((8, 8))), d_curr, 0.05
    )
    assert np.allclose(sb.values, 2 * sa.values, rtol=1e-6)


def test_tti_mse_cases():
    # Depths, interval and shift are exact in float32 storage: tau = 0.5 / (2.0 * 0.5)
    # = 0.5, and a uniform +0.25 shift over the jointly valid pixels gives 0.25**2.
    gt = ground_truth_inverse_tti(_depth(2.5), _depth(2.0), _zero_flow(), 0.5)
    assert tti_mse(gt, gt) == 0.0
    shifted = TtiMap(gt.values + 0.25, dt=gt.dt, valid=gt.valid)
    assert tti_mse(shifted, gt) == pytest.approx(0.25**2, rel=1e-9)


def test_tti_mse_matches_loop_oracle():
    rng = np.random.default_rng(2)
    a_vals = rng.uniform(0, 2, (8, 8))
    b_vals = rng.uniform(0, 2, (8, 8))
    valid_a = rng.random((8, 8)) > 0.3
    valid_b = rng.random((8, 8)) > 0.3
    a = TtiMap(a_vals, dt=0.1, valid=valid_a)
    b = TtiMap(b_vals, dt=0.1, valid=valid_b)
    total = 0.0
    count = 0
    for y in range(8):
        for x in range(8):
            if valid_a[y, x] and valid_b[y, x]:
                total += (float(a.values[y, x]) - float(b.values[y, x])) ** 2
                count += 1
    assert tti_mse(a, b) == pytest.approx(total / count, rel=1e-9)


def test_tti_mse_empty_support_raises():
    a = TtiMap(np.zeros((4, 4)), dt=0.1, valid=np.zeros((4, 4), dtype=bool))
    with pytest.raises(UndefinedMetricError):
        tti_mse(a, a)


def test_tti_mse_dt_mismatch_raises():
    a = TtiMap(np.zeros((4, 4)), dt=0.1, valid=np.ones((4, 4), dtype=bool))
    b = TtiMap(np.zeros((4, 4)), dt=0.2, valid=np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        tti_mse(a, b)


def test_threshold_collision_cases():
    values = np.zeros((8, 8))
    t = TtiMap(values, dt=0.1, valid=np.ones((8, 8), dtype=bool))
    assert not threshold_collision(t, 1.0).any()
    values[2, 5] = 1.2
    t = TtiMap(values, dt=0.1, valid=np.ones((8, 8), dtype=bool))
    mask = threshold_collision(t, 1.0)
    assert mask[2, 5] and mask.sum() == 1


@pytest.mark.parametrize("horizon", BAD_INTERVALS)
def test_threshold_collision_refuses_horizon_not_positive_and_finite(horizon):
    # a receding map: tau is 0 on every valid pixel, so nothing is in danger,
    # yet 1 / inf = 0 would flag all 20 pixels and a NaN horizon none
    receding = ground_truth_inverse_tti(_depth(2.0, (4, 5)), _depth(2.2, (4, 5)),
                                        _zero_flow((4, 5)), 0.1)
    assert receding.valid.all() and not threshold_collision(receding, 1.0).any()
    with pytest.raises(ValueError, match="^horizon must be positive and finite"):
        threshold_collision(receding, horizon)


def test_threshold_monotonicity_in_horizon():
    rng = np.random.default_rng(3)
    t = TtiMap(rng.uniform(0, 3, (16, 16)), dt=0.1, valid=rng.random((16, 16)) > 0.2)
    short = threshold_collision(t, 0.5)
    long = threshold_collision(t, 1.0)
    assert not (short & ~long).any()  # mask(0.5 s) is a subset of mask(1.0 s)


def test_tau_values_always_nonnegative():
    rng = np.random.default_rng(4)
    d_prev = FloatMap(rng.uniform(1, 3, (8, 8)), MapSemantics.DEPTH_M)
    d_curr = FloatMap(rng.uniform(1, 3, (8, 8)), MapSemantics.DEPTH_M)
    flow = FlowField(rng.normal(0, 1, (8, 8)), rng.normal(0, 1, (8, 8)))
    for out in (
        ground_truth_inverse_tti(d_prev, d_curr, flow, 0.1),
        estimate_tti_dynamic(flow, d_curr, d_prev, 0.1),
        estimate_tti_static(flow, d_curr, 0.1),
    ):
        assert (out.values >= 0).all()


@settings(max_examples=60, deadline=None)
@given(h=st.integers(2, 9), w=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(0.01, 1.0))
def test_gt_and_dynamic_are_one_closure_with_opposite_signs(h, w, seed, dt):
    # Depth fields a few percent from flat keep most footprints inside the
    # occlusion guard; flows up to 3 px push some samples out of the raster.
    rng = np.random.default_rng(seed)
    a = FloatMap(rng.uniform(1.0, 4.0) * (1.0 + 0.1 * rng.random((h, w))), MapSemantics.DEPTH_M)
    b = FloatMap(rng.uniform(1.0, 4.0) * (1.0 + 0.1 * rng.random((h, w))), MapSemantics.DEPTH_M)
    f = FlowField(rng.uniform(-3.0, 3.0, (h, w)), rng.uniform(-3.0, 3.0, (h, w)))

    gt = ground_truth_inverse_tti(a, b, f, dt)
    dyn = estimate_tti_dynamic(f, b, a, dt)
    assert np.array_equal(gt.valid, dyn.valid)
    g = gt.values[gt.valid].astype(np.float64)
    d = dyn.values[dyn.valid].astype(np.float64)
    assert not np.any((g != 0) & (d != 0))

    warped, _ = warp(a.values, np.stack([f.u, f.v]))
    curr = b.values.astype(np.float64)
    closure = (warped - curr) / (curr * dt)
    np.testing.assert_allclose(g - d, closure[gt.valid], rtol=1e-6, atol=0.0)

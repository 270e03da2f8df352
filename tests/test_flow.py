import logging
import re

import numpy as np
import pytest

from evreflex.flow import (
    FlowSolverConfig,
    SolverDivergenceError,
    charbonnier,
    charbonnier_deriv,
    estimate_flow,
    loss_gradient,
    photometric_loss,
    smoothness_loss,
    total_loss,
    warp,
    _STEP_GROWTH,
    _Workspace,
    _charbonnier_power,
    _descend,
    _downsample2,
)
from evreflex.types import (
    FloatMap,
    FlowField,
    MapSemantics,
    ShapeMismatchError,
    accumulate_events,
    event_mask,
    make_events,
)


def _const_flow(shape, du, dv):
    return np.stack([np.full(shape, du, dtype=np.float64),
                     np.full(shape, dv, dtype=np.float64)])


def _ramp(shape):
    ys, xs = np.mgrid[0:shape[0], 0:shape[1]].astype(np.float64)
    return xs


# -- warp ---------------------------------------------------------------------


def test_warp_zero_flow_is_identity():
    rng = np.random.default_rng(0)
    img = rng.random((6, 7))
    out, valid = warp(img, _const_flow(img.shape, 0.0, 0.0))
    assert np.array_equal(out, img)
    assert valid.all()


def test_warp_integer_shift_on_ramp():
    img = _ramp((5, 8))
    out, valid = warp(img, _const_flow(img.shape, 1.0, 0.0))
    assert np.allclose(out[:, :-1], img[:, :-1] + 1.0)
    assert valid[:, :-1].all() and not valid[:, -1].any()


def test_warp_half_pixel_bilinear():
    img = _ramp((4, 6))
    out, valid = warp(img, _const_flow(img.shape, 0.5, 0.0))
    # interior: linear ramp interpolates exactly
    assert np.allclose(out[:, :-1], img[:, :-1] + 0.5)


def test_warp_floatmap_and_flowfield_types():
    fm = FloatMap(np.ones((4, 4)), MapSemantics.DEPTH_M)
    out, valid = warp(fm, _const_flow((4, 4), 0.25, -0.25))
    assert out.semantics == MapSemantics.DEPTH_M
    # a flow field is not a raster to sample
    with pytest.raises(TypeError):
        warp(FlowField(np.ones((4, 4)), np.zeros((4, 4))), _const_flow((4, 4), 0.0, 0.0))


def test_warp_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        warp(np.zeros((4, 4)), _const_flow((5, 5), 0, 0))


@pytest.mark.parametrize("width", [5, 6])
def test_warp_nan_flow_rejected(width):
    img = np.arange(4.0 * width).reshape(4, width)
    flow = _const_flow(img.shape, 0.0, 0.0)
    flow[:, 1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        warp(img, flow)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_flow_array_rejected(bad):
    # the FlowField contract: every entry finite
    img = np.random.default_rng(3).random((4, 5))
    flow = _const_flow(img.shape, 0.0, 0.0)
    flow[1, 2, 3] = bad
    for call in (lambda: warp(img, flow), lambda: total_loss(flow, img, img, FlowSolverConfig()),
                 lambda: loss_gradient(flow, img, img, FlowSolverConfig()),
                 lambda: smoothness_loss(flow)):
        with pytest.raises(ValueError, match="infinite"):
            call()


# -- charbonnier ---------------------------------------------------------------


def test_charbonnier_zero_closed_form():
    # eps^(2*alpha) = (1e-3)^0.9 = 10^-2.7
    assert charbonnier(0.0) == pytest.approx(10 ** -2.7, rel=1e-12)


def test_charbonnier_even_symmetry():
    rng = np.random.default_rng(1)
    x = rng.normal(size=100)
    assert np.allclose(charbonnier(x), charbonnier(-x))


def test_charbonnier_at_one():
    assert charbonnier(1.0) == pytest.approx((1 + 1e-6) ** 0.45, rel=1e-12)


def test_charbonnier_validation():
    # the penalty and its derivative refuse the same settings
    for fn in (charbonnier, charbonnier_deriv):
        for name, bad in (("eps", 0.0), ("eps", -1e-3), ("eps", np.nan),
                          ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5)):
            with pytest.raises(ValueError, match=name):
                fn(0.0, **{name: bad})


def test_charbonnier_deriv_matches_fd():
    xs = np.linspace(-2, 2, 41)
    h = 1e-7
    fd = (charbonnier(xs + h) - charbonnier(xs - h)) / (2 * h)
    assert np.allclose(charbonnier_deriv(xs), fd, atol=1e-4)


@pytest.mark.parametrize("ca", [0.1, 0.45, 0.9])
@pytest.mark.parametrize("r", [2.0, 510.0])  # images in [0, 1] and in [0, 255]
def test_charbonnier_power_accuracy(r, ca):
    # Bases from eps^2 up to 16 r^2 + eps^2, with r = max|I_t| + max|I_t1|:
    # the photometric residual is at most r in magnitude (the interpolant
    # lies between I_t1's corners), so this covers its bases with a residual
    # four times that to spare.  exp(a * log b) against b ** a: log within
    # 1 ulp, the product within half an ulp, so the exponent is off by at
    # most 1.5 |a ln b| 2^-52 in absolute terms, which exp turns into a
    # relative error, plus 1 ulp each for exp and for the reference; the
    # quotient b^a / b adds half an ulp against b ** (a - 1).
    eps = 1e-3
    base = np.geomspace(eps * eps, 16.0 * r * r + eps * eps, 20001)
    power = _charbonnier_power(base, ca)
    spread = 1.5 * np.abs(ca * np.log(base))
    assert np.all(np.abs(power - base ** ca) <= (2.0 + spread) * 2.0 ** -52 * base ** ca)
    slope_power = base ** (ca - 1.0)
    assert np.all(np.abs(power / base - slope_power)
                  <= (2.5 + spread) * 2.0 ** -52 * slope_power)
    # the helper writes into out and returns it
    out = np.empty_like(base)
    assert _charbonnier_power(base, ca, out=out) is out and np.array_equal(out, power)


@pytest.mark.parametrize("pair", [(0.25, 0.75), (0.9, 0.1), (0.5, 0.5), (0.3, 0.300001)])
def test_photometric_loss_of_one_pixel_is_charbonnier(pair):
    # the public penalty and the kernel take the same power, so on a 1x1
    # pair with weight 1 the loss is the penalty of the residual to the bit
    it, it1 = (np.full((1, 1), value) for value in pair)
    loss = photometric_loss(np.zeros((2, 1, 1)), it, it1, np.ones((1, 1)))
    assert loss == charbonnier(pair[0] - pair[1])


# -- losses ---------------------------------------------------------------------


def test_photometric_identical_aligned_images():
    rng = np.random.default_rng(2)
    img = rng.random((8, 8))
    loss = photometric_loss(_const_flow(img.shape, 0.0, 0.0), img, img)
    assert loss == pytest.approx(64 * charbonnier(0.0), rel=1e-12)


def test_photometric_exact_alignment_after_shift():
    img = np.random.default_rng(3).random((8, 8))
    shifted = np.empty_like(img)
    shifted[:, 1:] = img[:, :-1]  # shifted(x) = img(x-1): img(x) = shifted(x+1)
    shifted[:, 0] = img[:, 0]
    loss = photometric_loss(_const_flow(img.shape, 1.0, 0.0), img, shifted)
    interior = 8 * 7  # last column warps out of bounds and contributes 0
    assert loss == pytest.approx(interior * charbonnier(0.0), rel=1e-12)


def test_photometric_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    it = rng.random((8, 8))
    it1 = rng.random((8, 8))
    u = rng.normal(0, 0.8, (8, 8))
    v = rng.normal(0, 0.8, (8, 8))
    loss = photometric_loss(np.stack([u, v]), it, it1)

    total = 0.0
    h, w = it.shape
    for y in range(h):
        for x in range(w):
            sx, sy = x + u[y, x], y + v[y, x]
            if not (0 <= sx <= w - 1 and 0 <= sy <= h - 1):
                continue
            x0 = min(int(np.floor(sx)), w - 2)
            y0 = min(int(np.floor(sy)), h - 2)
            fx, fy = sx - x0, sy - y0
            val = (it1[y0, x0] * (1 - fx) * (1 - fy) + it1[y0, x0 + 1] * fx * (1 - fy)
                   + it1[y0 + 1, x0] * (1 - fx) * fy + it1[y0 + 1, x0 + 1] * fx * fy)
            total += float(charbonnier(it[y, x] - val))
    assert loss == pytest.approx(total, rel=1e-9)


def test_smoothness_constant_field():
    F = _const_flow((6, 5), 1.7, -0.3)
    pairs = 6 * 4 + 5 * 5  # horizontal + vertical unordered pairs
    assert smoothness_loss(F) == pytest.approx(pairs * 2 * charbonnier(0.0), rel=1e-12)


def test_smoothness_translation_invariance():
    rng = np.random.default_rng(5)
    F = np.stack([rng.normal(size=(6, 6)), rng.normal(size=(6, 6))])
    shifted = F + 3.7
    assert smoothness_loss(F) == pytest.approx(smoothness_loss(shifted), rel=1e-12)


def test_smoothness_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    u = rng.normal(size=(6, 6))
    v = rng.normal(size=(6, 6))
    total = 0.0
    for chan in (u, v):
        for y in range(6):
            for x in range(6):
                if x + 1 < 6:
                    total += float(charbonnier(chan[y, x] - chan[y, x + 1]))
                if y + 1 < 6:
                    total += float(charbonnier(chan[y, x] - chan[y + 1, x]))
    assert smoothness_loss(np.stack([u, v])) == pytest.approx(total, rel=1e-9)


def test_total_loss_composition():
    rng = np.random.default_rng(7)
    it = rng.random((8, 8))
    it1 = rng.random((8, 8))
    F = np.stack([rng.normal(0, 0.5, (8, 8)), rng.normal(0, 0.5, (8, 8))])
    cfg = FlowSolverConfig(alpha=0.5)
    lp = photometric_loss(F, it, it1, eps=cfg.charbonnier_eps, alpha=cfg.charbonnier_alpha)
    ls = smoothness_loss(F, eps=cfg.charbonnier_eps, alpha=cfg.charbonnier_alpha)
    assert total_loss(F, it, it1, cfg) == pytest.approx(lp + 0.5 * ls, rel=1e-12)
    cfg0 = FlowSolverConfig(alpha=0.0)
    assert total_loss(F, it, it1, cfg0) == pytest.approx(
        photometric_loss(F, it, it1, eps=cfg0.charbonnier_eps, alpha=cfg0.charbonnier_alpha),
        rel=1e-12,
    )


def test_loss_views_equal_kernel_loss_exactly():
    rng = np.random.default_rng(9)
    it = rng.random((8, 8))
    it1 = rng.random((8, 8))
    F = np.stack([rng.normal(0, 1.5, (8, 8)), rng.normal(0, 1.5, (8, 8))])
    w = (rng.random((8, 8)) > 0.4).astype(np.float64)
    cfg = FlowSolverConfig(alpha=0.3)
    photo_cfg = FlowSolverConfig(alpha=0.0)
    for mask in (None, w):
        assert total_loss(F, it, it1, cfg, mask) == _reference_loss_and_grad(
            F[0], F[1], it, it1, cfg, mask, oob_zero=True)[0]
        assert photometric_loss(F, it, it1, mask) == _reference_loss_and_grad(
            F[0], F[1], it, it1, photo_cfg, mask, oob_zero=True)[0]


def test_total_loss_pure_smoothness_when_aligned():
    img = np.random.default_rng(8).random((8, 8))
    cfg = FlowSolverConfig(alpha=0.7)
    F = _const_flow(img.shape, 0.0, 0.0)
    expected = 64 * charbonnier(0.0) + 0.7 * smoothness_loss(F)
    assert total_loss(F, img, img, cfg) == pytest.approx(expected, rel=1e-12)


# -- reference kernel -----------------------------------------------------------
# The objective and its gradient as plain array expressions, every result a
# fresh array and the corners gathered by 2-D indexing.  The flow kernel runs
# the same float operations in the same order in preallocated buffers, so the
# two must agree to the bit.  The photometric sum runs over the pixels of
# nonzero weight in raster order.  Each Charbonnier power is exp(a * log(base)),
# and the slope's base^(a - 1) is that power over the base.


def _reference_power(base, ca):
    return np.exp(ca * np.log(base))


def _reference_slope(x, base, ca):
    return 2.0 * ca * x * (_reference_power(base, ca) / base)


def _reference_loss_and_grad(u, v, it, it1, cfg, weights, oob_zero):
    eps, ca = cfg.charbonnier_eps, cfg.charbonnier_alpha
    h, w = it.shape
    wt = np.ones(it.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    xs = xs + u
    ys = ys + v
    valid = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(xc.astype(np.intp), max(w - 2, 0))
    y0 = np.minimum(yc.astype(np.intp), max(h - 2, 0))
    fx = xc - x0
    fy = yc - y0
    x1 = x0 + (1 if w > 1 else 0)
    y1 = y0 + (1 if h > 1 else 0)
    i00, i01, i10, i11 = it1[y0, x0], it1[y0, x1], it1[y1, x0], it1[y1, x1]
    top = i00 + fx * (i01 - i00)
    bottom = i10 + fx * (i11 - i10)
    ddy = bottom - top
    sampled = top + fy * ddy
    wv = wt * valid if oob_zero else wt
    residual = it - sampled
    base = residual * residual + eps * eps
    loss = float(np.sum((wv * _reference_power(base, ca))[wt != 0]))
    diffs = []
    if cfg.alpha > 0:
        for channel in (u, v):
            dh = channel[:, 1:] - channel[:, :-1]
            dv = channel[1:, :] - channel[:-1, :]
            bh = dh * dh + eps * eps
            bv = dv * dv + eps * eps
            loss += cfg.alpha * float(np.sum(_reference_power(bh, ca))
                                      + np.sum(_reference_power(bv, ca)))
            diffs.append((dh, bh, dv, bv))
    rho_prime = wv * _reference_slope(residual, base, ca)
    gu = -rho_prime * ((1.0 - fy) * (i01 - i00) + fy * (i11 - i10))
    gv = -rho_prime * ddy
    for grad, (dh, bh, dv, bv) in zip((gu, gv), diffs):
        th = cfg.alpha * _reference_slope(dh, bh, ca)
        tv = cfg.alpha * _reference_slope(dv, bv, ca)
        grad[:, 1:] += th
        grad[:, :-1] -= th
        grad[1:, :] += tv
        grad[:-1, :] -= tv
    return loss, gu, gv


KERNEL_WEIGHTINGS = ["none", "binary", "fractional", "single", "border", "row_out",
                     "block_mean"]


def _kernel_weights(kind, shape, rng):
    h, w = shape
    if kind == "none":
        return None
    if kind == "binary":
        return (rng.random(shape) > 0.4).astype(np.float64)
    if kind == "fractional":
        return rng.integers(0, 5, shape) / 4.0
    weights = np.zeros(shape)
    if kind == "single":
        weights[rng.integers(h), rng.integers(w)] = 1.0
    elif kind == "border":
        weights[[0, -1], :] = 1.0
        weights[:, [0, -1]] = 1.0
    elif kind == "row_out":
        weights = (rng.random(shape) > 0.4).astype(np.float64)
        weights[rng.integers(h)] = 0.0
    else:  # the fractional weights a coarse pyramid level gets from a binary mask
        weights = _downsample2((rng.random((2 * h, 2 * w)) > 0.7).astype(np.float64))
    return weights


def _kernel_flows(shape, rng):
    """Flows that sample inside, across the border and far outside the raster,
    on integer and fractional positions."""
    yield np.zeros(shape), np.zeros(shape)
    yield rng.normal(0, 1.5, shape), rng.normal(0, 1.5, shape)
    yield rng.integers(-2, 3, (2, *shape)).astype(np.float64)
    yield rng.normal(0, 0.3, shape) + 0.5, rng.normal(0, 4.0, shape)
    yield np.full(shape, -50.0), np.full(shape, 50.0)


@pytest.mark.parametrize("alpha", [0.5, 0.0])
@pytest.mark.parametrize("weighting", KERNEL_WEIGHTINGS)
@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (2, 2), (3, 5), (24, 32)])
def test_kernel_bit_identical_to_reference(shape, weighting, alpha):
    rng = np.random.default_rng([*shape, KERNEL_WEIGHTINGS.index(weighting)])
    it = rng.random(shape)
    it1 = rng.random(shape)
    weights = _kernel_weights(weighting, shape, rng)
    cfg = FlowSolverConfig(alpha=alpha)
    # one workspace for every flow in turn, with a loss-only evaluation (a
    # rejected candidate) before each one, guards against stale buffers
    ws = _Workspace(shape, it, it1, weights, cfg)
    # the photometric term runs on the pixels of nonzero weight, every pixel
    # under uniform weighting
    assert ws.pixels == (it.size if weights is None else np.count_nonzero(weights))
    flows = list(_kernel_flows(shape, rng))
    for (u, v), (ru, rv) in zip(flows, flows[::-1]):
        for oob_zero in (False, True):
            ws.loss(ru, rv, not oob_zero)
            loss = ws.loss(u, v, oob_zero)
            gu, gv = ws.gradient()
            ref_loss, ref_gu, ref_gv = _reference_loss_and_grad(u, v, it, it1, cfg, weights,
                                                                 oob_zero)
            assert loss == ref_loss
            assert np.array_equal(gu, ref_gu) and np.array_equal(gv, ref_gv)
    # the public entry points build their own workspace
    u, v = flows[1]
    ref_loss, ref_gu, ref_gv = _reference_loss_and_grad(u, v, it, it1, cfg, weights, True)
    assert total_loss(np.stack([u, v]), it, it1, cfg, weights) == ref_loss
    gu, gv = loss_gradient(np.stack([u, v]), it, it1, cfg, weights)
    assert np.array_equal(gu, ref_gu) and np.array_equal(gv, ref_gv)


def test_all_ones_mask_matches_no_mask():
    rng = np.random.default_rng(11)
    it, it1 = rng.random((12, 15)), rng.random((12, 15))
    F = rng.normal(0, 1.5, (2, 12, 15))
    cfg = FlowSolverConfig()
    ones = np.ones(it.shape)
    assert total_loss(F, it, it1, cfg, None) == total_loss(F, it, it1, cfg, ones)
    for a, b in zip(loss_gradient(F, it, it1, cfg, None), loss_gradient(F, it, it1, cfg, ones)):
        assert a.tobytes() == b.tobytes()
    # a gate open at every pixel solves exactly as uniform weighting does
    em = _events_everywhere(it.shape)
    gated, gated_loss = estimate_flow(em, it, it1, FlowSolverConfig(pyramid_levels=2))
    uniform, uniform_loss = estimate_flow(
        None, it, it1, FlowSolverConfig(pyramid_levels=2, event_weighting="uniform"))
    assert gated.u.tobytes() == uniform.u.tobytes() and gated.v.tobytes() == uniform.v.tobytes()
    assert gated_loss == uniform_loss


def test_loss_gradient_results_do_not_alias():
    rng = np.random.default_rng(10)
    it, it1 = rng.random((6, 9)), rng.random((6, 9))
    cfg = FlowSolverConfig()
    first = loss_gradient(rng.normal(size=(2, 6, 9)), it, it1, cfg)
    kept = [g.copy() for g in first]
    second = loss_gradient(rng.normal(size=(2, 6, 9)), it, it1, cfg)
    for a in first:
        for b in second:
            assert not np.shares_memory(a, b)
    assert not np.shares_memory(*first) and not np.shares_memory(*second)
    assert all(np.array_equal(g, k) for g, k in zip(first, kept))


# -- gradient -------------------------------------------------------------------


def _fd_safe_instance(rng, shape=(8, 8)):
    """Random instance whose loss is smooth around the evaluation point."""
    it = rng.random(shape)
    it1 = rng.random(shape)
    fracs = np.linspace(0.15, 0.45, 11)
    u = rng.integers(-2, 3, shape).astype(np.float64) + rng.choice(fracs, shape)
    v = rng.integers(-2, 3, shape).astype(np.float64) + rng.choice(fracs, shape)
    sampled, _ = warp(it1, np.stack([u, v]))
    residual = it - sampled
    it = it + np.where(np.abs(residual) < 8e-3, 0.05, 0.0)
    return it, it1, np.stack([u, v])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    cfg = FlowSolverConfig()
    it, it1, F = _fd_safe_instance(rng)
    gu, gv = loss_gradient(F, it, it1, cfg)
    g = np.stack([gu, gv])
    h = 1e-4
    for c in range(2):
        for i in range(8):
            for j in range(8):
                Fp = F.copy()
                Fp[c, i, j] += h
                Fm = F.copy()
                Fm[c, i, j] -= h
                fd = (total_loss(Fp, it, it1, cfg) - total_loss(Fm, it, it1, cfg)) / (2 * h)
                assert abs(g[c, i, j] - fd) < 1e-3 * (1.0 + abs(g[c, i, j]))


def test_gradient_with_weight_mask_matches_fd():
    rng = np.random.default_rng(100)
    cfg = FlowSolverConfig(charbonnier_eps=0.05)
    it, it1, F = _fd_safe_instance(rng)
    w = (rng.random((8, 8)) > 0.4).astype(np.float64)
    gu, gv = loss_gradient(F, it, it1, cfg, weight_mask=w)
    h = 1e-5
    for c, i, j in [(0, 2, 3), (1, 5, 1), (0, 7, 7), (1, 0, 4)]:
        Fp = F.copy()
        Fp[c, i, j] += h
        Fm = F.copy()
        Fm[c, i, j] -= h
        fd = (total_loss(Fp, it, it1, cfg, weight_mask=w)
              - total_loss(Fm, it, it1, cfg, weight_mask=w)) / (2 * h)
        g = gu if c == 0 else gv
        assert abs(g[i, j] - fd) < 1e-4 * (1.0 + abs(g[i, j]))


def test_gradient_zero_at_constructed_minimum():
    # identical images at zero flow: photometric and smoothness both stationary
    img = np.random.default_rng(101).random((8, 8))
    cfg = FlowSolverConfig()
    gu, gv = loss_gradient(_const_flow(img.shape, 0.0, 0.0), img, img, cfg)
    assert np.abs(gu).max() < 1e-6 and np.abs(gv).max() < 1e-6


def test_gradient_constant_images_reduces_to_smoothness():
    cfg = FlowSolverConfig()
    img = np.full((8, 8), 0.5)
    rng = np.random.default_rng(102)
    F = np.stack([rng.normal(size=(8, 8)), rng.normal(size=(8, 8))])
    gu, gv = loss_gradient(F, img, img, cfg)
    cfg_photo_only = FlowSolverConfig(alpha=0.0)
    gu0, gv0 = loss_gradient(F, img, img, cfg_photo_only)
    # photometric part vanishes (residual 0 -> rho'(0) = 0)
    assert np.abs(gu0).max() < 1e-12 and np.abs(gv0).max() < 1e-12
    ls = lambda f: cfg.alpha * smoothness_loss(
        f, eps=cfg.charbonnier_eps, alpha=cfg.charbonnier_alpha
    )
    h = 1e-6
    Fp = F.copy()
    Fp[0, 3, 3] += h
    Fm = F.copy()
    Fm[0, 3, 3] -= h
    assert gu[3, 3] == pytest.approx((ls(Fp) - ls(Fm)) / (2 * h), rel=1e-4)


# -- estimate_flow ----------------------------------------------------------------


def _events_everywhere(shape):
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    ev = make_events(np.zeros(h * w), xs.ravel(), ys.ravel(), np.ones(h * w, int))
    return accumulate_events(ev, (0.0, 1.0), w, h)


def test_estimate_flow_identical_images_stays_zero():
    rng = np.random.default_rng(103)
    img = rng.random((32, 32))
    em = _events_everywhere(img.shape)
    flow, loss = estimate_flow(em, img, img, FlowSolverConfig(pyramid_levels=3))
    aee = np.hypot(flow.u, flow.v).mean()
    assert aee < 0.05
    assert np.isfinite(loss)


def test_estimate_flow_recovers_known_shift():
    ys, xs = np.mgrid[0:64, 0:64].astype(np.float64)
    period = 24.0
    img0 = 0.5 + 0.3 * np.sin(2 * np.pi * xs / period) * np.sin(2 * np.pi * ys / period)
    img1 = 0.5 + 0.3 * np.sin(2 * np.pi * (xs - 2.0) / period) * np.sin(2 * np.pi * ys / period)
    em = _events_everywhere(img0.shape)
    cfg = FlowSolverConfig(charbonnier_eps=0.1, iters_per_level=600, convergence_tol=0.0)
    flow, _ = estimate_flow(em, img0, img1, cfg)
    ee = np.hypot(flow.u - 2.0, flow.v)
    assert ee.mean() < 0.5


def test_estimate_flow_monotone_loss_per_level(monkeypatch):
    import evreflex.flow as fl

    records = []
    original = fl._Workspace.loss

    def recording(self, u, v, oob_zero=False):
        loss = original(self, u, v, oob_zero)
        if not oob_zero:
            records.append((u.shape, loss))
        return loss

    monkeypatch.setattr(fl._Workspace, "loss", recording)
    rng = np.random.default_rng(104)
    img0 = rng.random((32, 32))
    img1 = np.roll(img0, 1, axis=1)
    em = _events_everywhere(img0.shape)
    fl.estimate_flow(em, img0, img1, FlowSolverConfig(iters_per_level=50))
    # accepted losses per level never increase: group by level shape and check
    # that the minimum so far is the last value seen for each level
    by_level = {}
    for shape, loss in records:
        by_level.setdefault(shape, []).append(loss)
    # every level records its starting loss and at least one candidate
    assert sorted(by_level) == [(4, 4), (8, 8), (16, 16), (32, 32)]
    assert all(len(losses) >= 2 for losses in by_level.values())
    for shape, losses in by_level.items():
        running = np.minimum.accumulate(losses)
        assert losses[-1] == running[-1]


def _reference_descend(u, v, it, it1, weights, cfg):
    """The backtracking loop that finishes a gradient for every candidate.

    Returns (u, v, loss, rejected steps)."""
    loss, gu, gv = _reference_loss_and_grad(u, v, it, it1, cfg, weights, oob_zero=False)
    step = cfg.step_size
    rejected = 0
    for _ in range(cfg.iters_per_level):
        cu = u - step * gu
        cv = v - step * gv
        cand, cgu, cgv = _reference_loss_and_grad(cu, cv, it, it1, cfg, weights, oob_zero=False)
        if cand > loss:
            rejected += 1
            step *= 0.5
            if step < 1e-14:
                break
            continue
        drop = loss - cand
        u, v, loss, gu, gv = cu, cv, cand, cgu, cgv
        if drop <= cfg.convergence_tol * max(abs(loss), 1e-12):
            break
        step *= _STEP_GROWTH
    return u, v, loss, rejected


@pytest.mark.parametrize("weighting", ["uniform", "event_gated", "single_pixel"])
def test_descend_bit_identical_to_full_gradient_loop(weighting):
    rng = np.random.default_rng(105)
    ys, xs = np.mgrid[0:24, 0:32].astype(np.float64)

    def texture(dx, dy):
        x, y = xs - dx, ys - dy
        return (0.5 + 0.2 * np.sin(2 * np.pi * x / 9) * np.cos(2 * np.pi * y / 7)
                + 0.1 * np.sin(2 * np.pi * (x + y) / 5))

    img0 = texture(0.0, 0.0) + 0.02 * rng.random(xs.shape)
    img1 = texture(1.3, -0.7)
    weights = None
    if weighting == "event_gated":
        weights = (np.abs(img1 - img0) > 0.05).astype(np.float64)
    elif weighting == "single_pixel":
        weights = np.zeros(xs.shape)
        weights[11, 17] = 1.0
    cfg = FlowSolverConfig(iters_per_level=60)
    u0 = np.zeros(xs.shape)
    v0 = np.zeros(xs.shape)
    ref_u, ref_v, ref_loss, rejected = _reference_descend(u0, v0, img0, img1, weights, cfg)
    u, v, loss = _descend(u0, v0, _Workspace(img0.shape, img0, img1, weights, cfg), level=0)
    assert rejected >= 1
    assert not u0.any() and not v0.any()  # the caller's flow is not written
    assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
    assert loss == ref_loss


def test_estimate_flow_shift_equivariance():
    ys, xs = np.mgrid[0:48, 0:48].astype(np.float64)
    # periods divide the raster so np.roll produces exact translates
    base = 0.5 + 0.25 * np.sin(2 * np.pi * xs / 16) * np.sin(2 * np.pi * ys / 16) \
        + 0.15 * np.sin(2 * np.pi * xs / 12)
    img0 = base
    img1 = np.roll(base, 2, axis=1)
    em = _events_everywhere(img0.shape)
    cfg = FlowSolverConfig(charbonnier_eps=0.1, iters_per_level=400, convergence_tol=0.0)
    f_a, _ = estimate_flow(em, img0, img1, cfg)
    f_b, _ = estimate_flow(em, np.roll(img0, 3, axis=0), np.roll(img1, 3, axis=0), cfg)
    interior = np.s_[8:-8, 8:-8]
    aligned_u = np.roll(f_a.u, 3, axis=0)
    aligned_v = np.roll(f_a.v, 3, axis=0)
    aee = np.hypot(f_b.u - aligned_u, f_b.v - aligned_v)[interior].mean()
    assert aee < 0.1


def test_estimate_flow_divergence_error_reports_location():
    # finite pixels whose squared residual overflows: the first loss is inf
    img0 = np.full((16, 16), 1e200)
    img1 = -img0
    em = _events_everywhere(img0.shape)
    with pytest.raises(SolverDivergenceError) as err, np.errstate(over="ignore"):
        estimate_flow(em, img0, img1, FlowSolverConfig(pyramid_levels=1))
    assert err.value.level == 0
    assert "level" in str(err.value)


def test_estimate_flow_divergence_at_gated_out_pixels():
    # The images are huge only where the event gate is shut.  Those pixels
    # never reach the objective, so the first loss is finite.  But the four
    # active pixels' footprints reach their huge neighbours in I_t1, so the
    # first gradient is huge, and the first candidate step samples far
    # outside the gate: an active pixel's residual overflows there, and the
    # candidate's loss is inf.
    em = accumulate_events(make_events([0.5] * 4, [3, 4, 3, 4], [5, 5, 6, 6], [1] * 4),
                           (0.0, 1.0), 16, 16)
    gate = event_mask(em)
    img0 = np.where(gate, 0.5, 1e200)
    img1 = np.where(gate, 0.4, -1e200)
    with pytest.raises(SolverDivergenceError) as err, np.errstate(over="ignore"):
        estimate_flow(em, img0, img1, FlowSolverConfig(pyramid_levels=1))
    assert (err.value.level, err.value.iteration, err.value.loss) == (0, 1, np.inf)


@pytest.mark.parametrize("fill", [1e200, -1e200, np.inf, np.nan, 0.0, 0.5])
@pytest.mark.parametrize("alpha", [0.5, 0.0])
def test_zero_weight_pixels_do_not_reach_the_objective(fill, alpha):
    # whatever I_t holds at a pixel of weight 0, the loss and the gradient
    # are those of any other value there, to the bit
    rng = np.random.default_rng(109)
    shape = (16, 16)
    it, it1 = rng.random(shape), rng.random(shape)
    weights = (rng.random(shape) > 0.6).astype(np.float64)
    flow = rng.normal(0, 1.5, (2, *shape))
    cfg = FlowSolverConfig(alpha=alpha)
    filled = np.where(weights == 0, fill, it)
    assert total_loss(flow, filled, it1, cfg, weights) == total_loss(flow, it, it1, cfg, weights)
    for a, b in zip(loss_gradient(flow, filled, it1, cfg, weights),
                    loss_gradient(flow, it, it1, cfg, weights)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0])
@pytest.mark.parametrize("entry", ["total_loss", "loss_gradient", "photometric_loss"])
def test_bad_weight_mask_refused(entry, bad):
    # a NaN or infinite weight made the loss NaN or inf, and a negative one
    # rewarded a larger residual at its pixel
    rng = np.random.default_rng(110)
    it, it1 = rng.random((6, 7)), rng.random((6, 7))
    flow = rng.normal(0, 0.5, (2, 6, 7))
    weights = np.ones((6, 7))
    weights[2, 3] = bad
    cfg = FlowSolverConfig()
    calls = {"total_loss": lambda: total_loss(flow, it, it1, cfg, weights),
             "loss_gradient": lambda: loss_gradient(flow, it, it1, cfg, weights),
             "photometric_loss": lambda: photometric_loss(flow, it, it1, weights)}
    with pytest.raises(ValueError, match="weight_mask"):
        calls[entry]()


def test_estimate_flow_logs_each_level(monkeypatch, caplog):
    import evreflex.flow as fl

    candidates = {}
    original = fl._Workspace.loss

    def counting(self, u, v, oob_zero=False):
        if not oob_zero:
            candidates[u.shape] = candidates.get(u.shape, -1) + 1  # the first is no candidate
        return original(self, u, v, oob_zero)

    monkeypatch.setattr(fl._Workspace, "loss", counting)
    rng = np.random.default_rng(108)
    img0 = rng.random((32, 40))
    img1 = np.roll(img0, 1, axis=1)
    em = accumulate_events(make_events(np.zeros(200), rng.integers(0, 40, 200),
                                       rng.integers(0, 32, 200), np.ones(200, int)),
                           (0.0, 1.0), 40, 32)
    with caplog.at_level(logging.DEBUG, logger="evreflex.flow"):
        fl.estimate_flow(em, img0, img1, FlowSolverConfig(iters_per_level=40, pyramid_levels=3))
    pattern = re.compile(r"level (\d+), (\d+)x(\d+): photometric term on (\d+) of (\d+) pixels; "
                         r"(\d+) iterations, (\d+) accepted, (\d+) rejected; final step (\S+); "
                         r"stopped: (converged|step underflow|iteration cap)$")
    reports = [pattern.match(r.getMessage()) for r in caplog.records if r.name == "evreflex.flow"]
    assert len(reports) == 3 and all(reports)
    assert [int(m[1]) for m in reports] == [2, 1, 0]
    active = np.count_nonzero(event_mask(em))
    for m in reports:
        level, w, h, pixels, total, iterations, accepted, rejected = (int(g) for g in m.groups()[:8])
        assert total == w * h and candidates[(h, w)] == accepted + rejected == iterations
        assert float(m[9]) > 0
        if level == 0:
            assert (w, h) == (40, 32) and pixels == active
    # no record when DEBUG is off
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="evreflex.flow"):
        fl.estimate_flow(em, img0, img1, FlowSolverConfig(iters_per_level=5, pyramid_levels=2))
    assert not caplog.records


def test_estimate_flow_event_gated_requires_map():
    img = np.zeros((16, 16))
    with pytest.raises(ValueError):
        estimate_flow(None, img, img, FlowSolverConfig(event_weighting="event_gated"))
    flow, _ = estimate_flow(None, img, img, FlowSolverConfig(event_weighting="uniform"))
    assert flow.u.shape == (16, 16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["img_t", "img_t1"])
def test_estimate_flow_refuses_non_finite_pixels(which, bad):
    rng = np.random.default_rng(106)
    images = {"img_t": rng.random((16, 16)), "img_t1": rng.random((16, 16))}
    images[which][5, 7] = bad
    em = _events_everywhere((16, 16))
    with pytest.raises(ValueError, match=f"^{which} "):
        estimate_flow(em, images["img_t"], images["img_t1"])


def test_estimate_flow_event_gated_refuses_map_without_events():
    rng = np.random.default_rng(107)
    img0, img1 = rng.random((16, 16)), rng.random((16, 16))
    empty = accumulate_events(make_events([], [], [], []), (0.0, 1.0), 16, 16)
    with pytest.raises(ValueError, match="active pixel"):
        estimate_flow(empty, img0, img1)
    # uniform weighting does not read the map
    flow, loss = estimate_flow(empty, img0, img1, FlowSolverConfig(event_weighting="uniform"))
    assert np.isfinite(loss)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        FlowSolverConfig(alpha=-1)
    with pytest.raises(ValueError):
        FlowSolverConfig(pyramid_levels=0)
    with pytest.raises(ValueError):
        FlowSolverConfig(step_size=0)
    with pytest.raises(ValueError):
        FlowSolverConfig(event_weighting="sometimes")
    with pytest.raises(ValueError, match="iters_per_level"):
        FlowSolverConfig(iters_per_level=0)
    with pytest.raises(ValueError, match="charbonnier_eps"):
        FlowSolverConfig(charbonnier_eps=-1)
    with pytest.raises(ValueError):
        FlowSolverConfig(iters_per_level=0, charbonnier_eps=-1)
    with pytest.raises(ValueError, match="charbonnier_alpha"):
        FlowSolverConfig(charbonnier_alpha=1.0)
    with pytest.raises(ValueError, match="convergence_tol"):
        FlowSolverConfig(convergence_tol=-1e-9)


def test_solver_config_refuses_nan_step_size():
    # a NaN step once made estimate_flow loop without end
    with pytest.raises(ValueError, match="step_size"):
        FlowSolverConfig(step_size=float("nan"))


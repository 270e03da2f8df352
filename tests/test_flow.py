import dataclasses
import logging
import os
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from evreflex import flow as fl
from evreflex.flow import (
    FlowSolverConfig,
    SolverDivergenceError,
    charbonnier,
    estimate_flow,
    total_loss,
    warp,
    _OMEGA,
    _THREADED_CELLS,
    _Level,
    _charbonnier_power,
    _downsample2,
    _half_sweep,
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


def _photometric(flow, it, it1, weights=None):
    """The photometric term alone: the objective at alpha = 0."""
    return total_loss(flow, it, it1, FlowSolverConfig(alpha=0.0), weights)


def _smoothness(flow):
    """The smoothness sum alone: the objective at alpha = 1 with every weight 0."""
    zero = np.zeros(np.shape(flow)[1:])
    return total_loss(flow, zero, zero, FlowSolverConfig(alpha=1.0), zero)


def _frozen_terms(flow, it, it1, cfg, weights=None):
    """What a solve reads of the objective at flow: a fresh level's loss
    there, then its linearisation with I_t1's np.gradient derivatives; the
    data term's five arrays, then each flow channel's edge weights."""
    level = _Level(it, it1, fl._weights(it.shape, weights), cfg)
    level.uv[...] = flow
    level.loss(*level.uv)
    data, edges = level._linearise()
    return [*data, *(edge for channel in edges for edge in channel)]


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
    # class labels do not interpolate, whether or not the flow is whole pixels
    labels = FloatMap(np.arange(16.0).reshape(4, 4), MapSemantics.CLASS_ID)
    for du in (0.5, 1.0):
        with pytest.raises(ValueError, match="CLASS_ID"):
            warp(labels, _const_flow((4, 4), du, 0.0))


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
    for call in (lambda: warp(img, flow), lambda: total_loss(flow, img, img, FlowSolverConfig())):
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
    for name, bad in (("eps", 0.0), ("eps", -1e-3), ("eps", np.nan),
                      ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5)):
        with pytest.raises(ValueError, match=name):
            charbonnier(0.0, **{name: bad})


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


@pytest.mark.parametrize("pair", [(0.25, 0.75), (0.9, 0.1), (0.5, 0.5), (0.3, 0.300001)])
def test_photometric_loss_of_one_pixel_is_charbonnier(pair):
    # the public penalty and the kernel take the same power, so on a 1x1
    # pair with weight 1 the loss is the penalty of the residual to the bit
    it, it1 = (np.full((1, 1), value) for value in pair)
    loss = _photometric(np.zeros((2, 1, 1)), it, it1, np.ones((1, 1)))
    assert loss == charbonnier(pair[0] - pair[1])


# -- losses ---------------------------------------------------------------------


def test_photometric_identical_aligned_images():
    rng = np.random.default_rng(2)
    img = rng.random((8, 8))
    loss = _photometric(_const_flow(img.shape, 0.0, 0.0), img, img)
    assert loss == pytest.approx(64 * charbonnier(0.0), rel=1e-12)


def test_photometric_exact_alignment_after_shift():
    img = np.random.default_rng(3).random((8, 8))
    shifted = np.empty_like(img)
    shifted[:, 1:] = img[:, :-1]  # shifted(x) = img(x-1): img(x) = shifted(x+1)
    shifted[:, 0] = img[:, 0]
    loss = _photometric(_const_flow(img.shape, 1.0, 0.0), img, shifted)
    interior = 8 * 7
    # the last column samples at x = 8, which clamps to shifted[:, 7] = img[:, 6]
    edge = np.sum(charbonnier(img[:, 7] - img[:, 6]))
    assert loss == pytest.approx(interior * charbonnier(0.0) + edge, rel=1e-12)


def test_photometric_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    it = rng.random((8, 8))
    it1 = rng.random((8, 8))
    u = rng.normal(0, 0.8, (8, 8))
    v = rng.normal(0, 0.8, (8, 8))
    loss = _photometric(np.stack([u, v]), it, it1)

    total = 0.0
    h, w = it.shape
    for y in range(h):
        for x in range(w):
            # a sample outside the raster reads it1 at the clamped position
            sx = min(max(x + u[y, x], 0.0), w - 1.0)
            sy = min(max(y + v[y, x], 0.0), h - 1.0)
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
    assert _smoothness(F) == pytest.approx(pairs * 2 * charbonnier(0.0), rel=1e-12)


def test_smoothness_translation_invariance():
    rng = np.random.default_rng(5)
    F = np.stack([rng.normal(size=(6, 6)), rng.normal(size=(6, 6))])
    shifted = F + 3.7
    assert _smoothness(F) == pytest.approx(_smoothness(shifted), rel=1e-12)


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
    assert _smoothness(np.stack([u, v])) == pytest.approx(total, rel=1e-9)


def test_total_loss_composition():
    rng = np.random.default_rng(7)
    it = rng.random((8, 8))
    it1 = rng.random((8, 8))
    F = np.stack([rng.normal(0, 0.5, (8, 8)), rng.normal(0, 0.5, (8, 8))])
    w = (rng.random((8, 8)) > 0.4).astype(np.float64)
    cfg = FlowSolverConfig(alpha=0.5)
    ls = _smoothness(F)
    for mask in (None, w):
        lp = _photometric(F, it, it1, mask)
        assert total_loss(F, it, it1, cfg, mask) == pytest.approx(lp + 0.5 * ls, rel=1e-12)


def test_loss_views_equal_kernel_loss_exactly():
    rng = np.random.default_rng(9)
    it = rng.random((8, 8))
    it1 = rng.random((8, 8))
    F = np.stack([rng.normal(0, 1.5, (8, 8)), rng.normal(0, 1.5, (8, 8))])
    w = (rng.random((8, 8)) > 0.4).astype(np.float64)
    for cfg in (FlowSolverConfig(alpha=0.3), FlowSolverConfig(alpha=0.0)):
        for mask in (None, w):
            assert total_loss(F, it, it1, cfg, mask) == _reference_loss(
                F[0], F[1], it, it1, cfg, mask)


def test_total_loss_pure_smoothness_when_aligned():
    img = np.random.default_rng(8).random((8, 8))
    cfg = FlowSolverConfig(alpha=0.7)
    F = _const_flow(img.shape, 0.0, 0.0)
    expected = 64 * charbonnier(0.0) + 0.7 * _smoothness(F)
    assert total_loss(F, img, img, cfg) == pytest.approx(expected, rel=1e-12)


# -- reference kernel -----------------------------------------------------------
# The objective as plain array expressions on the whole raster, the corners
# gathered by 2-D indexing.  The flow kernel runs the same float operations in
# the same order on 1-D arrays of the pixels of nonzero weight, so the two must
# agree to the bit.  The photometric sum runs over those pixels in raster
# order, a sample outside the raster reading it1 at its clamped position.
# Each Charbonnier power is exp(a * log(base)).


def _reference_power(base, ca):
    return np.exp(ca * np.log(base))


def _reference_loss(u, v, it, it1, cfg, weights):
    eps, ca = cfg.charbonnier_eps, cfg.charbonnier_alpha
    h, w = it.shape
    wt = np.ones(it.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    xs = xs + u
    ys = ys + v
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
    residual = it - sampled
    base = residual * residual + eps * eps
    loss = float(np.sum((wt * _reference_power(base, ca))[wt != 0]))
    if cfg.alpha > 0:
        for channel in (u, v):
            dh = channel[:, 1:] - channel[:, :-1]
            dv = channel[1:, :] - channel[:-1, :]
            loss += cfg.alpha * float(np.sum(_reference_power(dh * dh + eps * eps, ca))
                                      + np.sum(_reference_power(dv * dv + eps * eps, ca)))
    return loss


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
    # one level for every flow in turn, each after a loss at another flow,
    # guards against terms kept from an earlier evaluation
    level = _Level(it, it1, fl._weights(shape, weights), cfg)
    # the photometric term runs on the pixels of nonzero weight, every pixel
    # under uniform weighting
    assert level.pixels == (it.size if weights is None else np.count_nonzero(weights))
    flows = list(_kernel_flows(shape, rng))
    for (u, v), (ru, rv) in zip(flows, flows[::-1]):
        level.loss(ru, rv)
        assert level.loss(u, v) == _reference_loss(u, v, it, it1, cfg, weights)
    # total_loss builds its own level
    u, v = flows[1]
    ref_loss = _reference_loss(u, v, it, it1, cfg, weights)
    assert total_loss(np.stack([u, v]), it, it1, cfg, weights) == ref_loss


def test_all_ones_mask_matches_no_mask():
    rng = np.random.default_rng(11)
    it, it1 = rng.random((12, 15)), rng.random((12, 15))
    F = rng.normal(0, 1.5, (2, 12, 15))
    cfg = FlowSolverConfig()
    ones = np.ones(it.shape)
    assert total_loss(F, it, it1, cfg, None) == total_loss(F, it, it1, cfg, ones)
    for a, b in zip(_frozen_terms(F, it, it1, cfg, None), _frozen_terms(F, it, it1, cfg, ones),
                    strict=True):
        assert a.tobytes() == b.tobytes()
    # a gate open at every pixel solves exactly as no event map does
    em = _events_everywhere(it.shape)
    gated, gated_loss = estimate_flow(em, it, it1, FlowSolverConfig(pyramid_levels=2))
    uniform, uniform_loss = estimate_flow(None, it, it1, FlowSolverConfig(pyramid_levels=2))
    assert gated.u.tobytes() == uniform.u.tobytes() and gated.v.tobytes() == uniform.v.tobytes()
    assert gated_loss == uniform_loss


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
    flow, _ = estimate_flow(em, img0, img1, FlowSolverConfig(charbonnier_eps=0.1))
    ee = np.hypot(flow.u - 2.0, flow.v)
    assert ee.mean() < 0.5


def _level_records(caplog):
    """The DEBUG records of estimate_flow's levels, in order, as their fields
    (level, w, h, pixels, warps, halvings, losses at the start and after each
    warp)."""
    return [(r.level, r.width, r.height, r.pixels, r.warps, r.halvings, r.losses)
            for r in caplog.records if r.name == "evreflex.flow"]


def _shifted_texture(shape, dx, dy, seed):
    """A smooth texture with a little seeded noise, and its shift by (dx, dy)."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:shape[0], 0:shape[1]].astype(np.float64)

    def texture(sx, sy):
        x, y = xs - sx, ys - sy
        return (0.5 + 0.2 * np.sin(2 * np.pi * x / 9) * np.cos(2 * np.pi * y / 7)
                + 0.1 * np.sin(2 * np.pi * (x + y) / 5))

    return texture(0.0, 0.0) + 0.02 * rng.random(shape), texture(dx, dy)


def _rolled(shape, shift, seed):
    img0 = np.random.default_rng(seed).random(shape)
    return img0, np.roll(img0, shift, axis=(0, 1))


# Images and settings on which level 0's warps lower the objective with no
# halving, after one halving, and in no halving at all (its second warp then
# keeps the flow it started from).
_SAFEGUARD_CASES = {
    "no halving": (lambda: _shifted_texture((24, 32), 2.6, -1.1, seed=105),
                   {"pyramid_levels": 3}, 0),
    "one halving": (lambda: _rolled((24, 32), (1, 3), seed=25),
                    {"pyramid_levels": 3, "charbonnier_eps": 0.1}, 1),
    "no halving helps": (lambda: _shifted_texture((24, 32), 3.2, 2.1, seed=105),
                         {"pyramid_levels": 2, "charbonnier_eps": 0.1}, 10),
}


def test_estimate_flow_monotone_loss_per_level(monkeypatch, caplog):
    # The linearised data term reads np.gradient's derivatives, not the
    # objective's, so a warp's update can raise the objective; the safeguard
    # halves it until it does not, at most _HALVINGS times, and otherwise
    # keeps the warp's first flow.  So within a level no warp ends above the
    # one before.
    evaluated = []
    original = fl._Level.loss

    def recording(self, u, v):
        evaluated.append(original(self, u, v))
        return evaluated[-1]

    monkeypatch.setattr(fl._Level, "loss", recording)
    for images, settings, halved in _SAFEGUARD_CASES.values():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="evreflex.flow"):
            _, loss = fl.estimate_flow(None, *images(), FlowSolverConfig(**settings))
        records = _level_records(caplog)
        assert [r[0] for r in records] == list(range(settings["pyramid_levels"] - 1, -1, -1))
        for *_, warps, halvings, losses in records:
            assert len(losses) == warps + 1 == fl._WARPS + 1
            assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))
            assert set(losses) <= set(evaluated)
        *_, halvings, losses = records[-1]
        assert halvings == halved and loss == losses[-1]
        if halved == fl._HALVINGS:
            assert losses[-1] == losses[-2]


def test_estimate_flow_reports_the_objective_it_minimised(monkeypatch):
    # the returned loss is level 0's: total_loss at the float64 flow the
    # solve ended on, under the event gate's weights
    ended = []
    original = fl._Level.solve

    def solve(self):
        loss = original(self)
        ended.append((self.uv.copy(), loss))
        return loss

    monkeypatch.setattr(fl._Level, "solve", solve)
    rng = np.random.default_rng(112)
    img0 = rng.random((24, 30))
    img1 = np.roll(img0, 1, axis=1)
    em = accumulate_events(make_events(np.zeros(150), rng.integers(0, 30, 150),
                                       rng.integers(0, 24, 150), np.ones(150, int)),
                           (0.0, 1.0), 30, 24)
    cfg = FlowSolverConfig(pyramid_levels=2)
    flow, loss = fl.estimate_flow(em, img0, img1, cfg)
    uv, level0_loss = ended[-1]
    assert len(ended) == 2 and uv.shape == (2, 24, 30)
    assert loss == level0_loss
    assert loss == total_loss(uv, img0, img1, cfg, event_mask(em).astype(np.float64))
    assert np.array_equal(flow.u, uv[0].astype(np.float32))


def _reference_system(u, v, it, it1, weights, cfg):
    """One warp's frozen system at the flow (u, v), from the public sampler and
    plain expressions: the data term's block j11, j12, j22 and constant terms
    cu, cv per pixel, and per flow channel the weights of each pixel's edges
    to the right and below (0 past the raster).  Pixel p's equations are
    (j11 + S_u) u_p + j12 v_p = cu + sum of w * u over its neighbours, and
    j12 u_p + (j22 + S_v) v_p = cv + the same for v, S the summed weights."""
    eps2, ca = cfg.charbonnier_eps ** 2, cfg.charbonnier_alpha
    flow = np.stack([u, v])
    wt = np.ones(it.shape) if weights is None else weights
    gy, gx = np.gradient(it1)
    sampled, sx, sy = (warp(r, flow)[0] for r in (it1, gx, gy))
    r = it - sampled
    psi = wt * (r * r + eps2) ** (ca - 1.0)
    q = r + sx * u + sy * v
    right, down = np.zeros((2, *it.shape)), np.zeros((2, *it.shape))
    for c, channel in enumerate((u, v)):
        right[c, :, :-1] = cfg.alpha * (np.diff(channel, axis=1) ** 2 + eps2) ** (ca - 1.0)
        down[c, :-1, :] = cfg.alpha * (np.diff(channel, axis=0) ** 2 + eps2) ** (ca - 1.0)
    return psi * sx * sx, psi * sx * sy, psi * sy * sy, psi * sx * q, psi * sy * q, right, down


def _neighbour_sums(flow, right, down, y, x):
    """Per flow channel, pixel (y, x)'s summed edge weights and weighted
    neighbour flows."""
    h, w = flow.shape[1:]
    weights, sums = np.zeros(2), np.zeros(2)
    for c in range(2):
        for yy, xx, weight in ((y, x + 1, right[c, y, x]), (y + 1, x, down[c, y, x]),
                               (y, x - 1, right[c, y, x - 1] if x else 0.0),
                               (y - 1, x, down[c, y - 1, x] if y else 0.0)):
            if 0 <= yy < h and 0 <= xx < w:
                weights[c] += weight
                sums[c] += weight * flow[c, yy, xx]
    return weights, sums


def _reference_sor(flow, system, sweeps):
    """Red-black SOR on the system, pixel by pixel: the red pixels (x + y even)
    in raster order, then the black ones, each pixel's (u, v) moved _OMEGA of
    the way to its 2x2 block's solution."""
    j11, j12, j22, cu, cv, right, down = system
    flow = flow.copy()
    h, w = flow.shape[1:]
    for _ in range(sweeps):
        for colour in (0, 1):
            for y in range(h):
                for x in range(w):
                    if (x + y) % 2 != colour:
                        continue
                    weights, sums = _neighbour_sums(flow, right, down, y, x)
                    block = [[j11[y, x] + weights[0], j12[y, x]],
                             [j12[y, x], j22[y, x] + weights[1]]]
                    solution = np.linalg.solve(block, [cu[y, x] + sums[0], cv[y, x] + sums[1]])
                    flow[:, y, x] += _OMEGA * (solution - flow[:, y, x])
    return flow


def _frozen_level(shape, weighting, seed):
    """A level frozen at a random flow, and what built it."""
    rng = np.random.default_rng(seed)
    it, it1 = _shifted_texture(shape, 0.8, -0.4, seed)
    weights = None
    if weighting == "event_gated":
        weights = (rng.random(shape) > 0.5).astype(np.float64)
    elif weighting == "single_pixel":
        weights = np.zeros(shape)
        weights[3, 4] = 1.0
    cfg = FlowSolverConfig()
    flow = rng.normal(0.0, 0.5, (2, *shape))
    level = _Level(it, it1, fl._weights(shape, weights), cfg)
    level.uv[...] = flow
    level.loss(*level.uv)
    assert level.freeze()
    return level, flow, _reference_system(*flow, it, it1, weights, cfg)


def _allow_two_cpus(monkeypatch):
    """Let the solve see two CPUs: the process's own mask where it has two
    or more, else a fake mask of its one CPU and CPU 65536, which no host
    has.  Either way a worker's placement and the restore of its caller's
    mask act on the real mask: with the fake, the system refuses to place
    the worker, the two threads share the one CPU, and a process pinned to
    one CPU of a larger host (taskset -c 0) stays there."""
    if not fl._two_cpus():
        cpus = {*(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}), 1 << 16}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _sweep_threads(monkeypatch, threads):
    """Send every level's sweeps down the serial path (threads 1) or the
    two-thread path (threads 2), whatever its size and the host's CPUs.
    Returns the set that collects the idents of the threads that sweep."""
    monkeypatch.setattr(fl, "_THREADED_CELLS", 0 if threads == 2 else 10 ** 12)
    _allow_two_cpus(monkeypatch)
    seen = set()

    def recording(*args):
        seen.add(threading.get_ident())
        _half_sweep(*args)

    monkeypatch.setattr(fl, "_half_sweep", recording)
    return seen


def _in_a_paired_solve(level, stage):
    """stage(level) with the level's worker open, as a solve holds it."""
    with level._paired():
        return stage(level)


def _swept(monkeypatch, shape, weighting, seed, sweeps):
    """The level _frozen_level builds after sweeps sweeps, and what built it,
    swept on one thread and, from the same start, on two: the two flows
    agree to the bit."""
    flows = []
    for threads in (1, 2):
        level, flow, system = _frozen_level(shape, weighting, seed)
        seen = _sweep_threads(monkeypatch, threads)
        _in_a_paired_solve(level, lambda level: level.sweeps(sweeps))
        assert len(seen) == threads
        flows.append(level.uv)
    assert np.array_equal(*flows)
    return level, flow, system


# The sweeps run on a float32 system (fl._SWEEP_DTYPE).  The oracle tests
# patch it to float64, where the kernel's algebra matches the reference to
# 1e-12.  The sweep and the converged system also have float32 twins, each
# bounded by a few float32 epsilons of the reference's scale.
_EPS32 = float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("weighting", ["uniform", "event_gated", "single_pixel"])
def test_red_black_sweep_equals_double_loop_sor(weighting, monkeypatch):
    monkeypatch.setattr(fl, "_SWEEP_DTYPE", np.float64)
    # odd sides leave cells past the raster in two of the four parity classes
    level, flow, system = _swept(monkeypatch, (7, 9), weighting, 120, 3)
    # the kernel applies each block's inverse, the reference solves each block
    np.testing.assert_allclose(level.uv, _reference_sor(flow, system, 3), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("weighting", ["uniform", "event_gated", "single_pixel"])
def test_float32_red_black_sweep_is_double_loop_sor_to_rounding(weighting, monkeypatch):
    # the flow (|reference| <= 1.04) read at most 8.7 eps * |reference| off
    level, flow, system = _swept(monkeypatch, (7, 9), weighting, 120, 3)
    expected = _reference_sor(flow, system, 3)
    assert np.abs(level.uv - expected).max() <= 32 * _EPS32 * np.abs(expected).max()


def _equation_residuals(uv, system):
    """Each pixel's two equations at the flow uv: their residuals, and the
    largest magnitude among the four terms of each."""
    j11, j12, j22, cu, cv, right, down = system
    u, v = uv
    residuals, scales = [], []
    for y in range(uv.shape[1]):
        for x in range(uv.shape[2]):
            weights, sums = _neighbour_sums(uv, right, down, y, x)
            for terms in (((j11[y, x] + weights[0]) * u[y, x], j12[y, x] * v[y, x],
                           -cu[y, x], -sums[0]),
                          (j12[y, x] * u[y, x], (j22[y, x] + weights[1]) * v[y, x],
                           -cv[y, x], -sums[1])):
                residuals.append(abs(sum(terms)))
                scales.append(max(map(abs, terms)))
    return np.array(residuals), np.array(scales)


def test_converged_freeze_satisfies_every_pixels_system(monkeypatch):
    monkeypatch.setattr(fl, "_SWEEP_DTYPE", np.float64)
    level, _, system = _swept(monkeypatch, (12, 15), "event_gated", 121, 400)
    residuals, _ = _equation_residuals(level.uv, system)
    assert residuals.max() < 1e-10


def test_converged_float32_freeze_satisfies_every_pixels_system_to_rounding(monkeypatch):
    # the residuals read at most 0.67 eps of the largest term, 42.1 here
    level, _, system = _swept(monkeypatch, (12, 15), "event_gated", 121, 400)
    residuals, scales = _equation_residuals(level.uv, system)
    assert residuals.max() <= 8 * _EPS32 * scales.max()


def test_two_thread_sweeps_give_the_one_cpu_flow_to_the_bit(monkeypatch):
    # 260x346 has 132x175 = 23,100-cell class grids at level 0, above the
    # threshold, so that level takes two threads when two CPUs are allowed
    assert 132 * 175 >= _THREADED_CELLS
    img0, img1 = _shifted_texture((260, 346), 1.3, -0.7, seed=125)
    seen = _sweep_threads(monkeypatch, 1)
    monkeypatch.setattr(fl, "_THREADED_CELLS", _THREADED_CELLS)
    results = {}
    for cpus in (2, 1):
        if cpus == 1:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        seen.clear()
        results[cpus] = estimate_flow(None, img0, img1)
        assert len(seen) == cpus
    (serial, serial_loss), (paired, paired_loss) = results[1], results[2]
    assert np.array_equal(serial.u, paired.u) and np.array_equal(serial.v, paired.v)
    assert serial_loss == paired_loss


def test_two_thread_sweeps_under_contention_give_the_serial_flow(monkeypatch):
    # two levels swept and two whole solves at once, eight threads on the
    # host's cores, switching often: a half-sweep, loss or freeze stage that
    # started before the other thread ended the last one would move the flow
    level = _frozen_level((40, 50), "event_gated", seed=130)[0]
    level.sweeps(20)  # serial: its class grids hold 594 cells
    img0, img1 = _shifted_texture((40, 50), 1.3, -0.7, seed=134)
    serial, serial_loss = estimate_flow(None, img0, img1)
    _sweep_threads(monkeypatch, 2)
    levels = [_frozen_level((40, 50), "event_gated", seed=130)[0] for _ in range(2)]
    solved = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=_in_a_paired_solve,
                                    args=(other, lambda level: level.sweeps(20)), daemon=True)
                   for other in levels]
        callers += [threading.Thread(target=lambda: solved.append(estimate_flow(None, img0, img1)),
                                     daemon=True) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for other in levels:
        assert np.array_equal(other.uv, level.uv)
    assert len(solved) == 2
    for flow, loss in solved:
        assert np.array_equal(flow.u, serial.u) and np.array_equal(flow.v, serial.v)
        assert loss == serial_loss


class _HalfFailure(Exception):
    pass


def _on_a_thread(call):
    """call() on a thread of its own, so that a sweep that never ends fails
    the test in place of hanging it; returns what call raised, or None."""
    raised = []

    def run():
        try:
            call()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(60.0)
    assert not thread.is_alive()
    return raised[0] if raised else None


def _in_the_worker() -> bool:
    return threading.current_thread().name == "evreflex-sweep"


@pytest.mark.parametrize("side", ["worker", "caller"])
def test_a_failed_half_sweep_raises_in_the_caller_and_joins_the_worker(side, monkeypatch):
    monkeypatch.setattr(fl, "_SWEEP_DTYPE", np.float64)
    level, flow, system = _frozen_level((7, 9), "uniform", seed=126)
    seen = _sweep_threads(monkeypatch, 2)
    recording = fl._half_sweep

    def failing(*args):
        if _in_the_worker() == (side == "worker"):
            raise _HalfFailure(side)
        recording(*args)

    monkeypatch.setattr(fl, "_half_sweep", failing)
    threads = threading.active_count()
    raised = _on_a_thread(lambda: _in_a_paired_solve(level, lambda level: level.sweeps(3)))
    assert isinstance(raised, _HalfFailure) and raised.args == (side,)
    assert threading.active_count() == threads
    # the next solve of the level runs both threads from its flow
    monkeypatch.setattr(fl, "_half_sweep", recording)
    seen.clear()
    assert _on_a_thread(lambda: _in_a_paired_solve(level, lambda level: level.sweeps(3))) is None
    assert len(seen) == 2 and threading.active_count() == threads
    np.testing.assert_allclose(level.uv, _reference_sor(flow, system, 3), rtol=1e-12, atol=1e-12)


def _no_worker_alive() -> bool:
    return not any(thread.name == "evreflex-sweep" for thread in threading.enumerate())


# Each stage of a level that a worker shares: a function that the worker's
# half calls, the stage on a frozen level, and how often the worker calls
# that function in it.
_WORKER_STAGES = {
    "sweeps": ("_half_sweep", lambda level: level.sweeps(1), 2),
    "loss": ("_edge_powers", lambda level: level.loss(*level.uv), 1),
    "freeze (sample)": ("_interpolate", lambda level: level.freeze(), 1),
}


def test_a_levels_freeze_and_sweeps_outside_a_solve_open_no_worker(monkeypatch):
    # only a solve opens a level's worker: its freeze and sweeps, called
    # alone on a level that a solve would pair, run both halves here
    seen = _sweep_threads(monkeypatch, 2)
    counts = set()
    for name in ("_interpolate", "_half_sweep"):
        original = getattr(fl, name)

        def recording(*args, original=original):
            seen.add(threading.get_ident())
            counts.add(threading.active_count())
            return original(*args)

        monkeypatch.setattr(fl, name, recording)
    threads = threading.active_count()
    level = _frozen_level((7, 9), "uniform", seed=137)[0]  # its loss and freeze
    assert level.flow.shape[-1] >= fl._THREADED_CELLS
    level.sweeps(2)
    assert seen == {threading.get_ident()} and counts == {threads}
    assert threading.active_count() == threads and level.worker is None


@pytest.mark.parametrize("over", ["raise", "ignore", "warn"])
def test_the_worker_runs_under_the_callers_numpy_error_state(over, monkeypatch):
    # numpy's error state is per thread: a worker on numpy's defaults would
    # warn under the caller's "raise" and "ignore" alike
    _sweep_threads(monkeypatch, 2)
    for stage, (name, run, calls) in _WORKER_STAGES.items():
        level = _frozen_level((7, 9), "uniform", seed=127)[0]
        original = getattr(fl, name)

        def overflowing(*args, original=original):
            if _in_the_worker():
                np.multiply(np.full(2, 1e300), 1e300)
            return original(*args)

        def call(run=run, level=level):
            with np.errstate(over=over):
                _in_a_paired_solve(level, run)

        monkeypatch.setattr(fl, name, overflowing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            raised = _on_a_thread(call)
        monkeypatch.setattr(fl, name, original)
        assert isinstance(raised, FloatingPointError) == (over == "raise"), stage
        overflows = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(overflows) == (calls if over == "warn" else 0), stage
        assert _no_worker_alive()


@pytest.mark.parametrize("side", ["worker", "caller"])
@pytest.mark.parametrize("stage", ["loss", "freeze (sample)"])
def test_a_failed_loss_or_freeze_half_raises_in_the_caller_and_joins_the_worker(
        stage, side, monkeypatch):
    name, run, _ = _WORKER_STAGES[stage]
    level = _frozen_level((7, 9), "uniform", seed=135)[0]
    _sweep_threads(monkeypatch, 2)
    original = getattr(fl, name)

    def failing(*args):
        if _in_the_worker() == (side == "worker"):
            raise _HalfFailure(side)
        return original(*args)

    level.loss(*level.uv)  # a freeze's terms, on this thread
    monkeypatch.setattr(fl, name, failing)
    masks = []

    def call():
        masks.append(os.sched_getaffinity(0))
        try:
            _in_a_paired_solve(level, run)
        finally:
            masks.append(os.sched_getaffinity(0))

    raised = _on_a_thread(call)
    assert isinstance(raised, _HalfFailure) and raised.args == (side,)
    assert _no_worker_alive() and level.worker is None
    # the caller's CPU mask is given back although a half raised
    assert len(masks) == 2 and len(masks[0]) >= 2 and masks[0] == masks[1]
    # the next solve of the level runs from its flow
    monkeypatch.setattr(fl, name, original)
    assert _on_a_thread(level.solve) is None
    assert _no_worker_alive()


_TWO_CPUS = pytest.mark.skipif(not fl._two_cpus(), reason="the process may use one CPU")


@_TWO_CPUS
def test_a_paired_solves_halves_run_on_different_cpus(monkeypatch):
    _sweep_threads(monkeypatch, 2)
    cpus = {True: set(), False: set()}  # by whether the worker ran it
    for name in ("_half_sweep", "_edge_powers"):  # the sweeps' and the loss's halves
        original = getattr(fl, name)

        def recording(*args, original=original):
            cpus[_in_the_worker()].add(fl._cpu())
            return original(*args)

        monkeypatch.setattr(fl, name, recording)
    img0, img1 = _shifted_texture((24, 32), 1.3, -0.7, seed=138)
    # one level, so one worker and one placement for the whole solve
    assert _on_a_thread(lambda: estimate_flow(None, img0, img1,
                                              FlowSolverConfig(pyramid_levels=1))) is None
    assert len(cpus[False]) == 1 and cpus[True] and not cpus[True] & cpus[False]


@_TWO_CPUS
def test_a_solve_gives_its_caller_its_cpu_mask_back(monkeypatch):
    # pinned to the CPU it is on while the finest level's worker is open
    monkeypatch.setattr(fl, "_THREADED_CELLS", 0)
    original, masks, ends = fl._edge_powers, [], []

    def recording(*args):
        if not _in_the_worker():
            masks.append(os.sched_getaffinity(0))
        return original(*args)

    monkeypatch.setattr(fl, "_edge_powers", recording)
    img0, img1 = _shifted_texture((24, 32), 1.3, -0.7, seed=139)

    def call():
        ends.append(os.sched_getaffinity(0))
        estimate_flow(None, img0, img1)
        ends.append(os.sched_getaffinity(0))

    assert _on_a_thread(call) is None
    before, after = ends
    assert len(before) >= 2 and after == before
    assert masks and all(len(mask) == 1 for mask in masks)


def test_a_refused_placement_gives_the_one_cpu_flow_to_the_bit(monkeypatch):
    img0, img1 = _shifted_texture((24, 32), 1.3, -0.7, seed=140)
    cfg = FlowSolverConfig(pyramid_levels=1)  # one worker
    seen = _sweep_threads(monkeypatch, 1)
    serial, serial_loss = estimate_flow(None, img0, img1, cfg)
    assert len(seen) == 1
    refused = []

    def refuse(pid, cpus):
        refused.append(set(cpus))
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    seen = _sweep_threads(monkeypatch, 2)
    paired, paired_loss = estimate_flow(None, img0, img1, cfg)
    assert len(seen) == 2 and _no_worker_alive()
    # the caller and the worker tried to place themselves, and the caller
    # to take its mask back
    assert len(refused) == 3
    assert np.array_equal(serial.u, paired.u) and np.array_equal(serial.v, paired.v)
    assert serial_loss == paired_loss


@pytest.mark.parametrize("alpha", [0.5, 0.0])
@pytest.mark.parametrize("weighting", ["uniform", "event_gated"])
def test_two_thread_loss_and_freeze_give_the_one_thread_terms_to_the_bit(
        weighting, alpha, monkeypatch):
    rng = np.random.default_rng(136)
    shape = (7, 9)
    it, it1 = _shifted_texture(shape, 0.8, -0.4, seed=136)
    weights = (rng.random(shape) > 0.5).astype(np.float64) if weighting == "event_gated" else None
    flow = rng.normal(0.0, 0.5, (2, *shape))
    sampled_on_worker = []
    original = fl._interpolate

    def recording(*args):
        sampled_on_worker.append(_in_the_worker())
        return original(*args)

    kept = []
    for threads in (1, 2):
        _sweep_threads(monkeypatch, threads)
        monkeypatch.setattr(fl, "_interpolate", recording)
        sampled_on_worker.clear()
        level = _Level(it, it1, fl._weights(shape, weights), FlowSolverConfig(alpha=alpha))
        level.uv[...] = flow
        with level._paired():
            loss = level.loss(*level.uv)
            terms = [*level.footprint, level.residual, level.base, level.power,
                     *(edge for channel in level.edges for edge in channel)]
            terms = [term.copy() for term in terms]
            assert level.freeze()
        kept.append((loss, terms + [level.terms, level.left, level.up]))
        # the loss samples I_t1 here, the freeze d/dy on the worker and d/dx here
        assert len(sampled_on_worker) == 3 and sampled_on_worker.count(True) == threads - 1
    (serial_loss, serial), (paired_loss, paired) = kept
    assert serial_loss == paired_loss
    assert len(serial) == 13 == len(paired)
    for a, b in zip(serial, paired):
        assert np.array_equal(a, b)
    assert _no_worker_alive()


def test_a_solve_that_diverges_on_two_threads_leaves_no_worker_alive(monkeypatch):
    _sweep_threads(monkeypatch, 2)
    opened = []

    class Recorded(fl._Worker):
        def __init__(self):
            super().__init__()
            opened.append(self)

    monkeypatch.setattr(fl, "_Worker", Recorded)
    img0 = np.full((16, 16), 1e200)
    with pytest.raises(SolverDivergenceError), np.errstate(over="ignore"):
        estimate_flow(_events_everywhere(img0.shape), img0, -img0,
                      FlowSolverConfig(pyramid_levels=1))
    assert len(opened) == 1 and _no_worker_alive()


def test_estimate_flow_keeps_no_level_alive(monkeypatch):
    _sweep_threads(monkeypatch, 2)
    levels = []

    class Recorded(_Level):
        def __init__(self, *args):
            super().__init__(*args)
            levels.append(weakref.ref(self))

    monkeypatch.setattr(fl, "_Level", Recorded)
    img0, img1 = _shifted_texture((24, 32), 1.3, -0.7, seed=128)
    estimate_flow(None, img0, img1)
    assert len(levels) == 3 and all(level() is None for level in levels)


def test_estimate_flow_at_alpha_zero_is_finite_and_no_worse_than_zero_flow():
    # At alpha = 0 every pixel's 2x2 block psi * g g^T is singular, and each
    # takes its least-norm solution.  On one level the solve starts at zero
    # flow; on more, each level starts at the coarser level's flow.
    img0, img1 = _shifted_texture((24, 32), 1.3, -0.7, seed=122)
    for levels in (1, 3):
        cfg = FlowSolverConfig(alpha=0.0, pyramid_levels=levels)
        flow, loss = estimate_flow(None, img0, img1, cfg)
        assert np.isfinite(flow.u).all() and np.isfinite(flow.v).all() and np.isfinite(loss)
        if levels == 1:
            assert loss <= total_loss(np.zeros((2, 24, 32)), img0, img1, cfg)


@pytest.mark.parametrize("shape", [(5, 7), (2, 3), (1, 6), (6, 1), (1, 1)])
def test_image_gradient_is_np_gradients(shape):
    img = np.random.default_rng(123).random(shape)
    level = _Level(np.zeros(shape), img, np.ones(shape), FlowSolverConfig())
    for axis, derivative in zip((1, 0), level.derivatives):
        expected = np.gradient(img, axis=axis) if shape[axis] > 1 else np.zeros(shape)
        assert np.array_equal(derivative, expected)


@pytest.mark.parametrize("shape", [(260, 346), (130, 173), (65, 87), (8, 8), (7, 9), (1, 7),
                                   (1, 1)])
def test_downsample2_is_the_reshape_mean(shape):
    # numpy's mean sums a block's four pixels in this order, as long as the
    # result has two columns or more; with one (a raster at most 2 wide,
    # which no pyramid level downsamples) numpy 2.4 sums them row by row
    a = np.random.default_rng(129).normal(0.0, 100.0, shape)
    h, w = shape
    padded = np.pad(a, ((0, h % 2), (0, w % 2)), mode="edge")
    expected = padded.reshape(padded.shape[0] // 2, 2, padded.shape[1] // 2, 2).mean(axis=(1, 3))
    assert np.array_equal(_downsample2(a), expected)


def test_estimate_flow_memory_is_bounded_in_rasters():
    # Under uniform weighting every 1-D array of the photometric term is a
    # raster of the finest level.  The level gathers 5 of them (the active
    # indices, the pixel grid, I_t and the weights), and a loss keeps 10 more
    # for the freeze: the footprint's corner index and offsets, the residual,
    # its base and power, and 4 edge rasters of powers.  Its solve holds 14:
    # its raster flow and a warp's first flow (4), I_t1's two derivatives
    # (2), the terms' scatter index (1), and in float32 the parity classes'
    # flow, edge weights and 5 frozen terms with their rings and the scratch
    # of a colour's two classes (7).  The weights and the coarser levels'
    # images and weights hold about 2 more; the rest are a loss's or a
    # freeze's temporaries.  It read 40.2 on this raster with numpy 2.4 (47.0
    # with a float64 system); the bound leaves room for other numpy
    # versions' temporaries.
    img0, img1 = _shifted_texture((192, 256), 1.3, -0.7, seed=124)
    raster = img0.nbytes
    estimate_flow(None, img0, img1)  # the pixel grid of the shape is cached
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        estimate_flow(None, img0, img1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 48 * raster


def test_estimate_flow_shift_equivariance():
    ys, xs = np.mgrid[0:48, 0:48].astype(np.float64)
    # periods divide the raster so np.roll produces exact translates
    base = 0.5 + 0.25 * np.sin(2 * np.pi * xs / 16) * np.sin(2 * np.pi * ys / 16) \
        + 0.15 * np.sin(2 * np.pi * xs / 12)
    img0 = base
    img1 = np.roll(base, 2, axis=1)
    em = _events_everywhere(img0.shape)
    cfg = FlowSolverConfig(charbonnier_eps=0.1)
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
    assert (err.value.warp, err.value.loss) == (0, np.inf)


def test_estimate_flow_divergence_at_gated_out_pixels():
    # The images are huge only where the event gate is shut.  Those pixels
    # never reach the objective, so the first loss is finite.  But I_t1's
    # derivatives at the four active pixels reach their huge neighbours, so
    # the first warp's linearised data term overflows; the solve stops there,
    # before the flow it would give is sampled, and reports an infinite loss.
    em = accumulate_events(make_events([0.5] * 4, [3, 4, 3, 4], [5, 5, 6, 6], [1] * 4),
                           (0.0, 1.0), 16, 16)
    gate = event_mask(em)
    img0 = np.where(gate, 0.5, 1e200)
    img1 = np.where(gate, 0.4, -1e200)
    with pytest.raises(SolverDivergenceError) as err, np.errstate(over="ignore"):
        estimate_flow(em, img0, img1, FlowSolverConfig(pyramid_levels=1))
    assert (err.value.level, err.value.warp, err.value.loss) == (0, 1, np.inf)


@pytest.mark.parametrize("scale", [1e15, 1e100])
def test_a_system_past_float32s_range_is_a_divergence_not_a_warning(scale, monkeypatch):
    # float64 solves both.  At x1e100 the data term's coefficients overflow
    # float32 in the freeze's cast; at x1e15 they fit (up to about 4e27), and
    # the block inversion's products overflow.  The freeze refuses either
    # system, and the solve reports the level and warp, with no warning.
    img0, img1 = _shifted_texture((24, 32), 1.3, -0.7, seed=128)
    frozen = []
    original = fl._Level.freeze

    def freeze(self):
        frozen.append(original(self))
        return frozen[-1]

    monkeypatch.setattr(fl._Level, "freeze", freeze)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverDivergenceError) as err:
            estimate_flow(None, scale * img0, scale * img1)
    assert frozen[-1] is False and err.value.warp >= 1 and err.value.loss == np.inf
    assert f"level {err.value.level}, warp {err.value.warp}" in str(err.value)


def test_a_block_whose_determinant_overflows_float32_is_refused(monkeypatch):
    # Its coefficients fit float32 but its determinant does not: scaled by
    # _OMEGA / inf, the block would read 0 and its pixel relax towards 0
    # with no error.
    level = _frozen_level((7, 9), "uniform", seed=133)[0]
    original = fl._Level._linearise

    def linearise(self):
        data, edges = original(self)
        for coefficient in data[:3]:
            coefficient[10] = 3e38  # the rank-1 block of the gradient (1, 1)
        return data, edges

    monkeypatch.setattr(fl._Level, "_linearise", linearise)
    level.loss(*level.uv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert level.freeze() is False


@pytest.mark.parametrize("intensity", [1.0, 255.0])
def test_float32_sweeps_stay_within_the_float64_solve(intensity, monkeypatch):
    # The same solve on a float64 system, at unit and at 8-bit intensities.
    # At x255 the mean distance read 5.3e-5 px and the largest 6.6e-3 px, at
    # a pixel whose data term outweighs its edges so far that its update
    # cancels; at x1 both read under 2e-7 px.
    img0, img1 = (intensity * img for img in _shifted_texture((96, 128), 2.3, -1.4, seed=131))
    single, single_loss = estimate_flow(None, img0, img1)
    monkeypatch.setattr(fl, "_SWEEP_DTYPE", np.float64)
    double, double_loss = estimate_flow(None, img0, img1)
    distance = np.hypot(single.u - double.u, single.v - double.v)
    assert distance.mean() <= 1e-4 and distance.max() <= 0.02
    assert abs(single_loss - double_loss) <= 1e-5 * double_loss


@pytest.mark.parametrize("fill", [1e200, -1e200, np.inf, np.nan, 0.0, 0.5])
@pytest.mark.parametrize("alpha", [0.5, 0.0])
def test_zero_weight_pixels_do_not_reach_the_objective(fill, alpha):
    # whatever I_t holds at a pixel of weight 0, the loss and the frozen
    # system a solve reads are those of any other value there, to the bit
    rng = np.random.default_rng(109)
    shape = (16, 16)
    it, it1 = rng.random(shape), rng.random(shape)
    weights = (rng.random(shape) > 0.6).astype(np.float64)
    flow = rng.normal(0, 1.5, (2, *shape))
    cfg = FlowSolverConfig(alpha=alpha)
    filled = np.where(weights == 0, fill, it)
    assert total_loss(flow, filled, it1, cfg, weights) == total_loss(flow, it, it1, cfg, weights)
    for a, b in zip(_frozen_terms(flow, filled, it1, cfg, weights),
                    _frozen_terms(flow, it, it1, cfg, weights), strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0])
@pytest.mark.parametrize("alpha", [0.5, 0.0])
def test_bad_weight_mask_refused(alpha, bad):
    # a NaN or infinite weight made the loss NaN or inf, and a negative one
    # rewarded a larger residual at its pixel; at alpha 0 the objective is
    # the photometric term alone
    rng = np.random.default_rng(110)
    it, it1 = rng.random((6, 7)), rng.random((6, 7))
    flow = rng.normal(0, 0.5, (2, 6, 7))
    weights = np.ones((6, 7))
    weights[2, 3] = bad
    with pytest.raises(ValueError, match="weight_mask"):
        total_loss(flow, it, it1, FlowSolverConfig(alpha=alpha), weights)


@pytest.mark.parametrize("cfg", [None, {"alpha": 0.5}], ids=["None", "dict"])
@pytest.mark.parametrize("entry", ["estimate_flow", "total_loss"])
def test_a_cfg_that_is_not_a_solver_config_is_refused(entry, cfg):
    # cfg=None once failed inside with AttributeError: ... 'pyramid_levels'
    # (estimate_flow) or ... 'charbonnier_eps' (total_loss); a dict of
    # settings is not a config either
    img = np.random.default_rng(115).random((16, 16))
    calls = {"estimate_flow": lambda: estimate_flow(None, img, img, cfg),
             "total_loss": lambda: total_loss(np.zeros((2, 16, 16)), img, img, cfg)}
    message = f"^cfg must be a FlowSolverConfig, got {type(cfg).__name__}$"
    with pytest.raises(TypeError, match=message):
        calls[entry]()


def test_estimate_flow_logs_each_level(monkeypatch, caplog):
    evaluations = {}
    original = fl._Level.loss

    def counting(self, u, v):
        evaluations[u.shape] = evaluations.get(u.shape, 0) + 1
        return original(self, u, v)

    monkeypatch.setattr(fl._Level, "loss", counting)
    rng = np.random.default_rng(108)
    img0 = rng.random((32, 40))
    img1 = np.roll(img0, 1, axis=1)
    em = accumulate_events(make_events(np.zeros(200), rng.integers(0, 40, 200),
                                       rng.integers(0, 32, 200), np.ones(200, int)),
                           (0.0, 1.0), 40, 32)
    with caplog.at_level(logging.DEBUG, logger="evreflex.flow"):
        _, loss = fl.estimate_flow(em, img0, img1, FlowSolverConfig(pyramid_levels=3))
    records = _level_records(caplog)
    assert [r[0] for r in records] == [2, 1, 0]
    active = np.count_nonzero(event_mask(em))
    for level, w, h, pixels, warps, halvings, losses in records:
        # one loss at the start, one per warp and one per halving
        assert 0 < pixels <= w * h and warps == fl._WARPS
        assert evaluations[(h, w)] == 1 + warps + halvings
        if level == 0:
            assert (w, h) == (40, 32) and pixels == active and losses[-1] == loss
    # no record when DEBUG is off
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="evreflex.flow"):
        fl.estimate_flow(em, img0, img1, FlowSolverConfig(pyramid_levels=2))
    assert not caplog.records


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["img_t", "img_t1"])
def test_estimate_flow_refuses_non_finite_pixels(which, bad):
    rng = np.random.default_rng(106)
    images = {"img_t": rng.random((16, 16)), "img_t1": rng.random((16, 16))}
    images[which][5, 7] = bad
    em = _events_everywhere((16, 16))
    with pytest.raises(ValueError, match=f"^{which} "):
        estimate_flow(em, images["img_t"], images["img_t1"])


@pytest.mark.parametrize("em", ["bool mask", "event counts"])
def test_estimate_flow_refuses_an_em_that_is_not_an_event_map(em):
    # a bool mask once failed inside with AttributeError: ... 'pos_count'
    img = np.random.default_rng(113).random((16, 16))
    events = _events_everywhere(img.shape)
    em = event_mask(events) if em == "bool mask" else np.asarray(events.pos_count)
    with pytest.raises(TypeError, match="^em must be an EventMap or None"):
        estimate_flow(em, img, img)


def test_estimate_flow_event_gated_refuses_map_without_events():
    rng = np.random.default_rng(107)
    img0, img1 = rng.random((16, 16)), rng.random((16, 16))
    empty = accumulate_events(make_events([], [], [], []), (0.0, 1.0), 16, 16)
    with pytest.raises(ValueError, match="active pixel"):
        estimate_flow(empty, img0, img1)


def test_estimate_flow_event_gated_requires_map():
    # event gating needs a map; without one (em=None) every pixel is weighed
    rng = np.random.default_rng(107)
    img0, img1 = rng.random((16, 16)), rng.random((16, 16))
    flow, loss = estimate_flow(None, img0, img1)
    assert flow.u.shape == flow.v.shape == (16, 16) and np.isfinite(loss)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        FlowSolverConfig(alpha=-1)
    with pytest.raises(ValueError):
        FlowSolverConfig(pyramid_levels=0)
    with pytest.raises(ValueError, match="charbonnier_eps"):
        FlowSolverConfig(charbonnier_eps=-1)
    with pytest.raises(ValueError, match="charbonnier_alpha"):
        FlowSolverConfig(charbonnier_alpha=1.0)
    # the warp, sweep and relaxation counts are the solver's constants
    assert [f.name for f in dataclasses.fields(FlowSolverConfig)] == [
        "alpha", "charbonnier_eps", "charbonnier_alpha", "pyramid_levels"]


@pytest.mark.parametrize("field", ["pyramid_levels"])
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_solver_config_refuses_a_count_that_is_not_an_integer(field, value):
    # pyramid_levels=2.5 once ran 3 levels
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        FlowSolverConfig(**{field: value})

"""Dense optical flow by direct minimization of a self-supervised objective.

The objective is a robust photometric term (intensity constancy under a
bilinear warp) plus a weighted smoothness term on flow differences between
4-neighbours.  It is minimized coarse-to-fine with plain gradient descent and
backtracking, which keeps the per-level loss monotone non-increasing.

Each evaluation is split in two: `_loss_terms` computes the loss and keeps
the intermediate values its gradient needs (residual, Charbonnier bases,
footprint, flow differences), and `_finish_grad` turns those into the
gradient.  The descent scores every backtracking candidate by its loss alone
and finishes the gradient only for a step it accepts and continues from, so
a rejected candidate costs one loss evaluation.  Both steps keep the float
operations of the fused `_loss_and_grad` in the same order, so the split
changes no result bit.

All internal arithmetic runs in float64; the analytic gradient uses the exact
derivative of the bilinear interpolant, so it matches central finite
differences of the loss wherever the loss is differentiable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .types import (
    EventMap,
    FloatMap,
    FlowField,
    ShapeMismatchError,
    event_mask,
    flow_field,
    float_map,
)

__all__ = [
    "FlowSolverConfig",
    "SolverDivergenceError",
    "warp",
    "charbonnier",
    "charbonnier_deriv",
    "photometric_loss",
    "smoothness_loss",
    "total_loss",
    "loss_gradient",
    "estimate_flow",
]

Raster = Union[FloatMap, np.ndarray]
Flow = Union[FlowField, np.ndarray]


@dataclass(frozen=True)
class FlowSolverConfig:
    """Solver settings; the defaults reproduce the documented behaviour."""

    alpha: float = 0.5  # smoothness weight in l_f = l_p + alpha * l_s
    charbonnier_eps: float = 0.001
    charbonnier_alpha: float = 0.45
    pyramid_levels: int = 4
    iters_per_level: int = 200
    step_size: float = 1.0  # halved on loss increase
    event_weighting: str = "event_gated"  # or "uniform"
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.event_weighting not in ("uniform", "event_gated"):
            raise ValueError(
                f"event_weighting must be 'uniform' or 'event_gated', got '{self.event_weighting}'"
            )
        if self.charbonnier_eps <= 0:
            raise ValueError("charbonnier_eps must be positive")
        if not 0 < self.charbonnier_alpha < 1:
            raise ValueError("charbonnier_alpha must be in (0, 1)")
        if self.iters_per_level < 1:
            raise ValueError("iters_per_level must be >= 1")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0")


class SolverDivergenceError(RuntimeError):
    """The descent produced a non-finite loss."""

    def __init__(self, level: int, iteration: int, loss: float):
        self.level = level
        self.iteration = iteration
        self.loss = loss
        super().__init__(f"non-finite loss {loss} at pyramid level {level}, iteration {iteration}")


def _gray(img: Raster) -> np.ndarray:
    arr = img.values if isinstance(img, FloatMap) else img
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D raster, got shape {arr.shape}")
    return arr


def _uv(flow: Flow) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(flow, FlowField):
        return np.asarray(flow.u, dtype=np.float64), np.asarray(flow.v, dtype=np.float64)
    arr = np.asarray(flow, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[0] == 2:
        if np.isnan(arr).any():
            raise ValueError("flow contains NaN")
        return arr[0], arr[1]
    raise ShapeMismatchError(f"expected FlowField or (2, H, W) array, got shape {arr.shape}")


def _footprint(img: np.ndarray, xs: np.ndarray, ys: np.ndarray, with_mask: bool = True):
    """Clamp-to-edge bilinear footprint of the samples at (xs, ys).

    Returns (corners, fx, fy, in_bounds): the four corner values (top-left,
    top-right, bottom-left, bottom-right), the fractional offsets inside the
    footprint, and a flag for samples that stayed inside the raster (None
    unless with_mask).
    """
    h, w = img.shape
    in_bounds = None
    if with_mask:
        in_bounds = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    # xc, yc >= 0, so truncation is floor
    x0 = xc.astype(np.intp)
    y0 = yc.astype(np.intp)
    np.minimum(x0, w - 2 if w > 1 else 0, out=x0)
    np.minimum(y0, h - 2 if h > 1 else 0, out=y0)
    fx = xc - x0
    fy = yc - y0
    # One linear index of the top-left corner gathers all four corners: the
    # others sit at that index in views of the raveled raster that start one
    # column, one row, or both further on (no offset along an axis of
    # length 1, as the clamp gives).
    flat = img.ravel()
    right = 1 if w > 1 else 0
    down = w if h > 1 else 0
    top_left = y0 * w
    top_left += x0
    corners = (
        flat.take(top_left),
        flat[right:].take(top_left),
        flat[down:].take(top_left),
        flat[down + right:].take(top_left),
    )
    return corners, fx, fy, in_bounds


def _interpolate(corners, fx, fy):
    """Bilinear interpolant over a footprint, and its partial derivative in y."""
    i00, i01, i10, i11 = corners
    top = i00 + fx * (i01 - i00)
    bottom = i10 + fx * (i11 - i10)
    ddy = bottom - top
    return top + fy * ddy, ddy


def _x_partial(corners, fy):
    """Partial derivative in x of the bilinear interpolant over a footprint."""
    i00, i01, i10, i11 = corners
    return (1.0 - fy) * (i01 - i00) + fy * (i11 - i10)


def _bilinear(img: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Clamp-to-edge bilinear sample.

    Returns (values, d/dx, d/dy, valid) where the derivatives are the exact
    partials of the interpolant w.r.t. the sample position and valid flags
    samples that stayed inside the raster.
    """
    corners, fx, fy, valid = _footprint(img, xs, ys)
    values, ddy = _interpolate(corners, fx, fy)
    return values, _x_partial(corners, fy), ddy, valid


def _pixel_grid(shape: tuple[int, int]) -> np.ndarray:
    """(2, H, W) float64 pixel coordinates: row indices, then column indices."""
    h, w = shape
    return np.mgrid[0:h, 0:w].astype(np.float64)


def _sample_grid(shape: tuple[int, int], u: np.ndarray, v: np.ndarray, grid=None):
    ys, xs = _pixel_grid(shape) if grid is None else grid
    return xs + u, ys + v


def warp(src: Union[Raster, Flow], flow: Flow):
    """Sample src at i + F(i) with bilinear interpolation.

    Returns (warped, valid) where warped has the type of src and valid marks
    pixels whose sample position stayed inside the raster (out-of-range samples
    clamp to the border).
    """
    u, v = _uv(flow)
    if isinstance(src, FlowField):
        if (src.height, src.width) != u.shape:
            raise ShapeMismatchError("flow and source dimensions differ")
        xs, ys = _sample_grid(u.shape, u, v)
        wu, _, _, valid = _bilinear(np.asarray(src.u, dtype=np.float64), xs, ys)
        wv, _, _, _ = _bilinear(np.asarray(src.v, dtype=np.float64), xs, ys)
        return flow_field(wu, wv), valid
    img = _gray(src)
    if img.shape != u.shape:
        raise ShapeMismatchError("flow and source dimensions differ")
    xs, ys = _sample_grid(img.shape, u, v)
    values, _, _, valid = _bilinear(img, xs, ys)
    if isinstance(src, FloatMap):
        return float_map(values, src.semantics), valid
    return values, valid


def charbonnier(x, eps: float = 0.001, alpha: float = 0.45):
    """Robust penalty (x^2 + eps^2)^alpha, elementwise."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    x = np.asarray(x, dtype=np.float64)
    out = _charbonnier_base(x, eps) ** alpha
    return float(out) if out.ndim == 0 else out


def charbonnier_deriv(x, eps: float = 0.001, alpha: float = 0.45):
    """d/dx of the robust penalty: 2*alpha*x*(x^2 + eps^2)^(alpha - 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = _charbonnier_slope(x, _charbonnier_base(x, eps), alpha)
    return float(out) if out.ndim == 0 else out


def _charbonnier_base(x: np.ndarray, eps: float) -> np.ndarray:
    """x^2 + eps^2, shared by the penalty and its derivative."""
    return x * x + eps * eps


def _charbonnier_slope(x: np.ndarray, base: np.ndarray, alpha: float) -> np.ndarray:
    """The penalty's derivative from its base.  The powers ^alpha and
    ^(alpha - 1) stay separate: deriving one from the other changes bits."""
    return 2.0 * alpha * x * base ** (alpha - 1.0)


def _weights(shape, weight_mask) -> np.ndarray:
    if weight_mask is None:
        return np.ones(shape, dtype=np.float64)
    w = np.asarray(weight_mask, dtype=np.float64)
    if w.shape != shape:
        raise ShapeMismatchError(f"weight mask shape {w.shape} != raster shape {shape}")
    return w


def _evaluate(kernel, flow: Flow, img_t: Raster, img_t1: Raster, cfg: FlowSolverConfig,
              weight_mask):
    return kernel(*_uv(flow), _gray(img_t), _gray(img_t1), cfg, weight_mask)


def photometric_loss(
    flow: Flow,
    img_t: Raster,
    img_t1: Raster,
    weight_mask=None,
    *,
    eps: float = 0.001,
    alpha: float = 0.45,
) -> float:
    """Sum over pixels of weight * rho(I_t(i) - I_t1(i + F(i))).

    Out-of-bounds warped samples contribute zero.
    """
    cfg = FlowSolverConfig(alpha=0.0, charbonnier_eps=eps, charbonnier_alpha=alpha)
    return _evaluate(_loss_terms, flow, img_t, img_t1, cfg, weight_mask)[0]


def smoothness_loss(flow: Flow, *, eps: float = 0.001, alpha: float = 0.45) -> float:
    """Sum of rho over flow differences across 4-neighbour pairs (each pair once)."""
    u, v = _uv(flow)
    return _smoothness(u, eps, alpha, 1.0)[0] + _smoothness(v, eps, alpha, 1.0)[0]


def total_loss(
    flow: Flow,
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig,
    weight_mask=None,
) -> float:
    """Combined objective l_f = l_p + alpha * l_s."""
    return _evaluate(_loss_terms, flow, img_t, img_t1, cfg, weight_mask)[0]


def loss_gradient(
    flow: Flow,
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig,
    weight_mask=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic d(total_loss)/dF as a pair of (H, W) float64 arrays (du, dv)."""
    _, gu, gv = _evaluate(_loss_and_grad, flow, img_t, img_t1, cfg, weight_mask)
    return gu, gv


def _smoothness(channel: np.ndarray, eps: float, ca: float, weight: float):
    """weight * sum of rho over one flow channel's 4-neighbour differences.

    Returns (loss, diffs): diffs holds the horizontal and vertical
    differences with their Charbonnier bases, for _finish_grad.
    """
    dh = channel[:, 1:] - channel[:, :-1]
    dv = channel[1:, :] - channel[:-1, :]
    bh = _charbonnier_base(dh, eps)
    bv = _charbonnier_base(dv, eps)
    loss = weight * float(np.sum(bh ** ca) + np.sum(bv ** ca))
    return loss, (dh, bh, dv, bv)


def _loss_terms(u, v, it, it1, cfg: FlowSolverConfig, weights, oob_zero: bool = True,
                grid=None):
    """l_f at (u, v), and the terms _finish_grad needs for its gradient.

    With oob_zero the photometric term drops out-of-bounds samples (the
    reported objective); without it they contribute through the border clamp,
    which keeps the objective continuous in F and is what the solver descends.
    grid is the raster's _pixel_grid, for callers that evaluate many flows.
    """
    if not (it.shape == it1.shape == u.shape == v.shape):
        raise ShapeMismatchError(
            f"shape mismatch: images {it.shape}/{it1.shape}, flow {u.shape}/{v.shape}"
        )
    eps = cfg.charbonnier_eps
    ca = cfg.charbonnier_alpha
    w = _weights(it.shape, weights)

    xs, ys = _sample_grid(it.shape, u, v, grid)
    corners, fx, fy, valid = _footprint(it1, xs, ys, with_mask=oob_zero)
    sampled, ddy = _interpolate(corners, fx, fy)
    wv = w * valid if oob_zero else w
    residual = it - sampled
    base = _charbonnier_base(residual, eps)
    loss = float(np.sum(wv * base ** ca))

    diffs = []
    if cfg.alpha > 0:
        for channel in (u, v):
            part, channel_diffs = _smoothness(channel, eps, ca, cfg.alpha)
            loss += part
            diffs.append(channel_diffs)
    return loss, (wv, residual, base, corners, fy, ddy, diffs)


def _finish_grad(terms, cfg: FlowSolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of l_f w.r.t. (u, v) from the terms _loss_terms kept."""
    wv, residual, base, corners, fy, ddy, diffs = terms
    ca = cfg.charbonnier_alpha
    rho_prime = wv * _charbonnier_slope(residual, base, ca)
    gu = -rho_prime * _x_partial(corners, fy)
    gv = -rho_prime * ddy
    for grad, (dh, bh, dv, bv) in zip((gu, gv), diffs):
        th = cfg.alpha * _charbonnier_slope(dh, bh, ca)
        tv = cfg.alpha * _charbonnier_slope(dv, bv, ca)
        grad[:, 1:] += th
        grad[:, :-1] -= th
        grad[1:, :] += tv
        grad[:-1, :] -= tv
    return gu, gv


def _loss_and_grad(u, v, it, it1, cfg: FlowSolverConfig, weights, oob_zero: bool = True):
    """l_f and its gradient w.r.t. (u, v): _loss_terms, then _finish_grad."""
    loss, terms = _loss_terms(u, v, it, it1, cfg, weights, oob_zero)
    return (loss, *_finish_grad(terms, cfg))


def _downsample2(a: np.ndarray) -> np.ndarray:
    """2x block-mean downsample with edge padding for odd dimensions."""
    h, w = a.shape
    ph, pw = (h + 1) // 2 * 2, (w + 1) // 2 * 2
    if (ph, pw) != (h, w):
        a = np.pad(a, ((0, ph - h), (0, pw - w)), mode="edge")
    return a.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))


def _upsample2(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    up = np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)
    return up[: shape[0], : shape[1]]


_STEP_GROWTH = 1.3  # re-grow the step after an accepted iteration


def _descend(u, v, it, it1, weights, cfg: FlowSolverConfig, level: int):
    # The descent objective counts out-of-bounds samples through the border
    # clamp: zeroing them (as the reported loss does) makes the objective
    # discontinuous wherever a sample crosses the raster edge, and plain
    # gradient descent jams on those ridges.
    # A candidate is scored by its loss alone; the gradient is finished only
    # for an accepted step that the descent goes on from.
    grid = _pixel_grid(it.shape)
    weights = _weights(it.shape, weights)
    loss, terms = _loss_terms(u, v, it, it1, cfg, weights, oob_zero=False, grid=grid)
    if not np.isfinite(loss):
        raise SolverDivergenceError(level, 0, loss)
    gu, gv = _finish_grad(terms, cfg)
    step = cfg.step_size
    for iteration in range(1, cfg.iters_per_level + 1):
        cu = u - step * gu
        cv = v - step * gv
        cand, terms = _loss_terms(cu, cv, it, it1, cfg, weights, oob_zero=False, grid=grid)
        if not np.isfinite(cand):
            raise SolverDivergenceError(level, iteration, cand)
        if cand > loss:
            step *= 0.5
            if step < 1e-14:
                break
            continue
        drop = loss - cand
        u, v, loss = cu, cv, cand
        if drop <= cfg.convergence_tol * max(abs(loss), 1e-12):
            break
        gu, gv = _finish_grad(terms, cfg)
        step *= _STEP_GROWTH
    return u, v, loss


def estimate_flow(
    em: Optional[EventMap],
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig = FlowSolverConfig(),
) -> tuple[FlowField, float]:
    """Coarse-to-fine minimization of the combined objective over the flow field.

    With event_gated weighting the photometric term is trusted only where the
    event map saw activity; elsewhere the smoothness term fills in.  Returns the
    finest-level flow and the final objective value.

    Refused before any descent, with ValueError: an image holding a non-finite
    pixel (the message names img_t or img_t1), and under event_gated weighting
    an event map with no active pixel, which leaves the photometric term
    nothing to weigh and would return zero flow.
    """
    it = _gray(img_t)
    it1 = _gray(img_t1)
    if it.shape != it1.shape:
        raise ShapeMismatchError(f"image shapes differ: {it.shape} vs {it1.shape}")
    for name, img in (("img_t", it), ("img_t1", it1)):
        if not np.all(np.isfinite(img)):
            raise ValueError(f"{name} holds non-finite pixels")
    if cfg.event_weighting == "event_gated":
        if em is None:
            raise ValueError("event_gated weighting requires an event map")
        if (em.height, em.width) != it.shape:
            raise ShapeMismatchError("event map dimensions differ from images")
        mask = event_mask(em)
        if not mask.any():
            raise ValueError("event_gated weighting needs an event map with at least one "
                             "active pixel")
        weights = mask.astype(np.float64)
    else:
        weights = None

    max_levels = 1
    side = min(it.shape)
    while side >= 8 and max_levels < cfg.pyramid_levels:
        side //= 2
        max_levels += 1
    pyramid = [(it, it1, weights)]
    for _ in range(max_levels - 1):
        pit, pit1, pw = pyramid[-1]
        pyramid.append(
            (_downsample2(pit), _downsample2(pit1), None if pw is None else _downsample2(pw))
        )

    lit, lit1, lw = pyramid[-1]
    u = np.zeros(lit.shape, dtype=np.float64)
    v = np.zeros(lit.shape, dtype=np.float64)
    for level in range(len(pyramid) - 1, -1, -1):
        lit, lit1, lw = pyramid[level]
        if u.shape != lit.shape:
            u = _upsample2(u, lit.shape) * 2.0
            v = _upsample2(v, lit.shape) * 2.0
        u, v, _ = _descend(u, v, lit, lit1, lw, cfg, level)
    final_loss, _ = _loss_terms(u, v, it, it1, cfg, weights, oob_zero=True)
    return flow_field(u, v), final_loss

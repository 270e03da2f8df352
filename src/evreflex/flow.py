"""Dense optical flow by direct minimization of a self-supervised objective.

The objective is a robust photometric term (intensity constancy under a
bilinear warp) plus a weighted smoothness term on flow differences between
4-neighbours.  It is minimized coarse-to-fine with plain gradient descent and
backtracking, which keeps the per-level loss monotone non-increasing.

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
        return arr[0], arr[1]
    raise ShapeMismatchError(f"expected FlowField or (2, H, W) array, got shape {arr.shape}")


def _footprint(img: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Clamp-to-edge bilinear footprint of the samples at (xs, ys).

    Returns (corners, fx, fy, in_bounds): the four corner values (top-left,
    top-right, bottom-left, bottom-right), the fractional offsets inside the
    footprint, and a flag for samples that stayed inside the raster.
    """
    h, w = img.shape
    in_bounds = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xc).astype(np.intp)
    y0 = np.floor(yc).astype(np.intp)
    np.minimum(x0, w - 2 if w > 1 else 0, out=x0)
    np.minimum(y0, h - 2 if h > 1 else 0, out=y0)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    corners = (img[y0, x0], img[y0, x1], img[y1, x0], img[y1, x1])
    return corners, xc - x0, yc - y0, in_bounds


def _interpolate(corners, fx, fy):
    """Bilinear interpolant over a footprint, and its partial derivative in y."""
    i00, i01, i10, i11 = corners
    top = i00 + fx * (i01 - i00)
    bottom = i10 + fx * (i11 - i10)
    ddy = bottom - top
    return top + fy * ddy, ddy


def _bilinear(img: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Clamp-to-edge bilinear sample.

    Returns (values, d/dx, d/dy, valid) where the derivatives are the exact
    partials of the interpolant w.r.t. the sample position and valid flags
    samples that stayed inside the raster.
    """
    corners, fx, fy, valid = _footprint(img, xs, ys)
    values, ddy = _interpolate(corners, fx, fy)
    i00, i01, i10, i11 = corners
    ddx = (1.0 - fy) * (i01 - i00) + fy * (i11 - i10)
    return values, ddx, ddy, valid


def _sample_grid(shape: tuple[int, int], u: np.ndarray, v: np.ndarray):
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
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
    out = (x * x + eps * eps) ** alpha
    return float(out) if out.ndim == 0 else out


def charbonnier_deriv(x, eps: float = 0.001, alpha: float = 0.45):
    """d/dx of the robust penalty: 2*alpha*x*(x^2 + eps^2)^(alpha - 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = 2.0 * alpha * x * (x * x + eps * eps) ** (alpha - 1.0)
    return float(out) if out.ndim == 0 else out


def _weights(shape, weight_mask) -> np.ndarray:
    if weight_mask is None:
        return np.ones(shape, dtype=np.float64)
    w = np.asarray(weight_mask, dtype=np.float64)
    if w.shape != shape:
        raise ShapeMismatchError(f"weight mask shape {w.shape} != raster shape {shape}")
    return w


def _evaluate(flow: Flow, img_t: Raster, img_t1: Raster, cfg: FlowSolverConfig, weight_mask):
    return _loss_and_grad(*_uv(flow), _gray(img_t), _gray(img_t1), cfg, weight_mask)


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
    return _evaluate(flow, img_t, img_t1, cfg, weight_mask)[0]


def smoothness_loss(flow: Flow, *, eps: float = 0.001, alpha: float = 0.45) -> float:
    """Sum of rho over flow differences across 4-neighbour pairs (each pair once)."""
    u, v = _uv(flow)
    return _smoothness(u, None, eps, alpha, 1.0) + _smoothness(v, None, eps, alpha, 1.0)


def total_loss(
    flow: Flow,
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig,
    weight_mask=None,
) -> float:
    """Combined objective l_f = l_p + alpha * l_s."""
    return _evaluate(flow, img_t, img_t1, cfg, weight_mask)[0]


def loss_gradient(
    flow: Flow,
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig,
    weight_mask=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic d(total_loss)/dF as a pair of (H, W) float64 arrays (du, dv)."""
    _, gu, gv = _evaluate(flow, img_t, img_t1, cfg, weight_mask)
    return gu, gv


def _smoothness(channel: np.ndarray, grad, eps: float, ca: float, weight: float) -> float:
    """weight * sum of rho over one flow channel's 4-neighbour differences.

    Unless grad is None, the term's gradient is added to it in place.
    """
    dh = channel[:, 1:] - channel[:, :-1]
    dv = channel[1:, :] - channel[:-1, :]
    if grad is not None:
        th = weight * charbonnier_deriv(dh, eps, ca)
        tv = weight * charbonnier_deriv(dv, eps, ca)
        grad[:, 1:] += th
        grad[:, :-1] -= th
        grad[1:, :] += tv
        grad[:-1, :] -= tv
    return weight * float(np.sum(charbonnier(dh, eps, ca)) + np.sum(charbonnier(dv, eps, ca)))


def _loss_and_grad(u, v, it, it1, cfg: FlowSolverConfig, weights, oob_zero: bool = True):
    """One fused evaluation of l_f and its gradient w.r.t. (u, v).

    With oob_zero the photometric term drops out-of-bounds samples (the
    reported objective); without it they contribute through the border clamp,
    which keeps the objective continuous in F and is what the solver descends.
    """
    if not (it.shape == it1.shape == u.shape == v.shape):
        raise ShapeMismatchError(
            f"shape mismatch: images {it.shape}/{it1.shape}, flow {u.shape}/{v.shape}"
        )
    eps = cfg.charbonnier_eps
    ca = cfg.charbonnier_alpha
    w = _weights(it.shape, weights)

    xs, ys = _sample_grid(it.shape, u, v)
    sampled, ddx, ddy, valid = _bilinear(it1, xs, ys)
    wv = w * valid if oob_zero else w
    residual = it - sampled
    loss = float(np.sum(wv * charbonnier(residual, eps, ca)))
    rho_prime = wv * charbonnier_deriv(residual, eps, ca)
    gu = -rho_prime * ddx
    gv = -rho_prime * ddy

    if cfg.alpha > 0:
        loss += _smoothness(u, gu, eps, ca, cfg.alpha)
        loss += _smoothness(v, gv, eps, ca, cfg.alpha)
    return loss, gu, gv


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
    loss, gu, gv = _loss_and_grad(u, v, it, it1, cfg, weights, oob_zero=False)
    if not np.isfinite(loss):
        raise SolverDivergenceError(level, 0, loss)
    step = cfg.step_size
    for iteration in range(1, cfg.iters_per_level + 1):
        cu = u - step * gu
        cv = v - step * gv
        cand, cgu, cgv = _loss_and_grad(cu, cv, it, it1, cfg, weights, oob_zero=False)
        if not np.isfinite(cand):
            raise SolverDivergenceError(level, iteration, cand)
        if cand > loss:
            step *= 0.5
            if step < 1e-14:
                break
            continue
        drop = loss - cand
        u, v, loss, gu, gv = cu, cv, cand, cgu, cgv
        if drop <= cfg.convergence_tol * max(abs(loss), 1e-12):
            break
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
    """
    it = _gray(img_t)
    it1 = _gray(img_t1)
    if it.shape != it1.shape:
        raise ShapeMismatchError(f"image shapes differ: {it.shape} vs {it1.shape}")
    if cfg.event_weighting == "event_gated":
        if em is None:
            raise ValueError("event_gated weighting requires an event map")
        if (em.height, em.width) != it.shape:
            raise ShapeMismatchError("event map dimensions differ from images")
        weights = event_mask(em).astype(np.float64)
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
    final_loss, _, _ = _loss_and_grad(u, v, it, it1, cfg, weights, oob_zero=True)
    return flow_field(u, v), final_loss

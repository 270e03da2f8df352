"""Dense optical flow by direct minimization of a self-supervised objective.

The objective (Charbonnier data plus smoothness terms, after Sun, Roth and
Black, CVPR 2010) is a robust photometric term (intensity constancy under a
bilinear warp whose samples clamp to the raster's edge) plus a weighted
smoothness term on flow differences between 4-neighbours.  It is the one
objective here: the descent minimizes it, and estimate_flow and total_loss
report it.  It is minimized coarse-to-fine with plain gradient descent and
backtracking, which keeps the per-level loss monotone non-increasing.  Each
level starts at the smoothness term's stable step 2 / L (L its largest
curvature, 8 * alpha * 2a * eps^(2a - 2)) rounded up to a power of two and
capped at 1 (see FlowSolverConfig).

One kernel evaluates the objective: a `_Workspace` owns the buffers of one
raster shape; its `loss` method evaluates l_f at a flow and keeps in those
buffers the terms its gradient needs (residual, Charbonnier bases and their
powers, corner differences, flow differences), and its `gradient` method
finishes the gradient from them in place.  Every array operation writes
into a buffer with `out=`, so the descent allocates no raster-sized
temporary, and the float operations and their order are those of the plain
expressions (kept as the reference in tests/test_flow.py), so the buffers
change no result bit.  The descent builds one workspace per pyramid level,
scores every backtracking candidate by its loss alone and finishes the
gradient only for a step it accepts and continues from, so a rejected
candidate costs one loss evaluation.  total_loss builds a workspace per
call.

Each Charbonnier base b = x^2 + eps^2 (the photometric residual's and, per
flow channel, the horizontal and vertical differences') takes one log and
one exp per loss: b^a = exp(a * log b), which costs about half of one
generic power, into a power buffer of its own.  The gradient reads
b^(a - 1) as b^a / b from that buffer and takes no log, exp or power of its
own; b >= eps^2 > 0 keeps the quotient finite.  The public charbonnier takes
the power the same way.

The photometric term is the weighted sum over the pixels of nonzero weight:
estimate_flow given an event map gates it on the pixels that map saw events
at, and given None weighs every pixel.  A workspace gathers the pixel grid,
I_t and the weights at those pixels into 1-D buffers; each evaluation
gathers the flow there, runs the footprint, interpolant, residual and
powers on them and sums the weighted terms in raster order, and the
gradient's photometric part is scattered into a zeroed raster.  So a pixel
of weight 0 never reaches the objective: I_t is not read there (I_t1 is,
where an active pixel's sample lands), and an overflow there is no
divergence; one at a pixel of nonzero weight still is.  A weight mask must
be finite and non-negative.  The descent reports each level (active
pixels, accepted and rejected steps, first and final step, why it stopped)
at DEBUG level on the "evreflex.flow" logger.

All internal arithmetic runs in float64.  The descent direction uses the
exact derivative of the bilinear interpolant at each sample's clamped
position.  So it matches central finite differences of the loss wherever the
loss is differentiable and every sample stays inside the raster.  A sample
clamped outside the raster does not move with the flow component that pushes
it out, so the loss is flat along it; the descent direction there is still
the interpolant's partial at the clamped position, not that zero.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .types import (
    EventMap,
    FloatMap,
    FlowField,
    MapSemantics,
    ShapeMismatchError,
    _check_finite,
    _check_int,
    _check_positive,
    _float64,
    event_mask,
)

__all__ = [
    "FlowSolverConfig",
    "SolverDivergenceError",
    "warp",
    "charbonnier",
    "total_loss",
    "estimate_flow",
]

Raster = Union[FloatMap, np.ndarray]
Flow = Union[FlowField, np.ndarray]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FlowSolverConfig:
    """Solver settings; the defaults reproduce the documented behaviour.

    The descent has no step setting: each pyramid level starts at the step
    the smoothness term allows, min(1, 2^ceil(log2(2 / L))) with
    L = 8 * alpha * 2a * eps^(2a - 2) (a = charbonnier_alpha), and halves it
    on a loss increase.  For a < 1 the Charbonnier curvature is largest at a
    zero difference, where it is 2a * eps^(2a - 2), and 8 bounds the spectrum
    of the 4-neighbour Laplacian, so steps much above 2 / L cannot pass (at
    the defaults 2 / L is about 2.8e-4 and the start 2^-11).  Rounding up to a
    power of two keeps every candidate on the lattice 1, 1/2, 1/4, ... that a
    start at 1 halves through, so a level whose first accepted step lies at
    or below the start takes the same steps, less the leading rejections.
    At alpha = 0 the start is 1.  Nor is the stop a setting: a level stops
    after 200 iterations (_ITERS_PER_LEVEL), or once an accepted step lowers
    the loss by at most 1e-6 of its value (_CONVERGENCE_TOL).
    """

    alpha: float = 0.5  # smoothness weight in l_f = l_p + alpha * l_s
    charbonnier_eps: float = 0.001
    charbonnier_alpha: float = 0.45
    pyramid_levels: int = 4

    def __post_init__(self):
        _check_int(self, "pyramid_levels")
        _check_finite(self, "alpha", "charbonnier_alpha")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if not self.pyramid_levels >= 1:
            raise ValueError("pyramid_levels must be >= 1")
        _check_positive("charbonnier_eps", self.charbonnier_eps)
        if not 0 < self.charbonnier_alpha < 1:
            raise ValueError("charbonnier_alpha must be in (0, 1)")


class SolverDivergenceError(RuntimeError):
    """The descent produced a non-finite loss."""

    def __init__(self, level: int, iteration: int, loss: float):
        self.level = level
        self.iteration = iteration
        self.loss = loss
        super().__init__(f"non-finite loss {loss} at pyramid level {level}, iteration {iteration}")


def _gray(img: Raster) -> np.ndarray:
    arr = _float64(img)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D raster, got shape {arr.shape}")
    return arr


def _uv(flow: Flow) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(flow, FlowField):
        return np.asarray(flow.u, dtype=np.float64), np.asarray(flow.v, dtype=np.float64)
    arr = np.asarray(flow, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[0] == 2:
        if not np.isfinite(arr).all():
            raise ValueError("flow contains NaN or infinite values")
        return arr[0], arr[1]
    raise ShapeMismatchError(f"expected FlowField or (2, H, W) array, got shape {arr.shape}")


def _footprint(img: np.ndarray, xs: np.ndarray, ys: np.ndarray, with_mask: bool = True,
               out=None):
    """Clamp-to-edge bilinear footprint of the samples at (xs, ys).

    Returns (corners, fx, fy, in_bounds): the four corner values (top-left,
    top-right, bottom-left, bottom-right), the fractional offsets inside the
    footprint, and a flag for samples that stayed inside the raster (None
    unless with_mask).

    out, when given, is (fx, fy, x0, y0, corners): float64 buffers for the
    offsets, intp buffers for the corner indices and a tuple of four float64
    buffers, all of xs's shape, which receive the result.  xs and ys may be
    out's fx and fy themselves; they are clamped in place.
    """
    h, w = img.shape
    in_bounds = None
    if with_mask:
        in_bounds = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    if out is None:
        out = (np.empty(xs.shape), np.empty(xs.shape), np.empty(xs.shape, np.intp),
               np.empty(xs.shape, np.intp), tuple(np.empty(xs.shape) for _ in range(4)))
    fx, fy, x0, y0, corners = out
    np.clip(xs, 0.0, w - 1.0, out=fx)
    np.clip(ys, 0.0, h - 1.0, out=fy)
    # fx, fy >= 0 now, so truncation is floor
    np.copyto(x0, fx, casting="unsafe")
    np.copyto(y0, fy, casting="unsafe")
    np.minimum(x0, w - 2 if w > 1 else 0, out=x0)
    np.minimum(y0, h - 2 if h > 1 else 0, out=y0)
    fx -= x0
    fy -= y0
    # One linear index of the top-left corner gathers all four corners: the
    # others sit at that index in views of the raveled raster that start one
    # column, one row, or both further on (no offset along an axis of
    # length 1, as the clamp gives).  The index is built in y0's buffer.
    # The clamp keeps it inside every view, so take's "wrap" changes no
    # value; its default "raise" would buffer the output.
    flat = img.ravel()
    right = 1 if w > 1 else 0
    down = w if h > 1 else 0
    top_left = y0
    top_left *= w
    top_left += x0
    for corner, start in zip(corners, (0, right, down, down + right)):
        flat[start:].take(top_left, out=corner, mode="wrap")
    return corners, fx, fy, in_bounds


def _interpolate(corners, fx, fy, out=None):
    """Bilinear interpolant over a footprint and the differences it is built from.

    Returns (values, ddy, dx_top, dx_bottom): the interpolant, its partial
    derivative in y, and the corner differences i01 - i00 and i11 - i10 along
    the top and bottom rows, which give the partial in x as
    (1 - fy) * dx_top + fy * dx_bottom.  fx serves as scratch and is
    overwritten.  out, when given, holds four float64 buffers of fx's shape
    that receive the result.
    """
    i00, i01, i10, i11 = corners
    if out is None:
        out = tuple(np.empty(fx.shape) for _ in range(4))
    values, ddy, dx_top, dx_bottom = out
    np.subtract(i01, i00, out=dx_top)
    np.subtract(i11, i10, out=dx_bottom)
    # bottom = i10 + fx * dx_bottom, top = i00 + fx * dx_top (into fx)
    np.multiply(fx, dx_bottom, out=ddy)
    ddy += i10
    top = np.multiply(fx, dx_top, out=fx)
    top += i00
    ddy -= top
    # top + fy * ddy
    np.multiply(fy, ddy, out=values)
    values += top
    return values, ddy, dx_top, dx_bottom


@functools.lru_cache(maxsize=8)
def _pixel_grid(shape: tuple[int, int]) -> np.ndarray:
    """(2, H, W) float64 pixel coordinates: row indices, then column indices.

    One read-only array per shape, shared by every caller.
    """
    h, w = shape
    grid = np.mgrid[0:h, 0:w].astype(np.float64)
    grid.flags.writeable = False
    return grid


def _sample_grid(shape: tuple[int, int], u: np.ndarray, v: np.ndarray):
    ys, xs = _pixel_grid(shape)
    return xs + u, ys + v


def warp(src: Raster, flow: Flow):
    """Sample the raster src at i + F(i) with bilinear interpolation.

    Returns (warped, valid) where warped has the type of src and valid marks
    pixels whose sample position stayed inside the raster (out-of-range samples
    clamp to the border).  A CLASS_ID map is refused: its labels do not
    interpolate.
    """
    if isinstance(src, FloatMap) and src.semantics == MapSemantics.CLASS_ID:
        raise ValueError("cannot warp a CLASS_ID map: bilinear sampling does not apply "
                         "to class labels")
    u, v = _uv(flow)
    img = _gray(src)
    if img.shape != u.shape:
        raise ShapeMismatchError("flow and source dimensions differ")
    corners, fx, fy, valid = _footprint(img, *_sample_grid(img.shape, u, v))
    values = _interpolate(corners, fx, fy)[0]
    if isinstance(src, FloatMap):
        return FloatMap(values, src.semantics), valid
    return values, valid


def _charbonnier_power(base, alpha: float, out=None):
    """base^alpha as exp(alpha * log(base)), into out if given; base > 0."""
    power = np.log(base, out=out)
    power *= alpha
    return np.exp(power, out=out)


def charbonnier(x, eps: float = 0.001, alpha: float = 0.45):
    """Robust penalty (x^2 + eps^2)^alpha, elementwise; eps > 0, 0 < alpha < 1."""
    _check_positive("eps", eps)
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(_charbonnier_power(x * x + eps * eps, alpha))
    return float(out) if out.ndim == 0 else out


def _weights(shape, weight_mask) -> np.ndarray:
    if weight_mask is None:
        return np.ones(shape, dtype=np.float64)
    w = np.asarray(weight_mask, dtype=np.float64)
    if w.shape != shape:
        raise ShapeMismatchError(f"weight mask shape {w.shape} != raster shape {shape}")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("weight_mask holds a NaN, infinite or negative weight")
    return w


def total_loss(
    flow: Flow,
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig,
    weight_mask=None,
) -> float:
    """The objective l_f = l_p + alpha * l_s at flow, the one the descent minimizes.

    l_p sums weight * rho(I_t(i) - I_t1(i + F(i))) over the pixels, a sample
    outside the raster reading I_t1 at the clamped position; l_s sums rho over
    the flow differences of each channel across 4-neighbour pairs.
    """
    u, v = _uv(flow)
    return _Workspace(u.shape, _gray(img_t), _gray(img_t1), weight_mask, cfg).loss(u, v)


class _Workspace:
    """The objective's kernel and the buffers it runs in, for one raster shape.

    loss(u, v) evaluates l_f and leaves in the buffers the terms its gradient
    needs; gradient() turns the terms of the last loss into (gu, gv) in place,
    consuming them, so it runs at most once per loss.  The (gu, gv) it returns
    are the workspace's own buffers, which the next gradient() overwrites.

    The photometric term runs on the `pixels` pixels of nonzero weight, at
    the flat indices `active` (every pixel when no weights are given).
    """

    def __init__(self, shape, it, it1, weights, cfg: FlowSolverConfig):
        if not (it.shape == it1.shape == shape):
            raise ShapeMismatchError(
                f"shape mismatch: images {it.shape}/{it1.shape}, flow {shape}"
            )
        h, w = shape
        self.shape, self.it1, self.cfg = shape, it1, cfg
        weights = _weights(shape, weights)
        self.active = np.flatnonzero(weights)
        # the photometric term's inputs at its pixels, as 1-D arrays
        self.grid_y, self.grid_x = (self._gather(c) for c in _pixel_grid(shape))
        self.it = self._gather(it)
        self.weights = self._gather(weights)
        n = self.pixels = self.active.size
        # sample positions, clamped in place into the footprint's offsets
        self.fx, self.fy = np.empty(n), np.empty(n)
        self.x0, self.y0 = np.empty(n, np.intp), np.empty(n, np.intp)
        self.corners = tuple(np.empty(n) for _ in range(4))
        # the interpolant, then the residual, then rho'; its y-partial; the
        # corner differences along x, then the x-partial in dx_top
        self.residual, self.ddy, self.dx_top, self.dx_bottom = (np.empty(n) for _ in range(4))
        self.base, self.power = np.empty(n), np.empty(n)
        self.gu, self.gv = np.empty(shape), np.empty(shape)
        # per flow channel: horizontal differences, their Charbonnier bases
        # and the bases' powers, then the same for vertical differences
        self.diffs = tuple(
            tuple(np.empty(s) for s in ((h, w - 1),) * 3 + ((h - 1, w),) * 3)
            for _ in range(2)
        )

    def _gather(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Raster a at the photometric term's pixels, gathered into out (a new
        array if None); a's values at the other pixels are never read."""
        # every index is in range, so take's "wrap" changes no value; its
        # default "raise" would buffer the output
        return a.reshape(-1).take(self.active, out=out, mode="wrap")

    def _scatter_product(self, rho: np.ndarray, partial: np.ndarray, grad: np.ndarray):
        """grad = rho * partial at the photometric term's pixels, 0 elsewhere;
        partial serves as scratch."""
        partial *= rho
        flat = grad.reshape(-1)
        flat.fill(0.0)
        flat[self.active] = partial
        return grad

    def loss(self, u: np.ndarray, v: np.ndarray) -> float:
        """l_f at (u, v); a sample outside the raster reads I_t1 at its
        clamped position."""
        cfg = self.cfg
        eps2 = cfg.charbonnier_eps * cfg.charbonnier_eps
        np.add(self.grid_x, self._gather(u, self.fx), out=self.fx)
        np.add(self.grid_y, self._gather(v, self.fy), out=self.fy)
        corners, fx, fy, _ = _footprint(
            self.it1, self.fx, self.fy, with_mask=False,
            out=(self.fx, self.fy, self.x0, self.y0, self.corners),
        )
        sampled = _interpolate(corners, fx, fy,
                               out=(self.residual, self.ddy, self.dx_top, self.dx_bottom))[0]
        residual = np.subtract(self.it, sampled, out=sampled)
        base = np.multiply(residual, residual, out=self.base)
        base += eps2
        power = _charbonnier_power(base, cfg.charbonnier_alpha, out=self.power)
        # fx is scratch once the interpolant is built; power stays for gradient()
        loss = float(np.sum(np.multiply(power, self.weights, out=self.fx)))
        return self.smoothness(u, v, loss) if cfg.alpha > 0 else loss

    def smoothness(self, u: np.ndarray, v: np.ndarray, loss: float) -> float:
        """loss plus alpha times each flow channel's smoothness sum, added in
        turn; the differences, their bases and powers stay for gradient()."""
        cfg = self.cfg
        eps2 = cfg.charbonnier_eps * cfg.charbonnier_eps
        ca = cfg.charbonnier_alpha
        for channel, (dh, bh, ph, dv, bv, pv) in zip((u, v), self.diffs):
            np.subtract(channel[:, 1:], channel[:, :-1], out=dh)
            np.subtract(channel[1:, :], channel[:-1, :], out=dv)
            np.multiply(dh, dh, out=bh)
            bh += eps2
            np.multiply(dv, dv, out=bv)
            bv += eps2
            loss += cfg.alpha * float(np.sum(_charbonnier_power(bh, ca, out=ph))
                                      + np.sum(_charbonnier_power(bv, ca, out=pv)))
        return loss

    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """d l_f / d(u, v) at the flow of the last loss, from its terms."""
        cfg = self.cfg
        ca = cfg.charbonnier_alpha
        slope = 2.0 * ca  # rho'(x) = slope * x * (base^a / base)
        rho = np.multiply(self.residual, slope, out=self.residual)
        rho *= np.divide(self.power, self.base, out=self.base)
        rho *= self.weights
        np.negative(rho, out=rho)
        # the x-partial (1 - fy) * dx_top + fy * dx_bottom, into dx_top
        fy, x_partial = self.fy, self.dx_top
        self.dx_bottom *= fy
        np.subtract(1.0, fy, out=fy)
        x_partial *= fy
        x_partial += self.dx_bottom
        gu = self._scatter_product(rho, x_partial, self.gu)
        gv = self._scatter_product(rho, self.ddy, self.gv)
        if cfg.alpha > 0:
            for grad, (dh, bh, ph, dv, bv, pv) in zip((gu, gv), self.diffs):
                for d, b, power, ahead, behind in (
                    (dh, bh, ph, np.s_[:, 1:], np.s_[:, :-1]),
                    (dv, bv, pv, np.s_[1:, :], np.s_[:-1, :]),
                ):
                    term = np.multiply(d, slope, out=d)
                    term *= np.divide(power, b, out=b)
                    term *= cfg.alpha
                    grad[ahead] += term
                    grad[behind] -= term
        return gu, gv


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
_STEP_FLOOR = 1e-14  # a level stops when its step halves below this
_ITERS_PER_LEVEL = 200  # a level stops after this many iterations
_CONVERGENCE_TOL = 1e-6  # or once an accepted step lowers the loss by at most this share


def _first_step(cfg: FlowSolverConfig) -> float:
    """min(1, 2^ceil(log2(2 / L))), L = 8 * alpha * 2a * eps^(2a - 2), floored
    at the power of two just above _STEP_FLOOR (see FlowSolverConfig).

    log2(2 / L) is summed in log space: eps^(2a - 2) overflows for a tiny eps
    (1e-300 ** -1.1 raises OverflowError) and 8 * alpha for a huge alpha.
    """
    if cfg.alpha == 0:
        return 1.0
    a = cfg.charbonnier_alpha
    exponent = math.ceil(1.0 - math.log2(cfg.alpha) - math.log2(16.0 * a)
                         + (2.0 - 2.0 * a) * math.log2(cfg.charbonnier_eps))
    return math.ldexp(1.0, min(0, max(exponent, math.ceil(math.log2(_STEP_FLOOR)))))


def _descend(u, v, ws: _Workspace, level: int):
    # The objective counts out-of-bounds samples through the border clamp:
    # zeroing them would make it discontinuous wherever a sample crosses the
    # raster edge, and plain gradient descent jams on those ridges.
    # A candidate is scored by its loss alone; the gradient is finished only
    # for an accepted step that the descent goes on from.  The flow and the
    # candidate live in two buffer pairs that swap roles on an accepted step,
    # so the caller's u and v are never written.
    cfg = ws.cfg
    u, v = u.copy(), v.copy()
    cu, cv = np.empty_like(u), np.empty_like(v)
    loss = ws.loss(u, v)
    if not np.isfinite(loss):
        raise SolverDivergenceError(level, 0, loss)
    gu, gv = ws.gradient()
    step = first = _first_step(cfg)
    accepted = rejected = 0
    stop = "iteration cap"
    for iteration in range(1, _ITERS_PER_LEVEL + 1):
        np.subtract(u, np.multiply(gu, step, out=cu), out=cu)
        np.subtract(v, np.multiply(gv, step, out=cv), out=cv)
        cand = ws.loss(cu, cv)
        if not np.isfinite(cand):
            raise SolverDivergenceError(level, iteration, cand)
        if cand > loss:
            rejected += 1
            step *= 0.5
            if step < _STEP_FLOOR:
                stop = "step underflow"
                break
            continue
        accepted += 1
        drop = loss - cand
        u, v, cu, cv, loss = cu, cv, u, v, cand
        if drop <= _CONVERGENCE_TOL * max(abs(loss), 1e-12):
            stop = "converged"
            break
        gu, gv = ws.gradient()
        step *= _STEP_GROWTH
    if _log.isEnabledFor(logging.DEBUG):
        h, w = ws.shape
        _log.debug("level %d, %dx%d: photometric term on %d of %d pixels; %d iterations, "
                   "%d accepted, %d rejected; first step %.6g, final step %.6g; stopped: %s",
                   level, w, h, ws.pixels, h * w, accepted + rejected, accepted, rejected,
                   first, step, stop)
    return u, v, loss


def estimate_flow(
    em: Optional[EventMap],
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig = FlowSolverConfig(),
) -> tuple[FlowField, float]:
    """Coarse-to-fine minimization of the combined objective over the flow field.

    Given an event map, the photometric term is trusted only where the map
    saw events; elsewhere the smoothness term fills in.  Given None, it weighs
    every pixel.  Returns the finest-level flow and the objective the descent
    reached there: total_loss at that flow before it is stored as float32.

    Refused before any descent: an em that is neither an EventMap nor None
    (TypeError), an event map whose shape differs from the images'
    (ShapeMismatchError), and with ValueError an image holding a
    non-finite pixel (the message names img_t or img_t1) and an event map with
    no active pixel, which leaves the photometric term nothing to weigh and
    would return zero flow.
    """
    it = _gray(img_t)
    it1 = _gray(img_t1)
    if it.shape != it1.shape:
        raise ShapeMismatchError(f"image shapes differ: {it.shape} vs {it1.shape}")
    for name, img in (("img_t", it), ("img_t1", it1)):
        if not np.all(np.isfinite(img)):
            raise ValueError(f"{name} holds non-finite pixels")
    if em is None:
        weights = np.ones(it.shape)  # block means of ones stay exactly ones
    elif not isinstance(em, EventMap):
        raise TypeError(f"em must be an EventMap or None, got {type(em).__name__}")
    else:
        if em.pos_count.shape != it.shape:
            raise ShapeMismatchError("event map dimensions differ from images")
        weights = event_mask(em).astype(np.float64)
        if not weights.any():
            raise ValueError("the event map needs at least one active pixel")

    max_levels = 1
    side = min(it.shape)
    while side >= 8 and max_levels < cfg.pyramid_levels:
        side //= 2
        max_levels += 1
    pyramid = [(it, it1, weights)]
    for _ in range(max_levels - 1):
        pit, pit1, pw = pyramid[-1]
        pyramid.append((_downsample2(pit), _downsample2(pit1), _downsample2(pw)))

    lit, lit1, lw = pyramid[-1]
    u = np.zeros(lit.shape, dtype=np.float64)
    v = np.zeros(lit.shape, dtype=np.float64)
    for level in range(len(pyramid) - 1, -1, -1):
        lit, lit1, lw = pyramid[level]
        if u.shape != lit.shape:
            u = _upsample2(u, lit.shape) * 2.0
            v = _upsample2(v, lit.shape) * 2.0
        u, v, loss = _descend(u, v, _Workspace(lit.shape, lit, lit1, lw, cfg), level)
    return FlowField(u, v), loss

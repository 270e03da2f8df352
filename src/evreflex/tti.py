"""Inverse time-to-impact maps from depth pairs and optical flow.

Units: flow is px/frame, depth is metres; dividing the per-frame fractional
range closure by the frame interval dt gives inverse TTI in 1/s, so "collides
within H seconds" is the threshold tau >= 1/H.  All producers clamp at zero:
receding surfaces carry no danger.

A TtiMap stores its inverse TTI raster itself, with the checks and the
read-only float32 copy of an INV_TTI_S FloatMap, beside its frame interval
and validity mask.

Validity masks combine depth validity (sentinel 0 marks holes), warp validity
(sample stayed inside the raster) and an occlusion guard that rejects samples
whose bilinear footprint straddles a depth discontinuity, where interpolated
depth would blend foreground and background.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import _warp
from .types import (
    FloatMap,
    FlowField,
    MapSemantics,
    UndefinedMetricError,
    _check_positive,
    _check_shapes,
    _frozen,
    _raster,
)

__all__ = [
    "TtiMap",
    "ground_truth_inverse_tti",
    "estimate_tti_static",
    "estimate_tti_dynamic",
    "tti_mse",
    "threshold_collision",
    "OCCLUSION_JUMP_RATIO",
]

# A warp footprint whose depth spread exceeds this fraction of the current
# depth is treated as straddling an occlusion boundary and marked invalid.
OCCLUSION_JUMP_RATIO = 0.25


@dataclass(frozen=True, eq=False)
class TtiMap:
    """Inverse TTI raster (1/s), finite and non-negative, with its positive
    frame interval and a bool validity mask; both arrays stored read-only."""

    values: np.ndarray
    dt: float
    valid: np.ndarray

    def __post_init__(self):
        _check_positive("dt", self.dt)
        values = FloatMap(self.values, MapSemantics.INV_TTI_S).values
        valid = np.asarray(self.valid)
        if valid.dtype != bool:
            raise TypeError(f"valid must be a bool array, got {valid.dtype}")
        _check_shapes(valid=valid.shape, values=values.shape)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", _frozen(valid, bool))


def _warp_depth(depth: np.ndarray, flow: FlowField):
    """Bilinear depth sample at i + F(i).

    Returns (values, in_bounds, footprint_ok) where footprint_ok requires all
    four interpolation corners to hold valid depth with a bounded spread.
    """
    # the stored float32 channels: the sample positions xs + u widen them
    # exactly, so float64 copies of them would only cost time
    values, in_bounds, (c00, c01, c10, c11) = _warp(depth, flow.u, flow.v)
    lo = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
    hi = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
    footprint_ok = (lo > 0) & (hi - lo <= OCCLUSION_JUMP_RATIO * lo)
    return values, in_bounds, footprint_ok


def _range_closure(
    flow: FlowField,
    d_curr: FloatMap,
    d_other: FloatMap,
    dt: float,
    forward: bool,
) -> TtiMap:
    """Clamped fractional range closure between d_curr and d_other warped by flow.

    flow maps current-frame pixels into d_other's frame; forward says that
    frame is the next one (closure d_curr - warped) rather than the previous
    one (closure warped - d_curr).
    """
    _check_positive("dt", dt)
    curr = _raster("d_curr", d_curr, flow=flow.u.shape)
    # no name holds d_other's float64 copy, so it is freed once warped;
    # holding it to the end made simulate_sequence about 5% slower (346x260,
    # 2-core x86-64, numpy 2.4)
    warped, in_bounds, footprint_ok = _warp_depth(
        _raster("d_next" if forward else "d_prev", d_other, flow=flow.u.shape), flow)
    valid = in_bounds & (curr > 0) & footprint_ok
    closure = curr - warped if forward else warped - curr
    tau = np.zeros(curr.shape, dtype=np.float64)
    np.divide(closure, curr * dt, out=tau, where=valid)
    np.maximum(tau, 0.0, out=tau)
    return TtiMap(tau, float(dt), valid)


def ground_truth_inverse_tti(
    d_prev: FloatMap,
    d_curr: FloatMap,
    flow_to_prev: FlowField,
    dt: float,
) -> TtiMap:
    """Per-frame fractional range closure from warped previous depth.

    tau(i) = max(0, (d_prev(i + F(i)) - d_curr(i)) / (d_curr(i) * dt)) with
    flow_to_prev mapping current-frame pixels to their previous-frame locations.
    Approaching surfaces give positive tau; receding ones clamp to zero.
    """
    return _range_closure(flow_to_prev, d_curr, d_prev, dt, forward=False)


def estimate_tti_static(flow: FlowField, d_curr: FloatMap, dt: float) -> TtiMap:
    """Divergence-based inverse TTI from flow alone.

    For fronto-parallel approach the flow field expands radially with
    div F = 2/TTC per frame, so tau = div F / (2 dt).  Depth only gates
    validity here (and rides along for the policy's 3-D lifting).
    """
    _check_positive("dt", dt)
    curr = _raster("d_curr", d_curr, flow=flow.u.shape)
    du_dx = np.gradient(np.asarray(flow.u, dtype=np.float64), axis=1)
    dv_dy = np.gradient(np.asarray(flow.v, dtype=np.float64), axis=0)
    valid = curr > 0
    tau = np.maximum((du_dx + dv_dy) / (2.0 * dt), 0.0)
    tau[~valid] = 0.0
    return TtiMap(tau, float(dt), valid)


def estimate_tti_dynamic(
    flow: FlowField,
    d_curr: FloatMap,
    d_next: FloatMap,
    dt: float,
) -> TtiMap:
    """Inverse TTI from the next depth frame warped by forward flow.

    tau(i) = max(0, (d_curr(i) - d_next(i + F(i))) / (d_curr(i) * dt)); flow
    maps current-frame pixels to their next-frame locations.
    """
    return _range_closure(flow, d_curr, d_next, dt, forward=True)


def tti_mse(pred: TtiMap, gt: TtiMap) -> float:
    """Mean squared difference over jointly valid pixels.

    The difference is taken over the stored float32 values, cast to float64.
    """
    _check_shapes(pred=pred.values.shape, gt=gt.values.shape)
    if abs(pred.dt - gt.dt) > 1e-12:
        raise ValueError(f"frame intervals differ: {pred.dt} vs {gt.dt}")
    joint = pred.valid & gt.valid
    if not joint.any():
        raise UndefinedMetricError("no jointly valid pixels")
    diff = pred.values.astype(np.float64) - gt.values.astype(np.float64)
    return float(np.mean(diff[joint] ** 2))


def threshold_collision(t: TtiMap, horizon: float) -> np.ndarray:
    """Binary danger mask: valid pixels projected to collide within `horizon` seconds."""
    _check_positive("horizon", horizon)
    return t.valid & (t.values >= 1.0 / horizon)

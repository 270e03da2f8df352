"""Evasion policy: aggregate flow/depth/TTI into an obstacle motion vector and
pick a direction perpendicular to it and to the agent's egomotion.

The policy has no notion of whether the resulting motion is itself safe; it
exists to move away from the most imminent obstacle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import CameraModel, FloatMap, FlowField, _check_finite, _check_shape, _check_shapes
from .tti import TtiMap

__all__ = ["EgoMotion", "EvasionResult", "obstacle_motion_vector", "evasion_direction"]

_DEGENERATE_CROSS = 1e-9


@dataclass(frozen=True)
class EgoMotion:
    """Camera-frame velocity of the agent in m/s; Z is the optical axis."""

    v: tuple[float, float, float]

    def __post_init__(self):
        _check_shape(self, (3,), "v")
        _check_finite(self, "v")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.v, dtype=np.float64)


@dataclass(frozen=True)
class EvasionResult:
    """Evasion direction psi (unit length or zero) and its provenance."""

    motion_vec: tuple[float, float, float]
    psi: tuple[float, float, float]
    degenerate: bool
    pixel_count: int


def obstacle_motion_vector(
    flow: FlowField,
    depth: FloatMap,
    t: TtiMap,
    danger_mask: np.ndarray,
    camera: CameraModel,
) -> tuple[np.ndarray, int]:
    """Mean 3-D motion over the danger mask, in m/s.

    Per pixel the transverse components are the flow lifted to metric
    (u * d / (fx * dt), v * d / (fy * dt)) and the radial one is d * tau.  Both
    are formed in float64 from the stored float32 values.  Returns (vector,
    contributing pixel count); an empty mask yields the zero vector.  Rasters,
    mask and camera must share one (height, width), else ShapeMismatchError.
    """
    mask = np.asarray(danger_mask, dtype=bool)
    _check_shapes(flow=flow.u.shape, depth=depth.values.shape, t=t.values.shape,
                  danger_mask=mask.shape, camera=(camera.height, camera.width))
    count = int(mask.sum())
    if count == 0:
        return np.zeros(3, dtype=np.float64), 0
    u = flow.u[mask].astype(np.float64)
    v = flow.v[mask].astype(np.float64)
    d = depth.values[mask].astype(np.float64)
    tau = t.values[mask].astype(np.float64)
    u = u * d / (camera.fx * t.dt)
    v = v * d / (camera.fy * t.dt)
    vec = np.array([u.mean(), v.mean(), (d * tau).mean()], dtype=np.float64)
    return vec, count


def evasion_direction(motion_vec, ego: EgoMotion, pixel_count: int = 0) -> EvasionResult:
    """Unit evasion direction psi = normalize(motion_vec x v).

    When the cross product degenerates (parallel or zero vectors) the fallback
    is camera-frame +X projected orthogonal to v, so a head-on obstacle still
    produces a decisive sideways direction; the zero vector is returned only if
    that too degenerates.  pixel_count records how many pixels fed motion_vec.
    A motion vector with a NaN or infinite component is refused with
    ValueError: its cross product is NaN, which would read as degenerate.
    """
    m = np.asarray(motion_vec, dtype=np.float64)
    if m.shape != (3,):
        raise ValueError(f"motion vector must be a 3-vector, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"motion vector must be finite, got {m}")
    v = ego.as_array()
    cross = np.cross(m, v)
    norm = float(np.linalg.norm(cross))
    if norm >= _DEGENERATE_CROSS:
        psi = cross / norm
        degenerate = False
    else:
        degenerate = True
        x_axis = np.array([1.0, 0.0, 0.0])
        v_norm = float(np.linalg.norm(v))
        if v_norm < _DEGENERATE_CROSS:
            psi = x_axis
        else:
            vhat = v / v_norm
            proj = x_axis - np.dot(x_axis, vhat) * vhat
            proj_norm = float(np.linalg.norm(proj))
            psi = proj / proj_norm if proj_norm >= _DEGENERATE_CROSS else np.zeros(3)
    return EvasionResult(
        motion_vec=tuple(float(c) for c in m),
        psi=tuple(float(c) for c in psi),
        degenerate=degenerate,
        pixel_count=pixel_count,
    )

"""Synthetic sequence generator: a camera on a floor-based trajectory inside a
closed textured room with flying sphere obstacles.

Geometry is analytic (axis-aligned box + spheres, ray-cast per pixel), so
depth, optical flow and semantic maps are exact.  The rays of a camera pose
(pixel grid, world directions and their squared norms) are computed once and
shared by every frame with that pose, and so is the pose's room table: per
world axis, the face bound each ray's sign selects, that face's id and the rays
parallel to the axis' faces.  A frame then only divides each bound's distance
from the camera by the ray direction and keeps the nearest face.  Arithmetic
that combines an (H, W, 3) array with a 3-vector runs on the array's (H, 3W)
row view against the vector tiled W times: the same float operations, without
numpy's inner loop over an axis of length 3, which costs several times more.
Products with the camera basis stay BLAS products on the (H, W, 3) array, since
written out as sums they round differently.  Each sphere's ray quadratic has
its discriminant evaluated only on the band of rows whose rays can meet it, and
its roots only where the discriminant is non-negative; normals, shading,
classes and material motion touch only the pixels the sphere owns.  Events are
emulated from the rendered intensity stream by log-intensity threshold
crossings: each pixel's reference level stays on a fixed lattice of contrast
thresholds above and below its first log intensity (an integer index per pixel,
as in ESIM's fixed contrast levels), and every lattice level the log intensity
passes is one event, its time linearly interpolated between frames.  This is a
frame-based stand-in for a true adaptive-rate event renderer.

World frame: Z up, floor at z = 0, room spanning [-hx, hx] x [-hy, hy] x
[0, 2*hz].  The camera looks along its yaw heading in the X-Y plane; camera
axes are x right, y down, z forward (optical axis).  Flat-coloured (textureless)
surfaces are first-class: they render constant intensity and generate no
events, which is the motivating failure case for event-only perception.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .flow import _pixel_grid
from .tti import TtiMap, ground_truth_inverse_tti
from .types import (
    CameraModel,
    FloatMap,
    FlowField,
    MapSemantics,
    ShapeMismatchError,
    _check_finite,
    float_map,
    flow_field,
    make_events,
)

__all__ = [
    "TextureSpec",
    "SphereObstacle",
    "TrajectorySpec",
    "SceneConfig",
    "Frame",
    "SequenceResult",
    "PoseError",
    "default_camera",
    "render_frame",
    "generate_events",
    "simulate_sequence",
    "LOG_EPS",
]

LOG_EPS = 1e-3  # guards log(0) in the event emulator
_TINY = 1e-12  # ray parameters and direction components at or below it count as zero
_AMBIENT = 0.25  # sphere shading floor so unlit sides stay visible

CLASS_STATIC = 0
CLASS_FLOOR = 1
CLASS_FLYING = 2


class PoseError(ValueError):
    """Camera pose left the room interior."""


def default_camera() -> CameraModel:
    return CameraModel(fx=100.0, fy=100.0, cx=31.5, cy=31.5, width=64, height=64)


@dataclass(frozen=True)
class TextureSpec:
    """Procedural surface colour.

    'flat' is a constant base value; 'checker' is a band-limited checkerboard
    (product of sines with the given period in metres), which keeps point
    sampling alias-free and gives the flow solver smooth gradients.
    """

    kind: str = "checker"
    amplitude: float = 0.6
    period_m: float = 0.5
    base: float = 0.5

    def __post_init__(self):
        if self.kind not in ("flat", "checker"):
            raise ValueError(f"kind must be 'flat' or 'checker', got '{self.kind}'")
        _check_finite(self, "period_m", "base")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if not self.period_m > 0:
            raise ValueError("period_m must be positive")

    def sample(self, su: np.ndarray, sv: np.ndarray) -> np.ndarray:
        if self.kind == "flat" or self.amplitude == 0.0:
            return np.full(su.shape, self.base, dtype=np.float64)
        w = 2.0 * math.pi / self.period_m
        return self.base + 0.5 * self.amplitude * np.sin(w * su) * np.sin(w * sv)


@dataclass(frozen=True)
class SphereObstacle:
    """A rigid sphere translating at constant velocity."""

    radius: float
    start: tuple[float, float, float]
    velocity: tuple[float, float, float]
    class_id: int = CLASS_FLYING
    albedo: float = 0.9

    def __post_init__(self):
        _check_finite(self, "radius", "start", "velocity")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not 0.0 <= self.albedo <= 1.0:
            raise ValueError("albedo must be in [0, 1]")

    def center(self, t: float) -> np.ndarray:
        return np.asarray(self.start, dtype=np.float64) + t * np.asarray(
            self.velocity, dtype=np.float64
        )


@dataclass(frozen=True)
class TrajectorySpec:
    """Floor-plane waypoints (x, y, yaw_deg) visited in order.

    Translation segments run at `speed` m/s with yaw interpolated across the
    segment; zero-length segments with a yaw change become turns in place at
    `yaw_rate_deg` deg/s.  After the last waypoint the camera holds pose.
    """

    waypoints: tuple[tuple[float, float, float], ...] = ((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    speed: float = 0.5
    yaw_rate_deg: float = 45.0

    def __post_init__(self):
        if not self.waypoints:
            raise ValueError("waypoints must hold at least one waypoint")
        _check_finite(self, "speed", "yaw_rate_deg", "waypoints")
        if not self.speed > 0:
            raise ValueError("speed must be positive")
        if not self.yaw_rate_deg > 0:
            raise ValueError("yaw_rate_deg must be positive")


class _Trajectory:
    """Compiled piecewise-linear pose timeline."""

    def __init__(self, spec: TrajectorySpec):
        self.knot_times = [0.0]
        self.knots = [np.array(spec.waypoints[0], dtype=np.float64)]
        for wp in spec.waypoints[1:]:
            wp = np.array(wp, dtype=np.float64)
            prev = self.knots[-1]
            dist = math.hypot(wp[0] - prev[0], wp[1] - prev[1])
            dyaw = abs(wp[2] - prev[2])
            if dist > 1e-12:
                seg_t = dist / spec.speed
            elif dyaw > 1e-12:
                seg_t = dyaw / spec.yaw_rate_deg
            else:
                continue
            self.knot_times.append(self.knot_times[-1] + seg_t)
            self.knots.append(wp)

    def pose(self, t: float) -> tuple[np.ndarray, float]:
        """Position (x, y) and yaw in radians at time t (clamped to the timeline)."""
        times, knots = self.knot_times, self.knots
        if t <= times[0] or len(knots) == 1:
            wp = knots[0]
        elif t >= times[-1]:
            wp = knots[-1]
        else:
            j = int(np.searchsorted(times, t, side="right")) - 1
            f = (t - times[j]) / (times[j + 1] - times[j])
            wp = knots[j] + f * (knots[j + 1] - knots[j])
        return wp[:2].copy(), math.radians(wp[2])


def _camera_basis(yaw: float) -> np.ndarray:
    """World-frame camera axes as columns [right, down, forward]."""
    c, s = math.cos(yaw), math.sin(yaw)
    right = (s, -c, 0.0)
    down = (0.0, 0.0, -1.0)
    forward = (c, s, 0.0)
    return np.array([right, down, forward], dtype=np.float64).T


@dataclass(frozen=True)
class SceneConfig:
    """Full description of one synthetic sequence."""

    half_extents: tuple[float, float, float] = (3.0, 3.0, 1.5)
    wall_texture: TextureSpec = field(default_factory=TextureSpec)
    floor_texture: TextureSpec = field(default_factory=lambda: TextureSpec(amplitude=0.5))
    ceiling_texture: TextureSpec = field(default_factory=lambda: TextureSpec(kind="flat", amplitude=0.0))
    obstacles: tuple[SphereObstacle, ...] = ()
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    camera: CameraModel = field(default_factory=default_camera)
    camera_height: float = 1.5
    frame_rate: float = 20.0
    duration: float = 1.0
    contrast_threshold: float = 0.15
    light_dir: tuple[float, float, float] = (0.3, -0.5, 0.8)
    rng_seed: int = 0
    random_obstacles: int = 0

    def __post_init__(self):
        _check_finite(self, "half_extents", "frame_rate", "duration", "contrast_threshold")
        if not all(h > 0 for h in self.half_extents):
            raise ValueError("half_extents must be positive")
        if not self.frame_rate > 0:
            raise ValueError("frame_rate must be positive")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not self.duration * self.frame_rate >= 1:
            raise ValueError("duration must span at least one frame interval (1 / frame_rate)")
        if not self.contrast_threshold > 0:
            raise ValueError("contrast_threshold must be positive")
        if not 0 < self.camera_height < 2 * self.half_extents[2]:
            raise ValueError("camera_height must lie between floor and ceiling")
        if not self.random_obstacles >= 0:
            raise ValueError("random_obstacles must be >= 0")
        if not self.rng_seed >= 0:
            raise ValueError("rng_seed must be >= 0")
        norm = np.linalg.norm(np.asarray(self.light_dir, dtype=np.float64))
        if not (np.isfinite(norm) and norm > 0):
            raise ValueError("light_dir must be a finite non-zero vector")

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate

    def frame_times(self) -> np.ndarray:
        n = max(2, int(round(self.duration * self.frame_rate)))
        return np.arange(n, dtype=np.float64) / self.frame_rate

    def realized_obstacles(self) -> tuple[SphereObstacle, ...]:
        """Configured obstacles plus `random_obstacles` seeded random spheres."""
        if self.random_obstacles == 0:
            return self.obstacles
        rng = np.random.default_rng(self.rng_seed)
        hx, hy, hz = self.half_extents
        extra = []
        for _ in range(self.random_obstacles):
            radius = rng.uniform(0.1, 0.35)
            start = (
                rng.uniform(-hx + radius + 0.2, hx - radius - 0.2),
                rng.uniform(-hy + radius + 0.2, hy - radius - 0.2),
                rng.uniform(radius + 0.1, 2 * hz - radius - 0.1),
            )
            speed = rng.uniform(0.5, 3.0)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            extra.append(
                SphereObstacle(
                    radius=radius,
                    start=start,
                    velocity=tuple(speed * direction),
                    class_id=CLASS_FLYING,
                    albedo=rng.uniform(0.5, 1.0),
                )
            )
        return self.obstacles + tuple(extra)


@dataclass(frozen=True, eq=False)
class Frame:
    """One simulator time slice.

    flow_fwd maps pixels at t to t+dt, flow_bwd to t-dt; they are None at the
    ends of the sequence where the neighbour frame does not exist.
    """

    t: float
    intensity: FloatMap
    depth: FloatMap
    class_map: FloatMap
    flow_fwd: Optional[FlowField]
    flow_bwd: Optional[FlowField]
    position: tuple[float, float, float]
    yaw: float


class _Raycast:
    """Per-pixel hit result for one camera pose."""

    __slots__ = ("depth", "points", "obj", "owned")

    def __init__(self, depth, points, obj, owned):
        self.depth = depth  # camera-frame Z (ray parameter), (H, W)
        self.points = points  # world hit points, (H, W, 3)
        self.obj = obj  # 0..5 room faces, 6+i for obstacle i
        self.owned = owned  # owned[i]: flat indices of the pixels obstacle i owns


@functools.lru_cache(maxsize=4)
def _rays(cam: CameraModel, basis: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The ray table of one camera pose, read-only: world directions dirs,
    (H, W, 3), whose ray parameter equals camera-frame Z, and a = |dirs|^2,
    (H, W), the rays' quadratic coefficient.

    basis is the bytes of the camera basis.  Keyed by them, not by yaw: yaw
    0.0 and -0.0 compare equal, but their bases differ in the sign of zeros.
    """
    rot = np.frombuffer(basis).reshape(3, 3)
    ys, xs = _pixel_grid((cam.height, cam.width))
    dirs_cam = np.stack(
        [(xs - cam.cx) / cam.fx, (ys - cam.cy) / cam.fy, np.ones_like(xs)], axis=-1
    )
    dirs = dirs_cam @ rot.T
    a = np.sum(dirs * dirs, axis=-1)
    dirs.flags.writeable = False
    a.flags.writeable = False
    return dirs, a


@functools.lru_cache(maxsize=4)
def _room(cam: CameraModel, basis: bytes, half_extents: tuple[float, float, float]):
    """The room-face table of one camera pose in one room, read-only: per
    world axis, the bound of the face each ray heads for, (H, W); that face's
    id, (H, W) int8, {-x:0, +x:1, -y:2, +y:3, floor:4, ceiling:5}; and the flat
    indices of the rays with |d| <= _TINY, d the ray's component along the
    axis, which meet neither face of the axis.

    Keyed like _rays, plus the room: two rooms seen from one pose put their
    walls at different distances.
    """
    dirs, _ = _rays(cam, basis)
    hx, hy, hz = half_extents
    table = []
    for axis, (lo, hi) in enumerate(((-hx, hx), (-hy, hy), (0.0, 2 * hz))):
        d = dirs[..., axis]
        ahead = d > 0
        bound = np.where(ahead, float(hi), float(lo))
        face = axis * 2 + ahead.astype(np.int8)
        parallel = np.flatnonzero(np.abs(d) <= _TINY)
        for arr in (bound, face, parallel):
            arr.flags.writeable = False
        table.append((bound, face, parallel))
    return tuple(table)


def _row_band(cam: CameraModel, centre: np.ndarray, radius: float) -> tuple[int, int]:
    """Rows [r0, r1) whose rays can meet a sphere, padded by one row.

    centre is the sphere's centre in the camera frame.  The rays of row y span
    the plane through the camera's x-axis at angle atan((y - cy) / fy) from the
    optical axis; a ray meets the sphere only if that plane passes within
    radius of the centre.
    """
    rho = math.hypot(centre[1], centre[2])  # centre's distance from the x-axis
    if radius >= rho:  # every plane through the x-axis cuts the sphere
        return 0, cam.height
    phi = math.atan2(centre[1], centre[2])
    # a plane is a line in the (y, z) cross-section: its angle is defined mod pi
    if phi > math.pi / 2:
        phi -= math.pi
    elif phi <= -math.pi / 2:
        phi += math.pi
    alpha = math.asin(radius / rho)
    if phi - alpha <= -math.pi / 2 or phi + alpha >= math.pi / 2:
        return 0, cam.height  # the band wraps past the image plane: keep every row
    y_lo = cam.cy + cam.fy * math.tan(phi - alpha)
    y_hi = cam.cy + cam.fy * math.tan(phi + alpha)
    r0 = max(0, math.ceil(min(y_lo, cam.height) - 1.0))
    r1 = min(cam.height, math.floor(max(y_hi, 0.0) + 1.0) + 1)
    return r0, r1


def _cast(scene: SceneConfig, obstacles, origin: np.ndarray, yaw: float, t: float) -> _Raycast:
    cam = scene.camera
    rot = _camera_basis(yaw)
    basis = rot.tobytes()
    dirs, norms2 = _rays(cam, basis)

    # The pose's room table holds, per axis, each ray's face bound and face id
    # and the rays parallel to the axis' faces: a frame only divides the
    # bound's offset from the origin by the ray direction and keeps the
    # nearest face.
    best_t = np.full(dirs.shape[:2], np.inf)
    best_obj = np.full(dirs.shape[:2], -1, dtype=np.int32)
    for axis, (bound, face, parallel) in enumerate(_room(cam, basis, tuple(scene.half_extents))):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_plane = (bound - origin[axis]) / dirs[..., axis]
        t_plane.ravel()[parallel] = np.inf
        closer = t_plane < best_t
        np.copyto(best_t, t_plane, where=closer)
        np.copyto(best_obj, face, where=closer)

    # b and the discriminant cover the sphere's band of rows: a row-slice view
    # runs each row's matmul exactly as the whole raster would, so it keeps
    # its rounding.  The roots are solved only on the rays that meet the
    # sphere (disc >= 0).
    flat_t = best_t.reshape(-1)
    flat_obj = best_obj.reshape(-1)
    for i, sphere in enumerate(obstacles):
        oc = origin - sphere.center(t)
        r0, r1 = _row_band(cam, -oc @ rot, sphere.radius)
        if r0 >= r1:
            continue
        b = 2.0 * (dirs[r0:r1] @ oc).ravel()
        a = norms2[r0:r1].ravel()
        c = float(oc @ oc) - sphere.radius**2
        disc = b * b - 4.0 * a * c
        hit = np.flatnonzero(disc >= 0)
        if hit.size == 0:
            continue
        bi, ai = b[hit], a[hit]
        sq = np.sqrt(disc[hit])
        t1 = (-bi - sq) / (2.0 * ai)
        t2 = (-bi + sq) / (2.0 * ai)
        t_sph = np.where(t1 > _TINY, t1, np.where(t2 > _TINY, t2, np.inf))
        idx = hit + r0 * cam.width
        closer = t_sph < flat_t[idx]
        flat_t[idx[closer]] = t_sph[closer]
        flat_obj[idx[closer]] = 6 + i

    # origin + best_t * dirs on (H, 3W) rows, in one buffer: the same products
    # and sums as on (H, W, 3), without numpy's inner loop over an axis of
    # length 3.
    h, w = best_t.shape
    points = np.repeat(best_t, 3, axis=1)
    points *= dirs.reshape(h, 3 * w)
    points += np.tile(origin, w)
    points = points.reshape(h, w, 3)
    owned = [np.flatnonzero(flat_obj == 6 + i) for i in range(len(obstacles))]
    return _Raycast(depth=best_t, points=points, obj=best_obj, owned=owned)


def _shade(scene: SceneConfig, obstacles, cast: _Raycast, t: float) -> np.ndarray:
    p = cast.points.reshape(-1, 3)
    obj = cast.obj.ravel()
    out = np.zeros(obj.shape, dtype=np.float64)
    face_planes = {  # face id -> in-plane world coordinates
        0: (1, 2),
        1: (1, 2),
        2: (0, 2),
        3: (0, 2),
        4: (0, 1),
        5: (0, 1),
    }
    for face, tex in ((0, scene.wall_texture), (1, scene.wall_texture),
                      (2, scene.wall_texture), (3, scene.wall_texture),
                      (4, scene.floor_texture), (5, scene.ceiling_texture)):
        idx = np.flatnonzero(obj == face)
        if idx.size:
            au, av = face_planes[face]
            out[idx] = tex.sample(p[idx, au], p[idx, av])
    light = np.asarray(scene.light_dir, dtype=np.float64)
    light = light / np.linalg.norm(light)
    for sphere, idx in zip(obstacles, cast.owned):
        if idx.size:
            normals = (p.take(idx, axis=0) - sphere.center(t)) / sphere.radius
            lambert = np.maximum(normals @ light, 0.0)
            out[idx] = sphere.albedo * (_AMBIENT + (1.0 - _AMBIENT) * lambert)
    return np.clip(out.reshape(cast.depth.shape), 0.0, 1.0)


def _flow_to(scene: SceneConfig, obstacles, cast: _Raycast, t_from: float, t_to: float,
             traj: _Trajectory) -> FlowField:
    cam = scene.camera
    pos2, yaw2 = traj.pose(t_to)
    origin2 = np.array([pos2[0], pos2[1], scene.camera_height])
    # Each hit point at t_to less the camera centre at t_to: p - origin2 on
    # (H, 3W) rows, (p + velocity * dt) - origin2 on the pixels a sphere owns.
    h, w = cast.depth.shape
    offsets = cast.points.reshape(h, 3 * w) - np.tile(origin2, w)
    flat, points = offsets.reshape(-1, 3), cast.points.reshape(-1, 3)
    for sphere, idx in zip(obstacles, cast.owned):
        step = np.asarray(sphere.velocity, dtype=np.float64) * (t_to - t_from)
        flat[idx] = points.take(idx, axis=0) + step - origin2
    rel = offsets.reshape(h, w, 3) @ _camera_basis(yaw2)  # camera-frame coordinates
    z = np.maximum(rel[..., 2], 1e-9)
    ys, xs = _pixel_grid((h, w))
    du = cam.fx * rel[..., 0] / z + cam.cx - xs
    dv = cam.fy * rel[..., 1] / z + cam.cy - ys
    return flow_field(du, dv)


def render_frame(scene: SceneConfig, t: float) -> Frame:
    """Render the exact frame at time t: intensity, depth (camera-frame Z),
    semantic classes and analytic forward/backward flow."""
    if not 0.0 <= t <= scene.duration + 1e-9:
        raise ValueError(f"t={t} outside [0, {scene.duration}]")
    traj = _Trajectory(scene.trajectory)
    obstacles = scene.realized_obstacles()
    pos, yaw = traj.pose(t)
    hx, hy, hz = scene.half_extents
    if not (-hx < pos[0] < hx and -hy < pos[1] < hy and 0 < scene.camera_height < 2 * hz):
        raise PoseError(f"camera at ({pos[0]:.3f}, {pos[1]:.3f}) outside room interior")
    origin = np.array([pos[0], pos[1], scene.camera_height])

    cast = _cast(scene, obstacles, origin, yaw, t)
    intensity = _shade(scene, obstacles, cast, t)
    class_values = np.zeros(cast.depth.shape, dtype=np.float64)
    class_values[cast.obj == 4] = CLASS_FLOOR
    for sphere, idx in zip(obstacles, cast.owned):
        class_values.flat[idx] = sphere.class_id

    times = scene.frame_times()
    dt = scene.dt
    t_last = float(times[-1])
    flow_fwd = (_flow_to(scene, obstacles, cast, t, t + dt, traj)
                if t + dt <= t_last + 1e-9 else None)
    flow_bwd = _flow_to(scene, obstacles, cast, t, t - dt, traj) if t - dt >= -1e-9 else None

    return Frame(
        t=float(t),
        intensity=float_map(intensity, MapSemantics.INTENSITY),
        depth=float_map(cast.depth, MapSemantics.DEPTH_M),
        class_map=float_map(class_values, MapSemantics.CLASS_ID),
        flow_fwd=flow_fwd,
        flow_bwd=flow_bwd,
        position=(float(origin[0]), float(origin[1]), float(origin[2])),
        yaw=float(yaw),
    )


def generate_events(
    timestamps: Sequence[float],
    intensities: Sequence[np.ndarray],
    contrast_threshold: float,
) -> np.ndarray:
    """Emulate an event camera from an intensity sequence.

    Per pixel, the reference level lies on the lattice base + n * c, where base
    is the pixel's log(I + LOG_EPS) in the first frame, c the contrast threshold
    and n an integer.  At each frame, n is clamped into [floor(q), ceil(q)] with
    q = (log(I + LOG_EPS) - base) / c: it moves only when the log intensity lies
    more than one threshold from the reference, and then to the nearest level
    within one threshold of it.  Each lattice level passed on the way is one
    event, polarity +1 upwards and -1 downwards, with its time linearly
    interpolated between the two frames.  So a pixel's signed event count is
    its final n.  Returns a structured event array sorted by
    (t, y, x, polarity).
    """
    if not (math.isfinite(contrast_threshold) and contrast_threshold > 0):
        raise ValueError("contrast threshold must be positive and finite")
    if len(timestamps) != len(intensities) or len(intensities) < 2:
        raise ValueError("need >= 2 frames with matching timestamps")
    frames = [np.asarray(img.values if isinstance(img, FloatMap) else img, dtype=np.float64)
              for img in intensities]
    shape = frames[0].shape
    for k, img in enumerate(frames):
        if img.shape != shape:
            raise ShapeMismatchError(f"frame {k} has shape {img.shape}, expected {shape}")
        if not np.all((img >= 0) & (img < np.inf)):
            raise ValueError(f"frame {k} must hold finite, non-negative intensities")
    times = np.asarray(timestamps, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("timestamps must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("timestamps must be strictly increasing")

    c = float(contrast_threshold)
    logs = [np.log(img + LOG_EPS).ravel() for img in frames]
    base = logs[0]
    n = np.zeros(base.size, dtype=np.int64)  # the reference level is base + n * c
    # Per crossing: its time and one key, 2 * pixel + (polarity > 0).  Ordering
    # by the key is ordering by (y, x, polarity), so sorting by (t, key) gives
    # the (t, y, x, polarity) order.
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for k in range(1, len(frames)):
        l_prev, l_curr = logs[k - 1], logs[k]
        # A pixel whose log intensity is unchanged keeps q, so its n stays put
        # and every crossing below divides by a nonzero l_curr - l_prev.
        q = (l_curr - base) / c
        step = np.clip(n, np.floor(q), np.ceil(q)).astype(np.int64) - n
        idx = np.flatnonzero(step)
        if idx.size == 0:
            continue
        reps = np.abs(step[idx])
        total = int(reps.sum())
        stops = np.cumsum(reps)
        ordinal = np.arange(1, total + 1) - np.repeat(stops - reps, reps)
        pix = np.repeat(idx, reps)
        sgn = np.sign(np.repeat(step[idx], reps))
        level = base[pix] + (n[pix] + sgn * ordinal) * c
        frac = (level - l_prev[pix]) / (l_curr[pix] - l_prev[pix])
        np.clip(frac, 0.0, 1.0, out=frac)
        t_cross = times[k - 1] + (times[k] - times[k - 1]) * frac
        parts.append((t_cross, 2 * pix + (sgn > 0)))
        n += step

    if not parts:
        return make_events([], [], [], [])
    t_all = np.concatenate([p[0] for p in parts])
    key = np.concatenate([p[1] for p in parts])
    # One sort on t that leaves equal stamps in any order (the default sort
    # is several times faster than a stable one or a (t, key) lexsort), then
    # the keys within each run of equal stamps sorted.  Crossings that tie in
    # both t and key are the same record, so their order cannot show.
    order = np.argsort(t_all)
    t_all, key = t_all[order], key[order]
    tie = t_all[1:] == t_all[:-1]
    if tie.any():
        after = np.concatenate(([False], tie))  # equal to the stamp before it
        pos = np.flatnonzero(after | np.concatenate((tie, [False])))
        # (run number, key) packed into one int64; keys lie in [0, 2 * H * W),
        # so it fits while crossings * 2 * H * W stays below 2^63
        span = 2 * shape[0] * shape[1]
        packed = np.cumsum(~after[pos], dtype=np.int64) * span + key[pos]
        packed.sort()
        key[pos] = packed % span
    y, x = np.divmod(key >> 1, shape[1])
    return make_events(t_all, x, y, 2 * (key & 1) - 1)


@dataclass(frozen=True, eq=False)
class SequenceResult:
    """A rendered sequence with its event stream and ground-truth inverse TTI.

    event_windows[k] holds events in [t_k, t_{k+1}), except the last window,
    which is closed, [t_{n-2}, t_{n-1}]: the emulator can stamp a crossing at
    exactly the last frame time, and that event belongs to the last window.  So
    the windows together hold every event.  accumulate_events treats its window
    as half-open, so a caller accumulating the last window passes
    np.nextafter(t_{n-1}, np.inf) as the window end.  tti_gt[k] is the map for
    frame k+1, computed from (depth_k, depth_{k+1}, flow_bwd_{k+1}).
    """

    scene: SceneConfig
    frames: tuple[Frame, ...]
    events: np.ndarray
    event_windows: tuple[np.ndarray, ...]
    tti_gt: tuple[TtiMap, ...]


def simulate_sequence(scene: SceneConfig, workers: int = 1) -> SequenceResult:
    """Render all frames, emulate events, and derive the ground-truth inverse
    TTI stream.  Identical configs (and seeds) produce identical results for
    any worker count."""
    times = scene.frame_times()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            frames = tuple(pool.map(lambda t: render_frame(scene, t), times))
    else:
        frames = tuple(render_frame(scene, t) for t in times)

    events = generate_events(
        times, [f.intensity for f in frames], scene.contrast_threshold
    )
    # Half-open windows [t_k, t_{k+1}), the last one closed at t_{n-1}.
    bounds = np.searchsorted(events["t"], times, side="left")
    bounds[-1] = np.searchsorted(events["t"], times[-1], side="right")
    windows = [events[bounds[k]:bounds[k + 1]].copy() for k in range(len(times) - 1)]

    dt = scene.dt
    tti_maps = []
    for k in range(1, len(frames)):
        tti_maps.append(
            ground_truth_inverse_tti(
                frames[k - 1].depth, frames[k].depth, frames[k].flow_bwd, dt
            )
        )
    return SequenceResult(
        scene=scene,
        frames=frames,
        events=events,
        event_windows=tuple(windows),
        tti_gt=tuple(tti_maps),
    )

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
The rays' world directions stay a BLAS product with the camera basis on the
(H, W, 3) array, since written out as sums they round differently.  Each
sphere's ray quadratic has its discriminant evaluated only on the band of rows
whose rays can meet it, and its roots only where the discriminant is
non-negative; normals, shading, classes and material motion touch only the
pixels the sphere owns.

Ground-truth flow is computed in the camera frame at the target time, from each
pixel's depth: the hit point there is Z * D + R_to^T (o_from - o_to), D the
pixel's ray turned into that frame (one cached (3, H, W) table per pair of
camera bases), plus R_to^T v dt on the pixels of a sphere of velocity v.  No
world point is formed.  This is the projection of the world hit points, moved
with their spheres, into the camera at the target time; the two formulas agree
up to float64 rounding of the camera-frame point (7e-15 px on a held camera),
which the stored float32 flows show only where it crosses a float32 rounding.

Events are emulated from the rendered intensity stream by log-intensity
threshold crossings: each pixel's reference level stays on a fixed lattice of
contrast thresholds above and below its first log intensity (an integer index
per pixel, as in ESIM's fixed contrast levels), and every lattice level the log
intensity passes is one event, its time linearly interpolated between frames.
This is a frame-based stand-in for a true adaptive-rate event renderer.  The
emulator checks every frame first, then emits one frame interval at a time: it
takes the log of one frame when it needs it, sorts that interval's crossings
by (t, y, x, polarity) and packs them as event records.  Only crossings
stamped at or after the interval's end frame time (on the frame, or one ulp
past it by rounding) wait to be sorted again with the next interval's, the one
merge across a boundary.  So it holds a few rasters and one interval's
crossings besides the packed stream, which it copies into the returned array
once; simulate_sequence then keeps that one read-only array and cuts the
frame windows as views of it.

World frame: Z up, floor at z = 0, room spanning [-hx, hx] x [-hy, hy] x
[0, 2*hz].  The camera looks along its yaw heading in the X-Y plane; camera
axes are x right, y down, z forward (optical axis).  Flat-coloured (textureless)
surfaces, a TextureSpec of amplitude 0, are first-class: they render constant
intensity and generate no events, which is the motivating failure case for
event-only perception.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .flow import _pixel_grid
from .tti import TtiMap, ground_truth_inverse_tti
from .types import (
    EVENT_DTYPE,
    CameraModel,
    FloatMap,
    FlowField,
    MapSemantics,
    ShapeMismatchError,
    _check_finite,
    _check_int,
    _check_positive,
    _check_shape,
    _float64,
    _raster,
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
    """Procedural surface colour: a band-limited checkerboard, base plus
    amplitude / 2 times a product of sines with the given period in metres,
    which keeps point sampling alias-free and gives the flow solver smooth
    gradients.  At amplitude 0 the surface is flat: constant base, no events.
    The texture spans base +/- amplitude / 2, which must lie in [0, 1], so no
    value of it is clipped when shaded.
    """

    amplitude: float = 0.6
    period_m: float = 0.5
    base: float = 0.5

    def __post_init__(self):
        _check_finite(self, "amplitude", "base")
        _check_positive("period_m", self.period_m)
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        half = 0.5 * self.amplitude
        if not half <= self.base <= 1.0 - half:
            raise ValueError("base +/- amplitude / 2 must be in [0, 1]")

    def sample(self, su: np.ndarray, sv: np.ndarray) -> np.ndarray:
        if self.amplitude == 0.0:
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
        _check_int(self, "class_id")
        _check_shape(self, (3,), "start", "velocity")
        _check_finite(self, "start", "velocity", "albedo")
        _check_positive("radius", self.radius)
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
        _check_shape(self, (len(self.waypoints), 3), "waypoints")
        _check_finite(self, "waypoints")
        _check_positive("speed", self.speed)
        _check_positive("yaw_rate_deg", self.yaw_rate_deg)


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
    ceiling_texture: TextureSpec = field(default_factory=lambda: TextureSpec(amplitude=0.0))
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
        # a list of obstacles is stored as the tuple it equals and hashes as
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        _check_int(self, "rng_seed", "random_obstacles")
        _check_shape(self, (3,), "half_extents", "light_dir")
        _check_finite(self, "camera_height", "light_dir")
        for name in ("half_extents", "frame_rate", "duration", "contrast_threshold"):
            _check_positive(name, getattr(self, name))
        if not self.duration * self.frame_rate >= 1:
            raise ValueError("duration must span at least one frame interval (1 / frame_rate)")
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
    """Per-pixel hit result for one camera pose, and that pose.

    A hit point is origin + depth * R ((x - cx) / fx, (y - cy) / fy, 1), R the
    camera basis: _flow_to needs only the depth and the pose to move it into
    another pose's camera frame, and points serve the shading.
    """

    __slots__ = ("depth", "points", "obj", "owned", "origin", "basis")

    def __init__(self, depth, points, obj, owned, origin, basis):
        self.depth = depth  # camera-frame Z (ray parameter), (H, W)
        self.points = points  # world hit points, (H, W, 3)
        self.obj = obj  # 0..5 room faces, 6+i for obstacle i
        self.owned = owned  # owned[i]: flat indices of the pixels obstacle i owns
        self.origin = origin  # camera centre, world frame
        self.basis = basis  # the bytes of the camera basis, as _rays is keyed


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
    world axis, d, the rays' component along the axis, (H, W), a contiguous
    copy of dirs[..., axis] (dividing by the strided view takes about twice as
    long); the bound of the face each ray heads for, (H, W); that face's id,
    (H, W) int8, {-x:0, +x:1, -y:2, +y:3, floor:4, ceiling:5}; and the flat
    indices of the rays with |d| <= _TINY, which meet neither face of the axis.

    Keyed like _rays, plus the room: two rooms seen from one pose put their
    walls at different distances.
    """
    dirs, _ = _rays(cam, basis)
    hx, hy, hz = half_extents
    table = []
    for axis, (lo, hi) in enumerate(((-hx, hx), (-hy, hy), (0.0, 2 * hz))):
        d = np.ascontiguousarray(dirs[..., axis])
        ahead = d > 0
        bound = np.where(ahead, float(hi), float(lo))
        face = axis * 2 + ahead.astype(np.int8)
        parallel = np.flatnonzero(np.abs(d) <= _TINY)
        for arr in (d, bound, face, parallel):
            arr.flags.writeable = False
        table.append((d, bound, face, parallel))
    return tuple(table)


@functools.lru_cache(maxsize=2)
def _turned_rays(cam: CameraModel, basis_from: bytes, basis_to: bytes) -> np.ndarray:
    """The rays of the pose with basis_from in the camera frame of the pose
    with basis_to, read-only, (3, H, W): D = R_to^T R_from ((x - cx) / fx,
    (y - cy) / fy, 1).  A pixel's hit point at depth Z lies at
    Z * D + R_to^T (o_from - o_to) in the frame of the camera at o_to.

    Keyed like _rays, by both bases' bytes.  A straight move shares one entry
    (2.2 MB at 346x260) across its frames; a turn makes a new one every call,
    so the cache is kept small.
    """
    turn = np.frombuffer(basis_to).reshape(3, 3).T @ np.frombuffer(basis_from).reshape(3, 3)
    ys, xs = _pixel_grid((cam.height, cam.width))
    x_n, y_n = (xs - cam.cx) / cam.fx, (ys - cam.cy) / cam.fy
    # written out per component: each product and sum rounded in one fixed
    # order, which a BLAS kernel does not promise
    table = np.stack([turn[c, 0] * x_n + turn[c, 1] * y_n + turn[c, 2] for c in range(3)])
    table.flags.writeable = False
    return table


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
    for axis, (d, bound, face, parallel) in enumerate(_room(cam, basis, tuple(scene.half_extents))):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_plane = (bound - origin[axis]) / d
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
    return _Raycast(depth=best_t, points=points, obj=best_obj, owned=owned, origin=origin,
                    basis=basis)


def _shade(scene: SceneConfig, obstacles, cast: _Raycast, t: float) -> np.ndarray:
    p = cast.points.reshape(-1, 3)
    obj = cast.obj.ravel()
    out = np.zeros(obj.shape, dtype=np.float64)
    # face f lies across world axis f // 2 (see _room), and faces 0-3 are walls
    textures = (scene.wall_texture, scene.floor_texture, scene.ceiling_texture)
    for face in range(6):
        idx = np.flatnonzero(obj == face)
        if idx.size:
            au, av = (axis for axis in range(3) if axis != face // 2)
            out[idx] = textures[max(face - 3, 0)].sample(p[idx, au], p[idx, av])
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
    """The flow from cast's pose at t_from to the pose at t_to, (u, v) in px.

    Each pixel's hit point is moved into the camera frame at t_to from its
    depth: rel = Z * D + R_to^T (o_from - o_to), D the pixel's ray in that
    frame (_turned_rays), plus R_to^T v (t_to - t_from) on the pixels a sphere
    of velocity v owns.  Then u = fx * rel_x / max(rel_z, 1e-9) + cx - x, and
    likewise v.  This is the projection of the world hit point, moved with its
    sphere, into the camera at t_to, (p + v (t_to - t_from) - o_to) @ R_to.
    The two formulas differ by float64 rounding of the camera-frame point,
    which the projection divides by rel_z: at most 7.1e-15 px on a held
    camera, and 1.4e-13 px on a moving one where rel_z > 0.1 m.
    """
    cam = scene.camera
    pos2, yaw2 = traj.pose(t_to)
    origin2 = np.array([pos2[0], pos2[1], scene.camera_height])
    rot2 = _camera_basis(yaw2)
    rays = _turned_rays(cam, cast.basis, rot2.tobytes())
    offset = (cast.origin - origin2) @ rot2
    rel = rays * cast.depth
    rel += offset[:, None, None]
    # each sphere's step, written through 1-D views of the components
    # (rel's .flat costs more)
    components = rel.reshape(3, -1)
    for sphere, idx in zip(obstacles, cast.owned):
        step = (np.asarray(sphere.velocity, dtype=np.float64) * (t_to - t_from)) @ rot2
        for comp, s in zip(components, step):
            comp[idx] += s
    x, y, z = rel
    np.maximum(z, 1e-9, out=z)
    ys, xs = _pixel_grid(z.shape)
    for comp, f, centre, grid in ((x, cam.fx, cam.cx, xs), (y, cam.fy, cam.cy, ys)):
        comp *= f
        comp /= z
        comp += centre
        comp -= grid
    return FlowField(x, y)


def render_frame(scene: SceneConfig, t: float) -> Frame:
    """Render the exact frame at time t: intensity, depth (camera-frame Z),
    semantic classes and analytic forward/backward flow."""
    if not 0.0 <= t <= scene.duration + 1e-9:
        raise ValueError(f"t={t} outside [0, {scene.duration}]")
    traj = _Trajectory(scene.trajectory)
    obstacles = scene.realized_obstacles()
    pos, yaw = traj.pose(t)
    hx, hy, _ = scene.half_extents
    if not (-hx < pos[0] < hx and -hy < pos[1] < hy):
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
        intensity=FloatMap(intensity, MapSemantics.INTENSITY),
        depth=FloatMap(cast.depth, MapSemantics.DEPTH_M),
        class_map=FloatMap(class_values, MapSemantics.CLASS_ID),
        flow_fwd=flow_fwd,
        flow_bwd=flow_bwd,
        position=(float(origin[0]), float(origin[1]), float(origin[2])),
        yaw=float(yaw),
    )


def _log_frame(img) -> np.ndarray:
    """log(I + LOG_EPS) of one frame, raveled, in a fresh float64 buffer."""
    out = _float64(img) + LOG_EPS
    return np.log(out, out=out).ravel()


def _crossings(base, n, l_prev, l_curr, c: float, t0, t1) -> tuple[np.ndarray, np.ndarray]:
    """The threshold crossings of one frame interval [t0, t1], unsorted: their
    stamps and keys, 2 * pixel + (polarity > 0).  Moves n to the levels at t1."""
    # A pixel whose log intensity is unchanged keeps q, so its n stays put
    # and every crossing below divides by a nonzero l_curr - l_prev.
    q = (l_curr - base) / c
    step = np.clip(n, np.floor(q), np.ceil(q)).astype(np.int64) - n
    idx = np.flatnonzero(step)
    d = step[idx]
    reps = np.abs(d)
    stops = np.cumsum(reps)
    ordinal = np.arange(1, int(reps.sum()) + 1) - np.repeat(stops - reps, reps)
    sgn = np.repeat(np.sign(d), reps)
    level = np.repeat(base[idx], reps) + (np.repeat(n[idx], reps) + sgn * ordinal) * c
    frac = (level - np.repeat(l_prev[idx], reps)) / np.repeat(l_curr[idx] - l_prev[idx], reps)
    np.clip(frac, 0.0, 1.0, out=frac)
    n += step
    return t0 + (t1 - t0) * frac, np.repeat(2 * idx + (d > 0), reps)


def _sort_crossings(t: np.ndarray, key: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """t and key ordered by (t, key); keys lie in [0, span)."""
    # One sort on t that leaves equal stamps in any order (the default sort
    # is several times faster than a stable one or a (t, key) lexsort), then
    # the keys within each run of equal stamps sorted.  Crossings that tie in
    # both t and key are the same record, so their order cannot show.
    order = np.argsort(t)
    t = t[order]
    key = key[order]
    tie = t[1:] == t[:-1]
    if tie.any():
        after = np.concatenate(([False], tie))  # equal to the stamp before it
        pos = np.flatnonzero(after | np.concatenate((tie, [False])))
        # (run number, key) packed into one int64; it fits while the
        # crossings * span stay below 2^63
        packed = np.cumsum(~after[pos], dtype=np.int64) * span + key[pos]
        packed.sort()
        key[pos] = packed % span
    return t, key


def _pack(t: np.ndarray, key: np.ndarray, width: int) -> np.ndarray:
    """EVENT_DTYPE records of crossings; key // 2 is the pixel's flat index."""
    out = np.zeros(t.size, dtype=EVENT_DTYPE)
    out["t"] = t
    pix = key >> 1
    out["x"] = pix % width
    out["y"] = pix // width
    out["polarity"] = 2 * (key & 1) - 1
    return out


def _intervals(times: np.ndarray, intensities, c: float, shape: tuple[int, int]):
    """Yield each frame interval's final events as EVENT_DTYPE records, in
    (t, y, x, polarity) order; together they are generate_events' stream."""
    # Per crossing: its time and one key, 2 * pixel + (polarity > 0).  Ordering
    # by the key is ordering by (y, x, polarity), so sorting by (t, key) gives
    # the (t, y, x, polarity) order.
    span = 2 * shape[0] * shape[1]
    base = l_prev = _log_frame(intensities[0])
    n = np.zeros(base.size, dtype=np.int64)  # the reference level is base + n * c
    # the crossings stamped at or after the previous frame time
    held_t, held_key = np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    last = len(times) - 1
    for k in range(1, last + 1):
        l_curr = _log_frame(intensities[k])
        t, key = _crossings(base, n, l_prev, l_curr, c, times[k - 1], times[k])
        l_prev = l_curr
        t, key = _sort_crossings(np.concatenate((held_t, t)), np.concatenate((held_key, key)), span)
        # No later interval stamps a crossing before t_k, so the crossings
        # before it are final; the rest is sorted again with interval k+1's.
        cut = t.size if k == last else int(np.searchsorted(t, times[k], side="left"))
        yield _pack(t[:cut], key[:cut], shape[1])
        held_t, held_key = t[cut:], key[cut:]


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

    Every frame is checked before any event is made; frames must be 2-D, with
    sides of at most 65536 pixels so that x and y fit EVENT_DTYPE.  Emission
    then runs one frame interval at a time.  It holds base and n, the log
    rasters of the interval's two frames (each a float64 copy of one frame)
    and the interval's crossings, which it sorts by (t, y, x, polarity) and
    packs into EVENT_DTYPE records.  Interval k+1 stamps nothing before t_k,
    so interval k's crossings stamped before t_k are final.  Those stamped at
    or after it (on the frame, or rounded one ulp past it) are sorted again
    with interval k+1's crossings: this merge of one interval's tail with the
    next one's head is the only step across a boundary, and it is empty when
    no crossing reaches t_k.  The packed intervals are copied into the
    returned array at the end, so the call holds at most twice its output,
    beside one interval's working set.
    """
    _check_positive("contrast threshold", contrast_threshold)
    if len(timestamps) != len(intensities) or len(intensities) < 2:
        raise ValueError("need >= 2 frames with matching timestamps")
    shape = _float64(intensities[0]).shape
    if len(shape) != 2 or max(shape) > 65536:
        raise ShapeMismatchError(f"frames must be 2-D with sides of at most 65536, got {shape}")
    for k, img in enumerate(intensities):
        img = _raster(f"frame {k}", img, first_frame=shape)
        if not np.all((img >= 0) & (img < np.inf)):
            raise ValueError(f"frame {k} must hold finite, non-negative intensities")
    times = np.asarray(timestamps, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError(f"timestamps must be 1-D, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("timestamps must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("timestamps must be strictly increasing")

    # Joined as bytes: a plain copy, pad bytes included.  np.concatenate of
    # the records themselves copies field by field and, on numpy 2.x, returns
    # a packed dtype of itemsize 13 rather than EVENT_DTYPE.
    chunks = _intervals(times, intensities, float(contrast_threshold), shape)
    return np.concatenate([chunk.view(np.uint8) for chunk in chunks]).view(EVENT_DTYPE)


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

    The stream exists once: events is read-only, and each window is a
    read-only view of a slice of it, not a copy.
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
    events.flags.writeable = False
    # Half-open windows [t_k, t_{k+1}), the last one closed at t_{n-1}: views
    # of the one read-only stream.
    bounds = np.searchsorted(events["t"], times, side="left")
    bounds[-1] = np.searchsorted(events["t"], times[-1], side="right")
    windows = [events[bounds[k]:bounds[k + 1]] for k in range(len(times) - 1)]

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

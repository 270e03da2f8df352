"""Bit-exact binary formats for events, scalar maps and flow fields, plus the
text config format and PPM output.

Event files ("EVRX"): 24-byte header (magic, version u32, width u32, height u32,
count u64, all little-endian) followed by 16-byte records (t f64, x u16, y u16,
polarity i8, 3 zero pad bytes).

Map files ("EVRF"): 20-byte header (magic, version u32, semantics u32, width u32,
height u32) followed by row-major little-endian f32, top row first.  A flow field
is stored as one container holding two complete map blocks (semantics FLOW_U then
FLOW_V).
"""
from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Union

import numpy as np

from .types import (
    EVENT_DTYPE,
    FloatMap,
    FlowField,
    MapSemantics,
    _check_stream,
    as_event_array,
    float_map,
    flow_field,
)

__all__ = [
    "FormatError",
    "BadMagicError",
    "VersionError",
    "TruncatedError",
    "BoundsError",
    "ConfigError",
    "EVENTS_MAGIC",
    "MAP_MAGIC",
    "FORMAT_VERSION",
    "write_events",
    "read_events",
    "write_map",
    "read_map",
    "write_flow",
    "read_flow",
    "read_config",
    "parse_config",
    "dump_config",
    "RunConfig",
    "write_ppm",
    "atomic_write_bytes",
    "atomic_write_text",
]

EVENTS_MAGIC = b"EVRX"
MAP_MAGIC = b"EVRF"
FORMAT_VERSION = 1

_EVENTS_HEADER = struct.Struct("<4sIIIQ")  # magic, version, width, height, count
_MAP_HEADER = struct.Struct("<4sIIII")  # magic, version, semantics, width, height
_EVENT_RECORD_SIZE = 16


class FormatError(Exception):
    """Base class for on-disk format violations."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionError(FormatError):
    """File declares an unsupported format version."""


class TruncatedError(FormatError):
    """Declared sizes disagree with the actual byte count."""


class BoundsError(FormatError):
    """A record's coordinates fall outside the header's raster dimensions."""


class ConfigError(ValueError):
    """Config text could not be parsed or validated; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def atomic_write_bytes(path, *chunks) -> None:
    """Write the chunks (bytes or contiguous arrays), in order, via a temp file
    in the same directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


def write_events(path, events, width: int, height: int) -> None:
    """Serialize a stream sorted by finite timestamps; coordinates must fit the
    raster and polarities be +1 / -1."""
    arr = as_event_array(events)
    _check_stream(arr, width, height, bounds_error=BoundsError)
    # repack into a zeroed buffer so the record pad bytes are deterministic
    packed = np.zeros(arr.shape[0], dtype=EVENT_DTYPE)
    for name in ("t", "x", "y", "polarity"):
        packed[name] = arr[name]
    header = _EVENTS_HEADER.pack(EVENTS_MAGIC, FORMAT_VERSION, width, height, arr.shape[0])
    atomic_write_bytes(path, header, packed)


def read_events(path) -> tuple[np.ndarray, int, int]:
    """Read an event file; returns (events, width, height).

    The records are read straight into a fresh, writable array once the file
    size has been checked against the header's count, so a corrupt count
    cannot trigger a huge allocation.  The records must pass the check
    write_events makes: finite sorted timestamps (else EventOrderError),
    coordinates inside the header's raster (else BoundsError) and
    polarities of +1 / -1 (else ValueError).
    """
    with open(path, "rb") as fh:
        header = fh.read(_EVENTS_HEADER.size)
        if len(header) < _EVENTS_HEADER.size:
            raise TruncatedError(f"file is {len(header)} bytes, header needs {_EVENTS_HEADER.size}")
        magic, version, width, height, count = _EVENTS_HEADER.unpack(header)
        if magic != EVENTS_MAGIC:
            raise BadMagicError(f"expected {EVENTS_MAGIC!r}, found {magic!r}")
        if version != FORMAT_VERSION:
            raise VersionError(f"unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = _EVENTS_HEADER.size + count * _EVENT_RECORD_SIZE
        if size != expected:
            raise TruncatedError(f"declared {count} records need {expected} bytes, file has {size}")
        arr = np.empty(count, dtype=EVENT_DTYPE)
        got = fh.readinto(arr.view(np.uint8))
    if got != count * _EVENT_RECORD_SIZE:
        raise TruncatedError(f"read {got} of {count * _EVENT_RECORD_SIZE} record bytes")
    _check_stream(arr, width, height, bounds_error=BoundsError)
    return arr, width, height


# ---------------------------------------------------------------------------
# scalar maps and flow
# ---------------------------------------------------------------------------


def _encode_map_block(fmap: FloatMap, semantics: MapSemantics | None = None) -> bytes:
    sem = int(fmap.semantics if semantics is None else semantics)
    header = _MAP_HEADER.pack(MAP_MAGIC, FORMAT_VERSION, sem, fmap.width, fmap.height)
    return header + np.ascontiguousarray(fmap.values, dtype="<f4").tobytes()


def _decode_map_block(data: bytes, offset: int) -> tuple[np.ndarray, MapSemantics, int, int, int]:
    if len(data) - offset < _MAP_HEADER.size:
        raise TruncatedError("file too short for map header")
    magic, version, sem, width, height = _MAP_HEADER.unpack_from(data, offset)
    if magic != MAP_MAGIC:
        raise BadMagicError(f"expected {MAP_MAGIC!r}, found {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported version {version}")
    try:
        semantics = MapSemantics(sem)
    except ValueError:
        raise FormatError(f"unknown semantics code {sem}") from None
    payload = 4 * width * height
    start = offset + _MAP_HEADER.size
    if len(data) - start < payload:
        raise TruncatedError(f"payload needs {payload} bytes, {len(data) - start} present")
    values = np.frombuffer(data, dtype="<f4", count=width * height, offset=start)
    return values.reshape(height, width), semantics, width, height, start + payload


def write_map(path, fmap: FloatMap) -> None:
    atomic_write_bytes(path, _encode_map_block(fmap))


def read_map(path) -> FloatMap:
    with open(path, "rb") as fh:
        data = fh.read()
    values, semantics, width, height, end = _decode_map_block(data, 0)
    if end != len(data):
        raise TruncatedError(f"{len(data) - end} trailing bytes after payload")
    try:
        return float_map(values, semantics)
    except ValueError as err:
        raise FormatError(f"{semantics.name} payload: {err}") from None


def write_flow(path, flow: FlowField) -> None:
    """Dual-channel container: a FLOW_U map block followed by a FLOW_V block."""
    u = float_map(flow.u, MapSemantics.FLOW_U)
    v = float_map(flow.v, MapSemantics.FLOW_V)
    atomic_write_bytes(path, _encode_map_block(u) + _encode_map_block(v))


def read_flow(path) -> FlowField:
    with open(path, "rb") as fh:
        data = fh.read()
    u, sem_u, w_u, h_u, off = _decode_map_block(data, 0)
    v, sem_v, w_v, h_v, end = _decode_map_block(data, off)
    if end != len(data):
        raise TruncatedError(f"{len(data) - end} trailing bytes after payload")
    if sem_u != MapSemantics.FLOW_U or sem_v != MapSemantics.FLOW_V:
        raise FormatError(f"expected FLOW_U then FLOW_V blocks, found {sem_u.name}, {sem_v.name}")
    if (w_u, h_u) != (w_v, h_v):
        raise FormatError("flow channel dimensions disagree")
    return flow_field(u, v)


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------
#
# Lines of `key = value`, `#` comments, `[section]` headers.  Unknown keys and
# sections are errors.  `[obstacle]` sections and `waypoint` keys may repeat.


@dataclass
class RunConfig:
    """Parsed config bundle: a scene (if a [scene] block or defaults apply)
    and flow-solver settings."""

    scene: "object" = None  # sim.SceneConfig, kept loose to avoid an import cycle
    flow: "object" = None  # flow.FlowSolverConfig


def _parse_float(text: str, key: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key '{key}' expects a number, got '{text}'", line) from None


def _parse_int(text: str, key: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key '{key}' expects an integer, got '{text}'", line) from None


def _parse_floats(text: str, key: str, line: int, n: int) -> tuple[float, ...]:
    parts = text.split()
    if len(parts) != n:
        raise ConfigError(f"key '{key}' expects {n} numbers, got '{text}'", line)
    return tuple(_parse_float(p, key, line) for p in parts)


_SCENE_KEYS = {
    "room_half_extents",
    "frame_rate",
    "duration",
    "contrast_threshold",
    "rng_seed",
    "camera_height",
    "light_dir",
    "wall_texture",
    "floor_texture",
    "ceiling_texture",
    "random_obstacles",
}
_CAMERA_KEYS = {"fx", "fy", "cx", "cy", "width", "height"}
_TRAJECTORY_KEYS = {"speed", "yaw_rate", "waypoint"}
_OBSTACLE_KEYS = {"radius", "start", "velocity", "class_id", "albedo"}
_FLOW_KEYS = {
    "alpha",
    "charbonnier_eps",
    "charbonnier_alpha",
    "pyramid_levels",
    "iters_per_level",
    "step_size",
    "event_weighting",
    "convergence_tol",
}
_SECTIONS = {
    "scene": _SCENE_KEYS,
    "camera": _CAMERA_KEYS,
    "trajectory": _TRAJECTORY_KEYS,
    "obstacle": _OBSTACLE_KEYS,
    "flow": _FLOW_KEYS,
}


def _parse_texture(text: str, key: str, line: int):
    from .sim import TextureSpec

    parts = text.split()
    if not parts:
        raise ConfigError(f"key '{key}' expects 'flat|checker [amplitude] [period_m] [base]'", line)
    nums = [_parse_float(p, key, line) for p in parts[1:]]
    if len(nums) > 3:
        raise ConfigError(f"key '{key}' takes at most 3 numbers after the kind", line)
    try:
        return TextureSpec(parts[0], *nums)
    except ValueError as err:
        raise ConfigError(f"key '{key}': {err}", line) from None


# Dataclass fields whose config key is spelled differently.
_FIELD_KEYS = {"half_extents": "room_half_extents", "yaw_rate_deg": "yaw_rate"}


def _build(cls, kv: dict[str, tuple[str, int]], **fields):
    """cls(**fields), with its ValueError re-raised as a ConfigError on the
    config key of the first field the message names."""
    try:
        return cls(**fields)
    except ValueError as err:
        message = str(err)
        for word in message.split():
            if word in fields:
                key = _FIELD_KEYS.get(word, word)
                line = kv[key][1] if key in kv else None
                raise ConfigError(f"key '{key}': {message}", line) from None
        raise ConfigError(message) from None


def read_config(path: Union[str, os.PathLike]) -> RunConfig:
    """Parse a config file into a RunConfig (see parse_config)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig.

    Missing keys take the documented defaults; unknown keys or sections are
    errors.  The result echoes back through dump_config for reproducibility.
    """
    from .flow import FlowSolverConfig
    from .sim import SceneConfig, SphereObstacle, TrajectorySpec, default_camera

    scene_kv: dict[str, tuple[str, int]] = {}
    camera_kv: dict[str, tuple[str, int]] = {}
    flow_kv: dict[str, tuple[str, int]] = {}
    traj_kv: dict[str, tuple[str, int]] = {}
    waypoints: list[tuple[tuple[float, float, float], int]] = []
    obstacles: list[dict[str, tuple[str, int]]] = []
    section = "scene"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section '[{section}]'", lineno)
            if section == "obstacle":
                obstacles.append({})
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got '{stripped}'", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key '{key}' in section '[{section}]'", lineno)
        if section == "trajectory" and key == "waypoint":
            waypoints.append((_parse_floats(value, key, lineno, 3), lineno))
        elif section == "obstacle":
            if not obstacles:
                raise ConfigError("obstacle keys outside an [obstacle] section", lineno)
            obstacles[-1][key] = (value, lineno)
        else:
            target = {"scene": scene_kv, "camera": camera_kv, "flow": flow_kv,
                      "trajectory": traj_kv}[section]
            target[key] = (value, lineno)

    def take(kv, key, parse, default):
        if key not in kv:
            return default
        value, lineno = kv[key]
        return parse(value, key, lineno)

    def triple(value, key, lineno):
        return _parse_floats(value, key, lineno, 3)

    cam_defaults = default_camera()
    width = take(camera_kv, "width", _parse_int, cam_defaults.width)
    height = take(camera_kv, "height", _parse_int, cam_defaults.height)
    camera = _build(
        type(cam_defaults), camera_kv,
        fx=take(camera_kv, "fx", _parse_float, cam_defaults.fx),
        fy=take(camera_kv, "fy", _parse_float, cam_defaults.fy),
        cx=take(camera_kv, "cx", _parse_float, (width - 1) / 2.0),
        cy=take(camera_kv, "cy", _parse_float, (height - 1) / 2.0),
        width=width,
        height=height,
    )

    traj_default = TrajectorySpec()
    trajectory = _build(
        TrajectorySpec, traj_kv,
        waypoints=tuple(wp for wp, _ in waypoints) or traj_default.waypoints,
        speed=take(traj_kv, "speed", _parse_float, traj_default.speed),
        yaw_rate_deg=take(traj_kv, "yaw_rate", _parse_float, traj_default.yaw_rate_deg),
    )

    spheres = tuple(
        _build(
            SphereObstacle, kv,
            radius=take(kv, "radius", _parse_float, 0.2),
            start=take(kv, "start", triple, (0.0, 0.0, 0.0)),
            velocity=take(kv, "velocity", triple, (0.0, 0.0, 0.0)),
            class_id=take(kv, "class_id", _parse_int, 2),
            albedo=take(kv, "albedo", _parse_float, 0.9),
        )
        for kv in obstacles
    )

    defaults = SceneConfig(camera=camera)
    scene = _build(
        SceneConfig, scene_kv,
        half_extents=take(scene_kv, "room_half_extents", triple, defaults.half_extents),
        frame_rate=take(scene_kv, "frame_rate", _parse_float, defaults.frame_rate),
        duration=take(scene_kv, "duration", _parse_float, defaults.duration),
        contrast_threshold=take(scene_kv, "contrast_threshold", _parse_float,
                                defaults.contrast_threshold),
        rng_seed=take(scene_kv, "rng_seed", _parse_int, defaults.rng_seed),
        camera_height=take(scene_kv, "camera_height", _parse_float, defaults.camera_height),
        light_dir=take(scene_kv, "light_dir", triple, defaults.light_dir),
        wall_texture=take(scene_kv, "wall_texture", _parse_texture, defaults.wall_texture),
        floor_texture=take(scene_kv, "floor_texture", _parse_texture, defaults.floor_texture),
        ceiling_texture=take(scene_kv, "ceiling_texture", _parse_texture, defaults.ceiling_texture),
        random_obstacles=take(scene_kv, "random_obstacles", _parse_int, defaults.random_obstacles),
        obstacles=spheres,
        trajectory=trajectory,
        camera=camera,
    )

    flow_defaults = FlowSolverConfig()
    flow_cfg = _build(
        FlowSolverConfig, flow_kv,
        alpha=take(flow_kv, "alpha", _parse_float, flow_defaults.alpha),
        charbonnier_eps=take(flow_kv, "charbonnier_eps", _parse_float,
                             flow_defaults.charbonnier_eps),
        charbonnier_alpha=take(flow_kv, "charbonnier_alpha", _parse_float,
                               flow_defaults.charbonnier_alpha),
        pyramid_levels=take(flow_kv, "pyramid_levels", _parse_int, flow_defaults.pyramid_levels),
        iters_per_level=take(flow_kv, "iters_per_level", _parse_int,
                             flow_defaults.iters_per_level),
        step_size=take(flow_kv, "step_size", _parse_float, flow_defaults.step_size),
        event_weighting=take(flow_kv, "event_weighting", lambda v, k, l: v,
                             flow_defaults.event_weighting),
        convergence_tol=take(flow_kv, "convergence_tol", _parse_float,
                             flow_defaults.convergence_tol),
    )

    return RunConfig(scene=scene, flow=flow_cfg)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Echo a RunConfig back to config text that read_config reparses identically."""
    scene = cfg.scene
    lines = ["[scene]"]
    lines.append(f"room_half_extents = {_fmt(scene.half_extents)}")
    lines.append(f"frame_rate = {_fmt(scene.frame_rate)}")
    lines.append(f"duration = {_fmt(scene.duration)}")
    lines.append(f"contrast_threshold = {_fmt(scene.contrast_threshold)}")
    lines.append(f"rng_seed = {scene.rng_seed}")
    lines.append(f"camera_height = {_fmt(scene.camera_height)}")
    lines.append(f"light_dir = {_fmt(scene.light_dir)}")
    for name in ("wall_texture", "floor_texture", "ceiling_texture"):
        tex = getattr(scene, name)
        lines.append(f"{name} = {tex.kind} {_fmt(tex.amplitude)} {_fmt(tex.period_m)} {_fmt(tex.base)}")
    lines.append(f"random_obstacles = {scene.random_obstacles}")
    lines.append("")
    lines.append("[camera]")
    cam = scene.camera
    for key in ("fx", "fy", "cx", "cy", "width", "height"):
        lines.append(f"{key} = {_fmt(getattr(cam, key))}")
    lines.append("")
    lines.append("[trajectory]")
    lines.append(f"speed = {_fmt(scene.trajectory.speed)}")
    lines.append(f"yaw_rate = {_fmt(scene.trajectory.yaw_rate_deg)}")
    for wp in scene.trajectory.waypoints:
        lines.append(f"waypoint = {_fmt(tuple(wp))}")
    for sphere in scene.obstacles:
        lines.append("")
        lines.append("[obstacle]")
        lines.append(f"radius = {_fmt(sphere.radius)}")
        lines.append(f"start = {_fmt(tuple(sphere.start))}")
        lines.append(f"velocity = {_fmt(tuple(sphere.velocity))}")
        lines.append(f"class_id = {sphere.class_id}")
        lines.append(f"albedo = {_fmt(sphere.albedo)}")
    flow_cfg = cfg.flow
    lines.append("")
    lines.append("[flow]")
    for key in ("alpha", "charbonnier_eps", "charbonnier_alpha", "pyramid_levels",
                "iters_per_level", "step_size", "event_weighting", "convergence_tol"):
        lines.append(f"{key} = {_fmt(getattr(flow_cfg, key))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PPM output
# ---------------------------------------------------------------------------


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8, got {rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + rgb.tobytes())

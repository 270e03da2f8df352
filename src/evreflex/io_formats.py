"""Bit-exact binary format for event streams, and the text config format.

Event files ("EVRX"): 24-byte header (magic, version u32, width u32, height u32,
count u64, all little-endian) followed by 16-byte records (t f64, x u16, y u16,
polarity i8, 3 zero pad bytes).  Width and height are in [1, 65536], the
raster that EVENT_DTYPE's uint16 coordinates can address.

Config text: lines of `key = value`, `#` comments and `[section]` headers.
Keys before the first header belong to `[scene]`.  The sections are `[scene]`
(SceneConfig), `[camera]` (CameraModel), `[trajectory]` (TrajectorySpec),
`[obstacle]` (SphereObstacle, one section per sphere, so it repeats) and
`[flow]` (FlowSolverConfig); a section's keys are its dataclass's fields, with
the spellings in `_FIELD_KEYS` (`room_half_extents`, `yaw_rate`, `waypoint`).
Numbers are Python floats or ints, a triple is three numbers, and a texture
is `amplitude [period_m] [base]` (amplitude 0 is a flat surface).
`waypoint` is the one key that repeats; it adds one waypoint per line.  A
missing key takes its dataclass default, except that `cx`/`cy` default to
the raster centre and an `[obstacle]` to radius 0.2 at rest at the origin.
Unknown sections and keys, a key given twice in one section (repeated
headers of a section merge) and values the dataclass refuses, non-finite
numbers included, are ConfigErrors carrying the key and its line (a repeated
key's first line).  dump_config writes every key of every section, in field
order.
"""
from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import asdict, astuple, dataclass, fields
from typing import Union

import numpy as np

from .flow import FlowSolverConfig
from .sim import SceneConfig, SphereObstacle, TextureSpec, TrajectorySpec, default_camera
from .types import (
    EVENT_DTYPE,
    CameraModel,
    _check_raster_size,
    _check_stream,
    as_event_array,
)

__all__ = [
    "FormatError",
    "BadMagicError",
    "VersionError",
    "TruncatedError",
    "BoundsError",
    "ConfigError",
    "EVENTS_MAGIC",
    "FORMAT_VERSION",
    "write_events",
    "read_events",
    "read_config",
    "parse_config",
    "dump_config",
    "RunConfig",
    "atomic_write_bytes",
    "atomic_write_text",
]

EVENTS_MAGIC = b"EVRX"
FORMAT_VERSION = 1

_EVENTS_HEADER = struct.Struct("<4sIIIQ")  # magic, version, width, height, count


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
    raster and polarities be +1 / -1.  width and height are integers in
    [1, 65536] (else ValueError)."""
    _check_raster_size(width, height)
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
    cannot trigger a huge allocation.  A header raster write_events refuses
    is a FormatError.  The records must pass the check write_events makes:
    finite sorted timestamps (else EventOrderError), coordinates inside the
    header's raster (else BoundsError) and polarities of +1 / -1 (else
    ValueError).
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
        try:
            _check_raster_size(width, height)
        except ValueError as err:
            raise FormatError(f"header: {err}") from None
        size = os.fstat(fh.fileno()).st_size
        expected = _EVENTS_HEADER.size + count * EVENT_DTYPE.itemsize
        if size != expected:
            raise TruncatedError(f"declared {count} records need {expected} bytes, file has {size}")
        arr = np.empty(count, dtype=EVENT_DTYPE)
        got = fh.readinto(arr.view(np.uint8))
    if got != count * EVENT_DTYPE.itemsize:
        raise TruncatedError(f"read {got} of {count * EVENT_DTYPE.itemsize} record bytes")
    _check_stream(arr, width, height, bounds_error=BoundsError)
    return arr, width, height


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Parsed config bundle: a scene and flow-solver settings."""

    scene: SceneConfig
    flow: FlowSolverConfig


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


def _parse_triple(text: str, key: str, line: int) -> tuple[float, float, float]:
    parts = text.split()
    if len(parts) != 3:
        raise ConfigError(f"key '{key}' expects 3 numbers, got '{text}'", line)
    return tuple(_parse_float(p, key, line) for p in parts)


def _parse_texture(text: str, key: str, line: int) -> TextureSpec:
    parts = text.split()
    if not 1 <= len(parts) <= 3:
        raise ConfigError(f"key '{key}' expects 'amplitude [period_m] [base]', got '{text}'", line)
    nums = [_parse_float(p, key, line) for p in parts]
    try:
        return TextureSpec(*nums)
    except ValueError as err:
        raise ConfigError(f"key '{key}': {err}", line) from None


# Field annotation -> value parser.  A field annotated `tuple[T, ...]` with T
# in this table is a key that may repeat; any other field is a nested section.
_PARSERS = {
    "float": _parse_float,
    "int": _parse_int,
    "tuple[float, float, float]": _parse_triple,
    "TextureSpec": _parse_texture,
}

# Dataclass fields whose config key is spelled differently.
_FIELD_KEYS = {"half_extents": "room_half_extents", "yaw_rate_deg": "yaw_rate",
               "waypoints": "waypoint"}

_SECTIONS = {
    "scene": SceneConfig,
    "camera": CameraModel,
    "trajectory": TrajectorySpec,
    "obstacle": SphereObstacle,
    "flow": FlowSolverConfig,
}

# `[obstacle]` defaults for the fields SphereObstacle requires.
_OBSTACLE_DEFAULTS = {"radius": 0.2, "start": (0.0, 0.0, 0.0), "velocity": (0.0, 0.0, 0.0)}


def _section_keys(cls) -> dict[str, tuple[str, object, bool]]:
    """Config key -> (field name, parser, repeats) for the fields of cls that
    are keys, in field order."""
    keys = {}
    for f in fields(cls):
        repeats = f.type.startswith("tuple[") and f.type.endswith(", ...]")
        parse = _PARSERS.get(f.type[len("tuple["):-len(", ...]")] if repeats else f.type)
        if parse is not None:
            keys[_FIELD_KEYS.get(f.name, f.name)] = (f.name, parse, repeats)
    return keys


_KEYS = {section: _section_keys(cls) for section, cls in _SECTIONS.items()}


def _build(cls, kv: dict[str, tuple[object, int]], **defaults):
    """cls from one section's parsed fields (name -> (value, line)) over the
    defaults, with its ValueError re-raised as a ConfigError on the config key
    and line of the first field of cls its message names."""
    try:
        return cls(**{**defaults, **{name: value for name, (value, _) in kv.items()}})
    except ValueError as err:
        message = str(err)
        names = {f.name for f in fields(cls)}
        for word in message.split():
            if word in names:
                line = kv[word][1] if word in kv else None
                raise ConfigError(f"key '{_FIELD_KEYS.get(word, word)}': {message}", line) from None
        raise ConfigError(message) from None


def read_config(path: Union[str, os.PathLike]) -> RunConfig:
    """Parse a config file into a RunConfig (see parse_config)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig (format in the module docstring).

    Missing keys take the dataclass defaults; unknown keys or sections, a key
    given twice in one section and values a dataclass refuses are
    ConfigErrors.  The result echoes back through dump_config.
    """
    parsed = {section: {} for section in _SECTIONS}
    obstacles = []
    section, kv = "scene", parsed["scene"]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section '[{section}]'", lineno)
            kv = parsed[section]
            if section == "obstacle":
                kv = {}
                obstacles.append(kv)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got '{stripped}'", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in section '[{section}]'", lineno)
        name, parse, repeats = _KEYS[section][key]
        if name in kv and not repeats:
            raise ConfigError(f"key '{key}' already given on line {kv[name][1]}", lineno)
        value = parse(value, key, lineno)
        if repeats:
            values, first = kv.get(name, ((), lineno))
            kv[name] = (values + (value,), first)
        else:
            kv[name] = (value, lineno)

    cam = default_camera()
    cam_kv = parsed["camera"]
    width = cam_kv.get("width", (cam.width,))[0]
    height = cam_kv.get("height", (cam.height,))[0]
    camera = _build(CameraModel, cam_kv, **{**asdict(cam), "cx": (width - 1) / 2.0,
                                            "cy": (height - 1) / 2.0})
    scene = _build(
        SceneConfig, parsed["scene"],
        camera=camera,
        trajectory=_build(TrajectorySpec, parsed["trajectory"]),
        obstacles=tuple(_build(SphereObstacle, kv, **_OBSTACLE_DEFAULTS) for kv in obstacles),
    )
    return RunConfig(scene=scene, flow=_build(FlowSolverConfig, parsed["flow"]))


def _fmt(value) -> str:
    if isinstance(value, TextureSpec):
        value = astuple(value)
    if isinstance(value, (tuple, list)):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Echo a RunConfig back to config text that parse_config reparses to an
    equal RunConfig."""
    scene = cfg.scene
    blocks = [("scene", scene), ("camera", scene.camera), ("trajectory", scene.trajectory)]
    blocks += [("obstacle", sphere) for sphere in scene.obstacles]
    blocks.append(("flow", cfg.flow))
    lines = []
    for section, obj in blocks:
        lines.append(f"[{section}]")
        for key, (name, _, repeats) in _KEYS[section].items():
            value = getattr(obj, name)
            lines += [f"{key} = {_fmt(v)}" for v in (value if repeats else (value,))]
        lines.append("")
    return "\n".join(lines)

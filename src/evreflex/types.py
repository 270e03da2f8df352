"""Shared value types: events, accumulated event maps, dense rasters, camera intrinsics.

Everything downstream (simulator, flow solver, TTI estimators, metrics) trades in
these types.  All containers are immutable after construction; the numpy payloads
are marked read-only so instances can be shared freely across threads.

Precision contract.  Rasters are *stored* in one fixed dtype per container,
whatever the dtype of the input they were built from:

- ``EventMap.pos_count`` / ``neg_count``: uint32.
- ``EventMap.pos_time`` / ``neg_time``: float32.
- ``FlowField.u`` / ``v`` and ``FloatMap.values``: float32, the same as the
  EVRF on-disk payload (``<f4``), so a flow field or map survives a write/read
  round-trip bit for bit.

*Arithmetic* on stored values runs in float64: consumers (flow solver, TTI
estimators, metrics, policy) cast to float64 before they compute, and results
that are stored again are rounded back to float32.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "EVENT_DTYPE",
    "Event",
    "EventMap",
    "FlowField",
    "FloatMap",
    "MapSemantics",
    "CameraModel",
    "EventOrderError",
    "EventWindowError",
    "ShapeMismatchError",
    "UndefinedMetricError",
    "as_event_array",
    "make_events",
    "accumulate_events",
    "event_mask",
    "float_map",
    "flow_field",
]

# Binary-compatible with the on-disk event record: t f64, x u16, y u16,
# polarity i8, 3 pad bytes (16-byte stride).
EVENT_DTYPE = np.dtype(
    {
        "names": ["t", "x", "y", "polarity"],
        "formats": ["<f8", "<u2", "<u2", "i1"],
        "offsets": [0, 8, 10, 12],
        "itemsize": 16,
    }
)


class EventOrderError(ValueError):
    """Event stream is not sorted by timestamp."""


class EventWindowError(ValueError):
    """Events fall outside the accumulation window, or the window is degenerate."""


class ShapeMismatchError(ValueError):
    """Raster dimensions disagree."""


class UndefinedMetricError(ValueError):
    """A metric was requested over an empty support set (or a zero vector)."""


class MapSemantics(IntEnum):
    """Channel meaning of a FloatMap; values match the on-disk semantics codes."""

    INTENSITY = 0
    DEPTH_M = 1
    INV_TTI_S = 2
    CLASS_ID = 3
    FLOW_U = 4
    FLOW_V = 5


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Event:
    """A single polarity change: timestamp (s), pixel column/row, sign in {+1, -1}."""

    t: float
    x: int
    y: int
    polarity: int

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t < 0:
            raise ValueError(f"event timestamp must be finite and >= 0, got {self.t}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"event coordinates must be >= 0, got ({self.x}, {self.y})")
        if self.polarity not in (1, -1):
            raise ValueError(f"event polarity must be +1 or -1, got {self.polarity}")


def _int_component(name: str, values, dtype) -> np.ndarray:
    """values as an integer array that fits dtype exactly, or a typed error
    naming the field: ValueError for non-integers, OverflowError out of range."""
    arr = np.asarray(values)
    if arr.size == 0:
        return arr.astype(dtype)
    if arr.dtype.kind not in "biu":
        if arr.dtype.kind != "f" or not np.all(np.floor(arr) == arr):
            raise ValueError(f"{name} must hold integers")
    info = np.iinfo(dtype)
    lo, hi = arr.min(), arr.max()
    if lo < info.min or hi > info.max:
        raise OverflowError(f"{name} out of range [{info.min}, {info.max}]: holds {lo} .. {hi}")
    return arr.astype(dtype)


def make_events(t, x, y, polarity) -> np.ndarray:
    """Pack parallel component sequences into a structured event array.

    x, y and polarity must hold integers that fit uint16, uint16 and int8;
    nothing is rounded or wrapped."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape[0], dtype=EVENT_DTYPE)
    out["t"] = t
    out["x"] = _int_component("x", x, np.uint16)
    out["y"] = _int_component("y", y, np.uint16)
    out["polarity"] = _int_component("polarity", polarity, np.int8)
    return out


def as_event_array(events: Union[np.ndarray, Iterable[Event]]) -> np.ndarray:
    """Coerce an iterable of Event (or a structured array) to EVENT_DTYPE."""
    if isinstance(events, np.ndarray):
        if events.dtype != EVENT_DTYPE:
            missing = {"t", "x", "y", "polarity"} - set(events.dtype.names or ())
            if missing:
                raise TypeError(f"event array lacks fields {sorted(missing)}")
            out = np.zeros(events.shape[0], dtype=EVENT_DTYPE)
            for name in ("t", "x", "y", "polarity"):
                out[name] = events[name]
            return out
        return events
    seq = list(events)
    return make_events([ev.t for ev in seq], [ev.x for ev in seq], [ev.y for ev in seq],
                       [ev.polarity for ev in seq])


@dataclass(frozen=True, eq=False)
class EventMap:
    """4-channel accumulation of events over a time window.

    pos_count / neg_count hold per-pixel event counts; pos_time / neg_time hold
    the most recent event time per pixel, normalized to [0, 1] within the window
    (0 doubles as the "no event" sentinel).
    """

    width: int
    height: int
    t_start: float
    t_end: float
    pos_count: np.ndarray
    neg_count: np.ndarray
    pos_time: np.ndarray
    neg_time: np.ndarray

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise EventWindowError(f"window [{self.t_start}, {self.t_end}) is empty")
        for name in ("pos_count", "neg_count", "pos_time", "neg_time"):
            arr = getattr(self, name)
            if arr.shape != (self.height, self.width):
                raise ShapeMismatchError(
                    f"{name} has shape {arr.shape}, expected {(self.height, self.width)}"
                )

    @property
    def total_events(self) -> int:
        return int(self.pos_count.sum()) + int(self.neg_count.sum())


def _check_stream(arr: np.ndarray, width: int, height: int, bounds_error=ValueError) -> None:
    """Refuse a stream that is not sorted by finite timestamps, has a pixel
    outside width x height, or a polarity other than +1 / -1.

    The time test is written in positive form: every comparison with NaN is
    False, so a NaN anywhere fails the sort test (or, in a one-event stream,
    the finite-endpoint test), and a sorted stream with finite endpoints is
    finite throughout.
    """
    t = arr["t"]
    if not t.size:
        return
    if not (np.all(np.diff(t) >= 0) and np.isfinite(t[0]) and np.isfinite(t[-1])):
        raise EventOrderError("events must be sorted by finite timestamps")
    if arr["x"].max() >= width or arr["y"].max() >= height:
        raise bounds_error("event coordinates exceed raster dimensions")
    if not np.all(np.abs(arr["polarity"]) == 1):
        raise ValueError("polarity must be +1 or -1")


def accumulate_events(
    events: Union[np.ndarray, Iterable[Event]],
    window: tuple[float, float],
    width: int,
    height: int,
) -> EventMap:
    """Accumulate a sorted event stream into the 4-channel representation.

    Counts are summed per pixel and polarity; the timestamp channels keep the
    most recent event per pixel, normalized as (t - t0) / (t1 - t0).

    Each event gets one linear index into a (2, height, width) stack:
    ``y * width + x`` for a positive event, plus ``height * width`` for a
    negative one.  Counts are one ``bincount`` over that index, and the latest
    times one ``maximum.at`` of the float32 normalized times.  Both reductions
    are order-independent (a sum and a maximum), and on a sorted stream the
    maximum is the most recent event, so the result depends on no assignment
    order.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise EventWindowError(f"window [{t0}, {t1}) is empty or not finite")
    arr = as_event_array(events)
    t = arr["t"]
    _check_stream(arr, width, height)
    if t.size and not (t0 <= t[0] and t[-1] < t1):
        raise EventWindowError(f"events span [{t[0]}, {t[-1]}] outside window [{t0}, {t1})")

    n = height * width
    key = arr["y"].astype(np.intp)
    key *= width
    key += arr["x"]
    key += (arr["polarity"] < 0) * np.intp(n)
    counts = np.bincount(key, minlength=2 * n).astype(np.uint32)
    latest = np.zeros(2 * n, dtype=np.float32)
    np.maximum.at(latest, key, ((t - t0) / (t1 - t0)).astype(np.float32))
    counts.setflags(write=False)
    latest.setflags(write=False)
    pos_count, neg_count = counts.reshape(2, height, width)
    pos_time, neg_time = latest.reshape(2, height, width)
    return EventMap(
        width=width,
        height=height,
        t_start=t0,
        t_end=t1,
        pos_count=pos_count,
        neg_count=neg_count,
        pos_time=pos_time,
        neg_time=neg_time,
    )


def event_mask(em: EventMap) -> np.ndarray:
    """Binary raster: 1 where at least one event of either polarity occurred."""
    return (em.pos_count != 0) | (em.neg_count != 0)


@dataclass(frozen=True, eq=False)
class FlowField:
    """Dense 2-channel displacement field in pixels per frame interval."""

    width: int
    height: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            arr = getattr(self, name)
            if arr.shape != (self.height, self.width):
                raise ShapeMismatchError(
                    f"{name} has shape {arr.shape}, expected {(self.height, self.width)}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"flow channel {name} contains non-finite values")


def flow_field(u, v) -> FlowField:
    """Build a FlowField from two (H, W) arrays, rounded to float32 for storage."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 2:
        raise ShapeMismatchError(f"u/v shapes {u.shape} vs {v.shape} must match and be 2-D")
    h, w = u.shape
    return FlowField(width=w, height=h, u=_frozen(u, np.float32), v=_frozen(v, np.float32))


@dataclass(frozen=True, eq=False)
class FloatMap:
    """Dense scalar raster tagged with its channel meaning."""

    width: int
    height: int
    semantics: MapSemantics
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise ShapeMismatchError(
                f"values shape {self.values.shape} != {(self.height, self.width)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("map contains non-finite values")
        if self.semantics in (MapSemantics.DEPTH_M, MapSemantics.INV_TTI_S):
            if np.any(self.values < 0):
                raise ValueError(f"{self.semantics.name} map must be non-negative")


def float_map(values, semantics: MapSemantics) -> FloatMap:
    """Build a FloatMap from an (H, W) array, rounded to float32 for storage."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D raster, got shape {values.shape}")
    h, w = values.shape
    return FloatMap(
        width=w,
        height=h,
        semantics=MapSemantics(semantics),
        values=_frozen(values, np.float32),
    )


def _check_finite(obj, *names: str) -> None:
    """Raise a ValueError, field name first, on the first named field of obj
    that holds a NaN or an infinity (a number or nested tuples of numbers)."""
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; pixel centers sit at integer coordinates."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        _check_finite(self, "fx", "fy")
        if not self.fx > 0:
            raise ValueError("fx (focal length) must be positive")
        if not self.fy > 0:
            raise ValueError("fy (focal length) must be positive")
        if not self.width > 0:
            raise ValueError("width must be positive")
        if not self.height > 0:
            raise ValueError("height must be positive")
        if not 0 <= self.cx < self.width:
            raise ValueError("cx (principal point) must lie in [0, width)")
        if not 0 <= self.cy < self.height:
            raise ValueError("cy (principal point) must lie in [0, height)")

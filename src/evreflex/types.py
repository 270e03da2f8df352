"""Shared value types: events, accumulated event maps, dense rasters, camera intrinsics.

Everything downstream (simulator, flow solver, TTI estimators, metrics) trades in
these types.

Event contract.  An event stream is a 1-D array of the one dtype
``EVENT_DTYPE`` (t float64 seconds, x and y uint16 pixel column and row,
polarity int8 of +1 / -1, in a 16-byte record that matches the on-disk one).
``make_events``, ``io_formats.read_events`` and ``sim.generate_events``
produce it.  Any finite timestamps sorted in non-decreasing order are valid,
negative ones included.  ``accumulate_events`` and ``io_formats.write_events``
take such arrays.  They also take another structured array with fields t,
x, y and polarity (on numpy 2.x, ``np.concatenate`` of two event arrays
returns one of itemsize 13), which ``as_event_array`` rebuilds through
``make_events``: a value out of its field's range is an OverflowError, not a
wrapped one.  Lists, tuples, generators and plain arrays are a TypeError.

Container contract.  Each raster container's class is its only builder.
``FlowField(u, v)``, ``FloatMap(values, semantics)`` and ``TtiMap(values, dt,
valid)`` (in ``tti``) store read-only copies of their arrays; ``EventMap`` takes
the read-only channels that ``accumulate_events`` builds, without a copy.  So
instances are immutable and can be shared freely across threads.  Whatever the
dtype of the input, each container stores its payload in one fixed dtype:

- ``EventMap.pos_count`` / ``neg_count``: uint32.
- ``EventMap.pos_time`` / ``neg_time``: float32.
- ``FlowField.u`` / ``v``, ``FloatMap.values`` and ``TtiMap.values``:
  float32, half the bytes of a float64 raster, rounded once when the
  container is built, so every consumer reads the same stored values.
- ``TtiMap.valid``: bool.

A raster's size is its array's shape, (height, width); no container stores a
width or a height beside it.

*Arithmetic* on stored values runs in float64: consumers (flow solver, TTI
estimators, metrics, policy) read a raster through ``_float64`` before they
compute, and results that are stored again are rounded back to float32.
The one exception is the flow solver's linear sweeps, which relax each
warp's frozen system in float32 (see ``flow``); its objective, safeguard
and reported loss stay float64.

Boundary checks.  Each input rule is written once here, and every boundary
calls it: ``_check_positive`` (numbers that are positive and finite),
``_check_finite`` (numbers that are finite, checked before any range
comparison), ``_check_raster_size`` (integer sides in [1, 65536]),
``_check_window`` (finite ends, t0 < t1), ``_check_int`` and
``_check_shape``.  A bool, a string or None is not a number.  Messages
start with the field name, which ``parse_config`` reads to name the config
key.  Rasters that must share the sensor raster go through
``_check_shapes`` (equal shapes) or ``_raster`` (a 2-D float64 raster of
the named shapes); their ShapeMismatchError names each argument and its
shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "EVENT_DTYPE",
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
    """Channel meaning of a FloatMap."""

    INTENSITY = 0
    DEPTH_M = 1
    INV_TTI_S = 2
    CLASS_ID = 3


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _int_component(name: str, values, dtype, n: int) -> np.ndarray:
    """values as a 1-D integer array of n entries that fit dtype exactly, or a
    typed error naming the field: ValueError for another shape or non-integers,
    OverflowError out of range."""
    arr = np.asarray(values)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be 1-D with one entry per event ({n}), got {arr.shape}")
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
    """Pack four parallel 1-D components into an EVENT_DTYPE array.

    t sets the event count; x, y and polarity must be as long and hold
    integers that fit uint16, uint16 and int8; nothing is broadcast, rounded
    or wrapped."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError(f"t must be 1-D, got shape {t.shape}")
    n = t.shape[0]
    out = np.zeros(n, dtype=EVENT_DTYPE)
    out["t"] = t
    out["x"] = _int_component("x", x, np.uint16, n)
    out["y"] = _int_component("y", y, np.uint16, n)
    out["polarity"] = _int_component("polarity", polarity, np.int8, n)
    return out


def as_event_array(events: np.ndarray) -> np.ndarray:
    """events itself if it is an EVENT_DTYPE array.  Any other structured array
    with fields t, x, y and polarity (numpy 2.x's np.concatenate of event
    arrays returns a packed one) is rebuilt through make_events, so its values
    pass the same checks; anything else is a TypeError."""
    if isinstance(events, np.ndarray):
        if events.dtype == EVENT_DTYPE:
            if events.ndim != 1:
                raise ValueError(f"events must be 1-D, got shape {events.shape}")
            return events
        if {"t", "x", "y", "polarity"} <= set(events.dtype.names or ()):
            return make_events(events["t"], events["x"], events["y"], events["polarity"])
    got = events.dtype if isinstance(events, np.ndarray) else type(events).__name__
    raise TypeError("events must be an EVENT_DTYPE array (see make_events) or a structured "
                    f"array with fields t, x, y and polarity, got {got}")


@dataclass(frozen=True, eq=False)
class EventMap:
    """4-channel accumulation of events over a time window.

    pos_count / neg_count hold per-pixel event counts; pos_time / neg_time hold
    the most recent event time per pixel, normalized to [0, 1] within the window
    (0 doubles as the "no event" sentinel).  The channels are stored as given,
    so they must already be read-only 2-D arrays of one shape in the contract's
    dtypes; ``accumulate_events`` builds them.
    """

    t_start: float
    t_end: float
    pos_count: np.ndarray
    neg_count: np.ndarray
    pos_time: np.ndarray
    neg_time: np.ndarray

    def __post_init__(self):
        _check_window(self.t_start, self.t_end)
        shape = getattr(self.pos_count, "shape", None)
        for name, dtype in (("pos_count", np.uint32), ("neg_count", np.uint32),
                            ("pos_time", np.float32), ("neg_time", np.float32)):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
                got = arr.dtype if isinstance(arr, np.ndarray) else type(arr).__name__
                raise TypeError(f"{name} must be a {np.dtype(dtype)} array, got {got}")
            if arr.ndim != 2 or arr.shape != shape:
                raise ShapeMismatchError(f"{name} has shape {arr.shape}; the channels must "
                                         f"share one 2-D shape, pos_count's is {shape}")
            if arr.flags.writeable:
                raise ValueError(f"{name} must be read-only")

    @property
    def total_events(self) -> int:
        return int(self.pos_count.sum()) + int(self.neg_count.sum())


def _check_window(t0, t1) -> None:
    """Raise an EventWindowError unless t0 and t1 are finite and t0 < t1."""
    if not -np.inf < t0 < t1 < np.inf:
        raise EventWindowError(f"window [{t0}, {t1}) is empty or not finite")


def _check_raster_size(width, height) -> None:
    """Raise a ValueError naming the argument unless width and height are
    integers (a bool is not one) in [1, 65536], the raster that
    EVENT_DTYPE's uint16 coordinates can address."""
    for name, side in (("width", width), ("height", height)):
        if isinstance(side, bool) or not isinstance(side, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {side!r}")
        if not 1 <= side <= 65536:
            raise ValueError(f"{name} must be at least 1 and at most 65536, got {side}")


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
    events: np.ndarray,
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
    _check_raster_size(width, height)
    t0, t1 = float(window[0]), float(window[1])
    _check_window(t0, t1)
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
    """Dense 2-channel displacement field in pixels per frame interval, from
    two (H, W) arrays rounded to float32 for storage."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u, v = _frozen(self.u, np.float32), _frozen(self.v, np.float32)
        if u.ndim != 2:
            raise ShapeMismatchError(f"u must be a 2-D raster, got shape {u.shape}")
        _check_shapes(u=u.shape, v=v.shape)
        for name, arr in (("u", u), ("v", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"flow channel {name} contains non-finite values")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class FloatMap:
    """Dense scalar raster tagged with its channel meaning, from an (H, W)
    array rounded to float32 for storage."""

    values: np.ndarray
    semantics: MapSemantics

    def __post_init__(self):
        values = _frozen(self.values, np.float32)
        semantics = MapSemantics(self.semantics)
        if values.ndim != 2:
            raise ShapeMismatchError(f"values must be a 2-D raster, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values holds non-finite values")
        if semantics in (MapSemantics.DEPTH_M, MapSemantics.INV_TTI_S):
            if np.any(values < 0):
                raise ValueError(f"{semantics.name} map must be non-negative")
        elif semantics == MapSemantics.CLASS_ID and np.any(np.floor(values) != values):
            raise ValueError("CLASS_ID map must hold integers")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "semantics", semantics)


def _float64(raster) -> np.ndarray:
    """A FloatMap's values, or an array-like, as a float64 array for arithmetic."""
    return np.asarray(raster.values if isinstance(raster, FloatMap) else raster, dtype=np.float64)


def _check_shapes(**shapes) -> None:
    """Raise a ShapeMismatchError naming every argument and its shape unless
    all the shapes are equal."""
    first, *rest = shapes.values()
    if any(shape != first for shape in rest):
        listed = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        raise ShapeMismatchError(f"shapes differ: {listed}")


def _raster(name: str, raster, **shapes) -> np.ndarray:
    """raster through _float64, or a ShapeMismatchError naming it unless it
    is 2-D and has each named shape; its values are not checked."""
    arr = _float64(raster)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be a 2-D raster, got shape {arr.shape}")
    _check_shapes(**{name: arr.shape}, **shapes)
    return arr


def _holds_bool(value) -> bool:
    """Whether value is a bool or a tuple or list holding one at any depth;
    numpy turns a bool among numbers into a number."""
    if isinstance(value, (bool, np.bool_)):
        return True
    return isinstance(value, (tuple, list)) and any(_holds_bool(item) for item in value)


def _check_positive(name: str, value) -> None:
    """Raise a ValueError, name first, unless value (a number or a tuple of
    numbers; a bool or a string is not one, nor is a tuple holding one) is
    positive and finite throughout."""
    arr = np.asarray(value)
    if (_holds_bool(value) or arr.dtype.kind not in "iuf"
            or not np.all((arr > 0) & (arr < np.inf))):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_finite(obj, *names: str) -> None:
    """Raise a ValueError, field name first, on the first named field of obj
    that is not a number or nested tuples of numbers (a bool, a string or None
    is not one, nor is a tuple holding one) or that holds a NaN or an
    infinity."""
    for name in names:
        value = getattr(obj, name)
        arr = np.asarray(value)
        if _holds_bool(value) or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise ValueError(f"{name} must hold finite numbers, got {value!r}")


def _check_int(obj, *names: str) -> None:
    """Raise a ValueError, field name first, on the first named field of obj
    that is not an integer; a bool or an integral float is not one."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_shape(obj, shape: tuple[int, ...], *names: str) -> None:
    """Raise a ValueError, field name first, on the first named field of obj
    whose nesting of numbers does not have the given array shape."""
    for name in names:
        value = getattr(obj, name)
        try:
            ok = np.shape(value) == shape
        except ValueError:  # a ragged nesting has no shape
            ok = False
        if not ok:
            raise ValueError(f"{name} must have shape {shape}, got {value!r}")


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
        _check_raster_size(self.width, self.height)
        _check_positive("fx", self.fx)
        _check_positive("fy", self.fy)
        _check_finite(self, "cx", "cy")
        if not 0 <= self.cx < self.width:
            raise ValueError("cx (principal point) must lie in [0, width)")
        if not 0 <= self.cy < self.height:
            raise ValueError("cy (principal point) must lie in [0, height)")

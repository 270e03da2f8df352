"""Dense optical flow by a fixed-point solve of a self-supervised objective.

The objective (Charbonnier data plus smoothness terms, after Sun, Roth and
Black, CVPR 2010) is a robust photometric term (intensity constancy under a
bilinear warp whose samples clamp to the raster's edge) plus a weighted
smoothness term on flow differences between 4-neighbours.  It is the one
objective here: the solve lowers it, and estimate_flow and total_loss report
it.

The photometric term reads the images on a 0-255 scale: callers pass them in
the simulator's [0, 1] units, and a level multiplies both by
_INTENSITY_SCALE (255) before anything else, so estimate_flow, total_loss
and a level built directly agree.  The Charbonnier settings (eps = 0.001,
a = 0.45) are Sun, Roth and Black's for 8-bit intensities.  On [0, 1] the
data term is 255^0.9, about 146 times, weaker against the smoothness term:
it scored the true flow of a 173x130 approach pair at 1.32-4.90 times zero
flow, and the solve ended 2-3% below zero flow's error.  The reported
objective is in the 0-255 units.

The objective is solved coarse-to-fine on a pyramid by the nested fixed
point of Brox, Bruhn, Papenberg and Weickert (ECCV 2004), with no step size.
Each coarser level's images are the finer level's reduced by _reduce: the
5-tap binomial [1 4 6 4 1]/16 with edge padding, then the 2x2 block mean,
computed as one 6-tap [1 5 10 10 5 1]/32 pass per axis at the kept samples
only: the same to rounding on even sides, in about half the time of the
blur followed by the decimation.  Without the blur the block mean aliases a
texture's short periods at the coarse levels, and the 0-255 data term
follows them: the flows solved on a 48x48 texture and on its 3-row shift
differed by a mean of 2.7 px inside the border, against 0.085 px with the
blur.  The weights are block means (_downsample2).  Per level:

- Outer warps.  Level 0 runs _FINEST_WARPS (1) warp and every coarser level
  _WARPS (2).  On the 0-255 scale level 0's second warp bought no accuracy,
  while one warp on the coarser levels as well cost the flow its shift
  equivariance (0.13 px with one warp on levels 0-1, 0.25 px on every level,
  against 0.085 px).  A warp linearises the photometric residual about the
  current flow: I_t1 and its np.gradient derivatives (computed once per
  level) are sampled there with the clamp-to-edge bilinear footprint that
  the loss at that flow built, one footprint for all three rasters.
- One lagged-diffusivity freeze per warp.  The Charbonnier weights are
  frozen at the current flow: w * b^(a - 1) per photometric pixel and
  alpha * b^(a - 1) per 4-neighbour edge and flow channel, b = x^2 + eps^2
  each term's base.  That leaves a linear system, two unknowns per pixel.
- Red-black SOR.  _SWEEPS sweeps at over-relaxation _OMEGA solve it, each
  pixel's 2x2 block at a time: the pixels of one colour (x + y even, then
  odd) have no neighbour of their colour, so a half-sweep updates all of them
  at once, stored contiguously by the parity of their row and column.  Each
  freeze inverts the 2x2 blocks and applies the inverse to their constant
  terms once; the sweeps then only read those terms.  A singular block
  (every one at alpha = 0) takes its pseudo-inverse, the least-norm
  solution.  The frozen system, its inverted terms and the flow the sweeps
  relax are float32 (_SWEEP_DTYPE), which halves a sweep's time:
  estimate_flow stores its flow as float32, and each warp freezes the
  system again at the float64 flow, so float64 sweeps would compute digits
  that neither keeps.  A system whose coefficients, or the products of
  their inversion, overflow float32 is a divergence at its warp.
- Safeguard.  A warp whose result raises the objective has its update
  halved until it does not (at most _HALVINGS times, after which the warp
  keeps the flow it started from), so the objective never rises from one
  warp to the next within a level.

A level whose class grids hold at least _THREADED_CELLS cells, in a
process that os.sched_getaffinity allows two CPUs or more, solves on two
threads: its solve, and nothing else, opens one worker thread for the
whole level, and each stage hands the worker one half and runs the other on
the calling thread.  Opening it pins the calling thread to the CPU it is on
and the worker to the calling thread's other CPUs, each thread by
os.sched_setaffinity for itself, and closing it gives the calling thread its
mask back, also when a half raised; a placement the system refuses leaves
its thread where it was, and the flow is the same either way.  The halves
overlap only on two CPUs: numpy's ufuncs release the interpreter lock over
these arrays, but left to the scheduler the worker ran on its caller's CPU.
On a 2-vCPU host, one 346x260 level-0 colour (its two classes' half-sweeps)
took 292-315 us on two threads left to the scheduler, 264-305 us on one
thread, and 179-231 us on two threads placed on different CPUs.
- Loss: the worker takes u's edge powers and their sum, the caller the
  photometric term and v's.  The caller adds the terms in the serial order
  (photometric, u, v), so the loss is the same to the bit.
- Freeze: the worker samples I_t1's d/dy at the footprint and turns u's
  edge powers into weights, the caller samples d/dx and does v's; the rest
  of the freeze runs on the caller.
- Sweeps: the two parity classes of one colour share no output (each
  writes only its own cells, and reads the other colour's flow and its own
  weights and terms), so each half-sweep runs its two classes at once, the
  worker's with scratch of its own.  Each cell gets the serial sweep's
  operations in the serial order, so the flow is the same to the bit.
The threads hand over once per stage half (a half-sweep is one) through a
pair of locks, at about 14 us a handover between two CPUs of a 2-vCPU
host (25-28 us through a pair of semaphores).  Smaller levels and a process
allowed one CPU open no worker, and each stage runs the same halves in turn
on the calling thread.  The threshold is the break-even of a whole level on a
2-vCPU host, the threads placed: level-0 solves of central crops of the
tools/chain_digest.py 346x260 scene, from zero flow, summed over its pairs
1-10 (per pair the fastest of 7):

    raster    cells per class grid   one thread   two threads
    130x173          5,963             114.1 ms     143.4 ms
    176x224         10,260             140.3 ms     155.8 ms
    192x256         12,740             172.0 ms     164.4 ms
    208x256         13,780             183.8 ms     173.9 ms
    224x256         14,820             189.6 ms     169.8 ms
    256x256         16,900             220.0 ms     201.7 ms
    260x346         23,100             267.5 ms     229.1 ms

Two threads won from 13,780 cells in each of five such runs, and tied at
12,740 in two of them.  So at 346x260 level 0 takes two threads and level 1
(5,963 cells) one.  The table predates the 0-255 data term and level 0's
single warp.  Under them, on a 2-vCPU host, estimate_flow on the approach
benchmark's pairs 1-10 (per pair the fastest of 5, 4 alternating rounds)
summed 466-585 ms on two threads against 551-636 ms on one, two threads
faster in every round, so the threshold stays.  The worker runs under the
numpy error state that the calling thread had when the level opened it
(np.errstate is per thread), an exception in its half is raised again in
the caller, and it is joined before the solve returns or raises.  A level's loss, freeze or sweeps
called outside a solve run both halves on the calling thread.  The worker
drops each task once it has run it, so it keeps no level alive.

One `_Level` does all of a pyramid level's work, in buffers allocated once
per level.  Its `loss` evaluates l_f at a flow as plain array expressions,
the float operations and their order those of the reference kept in
tests/test_flow.py, and keeps the arrays it built that a freeze reads: the
footprint, the residual, its Charbonnier base and power, and each edge's
power.  `freeze` consumes them in place into one warp's linearised data
term, in the order the block inversion reads it, and edge weights.
total_loss is a fresh level's loss.  _warp, the one sampler of warp and of
tti's range closure, builds the same footprint on the whole raster.

Each Charbonnier base b = x^2 + eps^2 (the photometric residual's and, per
flow channel, the horizontal and vertical differences') takes one log and
one exp per loss: b^a = exp(a * log b), which costs about half of one
generic power.  The frozen weights read b^(a - 1) as b^a / b; a freeze
computes each edge's base again from the flow.  b >= eps^2 > 0 keeps the
quotient finite.  The public charbonnier takes the power the same way.

The photometric term is the weighted sum over the pixels of nonzero weight:
estimate_flow given an event map gates it on the pixels that map saw events
at, and given None weighs every pixel.  A level gathers the pixel grid,
I_t and the weights at those pixels into 1-D arrays; each evaluation
gathers the flow there, runs the footprint, interpolant, residual and
powers on them and sums the weighted terms in raster order.  So a pixel of
weight 0 never reaches the objective: I_t is not read there (I_t1 is, where
an active pixel's sample lands), and an overflow there is no divergence;
one at a pixel of nonzero weight still is.  total_loss checks that a weight
mask is finite and non-negative, and a level trusts its weights.  The solve
reports each level at DEBUG level on the "evreflex.flow" logger, its
numbers also the record's fields: level, width, height, pixels (active),
warps (the level's own count), safeguard halvings and losses (at the start
and after each warp).

All internal arithmetic runs in float64, except the sweeps' (above).
"""
from __future__ import annotations

import contextlib
import functools
import logging
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

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
    _check_shapes,
    _raster,
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
    """Objective and pyramid settings; the defaults reproduce the documented behaviour.

    alpha weighs the smoothness term, charbonnier_eps and charbonnier_alpha
    (eps and a) shape the penalty rho(x) = (x^2 + eps^2)^a of both terms, and
    pyramid_levels caps the levels of the coarse-to-fine pyramid (a level is
    added while the shorter side is at least 8 pixels).  The images are
    given in the simulator's [0, 1] units, and the photometric residual is
    taken between them times _INTENSITY_SCALE (255), the scale these
    defaults are set for.  The fixed-point solve has no step size, tolerance
    or iteration setting: level 0 runs _FINEST_WARPS warps and each coarser
    level _WARPS, each of _SWEEPS red-black SOR sweeps at _OMEGA, module
    constants (see the module docstring).
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
    """The solve met a non-finite loss, linearised system or flow.

    warp is 0 for a level's starting loss and counts the level's warps from
    1; loss is inf when the warp's system or flow was not finite (the system
    in the sweeps' float32).
    """

    def __init__(self, level: int, warp: int, loss: float):
        self.level = level
        self.warp = warp
        self.loss = loss
        super().__init__(f"non-finite loss {loss} at pyramid level {level}, warp {warp}")


def _check_config(cfg) -> None:
    if not isinstance(cfg, FlowSolverConfig):
        raise TypeError(f"cfg must be a FlowSolverConfig, got {type(cfg).__name__}")


def _uv(flow: Flow) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(flow, FlowField):
        return np.asarray(flow.u, dtype=np.float64), np.asarray(flow.v, dtype=np.float64)
    arr = np.asarray(flow, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[0] == 2:
        if not np.isfinite(arr).all():
            raise ValueError("flow contains NaN or infinite values")
        return arr[0], arr[1]
    raise ShapeMismatchError(f"expected FlowField or (2, H, W) array, got shape {arr.shape}")


def _footprint(shape: tuple[int, int], xs: np.ndarray, ys: np.ndarray):
    """Clamp-to-edge bilinear footprint of the samples at (xs, ys) on a raster
    of shape.

    Returns (top_left, fx, fy): each footprint's top-left corner as a linear
    index into the raveled raster, and the fractional offsets inside the
    footprint.
    """
    h, w = shape
    fx = np.clip(xs, 0.0, w - 1.0)
    fy = np.clip(ys, 0.0, h - 1.0)
    # fx, fy >= 0 now, so truncation is floor
    x0 = np.minimum(fx.astype(np.intp), max(w - 2, 0))
    y0 = np.minimum(fy.astype(np.intp), max(h - 2, 0))
    fx -= x0
    fy -= y0
    top_left = y0  # built in y0's array
    top_left *= w
    top_left += x0
    return top_left, fx, fy


def _gather_corners(img: np.ndarray, top_left: np.ndarray):
    """img's four footprint corners at the linear indices top_left: top-left,
    top-right, bottom-left, bottom-right."""
    # The other corners sit at top_left in views of the raveled raster that
    # start one column, one row, or both further on (no offset along an axis
    # of length 1, as the clamp gives).  The clamp keeps each index inside
    # every view, so take's "wrap" changes no value; its default "raise"
    # would buffer the output.
    h, w = img.shape
    flat = img.ravel()
    right = 1 if w > 1 else 0
    down = w if h > 1 else 0
    return tuple(flat[start:].take(top_left, mode="wrap")
                 for start in (0, right, down, down + right))


def _interpolate(corners, fx, fy) -> np.ndarray:
    """The bilinear interpolant over a footprint's corners at the offsets
    (fx, fy)."""
    i00, i01, i10, i11 = corners
    top = i00 + fx * (i01 - i00)
    bottom = i10 + fx * (i11 - i10)
    return top + fy * (bottom - top)


@functools.lru_cache(maxsize=8)
def _pixel_grid(shape: tuple[int, int]) -> np.ndarray:
    """(2, H, W) float64 pixel coordinates: row indices, then column indices.

    One read-only array per shape, shared by every caller.
    """
    h, w = shape
    grid = np.mgrid[0:h, 0:w].astype(np.float64)
    grid.flags.writeable = False
    return grid


def _warp(img: np.ndarray, u: np.ndarray, v: np.ndarray):
    """(values, in_bounds, corners): the raster img sampled at i + (u, v)(i)
    through the clamp-to-edge bilinear footprint, a flag for samples that
    stayed inside the raster, and img's four footprint corners."""
    h, w = img.shape
    ys, xs = _pixel_grid(img.shape)
    xs, ys = xs + u, ys + v
    in_bounds = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    top_left, fx, fy = _footprint(img.shape, xs, ys)
    corners = _gather_corners(img, top_left)
    return _interpolate(corners, fx, fy), in_bounds, corners


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
    values, valid, _ = _warp(_raster("src", src, flow=u.shape), u, v)
    if isinstance(src, FloatMap):
        return FloatMap(values, src.semantics), valid
    return values, valid


def _charbonnier_power(base, alpha: float):
    """base^alpha as exp(alpha * log(base)), a new array; base is an array > 0."""
    power = np.log(base)
    power *= alpha
    return np.exp(power, out=power)


def charbonnier(x, eps: float = 0.001, alpha: float = 0.45):
    """Robust penalty (x^2 + eps^2)^alpha, elementwise; eps > 0, 0 < alpha < 1."""
    _check_positive("eps", eps)
    _check_positive("alpha", alpha)
    if not alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    x = np.asarray(x, dtype=np.float64)
    out = _charbonnier_power(np.atleast_1d(x * x + eps * eps), alpha).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def _weights(shape, weight_mask) -> np.ndarray:
    if weight_mask is None:
        return np.ones(shape, dtype=np.float64)
    w = _raster("weight_mask", weight_mask, img_t=shape)
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
    """The objective l_f = l_p + alpha * l_s at flow, the one estimate_flow lowers.

    l_p sums weight * rho(I_t(i) - I_t1(i + F(i))) over the pixels, with the
    [0, 1] images times _INTENSITY_SCALE (255), a sample outside the raster
    reading I_t1 at the clamped position; l_s sums rho over
    the flow differences of each channel across 4-neighbour pairs.  A cfg
    that is not a FlowSolverConfig is refused with TypeError.
    """
    _check_config(cfg)
    u, v = _uv(flow)
    it, it1 = _raster("img_t", img_t, flow=u.shape), _raster("img_t1", img_t1, flow=u.shape)
    return _Level(it, it1, _weights(it.shape, weight_mask), cfg).loss(u, v)


# each edge direction's two ends: horizontal, then vertical 4-neighbour pairs
_EDGES = ((np.s_[:, 1:], np.s_[:, :-1]), (np.s_[1:, :], np.s_[:-1, :]))


def _edge_bases(channel, ahead, behind, eps: float) -> np.ndarray:
    """The Charbonnier bases d^2 + eps^2 of the flow channel's differences
    d = channel[ahead] - channel[behind]."""
    d = channel[ahead] - channel[behind]
    d *= d
    d += eps * eps
    return d


def _edge_powers(channel, eps: float, ca: float):
    """The Charbonnier powers of the flow channel's differences, horizontal
    then vertical (as _EDGES), and their sum."""
    across, down = (_charbonnier_power(_edge_bases(channel, ahead, behind, eps), ca)
                    for ahead, behind in _EDGES)
    return (across, down), float(np.sum(across) + np.sum(down))


def _cpu() -> int:
    """The CPU the calling thread is on: field 39 of its /proc stat line."""
    with open("/proc/thread-self/stat", "rb") as stat:
        # field 2, the command name in parentheses, may hold spaces and
        # parentheses; the fields after its last ")" start at field 3
        return int(stat.read().rpartition(b")")[2].split()[36])


def _place(cpus) -> None:
    """Confine the calling thread to cpus; where that is refused, it runs
    where it did."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


class _Worker:
    """A thread that runs tasks handed over by the thread that opened it,
    one at a time: run(task, own) runs task there and own here at once.

    The opening thread keeps the CPU it is on and the worker takes the other
    CPUs of the opening thread's mask, each thread placing itself; close()
    ends the worker, joins it and gives the opening thread its mask back.  A
    placement that the system refuses leaves its thread unplaced.  The two
    hand over through a pair of locks, each released by one thread and
    acquired by the other: run releases go before own and acquires done
    after it, and the worker acquires go before a task and releases done
    after it.  The tasks run under the numpy error state that the opening
    thread had when it opened the worker (np.errstate is per thread), and a
    task's exception is raised again by its run.
    """

    def __init__(self):
        # each held until the other thread releases it
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._outcome = None
        errstate = dict(np.geterr(), call=np.geterrcall())
        mask = os.sched_getaffinity(0)
        try:
            here = {_cpu()}
        except OSError:  # no /proc: both threads run unplaced
            mask = here = None
        self._mask = mask  # this thread's, given back by close()
        # started before this thread places itself, so that it inherits the
        # whole mask should its own placement be refused
        self._thread = threading.Thread(target=self._serve,
                                        args=(errstate, here and mask - here),
                                        name="evreflex-sweep")
        self._thread.start()
        if here:
            _place(here)

    def _serve(self, errstate, cpus) -> None:
        if cpus:
            _place(cpus)
        with np.errstate(**errstate):
            while True:
                self._go.acquire()
                task, self._task = self._task, None
                if task is None:
                    return
                try:
                    self._outcome = task(), None
                except BaseException as exc:  # raised again in the calling thread
                    self._outcome = None, exc
                task = None
                self._done.release()

    def run(self, task, own):
        """(task(), own()), task on the worker and own on this thread; returns
        once both have ended, and raises own's exception, else task's."""
        self._task = task
        self._go.release()
        try:
            mine = own()
        finally:
            self._done.acquire()
            (theirs, failure), self._outcome = self._outcome, None
        if failure is not None:
            raise failure
        return theirs, mine

    def close(self) -> None:
        self._go.release()  # with no task: the worker returns
        self._thread.join()
        if self._mask:
            _place(self._mask)


def _at_once(worker: Optional[_Worker], first, second):
    """(first(), second()): first on the worker while second runs here, or
    both here in turn when worker is None."""
    if worker is None:
        return first(), second()
    return worker.run(first, second)


def _downsample2(a: np.ndarray) -> np.ndarray:
    """2x block-mean downsample with edge padding for odd dimensions."""
    h, w = a.shape
    ph, pw = (h + 1) // 2 * 2, (w + 1) // 2 * 2
    if (ph, pw) != (h, w):
        a = np.pad(a, ((0, ph - h), (0, pw - w)), mode="edge")
    return ((a[0::2, 0::2] + a[0::2, 1::2]) + (a[1::2, 0::2] + a[1::2, 1::2])) / 4


def _reduce_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """a's kept samples j along axis: [1 5 10 10 5 1]/32 over its samples
    2j - 2 .. 2j + 3, an index past either end reading the end sample."""
    n = a.shape[axis]
    kept = (n + 1) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (2, 2 * kept + 2 - n)  # padded sample i is a's sample i - 2
    padded = np.pad(a, pad, mode="edge")

    def tap(t):
        index = [slice(None), slice(None)]
        index[axis] = slice(t, t + 2 * kept - 1, 2)
        return padded[tuple(index)]

    out = tap(0) + tap(5)
    pair = tap(1) + tap(4)
    pair *= 5.0
    out += pair
    np.add(tap(2), tap(3), out=pair)
    pair *= 10.0
    out += pair
    out *= 1.0 / 32.0
    return out


def _reduce(a: np.ndarray) -> np.ndarray:
    """One anti-aliased pyramid step: the 5-tap binomial [1 4 6 4 1]/16 with
    edge padding, then the 2x2 block mean, as one 6-tap pass per axis; a
    raster of shape ((h + 1) // 2, (w + 1) // 2)."""
    return _reduce_axis(_reduce_axis(a, 0), 1)


_INTENSITY_SCALE = 255.0  # the photometric term's images: the [0, 1] inputs times this
_WARPS = 2  # outer warps per coarser pyramid level
_FINEST_WARPS = 1  # outer warps at level 0
_SWEEPS = 10  # red-black SOR sweeps on each warp's frozen system
_OMEGA = 1.8  # the sweeps' over-relaxation factor
_HALVINGS = 10  # the safeguard halves a warp's update at most this often
# the frozen system and the flow the sweeps relax (see the module docstring)
_SWEEP_DTYPE = np.float32
# The red pixels (x + y even) are the parity classes (row, column) = (0, 0)
# and (1, 1); the black ones (0, 1) and (1, 0).
_RED_BLACK = ((0, 0), (1, 1), (0, 1), (1, 0))
# a level solves on two threads from this many cells per class grid: below
# it the handovers cost more than the overlap saves (see the module docstring)
_THREADED_CELLS = 14_000


class _Parity(NamedTuple):
    """One parity class's views into a _Level's buffers."""

    own: np.ndarray  # (2, n): the class's flow band
    flows: tuple  # its left, right, upper and lower neighbours' flow bands
    weights: tuple  # the weights of those four edges
    terms: np.ndarray  # (5, n): its frozen terms
    raster: np.ndarray  # its pixels in uv
    cells: np.ndarray  # the same pixels in the class's flow
    edges: tuple  # its pixels' left and upper edge weights: (slice of the edges, class view) pairs


def _half_sweep(parity: _Parity, sums: np.ndarray, tmp: np.ndarray) -> None:
    """Move each of the parity class's pixels' (u, v) _OMEGA of the way to its
    block's solution given its neighbours, which are of the other colour;
    sums and tmp are (2, n) scratch of the class's band."""
    own, flows, weights, terms, *_ = parity
    np.multiply(weights[0], flows[0], out=sums)
    for weight, flow in zip(weights[1:], flows[1:]):
        np.multiply(weight, flow, out=tmp)
        sums += tmp
    own *= 1.0 - _OMEGA
    own += terms[3:5]
    np.multiply(terms[0:2], sums, out=tmp)
    own += tmp
    np.multiply(terms[2], sums[::-1], out=tmp)
    own += tmp


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


class _Level:
    """One pyramid level's objective and fixed-point solve, in buffers
    allocated once.

    it and it1 are in [0, 1] units, and the level holds them times
    _INTENSITY_SCALE.  weights is a float64 raster its caller has checked
    (total_loss through _weights).  loss(u, v) runs the photometric term on
    the `pixels` pixels of nonzero weight, at the flat indices `active`, and
    keeps the arrays that a freeze reads; freeze() consumes them, so it runs
    at most once per loss.

    uv is the flow as the loss reads it.  The sweeps run on a copy split by
    the parity (row, column) of the pixels, so that each class is contiguous:
    class (py, px) holds the pixels (2i + py, 2j + px) in the rows i + 1 and
    columns j + 1 of a grid with a ring of zeros, stored flat per channel at
    flow[py, px].  A pixel's four neighbours then sit in two other classes at
    flat offsets of -1, 0 or +1 row or column, and each class is updated as
    one band of the flat grids, from its first cell to its last.  left and up
    hold each pixel's edge weight towards its left and upper neighbour in the
    same layout; a right or lower edge is the neighbour's left or upper one.
    A ring cell, or a cell past the raster's last row or column (odd sides),
    has weight 0 on every edge and frozen terms 0, so it stays 0 and no
    pixel reads it.

    After a freeze, terms[py, px] holds each pixel's 2x2 block inverse
    applied to its update, scaled by _OMEGA: the coefficients of the u
    neighbour sum in the u update and of the v sum in the v update (rows 0
    and 1), the cross coefficient (row 2) and the two constant terms (rows 3
    and 4).
    """

    def __init__(self, it, it1, weights, cfg: FlowSolverConfig,
                 coarse: Optional[np.ndarray] = None, level: int = 0):
        self.shape = h, w = it1.shape
        it1 = it1 * _INTENSITY_SCALE  # I_t is scaled once gathered, below
        self.it1, self.cfg, self.level = it1, cfg, level
        # the _Worker that _paired opens for the level's loss, freeze and
        # sweeps to split their stages with; None runs both halves here
        self.worker = None
        self.active = np.flatnonzero(weights)
        self.pixels = self.active.size
        # the photometric term's inputs at its pixels, as 1-D arrays
        self.grid_y, self.grid_x = (self._gather(c) for c in _pixel_grid(self.shape))
        self.it = self._gather(it)
        self.it *= _INTENSITY_SCALE
        self.weights = self._gather(weights)
        hc, wc = (h + 1) // 2, (w + 1) // 2
        row = wc + 2
        grid = (hc + 2) * row
        # each active pixel's flat index in terms[k], built before the
        # level's other buffers so that its temporaries add to no peak
        y, x = np.divmod(self.active, w)
        self.index = y % 2 * 2 + x % 2
        self.index *= grid
        y //= 2
        y += 1
        y *= row
        self.index += y
        x //= 2
        x += 1
        self.index += x
        del y, x
        self.uv = np.zeros((2, h, w))
        if coarse is not None:  # each coarse pixel's flow, doubled, on its 2x2 block
            for dy in (0, 1):
                for dx in (0, 1):
                    target = self.uv[:, dy::2, dx::2]
                    np.multiply(coarse[:, :target.shape[1], :target.shape[2]], 2.0, out=target)
        self.start = np.empty((2, h, w))  # a warp's first flow
        # I_t1's np.gradient derivatives, d/dx then d/dy: 0 along an axis of length 1
        self.derivatives = [np.gradient(it1, axis=axis) if self.shape[axis] > 1
                            else np.zeros((h, w)) for axis in (1, 0)]
        self.flow, self.left, self.up = (np.zeros((2, 2, 2, grid), _SWEEP_DTYPE)
                                         for _ in range(3))
        self.terms = np.empty((5, 2, 2, grid), _SWEEP_DTYPE)
        first, end = row + 1, hc * row + wc + 1
        # (2, n) scratch of a class's band: sums and tmp for the freeze and
        # each colour's first class, scratch for its second
        self.sums, self.tmp, *self.scratch = np.empty((4, 2, end - first), _SWEEP_DTYPE)

        def band(a, py, px, offset=0):
            return a[py, px, :, first + offset:end + offset]

        self.classes = []
        for py, px in _RED_BLACK:
            # flat offsets of the left, right, upper and lower neighbours
            left, right = (0, 1) if px else (-1, 0)
            upper, lower = (0, row) if py else (-row, 0)
            hp, wp = (h - py + 1) // 2, (w - px + 1) // 2

            def pixels(a):
                return a[py, px].reshape(-1, hc + 2, row)[:, 1:1 + hp, 1:1 + wp]

            # a pixel's left edge is the horizontal edges' at its column - 1,
            # so the first column's (px = 0) leave the raster and stay 0;
            # likewise a pixel's upper edge among the vertical edges, and the
            # first row's (py = 0)
            self.classes.append(_Parity(
                band(self.flow, py, px),
                (band(self.flow, py, 1 - px, left), band(self.flow, py, 1 - px, right),
                 band(self.flow, 1 - py, px, upper), band(self.flow, 1 - py, px, lower)),
                (band(self.left, py, px), band(self.left, py, 1 - px, right),
                 band(self.up, py, px), band(self.up, 1 - py, px, lower)),
                self.terms[:, py, px, first:end],
                self.uv[:, py::2, px::2], pixels(self.flow),
                ((np.s_[py::2, 1 - px::2], pixels(self.left)[..., 1 - px:]),
                 (np.s_[1 - py::2, px::2], pixels(self.up)[:, 1 - py:])),
            ))

    def _gather(self, a: np.ndarray) -> np.ndarray:
        """Raster a at the photometric term's pixels; a's values at the other
        pixels are never read."""
        # every index is in range, so take's "wrap" changes no value; its
        # default "raise" would buffer the output
        return a.reshape(-1).take(self.active, mode="wrap")

    @contextlib.contextmanager
    def _paired(self):
        """Open the level's worker for the block when the class grids hold at
        least _THREADED_CELLS cells and two CPUs are allowed; it is closed
        and joined when the block ends.  solve opens it, for every stage of
        the level."""
        if self.flow.shape[-1] < _THREADED_CELLS or not _two_cpus():
            yield
            return
        worker = self.worker = _Worker()
        try:
            yield
        finally:
            self.worker = None
            worker.close()

    def loss(self, u: np.ndarray, v: np.ndarray) -> float:
        """l_f at (u, v); a sample outside the raster reads I_t1 at its
        clamped position.

        With a worker, it takes u's edge powers while this thread takes
        the photometric term and v's; the terms add in the serial order."""
        cfg = self.cfg
        eps, ca = cfg.charbonnier_eps, cfg.charbonnier_alpha
        (u_edges, u_sum), (loss, (v_edges, v_sum)) = _at_once(
            self.worker, functools.partial(_edge_powers, u, eps, ca),
            lambda: (self._photometric(u, v), _edge_powers(v, eps, ca)))
        loss += cfg.alpha * u_sum
        loss += cfg.alpha * v_sum
        # each flow channel's edge powers, horizontal then vertical (as _EDGES)
        self.edges = [u_edges, v_edges]
        return loss

    def _photometric(self, u: np.ndarray, v: np.ndarray) -> float:
        """l_p at (u, v), keeping its footprint, residual, base and power."""
        eps, ca = self.cfg.charbonnier_eps, self.cfg.charbonnier_alpha
        self.footprint = _footprint(self.shape, self.grid_x + self._gather(u),
                                    self.grid_y + self._gather(v))
        self.residual = self.it - self._sample(self.it1)
        self.base = self.residual * self.residual + eps * eps
        self.power = _charbonnier_power(self.base, ca)
        return float(np.sum(self.power * self.weights))

    def _sample(self, raster: np.ndarray) -> np.ndarray:
        """raster at the last loss's sample positions, through the footprint
        that loss built."""
        top_left, fx, fy = self.footprint
        return _interpolate(_gather_corners(raster, top_left), fx, fy)

    def _linearise(self):
        """One warp's data term and edge weights, from the terms of the last
        loss, at uv.

        I_t1's derivatives gx and gy, sampled at the flow's sample positions,
        linearise the residual about it.  With psi = w * b^(a - 1), the data
        term is the block psi * (gy^2, gx^2, gx gy) and the constant terms
        psi * (gx, gy) * q, q = I_t - I_t1(i + F) + gx * u + gy * v, at the
        photometric term's pixels.  The edge weights are alpha * b^(a - 1),
        per flow channel a horizontal and a vertical array (as _EDGES).
        With a worker, it samples gy and turns u's edge powers into weights
        while this thread does gx and v's.
        """
        cfg = self.cfg
        u, v = self.uv
        gx, gy = self.derivatives

        def sample(raster, channel, powers):
            for power, (ahead, behind) in zip(powers, _EDGES):
                power /= _edge_bases(channel, ahead, behind, cfg.charbonnier_eps)
                power *= cfg.alpha
            return self._sample(raster)

        u_edges, v_edges = self.edges
        sy, sx = _at_once(self.worker, functools.partial(sample, gy, u, u_edges),
                          functools.partial(sample, gx, v, v_edges))
        psi = self.power
        psi /= self.base
        psi *= self.weights
        q = self.residual
        q += self._gather(u) * sx
        q += self._gather(v) * sy
        tx = psi * sx
        ty = psi * sy
        cross = tx * sy
        sx *= tx
        sy *= ty
        tx *= q
        ty *= q
        return (sy, sx, cross, tx, ty), self.edges

    def freeze(self) -> bool:
        """Freeze the system at the flow of the last loss and invert its
        blocks into terms; False if a coefficient of the system or of its
        inversion is not finite in _SWEEP_DTYPE."""
        sums, tmp = self.sums, self.tmp
        data, edges = self._linearise()
        # A float64 coefficient past _SWEEP_DTYPE's range casts to inf, and the
        # inversion's products can overflow where float64's would not; inf
        # then spreads as inf or nan, so the checks below refuse the system
        # and nothing here warns.
        with np.errstate(over="ignore", invalid="ignore"):
            # the block in the adjugate's order, a22 first, then its constant terms
            self.terms.fill(0.0)
            for term, values in zip(self.terms, data):
                term.reshape(-1)[self.index] = values
            for c, channel in enumerate(edges):
                for parity in self.classes:
                    for edge, (source, target) in zip(channel, parity.edges):
                        np.copyto(target[c], edge[source])
            for parity in self.classes:
                weights, terms = parity.weights, parity.terms
                # sums: each channel's summed edge weights (S_u, S_v), then the
                # determinant S_u * a22 + j11 * S_v, free of the cancellation in
                # a11 * a22 - a12^2
                np.add(weights[0], weights[1], out=sums)
                sums += weights[2]
                sums += weights[3]
                terms[0] += sums[1]
                sums[1] *= terms[1]
                terms[1] += sums[0]
                sums[0] *= terms[0]
                det = np.add(sums[0], sums[1], out=sums[0])
                # an infinite determinant would scale its block to 0
                if not np.isfinite(det).all():
                    return False
                singular = np.flatnonzero(det == 0)  # the ring's cells among them
                block = terms[:, singular]
                det[singular] = np.inf  # their terms are set below
                scale = np.divide(_OMEGA, det, out=det)
                terms[:3] *= scale
                np.negative(terms[2], out=terms[2])
                np.multiply(terms[2], terms[4], out=sums[1])
                np.multiply(terms[0], terms[3], out=tmp[0])
                tmp[0] += sums[1]
                np.multiply(terms[2], terms[3], out=sums[1])
                terms[4] *= terms[1]
                terms[4] += sums[1]
                np.copyto(terms[3], tmp[0])
                # a rank-1 block a = lambda e e^T has the pseudo-inverse a / tr(a)^2
                a22, a11, a12, cu, cv = block
                trace = a11 + a22
                positive = trace > 0
                scale = np.divide(_OMEGA, trace, out=np.zeros_like(trace), where=positive)
                np.divide(scale, trace, out=scale, where=positive)
                p11, p22, p12 = a11 * scale, a22 * scale, a12 * scale
                terms[:, singular] = p11, p22, p12, p11 * cu + p12 * cv, p12 * cu + p22 * cv
        return bool(np.isfinite(self.terms).all())

    def sweeps(self, count: int) -> None:
        """count sweeps on the frozen system, from uv and back into it: the
        colours in _RED_BLACK's order, each colour's two classes at once, the
        second on the level's worker with scratch of its own (before the
        first, on this thread, without a worker)."""
        for parity in self.classes:
            np.copyto(parity.cells, parity.raster)
        worker = self.worker
        halves = [(functools.partial(_half_sweep, second, *self.scratch),
                   functools.partial(_half_sweep, first, self.sums, self.tmp))
                  for first, second in zip(self.classes[0::2], self.classes[1::2])]
        for _ in range(count):
            for second, first in halves:
                _at_once(worker, second, first)
        for parity in self.classes:
            np.copyto(parity.raster, parity.cells)

    def _finite_loss(self, warp: int) -> float:
        """The loss at uv; a non-finite flow or loss raises."""
        if not np.isfinite(self.uv).all():
            raise SolverDivergenceError(self.level, warp, math.inf)
        loss = self.loss(*self.uv)
        if not np.isfinite(loss):
            raise SolverDivergenceError(self.level, warp, loss)
        return loss

    def solve(self) -> float:
        """Run the level's warps from its flow; returns the final loss."""
        uv = self.uv
        warps = _WARPS if self.level else _FINEST_WARPS
        with self._paired():  # one worker for every stage of the level
            losses = [self._finite_loss(0)]
            halvings = 0
            for warp in range(1, warps + 1):
                if not self.freeze():
                    raise SolverDivergenceError(self.level, warp, math.inf)
                np.copyto(self.start, uv)
                self.sweeps(_SWEEPS)
                loss = self._finite_loss(warp)
                for _ in range(_HALVINGS):
                    if loss <= losses[-1]:
                        break
                    uv += self.start
                    uv *= 0.5
                    halvings += 1
                    loss = self._finite_loss(warp)
                if loss > losses[-1]:
                    # keep the warp's first flow, and its loss's terms for the next freeze
                    np.copyto(uv, self.start)
                    loss = self.loss(*uv)
                losses.append(loss)
        if _log.isEnabledFor(logging.DEBUG):
            h, w = self.shape
            _log.debug("level %d, %dx%d: photometric term on %d of %d pixels; %d warps, "
                       "%d halvings; loss %r at the start, then %s", self.level, w, h,
                       self.pixels, h * w, warps, halvings, losses[0],
                       ", ".join(map(repr, losses[1:])),
                       extra={"level": self.level, "width": w, "height": h,
                              "pixels": self.pixels, "warps": warps,
                              "halvings": halvings, "losses": tuple(losses)})
        return losses[-1]


def estimate_flow(
    em: Optional[EventMap],
    img_t: Raster,
    img_t1: Raster,
    cfg: FlowSolverConfig = FlowSolverConfig(),
) -> tuple[FlowField, float]:
    """Coarse-to-fine minimization of the combined objective over the flow field.

    img_t and img_t1 are in the simulator's [0, 1] units; the photometric
    term compares them times _INTENSITY_SCALE (255).  Given an event map,
    the photometric term is trusted only where the map saw events; elsewhere
    the smoothness term fills in.  Given None, it weighs every pixel.
    Returns the finest-level flow and the objective the solve reached there:
    total_loss at that flow before it is stored as float32.
    Raises SolverDivergenceError when the solve meets a non-finite loss,
    linearised system or flow.

    Refused before any solve: a cfg that is not a FlowSolverConfig and an em
    that is neither an EventMap nor None (TypeError), an event map whose
    shape differs from the images' (ShapeMismatchError), and with ValueError
    an image holding a non-finite pixel (the message names img_t or img_t1)
    and an event map with no active pixel, which leaves the photometric term
    nothing to weigh and would return zero flow.
    """
    _check_config(cfg)
    it = _raster("img_t", img_t)
    it1 = _raster("img_t1", img_t1, img_t=it.shape)
    for name, img in (("img_t", it), ("img_t1", it1)):
        if not np.all(np.isfinite(img)):
            raise ValueError(f"{name} holds non-finite pixels")
    if em is None:
        weights = np.ones(it.shape)  # block means of ones stay exactly ones
    elif not isinstance(em, EventMap):
        raise TypeError(f"em must be an EventMap or None, got {type(em).__name__}")
    else:
        _check_shapes(em=em.pos_count.shape, img_t=it.shape)
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
        pyramid.append((_reduce(pit), _reduce(pit1), _downsample2(pw)))

    uv = None
    for level in range(len(pyramid) - 1, -1, -1):
        lit, lit1, lw = pyramid[level]
        # each level starts from the coarser level's flow (zero flow at the coarsest)
        solver = _Level(lit, lit1, lw, cfg, uv, level)
        loss = solver.solve()
        uv = solver.uv
    return FlowField(uv[0], uv[1]), loss

"""The three benchmark workloads and the checks on their outputs.

approach  the chain a robot runs on every frame pair at the 346x260 sensor
          raster: accumulate_events -> estimate_flow -> estimate_tti_dynamic
          -> threshold_collision -> obstacle_motion_vector -> evasion_direction,
          on a textured room with the camera moving forward and a sphere flying
          head-on at it.  The flow solver dominates.
ingest    loading a recording: a simulator event stream of about 0.7 million
          events goes through write_events -> read_events -> accumulate_events
          + event_mask per frame window.  Never calls flow.
render    producing ground truth for a busy scene (random spheres plus the
          head-on sphere): render_frame per frame -> generate_events ->
          ground_truth_inverse_tti per pair, the calls simulate_sequence makes
          with its default single worker (see render_pass).  sim and
          ground-truth TTI do all the work; never calls flow.

Every workload builds its inputs in set-up (the approach scene is fixed and
the seed orders its pairs; see approach_scene), runs one discarded warm-up
operation, then repeats its operation for the requested time.  All timed work
runs in this one process on one thread.
"""
from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from evreflex import flow, io_formats, metrics, policy, sim, tti, types
from evreflex.types import CameraModel

from spans import Tracer, summarize


@dataclass(frozen=True)
class Size:
    width: int
    height: int
    approach_frames: int
    busy_frames: int
    random_obstacles: int


SENSOR = Size(346, 260, approach_frames=12, busy_frames=20, random_obstacles=8)
SMOKE = Size(40, 30, approach_frames=4, busy_frames=4, random_obstacles=2)

FRAME_RATE = 20.0
CAMERA_SPEED = 0.5  # m/s along the optical axis
HORIZON_S = 1.0  # danger: projected collision within this many seconds
BASELINE_M = 2.0  # depth baseline: anything closer than this is danger
APPROACH_ROUNDS = 3  # every pair runs at least this often; its time is the fastest run
TRACED_APPROACH_ROUNDS = 1  # traced runs time each operation twice
SETUP_REPEATS = 3
SETUP_MIN_S = 0.2  # a set-up this cheap is repeated until it adds up to this
MIN_PASSES = 3  # ingest and render: timed passes even when --seconds is short

# Instrumentation points: (module, attribute, span name).  simulate_sequence
# reaches render_frame, generate_events and ground_truth_inverse_tti through
# the sim module's own namespace, so those bindings are patched as well as the
# tti one that render_pass calls.
SIM_POINTS = (
    (sim, "simulate_sequence", "sim.simulate_sequence"),
    (sim, "render_frame", "sim.render_frame"),
    (sim, "generate_events", "sim.generate_events"),
    (sim, "ground_truth_inverse_tti", "tti.ground_truth_inverse_tti"),
    (tti, "ground_truth_inverse_tti", "tti.ground_truth_inverse_tti"),
)
CHAIN_POINTS = (
    (types, "accumulate_events", "types.accumulate_events"),
    (types, "event_mask", "types.event_mask"),
    (flow, "estimate_flow", "flow.estimate_flow"),
    (tti, "estimate_tti_dynamic", "tti.estimate_tti_dynamic"),
    (tti, "threshold_collision", "tti.threshold_collision"),
    (policy, "obstacle_motion_vector", "policy.obstacle_motion_vector"),
    (policy, "evasion_direction", "policy.evasion_direction"),
    (io_formats, "write_events", "io_formats.write_events"),
    (io_formats, "read_events", "io_formats.read_events"),
) + SIM_POINTS
METRIC_POINTS = (
    (metrics, "flow_aee", "metrics.flow_aee"),
    (metrics, "prf1", "metrics.prf1"),
)
OP_PREFIX = "op."


def sensor_camera(size: Size) -> CameraModel:
    f = 200.0 * size.width / 346.0
    return CameraModel(fx=f, fy=f, cx=(size.width - 1) / 2.0, cy=(size.height - 1) / 2.0,
                       width=size.width, height=size.height)


def _head_on(rng: np.random.Generator, speed: float) -> sim.SphereObstacle:
    return sim.SphereObstacle(
        radius=0.3,
        start=(2.2, rng.uniform(-0.1, 0.1), 1.5 + rng.uniform(-0.1, 0.1)),
        velocity=(-speed, 0.0, 0.0),
    )


def _forward(rng: np.random.Generator) -> sim.TrajectorySpec:
    x0 = -2.4 + rng.uniform(-0.05, 0.05)
    return sim.TrajectorySpec(waypoints=((x0, 0.0, 0.0), (2.5, 0.0, 0.0)), speed=CAMERA_SPEED)


def approach_scene(size: Size) -> sim.SceneConfig:
    """Textured room, camera moving forward, one sphere flying head-on at 7 m/s.

    The camera start and the sphere are offset by a few centimetres, so the
    sphere is not exactly on the optical axis; the last pair sees it under a
    metre away, so ground-truth displacement spans two orders of magnitude.

    The scene does not depend on the benchmark seed.  The solver's time per
    pair ranges from 0.3 s to 4 s at the sensor raster and changes with any
    shift of the scene (a pair that converges at one sphere offset runs into
    the iteration cap at another), so seeded scenes made the per-run median
    differ by about 30% between seeds, more than any useful bound.  The seed
    sets the order in which the pairs run instead."""
    rng = np.random.default_rng([0, 1])  # fixed offsets
    return sim.SceneConfig(
        camera=sensor_camera(size),
        obstacles=(_head_on(rng, 7.0),),
        trajectory=_forward(rng),
        frame_rate=FRAME_RATE,
        duration=size.approach_frames / FRAME_RATE,
    )


def busy_scene(seed: int, size: Size) -> sim.SceneConfig:
    """The approach room with a slower head-on sphere plus the simulator's
    random spheres.

    The random spheres are drawn once, from the simulator's default layout
    seed, and the benchmark seed moves each by a few centimetres and scales
    its speed by a few percent.  Redrawing the layout per seed would change
    the event count by +-30% and with it the work per run."""
    rng = np.random.default_rng([seed, 2])
    head_on = _head_on(rng, 3.0)
    layout = sim.SceneConfig(random_obstacles=size.random_obstacles).realized_obstacles()
    spheres = tuple(
        replace(
            s,
            start=tuple(np.asarray(s.start) + rng.uniform(-0.05, 0.05, 3)),
            velocity=tuple(np.asarray(s.velocity) * rng.uniform(0.95, 1.05)),
        )
        for s in layout
    )
    return sim.SceneConfig(
        camera=sensor_camera(size),
        obstacles=(head_on,) + spheres,
        trajectory=_forward(rng),
        frame_rate=FRAME_RATE,
        duration=size.busy_frames / FRAME_RATE,
    )


# ---------------------------------------------------------------------------
# session: timing, tracing and failure accounting shared by the workloads
# ---------------------------------------------------------------------------


@dataclass
class Report:
    end_to_end: dict[str, tuple[float, int]] = field(default_factory=dict)  # value, samples
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


class Session:
    """Times operations; in trace mode runs each one traced and untraced."""

    def __init__(self, trace: bool):
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.report = Report()
        self.traced_s: list[float] = []
        self.untraced_s: list[float] = []
        self._order = 0

    def setup(self, make: Callable[[], object]):
        """Run make() SETUP_REPEATS times (more if it is very cheap); returns
        (inputs, median seconds, repeats)."""
        times: list[float] = []
        inputs = None
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            inputs, seconds = self.call("setup", SIM_POINTS, make)
            times.append(seconds)
        return inputs, statistics.median(times), len(times)

    def call(self, name: str, points, fn: Callable[[], object]):
        """Run fn once untraced, or in trace mode once traced and once untraced
        (alternating which goes first); returns (result, untraced seconds)."""
        if self.tracer is None:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0
        first_traced = self._order % 2 == 0
        self._order += 1
        timings = {}
        for traced in (first_traced, not first_traced):
            t0 = time.perf_counter()
            if traced:
                with self.tracer.instrument(points), self.tracer.span(name):
                    out = fn()
            else:
                out = fn()
            timings[traced] = time.perf_counter() - t0
        if name.startswith(OP_PREFIX):
            self.traced_s.append(timings[True])
            self.untraced_s.append(timings[False])
        return out, timings[False]

    def op(self, fn: Callable[[], object]):
        return self.call(OP_PREFIX + "run", CHAIN_POINTS, fn)

    def scored(self, fn: Callable[[], object]):
        """Scoring runs once; traced (metrics spans only) in trace mode."""
        if self.tracer is None:
            return fn()
        with self.tracer.instrument(METRIC_POINTS), self.tracer.span("score"):
            return fn()

    def record(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.report.attempted += attempted
        self.report.failed += failed
        self.report.problems.extend(problems[: max(0, 20 - len(self.report.problems))])

    def guarded(self, units: int, fn: Callable[[], list[str]]) -> None:
        """Run a check returning problem strings; an exception fails every unit."""
        try:
            problems = fn()
        except Exception as exc:  # a check that crashes is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        self.record(units, units if problems else 0, problems)

    def layers(self) -> dict[str, float]:
        """Per-span-name median self time, and trace overhead and coverage."""
        spans = self.tracer.spans
        stats = summarize(spans)
        out = {f"{name}.ms": s.self_median_ms for name, s in stats.items()}
        ops = [s for s in stats if s.startswith(OP_PREFIX)]
        op_total = sum(stats[s].total_s for s in ops)
        op_self = sum(stats[s].self_total_s for s in ops)
        out["trace.coverage_pct"] = 100.0 * (op_total - op_self) / op_total if op_total else 0.0
        if self.untraced_s:
            out["trace.overhead_pct"] = 100.0 * (sum(self.traced_s) / sum(self.untraced_s) - 1.0)
        self.report.notes["spans"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_total_s}
            for name, s in sorted(stats.items())
        }
        return out


def timed_indices(seconds: float, n_ops: int, min_rounds: int = 1):
    """Operation indices cycling over n_ops until `seconds` have passed and
    every operation ran at least min_rounds times."""
    start = time.perf_counter()
    i = 0
    while i < n_ops * min_rounds or time.perf_counter() - start < seconds:
        yield i % n_ops
        i += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# approach
# ---------------------------------------------------------------------------


@dataclass
class PairOutput:
    events: int
    mask_frac: float
    flow: types.FlowField
    final_loss: float
    inv_tti: tti.TtiMap
    danger: np.ndarray
    motion: np.ndarray
    evasion: policy.EvasionResult


def approach_pair(seq: sim.SequenceResult, k: int, ego: policy.EgoMotion) -> PairOutput:
    """The per-frame chain for the pair (k, k+1), fed only generated inputs."""
    f0, f1 = seq.frames[k], seq.frames[k + 1]
    cam = seq.scene.camera
    window = seq.event_windows[k]
    em = types.accumulate_events(window, (f0.t, f1.t), cam.width, cam.height)
    fl, loss = flow.estimate_flow(em, f0.intensity, f1.intensity)
    est = tti.estimate_tti_dynamic(fl, f0.depth, f1.depth, seq.scene.dt)
    danger = tti.threshold_collision(est, HORIZON_S)
    vec, count = policy.obstacle_motion_vector(fl, f0.depth, est, danger, cam)
    evasion = policy.evasion_direction(vec, ego, count)
    mask_frac = float(np.mean((em.pos_count > 0) | (em.neg_count > 0)))
    return PairOutput(len(window), mask_frac, fl, loss, est, danger, vec, evasion)


def check_pair(out: PairOutput) -> list[str]:
    problems = []
    if not (np.all(np.isfinite(out.flow.u)) and np.all(np.isfinite(out.flow.v))):
        problems.append("flow has non-finite values")
    tau = out.inv_tti.values
    if not np.all(np.isfinite(tau)) or np.any(tau < 0):
        problems.append("inverse TTI is negative or non-finite")
    norm = math.sqrt(sum(c * c for c in out.evasion.psi))
    if not (norm == 0.0 or abs(norm - 1.0) < 1e-9):
        problems.append(f"psi has length {norm}, neither unit nor zero")
    return problems


def score_approach(seq: sim.SequenceResult, outputs: dict[int, PairOutput]) -> tuple[dict, list]:
    """Deterministic quality of the chain's outputs against exact ground truth.

    The estimate at frame k is scored against tti_gt[k-1] (the map for frame
    k) and flow_fwd of frame k; danger F1 pools tp/fp/fn over all pairs."""
    cam = seq.scene.camera
    aee, mse, rows, vec_pairs = [], [], [], []
    est_counts = np.zeros(3, dtype=np.int64)
    base_counts = np.zeros(3, dtype=np.int64)
    for k in sorted(outputs):
        out, frame, gt = outputs[k], seq.frames[k], seq.tti_gt[k - 1]
        gt_mask = tti.threshold_collision(gt, HORIZON_S)
        pair_aee = metrics.flow_aee(out.flow, frame.flow_fwd).aee
        aee.append(pair_aee)
        mse.append(tti.tti_mse(out.inv_tti, gt))
        s = metrics.prf1(out.danger, gt_mask, frame.class_map).overall
        est_counts += (s.tp, s.fp, s.fn)
        b = metrics.prf1(metrics.depth_baseline(frame.depth, BASELINE_M), gt_mask,
                         frame.class_map).overall
        base_counts += (b.tp, b.fp, b.fn)
        gt_vec, gt_count = policy.obstacle_motion_vector(
            frame.flow_fwd, frame.depth, gt, gt_mask, cam)
        if out.evasion.pixel_count and gt_count:
            vec_pairs.append((out.motion, gt_vec))
        disp = np.hypot(frame.flow_fwd.u, frame.flow_fwd.v)
        rows.append({"pair": k, "gt_disp_p95_px": float(np.percentile(disp, 95)),
                     "gt_disp_max_px": float(disp.max()), "aee_px": pair_aee})

    def f1(c):
        tp, fp, fn = (int(x) for x in c)
        return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0

    quality = {
        "quality.flow_aee_px": float(np.mean(aee)),
        "quality.tti_mse": float(np.mean(mse)),
        "quality.danger_f1": f1(est_counts),
        "quality.baseline_f1": f1(base_counts),
    }
    if vec_pairs:  # undefined when no pair flags danger on both sides
        quality["quality.evasion_aae_deg"] = metrics.aae_report(vec_pairs).aae_deg
    return quality, rows


def run_approach(seed: int, seconds: float, trace: bool, size: Size) -> Report:
    session = Session(trace)
    seq, setup_s, setup_n = session.setup(lambda: sim.simulate_sequence(approach_scene(size)))
    ego = policy.EgoMotion((0.0, 0.0, CAMERA_SPEED))
    # pair k needs frame k+1 and tti_gt[k-1]; the seed sets the order they run in
    pairs = [int(k) for k in 1 + np.random.default_rng(seed).permutation(len(seq.frames) - 2)]

    def run(k):
        return approach_pair(seq, k, ego)

    session.guarded(1, lambda: check_pair(session.op(lambda: run(pairs[0]))[0]))
    ran = [pairs[0]]  # pairs in the order they ran, warm-up included
    times: dict[int, list[float]] = {k: [] for k in pairs}
    outputs: dict[int, PairOutput] = {}
    rounds = TRACED_APPROACH_ROUNDS if trace else APPROACH_ROUNDS
    for i in timed_indices(seconds, len(pairs), rounds):
        pair = pairs[i]
        out, elapsed = session.op(lambda: run(pair))
        times[pair].append(elapsed)
        ran.append(pair)
        outputs.setdefault(pair, out)
        session.guarded(1, lambda: check_pair(out))

    # Each distinct pair counts once, at the fastest of its runs: its work is
    # fixed, and other processes on the machine only ever add time.  So the
    # figures do not depend on where in the cycle the clock ran out either.
    per_pair = {p: min(ts) for p, ts in times.items()}
    busy = sum(per_pair.values())
    samples = sum(len(ts) for ts in times.values())
    report = session.report
    quality, rows = session.scored(lambda: score_approach(seq, outputs))
    for row in rows:
        row["pair_ms"] = 1e3 * per_pair[row["pair"]]
    report.notes["aee_by_displacement"] = rows
    report.notes["quality"] = quality
    report.end_to_end = {
        "frames_per_s": (len(pairs) / busy, samples),
        "frame_ms_p50": (1e3 * statistics.median(per_pair.values()), samples),
        "events_per_s": (sum(outputs[p].events for p in pairs) / busy, samples),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "setup_s": (setup_s, setup_n),
    }
    if trace:
        outs = [outputs[p] for p in pairs]
        layers = session.layers()
        layers.update(quality)
        layers.update({
            "flow.estimate_flow.ms_per_mpx":
                layers["flow.estimate_flow.ms"] / (size.width * size.height / 1e6),
            "flow.final_loss": float(np.mean([o.final_loss for o in outs])),
            "flow.event_mask_frac": float(np.mean([o.mask_frac for o in outs])),
            "types.events_per_window": float(np.mean([o.events for o in outs])),
            "types.accumulate_events.mev_per_s":
                _mev_per_s(session, sum(outputs[p].events for p in ran)),
            "tti.valid_frac": float(np.mean([o.inv_tti.valid.mean() for o in outs])),
            "tti.danger_frac": float(np.mean([o.danger.mean() for o in outs])),
            "policy.degenerate_frac": float(np.mean([o.evasion.degenerate for o in outs])),
            "sim.events_emitted": float(len(seq.events)),
        })
        report.per_layer = layers
    return report


def _mev_per_s(session: Session, events: int) -> float:
    """Events through accumulate_events per second of its traced time; in
    trace mode every operation, the warm-up included, runs traced once."""
    spans = [s for s in session.tracer.spans if s.name == "types.accumulate_events"]
    busy = sum(s.end - s.start for s in spans)
    return events / busy / 1e6 if busy else 0.0


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


@dataclass
class Recording:
    events: np.ndarray
    edges: np.ndarray  # window k is [edges[k], edges[k+1])
    width: int
    height: int


def make_recording(seed: int, size: Size) -> Recording:
    """The busy scene's event stream, windowed at closed_edges: a loader must
    place every event in some window."""
    scene = busy_scene(seed, size)
    seq = sim.simulate_sequence(scene)
    edges = closed_edges(scene.frame_times())
    return Recording(seq.events, edges, scene.camera.width, scene.camera.height)


def ingest_pass(rec: Recording, path: str):
    """Write the stream, read it back, accumulate every frame window."""
    io_formats.write_events(path, rec.events, rec.width, rec.height)
    loaded, width, height = io_formats.read_events(path)
    bounds = np.searchsorted(loaded["t"], rec.edges, side="left")
    maps = []
    for k in range(len(rec.edges) - 1):
        em = types.accumulate_events(loaded[bounds[k]:bounds[k + 1]],
                                     (rec.edges[k], rec.edges[k + 1]), width, height)
        maps.append((em, types.event_mask(em)))
    return loaded, (width, height), bounds, maps


@dataclass
class WindowReference:
    pos: int
    neg: int
    pos_time: np.ndarray
    neg_time: np.ndarray
    hit: np.ndarray


def window_reference(events: np.ndarray, t0: float, t1: float, width: int, height: int):
    """Expected counts, latest-time channels and mask of one window, computed
    independently of accumulate_events: a stable sort by pixel keeps stream
    (= time) order within each pixel, so the last entry of a pixel's run is its
    latest event.  Every pixel is written once, so no assignment order matters."""
    hit = np.zeros(height * width, dtype=bool)
    latest = []
    for sel in (events["polarity"] > 0, events["polarity"] < 0):
        ev = events[sel]
        lin = ev["y"].astype(np.int64) * width + ev["x"].astype(np.int64)
        order = np.argsort(lin, kind="stable")
        lin_sorted = lin[order]
        last = np.ones(lin_sorted.size, dtype=bool)
        last[:-1] = lin_sorted[1:] != lin_sorted[:-1]
        tn = ((ev["t"] - t0) / (t1 - t0)).astype(np.float32)
        img = np.zeros(height * width, dtype=np.float32)
        img[lin_sorted[last]] = tn[order][last]
        hit[lin_sorted] = True
        latest.append(img.reshape(height, width))
    pos = int(np.count_nonzero(events["polarity"] > 0))
    return WindowReference(pos, events.size - pos, latest[0], latest[1], hit.reshape(height, width))


def check_window(em: types.EventMap, mask: np.ndarray, ref: WindowReference) -> list[str]:
    problems = []
    if int(em.pos_count.sum()) != ref.pos or int(em.neg_count.sum()) != ref.neg:
        problems.append(f"window counts {int(em.pos_count.sum())}/{int(em.neg_count.sum())} "
                        f"!= events {ref.pos}/{ref.neg}")
    if not (np.array_equal(em.pos_time, ref.pos_time) and np.array_equal(em.neg_time, ref.neg_time)):
        problems.append("latest-time channel differs from the stable-sort reference")
    if not np.array_equal(mask, ref.hit):
        problems.append("event mask differs from the pixels that saw events")
    return problems


def check_roundtrip(rec: Recording, loaded: np.ndarray, dims) -> list[str]:
    if dims != (rec.width, rec.height) or loaded.shape != rec.events.shape:
        return [f"read back {loaded.shape[0]} events at {dims}, wrote {rec.events.shape[0]}"]
    if not all(np.array_equal(loaded[f], rec.events[f]) for f in ("t", "x", "y", "polarity")):
        return ["events read back differ from the events written"]
    return []


def check_partition(events: np.ndarray, bounds: np.ndarray) -> list[str]:
    """Windows [bounds[k], bounds[k+1]) cover the whole stream."""
    if bounds[0] != 0 or bounds[-1] != events.shape[0]:
        return [f"windows cover events [{bounds[0]}, {bounds[-1]}) of {events.shape[0]}"]
    return []


def run_ingest(seed: int, seconds: float, trace: bool, size: Size, work_dir: str) -> Report:
    session = Session(trace)
    rec, setup_s, setup_n = session.setup(lambda: make_recording(seed, size))
    n_windows = len(rec.edges) - 1
    bounds = np.searchsorted(rec.events["t"], rec.edges, side="left")
    refs = [window_reference(rec.events[bounds[k]:bounds[k + 1]], rec.edges[k], rec.edges[k + 1],
                             rec.width, rec.height) for k in range(n_windows)]
    path = os.path.join(work_dir, f"ingest-{os.getpid()}.evrx")

    def check(result) -> None:
        loaded, dims, got_bounds, maps = result
        session.guarded(1, lambda: check_roundtrip(rec, loaded, dims)
                        + check_partition(loaded, got_bounds))
        for (em, mask), ref in zip(maps, refs):
            session.guarded(1, lambda: check_window(em, mask, ref))

    pass_s = []
    try:
        check(session.op(lambda: ingest_pass(rec, path))[0])
        for _ in timed_indices(seconds, 1, MIN_PASSES):
            result, elapsed = session.op(lambda: ingest_pass(rec, path))
            pass_s.append(elapsed)
            check(result)
            del result
        file_bytes = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.unlink(path)

    n_events = rec.events.shape[0]
    report = session.report
    report.end_to_end = {
        "frames_per_s": (n_windows * len(pass_s) / sum(pass_s), len(pass_s)),
        "frame_ms_p50": (1e3 * statistics.median(pass_s) / n_windows, len(pass_s)),
        "events_per_s": (n_events * len(pass_s) / sum(pass_s), len(pass_s)),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "setup_s": (setup_s, setup_n),
    }
    if trace:
        layers = session.layers()
        reads = [s for s in session.tracer.spans if s.name == "io_formats.read_events"]
        read_busy = sum(s.end - s.start for s in reads)
        accumulate_calls = sum(1 for s in session.tracer.spans if s.name == "types.accumulate_events")
        layers.update({
            "io_formats.bytes": float(file_bytes),
            "io_formats.read_events.mb_per_s": len(reads) * file_bytes / read_busy / 1e6,
            "types.events_per_window": n_events / n_windows,
            "types.accumulate_events.mev_per_s":
                _mev_per_s(session, n_events * accumulate_calls // n_windows),
            "sim.events_emitted": float(n_events),
        })
        report.per_layer = layers
    return report


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def closed_edges(times: np.ndarray) -> np.ndarray:
    """Window edges at the frame times, the last window closed at the last
    frame time: the emulator can stamp a crossing at exactly that time, and
    simulate_sequence's half-open windows leave such events in no window."""
    edges = np.array(times, dtype=np.float64)
    edges[-1] = np.nextafter(edges[-1], np.inf)
    return edges


def render_inputs(seed: int, size: Size) -> tuple[sim.SceneConfig, sim.SequenceResult]:
    """The busy scene, and simulate_sequence's result for it as the reference
    that every render pass must reproduce."""
    scene = busy_scene(seed, size)
    return scene, sim.simulate_sequence(scene)


def render_pass(scene: sim.SceneConfig) -> sim.SequenceResult:
    """Ground truth for one sequence: the calls simulate_sequence makes with
    its default single worker, with the windows cut at closed_edges so that
    every event lands in one."""
    times = scene.frame_times()
    frames = tuple(sim.render_frame(scene, t) for t in times)
    events = sim.generate_events(times, [f.intensity for f in frames], scene.contrast_threshold)
    bounds = np.searchsorted(events["t"], closed_edges(times), side="left")
    windows = tuple(events[bounds[k]:bounds[k + 1]].copy() for k in range(len(times) - 1))
    tti_gt = tuple(
        tti.ground_truth_inverse_tti(frames[k - 1].depth, frames[k].depth, frames[k].flow_bwd,
                                     scene.dt)
        for k in range(1, len(frames))
    )
    return sim.SequenceResult(scene=scene, frames=frames, events=events, event_windows=windows,
                              tti_gt=tti_gt)


def check_sequence(seq: sim.SequenceResult,
                   ref: Optional[sim.SequenceResult] = None) -> tuple[int, list[str]]:
    """Returns (failed frames, problems) for one sequence from render_pass.

    Window k (events in [t_k, t_k+1), the last one closed) belongs to frame
    k+1.  Events that no window holds fail the frame they are nearest: the
    first frame for events before t_0, the last frame for events after the
    last frame time.  Against simulate_sequence's result ref, the stream, the
    frames, the ground truth and every window but the last must match exactly."""
    n_frames = len(seq.frames)
    cam = seq.scene.camera
    ev, windows = seq.events, seq.event_windows
    t = ev["t"]
    edges = closed_edges([f.t for f in seq.frames])
    if t.size and np.any(np.diff(t) < 0):
        return n_frames, ["event stream is not sorted by time"]
    if t.size and (int(ev["x"].max()) >= cam.width or int(ev["y"].max()) >= cam.height):
        return n_frames, ["events fall outside the raster"]
    lo, hi = np.searchsorted(t, [edges[0], edges[-1]], side="left")
    covered = np.concatenate(windows) if windows else ev[:0]
    if not np.array_equal(covered, ev[lo:hi]):
        return n_frames, ["event windows are not consecutive slices of the stream"]
    failed: set[int] = set()
    problems = []
    if lo > 0:
        failed.add(0)
        problems.append(f"{lo} events before the first frame time lie in no window")
    if hi < t.size:
        failed.add(n_frames - 1)
        problems.append(f"{t.size - hi} events after the last frame time "
                        f"{seq.frames[-1].t} lie in no window")
    for k, w in enumerate(windows):
        if w.size and (w["t"][0] < edges[k] or w["t"][-1] >= edges[k + 1]):
            failed.add(k + 1)
            problems.append(f"window {k} holds events outside [{edges[k]}, {edges[k + 1]})")
    for k, gt in enumerate(seq.tti_gt):
        if not np.all(np.isfinite(gt.values)) or np.any(gt.values < 0):
            failed.add(k + 1)
            problems.append(f"ground-truth inverse TTI of frame {k + 1} is negative or non-finite")
    if ref is not None:
        if not np.array_equal(ev, ref.events):
            return n_frames, problems + ["event stream differs from simulate_sequence's"]
        for k, (a, b) in enumerate(zip(seq.frames, ref.frames, strict=True)):
            if not all(np.array_equal(getattr(a, m).values, getattr(b, m).values)
                       for m in ("intensity", "depth", "class_map")):
                failed.add(k)
                problems.append(f"frame {k} differs from simulate_sequence's")
        for k, (a, b) in enumerate(zip(seq.tti_gt, ref.tti_gt, strict=True)):
            if not np.array_equal(a.values, b.values):
                failed.add(k + 1)
                problems.append(f"ground truth of frame {k + 1} differs from simulate_sequence's")
        for k, (a, b) in enumerate(zip(windows[:-1], ref.event_windows[:-1], strict=True)):
            if not np.array_equal(a, b):
                failed.add(k + 1)
                problems.append(f"window {k} differs from simulate_sequence's")
    return len(failed), problems


def run_render(seed: int, seconds: float, trace: bool, size: Size) -> Report:
    session = Session(trace)

    (scene, ref), setup_s, setup_n = session.setup(lambda: render_inputs(seed, size))
    n_frames = len(scene.frame_times())
    # simulate_sequence's half-open windows leave out events stamped at the
    # last frame time; render_pass places them, and the count is reported.
    unwindowed = ref.events.shape[0] - sum(w.shape[0] for w in ref.event_windows)
    session.report.notes["simulate_sequence_unwindowed_events"] = unwindowed

    def check(seq) -> None:
        try:
            failed, problems = check_sequence(seq, ref)
        except Exception as exc:  # a check that crashes fails the whole pass
            failed, problems = n_frames, [f"{type(exc).__name__}: {exc}"]
        session.record(n_frames, failed, problems)

    check(session.op(lambda: render_pass(scene))[0])
    pass_s, events = [], 0
    for _ in timed_indices(seconds, 1, MIN_PASSES):
        seq, elapsed = session.op(lambda: render_pass(scene))
        pass_s.append(elapsed)
        events = seq.events.shape[0]
        check(seq)
        del seq

    report = session.report
    report.end_to_end = {
        "frames_per_s": (n_frames * len(pass_s) / sum(pass_s), len(pass_s)),
        "frame_ms_p50": (1e3 * statistics.median(pass_s) / n_frames, len(pass_s)),
        "events_per_s": (events * len(pass_s) / sum(pass_s), len(pass_s)),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "setup_s": (setup_s, setup_n),
    }
    if trace:
        layers = session.layers()
        layers["sim.events_emitted"] = float(events)
        layers["sim.events_unwindowed"] = float(unwindowed)
        layers["sim.simulate_sequence.workers_speedup"] = _workers_speedup(scene)
        report.per_layer = layers
    return report


def _workers_speedup(scene: sim.SceneConfig) -> float:
    """simulate_sequence time with 1 worker over time with nproc workers."""
    workers = min(os.cpu_count() or 1, len(scene.frame_times()))
    if workers < 2:
        return 1.0
    timings = []
    for n in (1, workers):
        t0 = time.perf_counter()
        sim.simulate_sequence(scene, workers=n)
        timings.append(time.perf_counter() - t0)
    return timings[0] / timings[1]

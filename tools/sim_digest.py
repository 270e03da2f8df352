"""One SHA-256 over the simulator's outputs for three fixed sensor-size scenes.

    python3 tools/sim_digest.py [SRC]

Run from a checkout; the program is imported from its ./src, or from the
directory SRC when given (another checkout's src, to digest that tree's
program with these scenes).  The digest covers, for each scene, the event
stream, the window sizes, every frame's intensity, depth and class maps,
both flows, and every ground-truth inverse TTI map with its validity mask,
all as their stored bytes.  Two trees that print the same digest produce
byte-identical simulate_sequence output on these scenes, so a
byte-identity A/B between two commits is this command run on the src of
each.  The maps are hashed as stored, in float32: a change that moves the
simulator's float64 arithmetic in its last bits (a flow computed by another
formula for the same geometry, say) moves the digest only where that change
crosses a float32 rounding, so an unchanged digest shows equal stored
outputs, not equal float64 arithmetic.

The scenes, all at the 346x260 sensor raster with f = 200 px and 20 frames/s:
busy      the camera moving forward through eight seeded random spheres and
          one head-on sphere (20 frames);
turn      the camera turning in place from yaw -0 through 0 to 30 degrees and
          then moving, with six other seeded spheres (20 frames), so every
          frame has its own camera basis;
approach  the camera moving forward with one sphere flying head-on at 7 m/s
          until it is under a metre away (12 frames).

The line before the digest gives, per scene, the number of events and the
peak memory that generate_events allocated above what existed before the
call, in MiB, as tracemalloc counts it (numpy reports its buffers to it).
Two trees with the same digest and different peaks emit the same stream in
more or less memory.  The digest stays the last line.
"""
from __future__ import annotations

import hashlib
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("busy", "turn", "approach")


def scenes():
    from evreflex.sim import SceneConfig, SphereObstacle, TrajectorySpec
    from evreflex.types import CameraModel

    camera = CameraModel(fx=200.0, fy=200.0, cx=172.5, cy=129.5, width=346, height=260)
    forward = TrajectorySpec(waypoints=((-2.4, 0.0, 0.0), (2.5, 0.0, 0.0)), speed=0.5)

    def head_on(speed):
        return SphereObstacle(radius=0.3, start=(2.2, 0.05, 1.45), velocity=(-speed, 0.0, 0.0))

    return (
        # busy
        SceneConfig(camera=camera, trajectory=forward, obstacles=(head_on(3.0),),
                    random_obstacles=8, rng_seed=0, duration=1.0),
        # turn
        SceneConfig(
            camera=camera,
            trajectory=TrajectorySpec(
                waypoints=((-1.0, 0.3, -0.0), (-1.0, 0.3, 30.0), (0.5, 0.0, 30.0)),
                speed=1.0, yaw_rate_deg=90.0),
            random_obstacles=6, rng_seed=7, duration=1.0),
        # approach
        SceneConfig(camera=camera, trajectory=forward, obstacles=(head_on(7.0),), duration=0.6),
    )


def digest(seq, h) -> None:
    h.update(seq.events.tobytes())
    h.update(repr([w.size for w in seq.event_windows]).encode())
    for frame in seq.frames:
        for fmap in (frame.intensity, frame.depth, frame.class_map):
            h.update(fmap.values.tobytes())
        for flow in (frame.flow_fwd, frame.flow_bwd):
            if flow is None:
                h.update(b"none")
            else:
                h.update(flow.u.tobytes())
                h.update(flow.v.tobytes())
    for tau in seq.tti_gt:
        h.update(tau.values.tobytes())
        h.update(tau.valid.tobytes())


def traced(fn, peaks: list):
    """fn, recording in peaks each call's tracemalloc peak above the memory
    traced when the call began, in bytes."""

    def call(*args, **kwargs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        return out

    return call


def main(argv) -> int:
    sys.path.insert(0, argv[1] if len(argv) > 1 else str(ROOT / "src"))
    from evreflex import sim

    # simulate_sequence looks generate_events up in the sim module when it runs
    peaks: list[int] = []
    sim.generate_events = traced(sim.generate_events, peaks)
    h = hashlib.sha256()
    counts = []
    for scene in scenes():
        seq = sim.simulate_sequence(scene)
        counts.append(seq.events.size)
        digest(seq, h)
    print("events and generate_events peak: " + "; ".join(
        f"{name} {count} events, {peak / 2**20:.1f} MiB"
        for name, count, peak in zip(NAMES, counts, peaks)))
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

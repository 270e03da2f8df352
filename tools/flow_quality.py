"""The flow solve's error on eight seeded head-on scenes, against zero flow.

    python3 tools/flow_quality.py [SRC]

Run from a checkout; the program is imported from its ./src, or from the
directory SRC when given (another checkout's src, to score that tree's
solve on the same scenes).  The scenes are the approach benchmark's room at
346x260 (f = 200 px, 20 frames/s, 12 frames): the camera moving forward at
0.5 m/s and a sphere of radius 0.3 m flying head-on at 7 m/s, with the
camera's start and the sphere's start offset by draws from
numpy.random.default_rng([s, 1]), s = 0..7.  Scene 0 is the benchmark's own
(benchmarks/workloads.py draws its fixed offsets the same way).

For each pair (k, k+1), k = 1..8, the chain's solve runs as the benchmark
runs it: estimate_flow under the default settings, gated by the events of
the window (t_k, t_k+1).  Each scene's line gives, per pair, the gain
1 - AEE / AEE_0 in percent, AEE the average endpoint error of the solved
flow against frame k's exact forward flow and AEE_0 that of zero flow; then
the sphere AEE (px) on pairs 1-7, the endpoint error averaged over the
pixels of class CLASS_FLYING at frame k.  Pairs 9 and 10 are left out: the
sphere moves 37-165 px there, and the solve does not follow it.  The last
line gives the smallest gain over every scene and pair.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENES = range(8)
GAIN_PAIRS = range(1, 9)
SPHERE_PAIRS = range(1, 8)


def scene(s: int):
    """The approach room at 346x260 with the offsets of default_rng([s, 1])."""
    from evreflex.sim import SceneConfig, SphereObstacle, TrajectorySpec
    from evreflex.types import CameraModel

    rng = np.random.default_rng([s, 1])
    sphere = SphereObstacle(radius=0.3, start=(2.2, rng.uniform(-0.1, 0.1),
                                               1.5 + rng.uniform(-0.1, 0.1)),
                            velocity=(-7.0, 0.0, 0.0))
    forward = TrajectorySpec(waypoints=((-2.4 + rng.uniform(-0.05, 0.05), 0.0, 0.0),
                                        (2.5, 0.0, 0.0)), speed=0.5)
    camera = CameraModel(fx=200.0, fy=200.0, cx=172.5, cy=129.5, width=346, height=260)
    return SceneConfig(camera=camera, obstacles=(sphere,), trajectory=forward,
                       frame_rate=20.0, duration=0.6)


def score(s: int) -> tuple[list[float], list[float]]:
    """Scene s's gain over zero flow on each pair of GAIN_PAIRS and sphere
    AEE on each pair of SPHERE_PAIRS."""
    from evreflex import flow, metrics, sim, types

    seq = sim.simulate_sequence(scene(s))
    cam = seq.scene.camera
    zero = types.FlowField(np.zeros((cam.height, cam.width)), np.zeros((cam.height, cam.width)))
    gains, sphere = [], []
    for k in GAIN_PAIRS:
        f0, f1 = seq.frames[k], seq.frames[k + 1]
        em = types.accumulate_events(seq.event_windows[k], (f0.t, f1.t), cam.width, cam.height)
        solved, _ = flow.estimate_flow(em, f0.intensity, f1.intensity)
        aee = metrics.flow_aee(solved, f0.flow_fwd).aee
        gains.append(100.0 * (1.0 - aee / metrics.flow_aee(zero, f0.flow_fwd).aee))
        if k in SPHERE_PAIRS:
            mask = f0.class_map.values == sim.CLASS_FLYING
            sphere.append(metrics.flow_aee(solved, f0.flow_fwd, mask).aee)
    return gains, sphere


def main(argv) -> int:
    sys.path.insert(0, argv[1] if len(argv) > 1 else str(ROOT / "src"))
    worst = []
    for s in SCENES:
        gains, sphere = score(s)
        worst.append(min(gains))
        print(f"scene {s}: gain over zero flow, pairs 1-8 (%): "
              + " ".join(f"{g:.1f}" for g in gains)
              + "; sphere AEE, pairs 1-7 (px): " + " ".join(f"{a:.3g}" for a in sphere))
    print(f"smallest gain over zero flow: {min(worst):.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

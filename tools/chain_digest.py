"""One SHA-256 per scene over the per-pair chain's outputs on a fixed head-on scene.

    python3 tools/chain_digest.py [SRC]

Run from a checkout; the program is imported from its ./src, or from the
directory SRC when given (another checkout's src, to run this scene and
these counts on that tree's program).  For every frame
pair (k, k+1) of the scene with k >= 1 (frame 0 has no ground-truth TTI) it
runs the chain the way a caller does: the event window of the pair
accumulated into an event map (the last window up to the float after the
last frame time, as SequenceResult documents), estimate_flow under the
default solver settings, estimate_tti_dynamic on the solved flow,
threshold_collision at a 1 s horizon, obstacle_motion_vector over the
danger mask and evasion_direction for a camera moving forward at 0.5 m/s.  It also
evaluates total_loss at the stored (float32) flow, and prf1 of the danger
mask against the ground-truth danger mask of frame k.

Each digest covers the flow (u, v and estimate_flow's loss, the objective the
solve reached), total_loss at the stored flow, the TTI values and validity mask, the danger mask, the motion vector with
its pixel count, the evasion direction with its degenerate flag and every
prf1 count, all as their stored bytes or exact reprs.  Two trees that print
the same digests compute the same chain on these scenes to the bit, so a
byte-identity A/B between two commits is this command run in a checkout of
each.  tools/sim_digest.py does the same for the simulator's outputs.

The line before each digest names the scene and gives, per pyramid level, the solve's warps and
safeguard halvings and its final loss, each summed over the pairs (the loss
to 6 significant digits), read from the fields of estimate_flow's
per-level DEBUG records on the "evreflex.flow" logger (so SRC's program
must attach them).  A digest that moves while this line holds is a
change in the last bits of the results; a moved line means the solve itself
went elsewhere.  Each digest is a line of its own, after its count line.

The scene: a 173x130 raster with f = 100 px at 20 frames/s, the camera moving
forward at 0.5 m/s, and one sphere of radius 0.3 m flying head-on at 7 m/s
from 2.2 m ahead until it is under a metre away (12 frames, 10 pairs scored).
It runs twice: at 173x130, and at 346x260 with f and the principal point
doubled (the same view at twice the resolution).  The flow solve runs a
level on two threads only from 14,000 cells per parity-class grid, which
the first raster's levels never reach and the second's finest level does,
so the two digests cover both paths.
"""
from __future__ import annotations

import hashlib
import logging
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HORIZON_S = 1.0
CAMERA_SPEED = 0.5  # m/s along the optical axis


def scene(scale: int):
    """The scene at scale times the 173x130 raster."""
    from evreflex.sim import SceneConfig, SphereObstacle, TrajectorySpec
    from evreflex.types import CameraModel

    camera = CameraModel(fx=100.0 * scale, fy=100.0 * scale, cx=86.0 * scale,
                         cy=64.5 * scale, width=173 * scale, height=130 * scale)
    forward = TrajectorySpec(waypoints=((-2.4, 0.0, 0.0), (2.5, 0.0, 0.0)), speed=CAMERA_SPEED)
    sphere = SphereObstacle(radius=0.3, start=(2.2, 0.05, 1.45), velocity=(-7.0, 0.0, 0.0))
    return SceneConfig(camera=camera, trajectory=forward, obstacles=(sphere,), duration=0.6)


def digest_pair(seq, k: int, h) -> None:
    from evreflex import flow, metrics, policy, tti, types

    f0, f1 = seq.frames[k], seq.frames[k + 1]
    cam = seq.scene.camera
    # the last window is closed at the last frame time (see SequenceResult)
    end = np.nextafter(f1.t, np.inf) if k + 2 == len(seq.frames) else f1.t
    em = types.accumulate_events(seq.event_windows[k], (f0.t, end), cam.width, cam.height)
    fl, loss = flow.estimate_flow(em, f0.intensity, f1.intensity)
    est = tti.estimate_tti_dynamic(fl, f0.depth, f1.depth, seq.scene.dt)
    danger = tti.threshold_collision(est, HORIZON_S)
    vec, count = policy.obstacle_motion_vector(fl, f0.depth, est, danger, cam)
    evasion = policy.evasion_direction(vec, policy.EgoMotion((0.0, 0.0, CAMERA_SPEED)), count)
    cfg = flow.FlowSolverConfig()
    weights = types.event_mask(em).astype(np.float64)
    stored_loss = flow.total_loss(fl, f0.intensity, f1.intensity, cfg, weights)
    gt_mask = tti.threshold_collision(seq.tti_gt[k - 1], HORIZON_S)
    scores = metrics.prf1(danger, gt_mask, f0.class_map)

    for arr in (fl.u, fl.v, est.values, est.valid, danger, vec):
        h.update(arr.tobytes())
    counts = [(s.tp, s.fp, s.fn) for s in (*scores.per_class.values(), scores.overall)]
    h.update(repr((loss, stored_loss, count, evasion.psi, evasion.degenerate,
                   sorted(scores.per_class), counts)).encode())


class LevelCounts(logging.Handler):
    """Sums warps, halvings and final losses per pyramid level over the
    records, read from the fields of the solve's per-level DEBUG record."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.warps, self.halvings, self.losses = Counter(), Counter(), Counter()

    def emit(self, record):
        self.warps[record.level] += record.warps
        self.halvings[record.level] += record.halvings
        self.losses[record.level] += record.losses[-1]

    def line(self, pairs: int) -> str:
        levels = "; ".join(f"level {level}: {self.warps[level]} warps, "
                           f"{self.halvings[level]} halvings, loss {self.losses[level]:.6g}"
                           for level in sorted(self.warps))
        return f"fixed-point solve over {pairs} pairs: {levels}"


def main(argv) -> int:
    sys.path.insert(0, argv[1] if len(argv) > 1 else str(ROOT / "src"))
    from evreflex.sim import simulate_sequence

    logger = logging.getLogger("evreflex.flow")
    logger.setLevel(logging.DEBUG)
    for scale in (1, 2):
        seq = simulate_sequence(scene(scale))
        h = hashlib.sha256()
        counts = LevelCounts()
        logger.addHandler(counts)
        pairs = range(1, len(seq.frames) - 1)
        for k in pairs:
            digest_pair(seq, k, h)
        logger.removeHandler(counts)
        cam = seq.scene.camera
        print(f"{cam.width}x{cam.height} scene, {counts.line(len(pairs))}")
        print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

import numpy as np
import pytest

from evreflex.sim import (
    PoseError,
    SceneConfig,
    SphereObstacle,
    TrajectorySpec,
    render_frame,
    simulate_sequence,
)
from evreflex.tti import estimate_tti_dynamic
from evreflex.types import CameraModel

# -- head-on approach: inverse TTI = v / d on the optical axis ------------------

SPEED = 2.0  # m/s, towards the camera
START_X = 2.5  # sphere centre at t = 0, metres ahead of the camera
RADIUS = 0.3
CX, CY = 10, 8


def _head_on_scene() -> SceneConfig:
    # A single waypoint holds the camera still at (0, 0) looking along +x; the
    # sphere centre sits on the optical axis at the camera's height.  With an
    # integer principal point the on-axis pixel's ray is exactly the axis.
    return SceneConfig(
        camera=CameraModel(fx=40.0, fy=40.0, cx=float(CX), cy=float(CY), width=21, height=17),
        trajectory=TrajectorySpec(waypoints=((0.0, 0.0, 0.0),)),
        obstacles=(SphereObstacle(radius=RADIUS, start=(START_X, 0.0, 1.5),
                                  velocity=(-SPEED, 0.0, 0.0)),),
        frame_rate=20.0,
        duration=0.5,
    )


def _range(t: float) -> float:
    return START_X - SPEED * t - RADIUS


def test_head_on_sphere_ground_truth_tti_is_speed_over_range():
    seq = simulate_sequence(_head_on_scene())
    for k in range(1, len(seq.frames)):
        gt = seq.tti_gt[k - 1]  # map for frame k
        assert gt.valid[CY, CX]
        assert gt.values[CY, CX] == pytest.approx(SPEED / _range(seq.frames[k].t), rel=1e-4)


def test_head_on_sphere_dynamic_tti_with_true_flow_is_speed_over_range():
    scene = _head_on_scene()
    seq = simulate_sequence(scene)
    for k in range(len(seq.frames) - 1):
        f0, f1 = seq.frames[k], seq.frames[k + 1]
        est = estimate_tti_dynamic(f0.flow_fwd, f0.depth, f1.depth, scene.dt)
        assert est.valid[CY, CX]
        assert est.values[CY, CX] == pytest.approx(SPEED / _range(f0.t), rel=1e-4)


# -- determinism and pose boundary ------------------------------------------------


def _raster_bytes(seq):
    out = [seq.events.tobytes()]
    for frame in seq.frames:
        out += [frame.intensity.values.tobytes(), frame.depth.values.tobytes(),
                frame.class_map.values.tobytes()]
        for flow in (frame.flow_fwd, frame.flow_bwd):
            out += [None, None] if flow is None else [flow.u.tobytes(), flow.v.tobytes()]
    for tau in seq.tti_gt:
        out += [tau.values.tobytes(), tau.valid.tobytes()]
    return out


def test_simulate_sequence_identical_for_any_worker_count():
    scene = SceneConfig(
        camera=CameraModel(fx=30.0, fy=30.0, cx=15.5, cy=11.5, width=32, height=24),
        duration=0.25,
        random_obstacles=3,
        rng_seed=7,
    )
    one = simulate_sequence(scene, workers=1)
    two = simulate_sequence(scene, workers=2)
    assert one.events.size > 0
    assert _raster_bytes(one) == _raster_bytes(two)


def test_render_frame_raises_pose_error_outside_room():
    # 5 m/s from the centre along +x crosses the x = 3 wall at t = 0.6 s.
    scene = SceneConfig(
        trajectory=TrajectorySpec(waypoints=((0.0, 0.0, 0.0), (5.0, 0.0, 0.0)), speed=5.0),
        duration=1.0,
    )
    render_frame(scene, 0.5)
    with pytest.raises(PoseError):
        render_frame(scene, 0.8)


# -- dataclass range checks ---------------------------------------------------------


def test_trajectory_rejects_non_positive_rates():
    with pytest.raises(ValueError, match="speed"):
        TrajectorySpec(speed=0)
    with pytest.raises(ValueError, match="yaw_rate_deg"):
        TrajectorySpec(yaw_rate_deg=0)


def test_sphere_rejects_albedo_outside_unit_interval():
    with pytest.raises(ValueError, match="albedo"):
        SphereObstacle(radius=0.2, start=(0.0, 0.0, 1.0), velocity=(0.0, 0.0, 0.0), albedo=1.5)


@pytest.mark.parametrize("duration, frame_rate", [(0.01, 20.0), (0.099, 10.0)])
def test_scene_rejects_duration_under_one_frame(duration, frame_rate):
    with pytest.raises(ValueError, match="^duration "):
        SceneConfig(duration=duration, frame_rate=frame_rate)


@pytest.mark.parametrize("light_dir", [(0.0, 0.0, 0.0), (np.inf, 0.0, 1.0), (np.nan, 0.0, 1.0)])
def test_scene_rejects_degenerate_light_dir(light_dir):
    with pytest.raises(ValueError, match="^light_dir "):
        SceneConfig(light_dir=light_dir)

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evreflex import flow, sim
from evreflex.sim import (
    LOG_EPS,
    PoseError,
    SceneConfig,
    SphereObstacle,
    TrajectorySpec,
    generate_events,
    render_frame,
    simulate_sequence,
)
from evreflex.tti import estimate_tti_dynamic
from evreflex.types import CameraModel, accumulate_events

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


def test_trajectory_rejects_empty_waypoints():
    with pytest.raises(ValueError, match="^waypoints "):
        TrajectorySpec(waypoints=())


def test_scene_rejects_negative_rng_seed():
    with pytest.raises(ValueError, match="^rng_seed "):
        SceneConfig(rng_seed=-3, random_obstacles=2)


# -- render_frame against a full-raster reference -----------------------------------


def _reference_render(scene: SceneConfig, t: float):
    """render_frame's outputs with every sphere solved on every pixel: the
    ray-cast, shading and flow formulas written out on the full raster."""
    cam, obstacles = scene.camera, scene.realized_obstacles()
    traj = sim._Trajectory(scene.trajectory)
    pos, yaw = traj.pose(t)
    origin = np.array([pos[0], pos[1], scene.camera_height])
    ys, xs = np.mgrid[0 : cam.height, 0 : cam.width].astype(np.float64)
    dirs_cam = np.stack([(xs - cam.cx) / cam.fx, (ys - cam.cy) / cam.fy, np.ones_like(xs)],
                        axis=-1)
    dirs = dirs_cam @ sim._camera_basis(yaw).T
    hx, hy, hz = scene.half_extents
    best_t, best_obj = np.full(xs.shape, np.inf), np.full(xs.shape, -1)
    for axis, (lo, hi) in enumerate(((-hx, hx), (-hy, hy), (0.0, 2 * hz))):
        d = dirs[..., axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_plane = np.where(np.abs(d) > 1e-12, (np.where(d > 0, hi, lo) - origin[axis]) / d,
                               np.inf)
        closer = t_plane < best_t
        best_t = np.where(closer, t_plane, best_t)
        best_obj = np.where(closer, axis * 2 + (d > 0), best_obj)
    for i, sphere in enumerate(obstacles):
        oc = origin - sphere.center(t)
        a = np.sum(dirs * dirs, axis=-1)
        b = 2.0 * (dirs @ oc)
        disc = b * b - 4.0 * a * (float(oc @ oc) - sphere.radius**2)
        sq = np.sqrt(np.where(disc >= 0, disc, 0.0))
        t1, t2 = (-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)
        t_sph = np.where(t1 > 1e-12, t1, np.where(t2 > 1e-12, t2, np.inf))
        t_sph = np.where(disc >= 0, t_sph, np.inf)
        closer = t_sph < best_t
        best_t = np.where(closer, t_sph, best_t)
        best_obj = np.where(closer, 6 + i, best_obj)
    points = origin + best_t[..., None] * dirs
    normals, velocity = np.zeros_like(points), np.zeros_like(points)
    out, classes = np.zeros(xs.shape), np.where(best_obj == 4, 1.0, 0.0)
    textures = (scene.wall_texture,) * 4 + (scene.floor_texture, scene.ceiling_texture)
    planes = ((1, 2), (1, 2), (0, 2), (0, 2), (0, 1), (0, 1))
    for face, (tex, (au, av)) in enumerate(zip(textures, planes)):
        sel = best_obj == face
        if np.any(sel):
            out[sel] = tex.sample(points[sel][:, au], points[sel][:, av])
    light = np.asarray(scene.light_dir, dtype=np.float64)
    light = light / np.linalg.norm(light)
    for i, sphere in enumerate(obstacles):
        sel = best_obj == 6 + i
        if np.any(sel):
            normals[sel] = (points[sel] - sphere.center(t)) / sphere.radius
            velocity[sel] = np.asarray(sphere.velocity, dtype=np.float64)
            lambert = np.maximum(normals[sel] @ light, 0.0)
            out[sel] = sphere.albedo * (sim._AMBIENT + (1.0 - sim._AMBIENT) * lambert)
            classes[sel] = sphere.class_id

    def flow_to(t_to):
        pos2, yaw2 = traj.pose(t_to)
        origin2 = np.array([pos2[0], pos2[1], scene.camera_height])
        moved = points + velocity * (t_to - t)
        rel = (moved - origin2) @ sim._camera_basis(yaw2)  # camera-frame coordinates
        z = np.maximum(rel[..., 2], 1e-9)
        return cam.fx * rel[..., 0] / z + cam.cx - xs, cam.fy * rel[..., 1] / z + cam.cy - ys

    return np.clip(out, 0.0, 1.0), best_t, classes, flow_to(t + scene.dt), flow_to(t - scene.dt)


def _assert_renders_like_reference(scene: SceneConfig, t: float):
    got = render_frame(scene, t)
    intensity, depth, classes, (fu, fv), (bu, bv) = _reference_render(scene, t)
    assert np.array_equal(got.intensity.values, intensity.astype(np.float32))
    assert np.array_equal(got.depth.values, depth.astype(np.float32))
    assert np.array_equal(got.class_map.values, classes.astype(np.float32))
    assert np.array_equal(got.flow_fwd.u, fu.astype(np.float32))
    assert np.array_equal(got.flow_fwd.v, fv.astype(np.float32))
    assert np.array_equal(got.flow_bwd.u, bu.astype(np.float32))
    assert np.array_equal(got.flow_bwd.v, bv.astype(np.float32))
    return got


# sphere placements relative to the camera, which starts at (X0, 0, 1.5) looking
# along +x: (forward, left-right, up-down) offsets of the centre, radius,
# velocity; drawn on a 1 cm grid, because integers shrink fast
X0 = -0.5


def _cm(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: k / 100.0)


_offset = st.tuples(_cm(-250, 300), _cm(-120, 120), _cm(-120, 120))
_sphere = st.tuples(_offset, _cm(5, 100), st.tuples(*[_cm(-200, 200)] * 3))


def _obstacle(offset, radius, velocity, class_id):
    fwd, side, up = offset
    return SphereObstacle(radius=radius, start=(X0 + fwd, side, 1.5 + up), velocity=velocity,
                          class_id=class_id)


@settings(max_examples=80, deadline=None)
@given(spheres=st.lists(_sphere, max_size=5), enclosing=st.booleans(),
       frame=st.integers(1, 2), yaw_to=st.integers(-40, 40))
def test_render_frame_equals_full_raster_reference(spheres, enclosing, frame, yaw_to):
    obstacles = [_obstacle(o, r, v, 2 + k) for k, (o, r, v) in enumerate(spheres)]
    if enclosing:  # a sphere that contains the camera
        obstacles.append(_obstacle((0.05, -0.02, 0.03), 0.4, (0.5, 0.0, 0.0), 9))
    scene = SceneConfig(
        camera=CameraModel(fx=12.0, fy=12.0, cx=7.5, cy=5.0, width=16, height=11),
        trajectory=TrajectorySpec(waypoints=((X0, 0.0, 0.0), (X0 + 1.0, 0.2, yaw_to))),
        obstacles=tuple(obstacles),
        duration=0.2,
    )
    _assert_renders_like_reference(scene, float(scene.frame_times()[frame]))


def _held_camera_scene(camera: CameraModel, yaw_deg: float, obstacles) -> SceneConfig:
    return SceneConfig(camera=camera, trajectory=TrajectorySpec(waypoints=((X0, 0.0, yaw_deg),)),
                       obstacles=tuple(obstacles), duration=0.2)


def test_render_frame_alternating_cameras_and_yaw_signs_matches_reference():
    # Ray tables are cached per camera and basis; yaw 0.0 and -0.0 compare
    # equal, but their bases differ in the sign of zeros.  Integer principal
    # points put rays exactly on the camera's axes.
    wide = CameraModel(fx=12.0, fy=12.0, cx=8.0, cy=5.0, width=16, height=11)
    tall = CameraModel(fx=20.0, fy=18.0, cx=6.0, cy=7.0, width=13, height=15)
    sphere = _obstacle((1.1, 0.1, -0.1), 0.3, (-1.0, 0.0, 0.2), 3)
    sequence = [(wide, 0.0), (wide, -0.0), (tall, -0.0), (wide, 0.0), (tall, 0.0),
                (wide, -0.0), (tall, 25.0), (wide, 25.0), (wide, 0.0)]
    for camera, yaw in sequence:
        got = _assert_renders_like_reference(_held_camera_scene(camera, yaw, [sphere]), 0.05)
        assert math.copysign(1.0, got.yaw) == math.copysign(1.0, yaw)


def test_render_frame_alternating_rooms_matches_reference():
    # The room table is cached per camera, basis and room.  These scenes
    # share the camera and the pose and differ in the room, so a table keyed
    # without the room would put one room's walls at the other's distance.
    # One room comes as a list, which the cache key must not refuse.
    camera = CameraModel(fx=12.0, fy=12.0, cx=8.0, cy=5.0, width=16, height=11)
    sphere = _obstacle((1.1, 0.1, -0.1), 0.3, (-1.0, 0.0, 0.2), 3)
    scenes = [replace(_held_camera_scene(camera, yaw, [sphere]), half_extents=room)
              for yaw in (0.0, -0.0) for room in ((3.0, 3.0, 1.5), [2.0, 4.0, 1.0])]
    for cold in (True, False):
        depths = []
        for scene in scenes + scenes:
            if cold:
                sim._rays.cache_clear()
                sim._room.cache_clear()
            depths.append(_assert_renders_like_reference(scene, 0.05).depth.values)
        assert not np.array_equal(depths[0], depths[1])


def test_cached_ray_tables_are_read_only():
    # At yaw 45 degrees this camera has, for each world axis, rays parallel to
    # that axis' faces, so no room-table index array is empty.
    camera = CameraModel(fx=4.0, fy=4.0, cx=8.0, cy=5.0, width=16, height=11)
    basis = sim._camera_basis(math.radians(45.0)).tobytes()
    room = sim._room(camera, basis, (3.0, 3.0, 1.5))
    assert all(parallel.size for _, _, parallel in room)
    for table in (*sim._rays(camera, basis), *(a for axis in room for a in axis),
                  *flow._pixel_grid((5, 7))):
        with pytest.raises(ValueError):
            table[...] = 0


def _sphere_by_silhouette_edge(camera: CameraModel, edge_row: float, below: bool,
                               distance: float, radius: float, side: float, class_id: int):
    """A still sphere in front of the held camera whose silhouette's lower edge
    (upper edge if below) lies on the horizontal line through edge_row."""
    edge = math.atan((edge_row - camera.cy) / camera.fy)  # angle below the optical axis
    alpha = math.asin(radius / distance)  # half the angle the sphere subtends
    phi = edge + alpha if below else edge - alpha
    centre = (X0 + distance * math.cos(phi), -side, 1.5 - distance * math.sin(phi))
    return SphereObstacle(radius=radius, start=centre, velocity=(0.0, 0.0, 0.0),
                          class_id=class_id)


@pytest.mark.parametrize("distance, radius", [(1.0, 0.2), (2.3, 0.45)])
@pytest.mark.parametrize("margin", [-0.9, -0.5, -0.05, 0.05, 0.5])
def test_render_frame_spheres_at_the_top_and_bottom_of_the_view_match_reference(
        margin, distance, radius):
    # One sphere's silhouette ends `margin` rows below the top row's centre
    # line, the other's the same above the bottom row's: a negative margin
    # leaves the sphere less than one row outside the view.
    camera = CameraModel(fx=40.0, fy=40.0, cx=31.5, cy=23.5, width=64, height=48)
    top = _sphere_by_silhouette_edge(camera, margin, False, distance, radius, 0.2, 4)
    bottom = _sphere_by_silhouette_edge(camera, camera.height - 1 - margin, True,
                                        distance, radius, -0.3, 5)
    got = _assert_renders_like_reference(_held_camera_scene(camera, 0.0, [top, bottom]), 0.05)
    classes = got.class_map.values
    assert np.any(classes[0] == 4) == (margin > 0)
    assert np.any(classes[-1] == 5) == (margin > 0)


@pytest.mark.parametrize("near_first", [True, False])
def test_nearer_of_two_axis_spheres_owns_the_centre_pixel(near_first):
    near = SphereObstacle(radius=0.2, start=(1.2, 0.0, 1.5), velocity=(0.0, 0.0, 0.0), class_id=4)
    far = SphereObstacle(radius=0.3, start=(2.5, 0.0, 1.5), velocity=(0.0, 0.0, 0.0), class_id=7)
    scene = replace(_head_on_scene(), obstacles=(near, far) if near_first else (far, near))
    frame = render_frame(scene, 0.0)
    assert frame.class_map.values[CY, CX] == 4
    assert frame.depth.values[CY, CX] == pytest.approx(1.2 - 0.2, rel=1e-6)


# -- generate_events against a per-pixel loop -------------------------------------


def _reference_events(times, frames, c):
    """Sorted (t, y, x, polarity) records from a per-pixel walk over the frames,
    with each pixel's reference level on the lattice base + n * c."""
    logs = [np.log(np.asarray(f, dtype=np.float64) + LOG_EPS) for f in frames]
    records = []
    height, width = logs[0].shape
    for y in range(height):
        for x in range(width):
            base, n = float(logs[0][y, x]), 0
            for k in range(1, len(frames)):
                l_prev, l_curr = float(logs[k - 1][y, x]), float(logs[k][y, x])
                q = (l_curr - base) / c
                n_new = min(max(n, math.floor(q)), math.ceil(q))
                s = 1 if n_new > n else -1
                for j in range(n + s, n_new + s, s):
                    frac = min(max((base + j * c - l_prev) / (l_curr - l_prev), 0.0), 1.0)
                    records.append((times[k - 1] + (times[k] - times[k - 1]) * frac, y, x, s))
                n = n_new
    return sorted(records)


def _records(events):
    return [(float(e["t"]), int(e["y"]), int(e["x"]), int(e["polarity"])) for e in events]


# Small sequences on a few intensity levels, so pixels repeat each other's
# crossings exactly and land on their first frame's level again.
_SMALL = dict(h=st.integers(1, 6), w=st.integers(1, 6), n_frames=st.integers(2, 5),
              seed=st.integers(0, 2**32 - 1), c=st.sampled_from([0.05, 0.15, 0.4]))


def _small_sequence(h, w, n_frames, seed):
    rng = np.random.default_rng(seed)
    frames = [rng.choice([0.0, 0.1, 0.35, 0.8, 1.0], size=(h, w)) for _ in range(n_frames)]
    times = list(np.cumsum(rng.uniform(0.01, 0.1, n_frames)))
    return times, frames


@settings(max_examples=60, deadline=None)
@given(**_SMALL)
def test_generate_events_matches_per_pixel_loop(h, w, n_frames, seed, c):
    times, frames = _small_sequence(h, w, n_frames, seed)
    got = generate_events(times, frames, c)
    assert _records(got) == _reference_events(times, frames, c)


@settings(max_examples=60, deadline=None)
@given(**_SMALL)
@example(h=1, w=3, n_frames=3, seed=144, c=0.05)
def test_generate_events_adds_no_event_for_a_repeated_last_frame(h, w, n_frames, seed, c):
    times, frames = _small_sequence(h, w, n_frames, seed)
    got = generate_events(times, frames, c)
    again = generate_events(times + [times[-1] + 0.05], frames + [frames[-1]], c)
    assert _records(again) == _records(got)


@settings(max_examples=60, deadline=None)
@given(**_SMALL)
@example(h=1, w=5, n_frames=5, seed=11, c=0.4)
def test_generate_events_signed_count_follows_the_log_change(h, w, n_frames, seed, c):
    times, frames = _small_sequence(h, w, n_frames, seed)
    got = generate_events(times, frames, c)
    signed = np.zeros((h, w), dtype=np.int64)
    np.add.at(signed, (got["y"], got["x"]), got["polarity"])
    change = (np.log(frames[-1] + LOG_EPS) - np.log(frames[0] + LOG_EPS)) / c
    assert np.all(np.abs(change - signed) < 1)


def _one_pixel(values):
    return [0.05 * k for k in range(len(values))], [np.full((1, 1), v) for v in values]


def test_generate_events_returns_as_many_up_as_down_crossings_on_a_round_trip():
    # log(0.1 + LOG_EPS) - log(LOG_EPS) = log(101) lies 92.3 thresholds apart
    times, frames = _one_pixel([0.1, 0.0, 0.1])
    got = generate_events(times, frames, 0.05)
    down, up = got[got["polarity"] < 0], got[got["polarity"] > 0]
    assert (down.size, up.size) == (92, 92)
    assert np.all(down["t"] <= 0.05) and np.all(up["t"] >= 0.05)


def test_generate_events_stamps_nothing_where_the_intensity_holds():
    times, frames = _one_pixel([0.1, 0.0, 0.1, 0.1])
    got = generate_events(times, frames, 0.1)
    assert got.size == 92 and np.all(np.isfinite(got["t"])) and got["t"][-1] <= 0.1
    acc = accumulate_events(got, (0.0, 0.15), 1, 1)
    assert (acc.pos_count[0, 0], acc.neg_count[0, 0]) == (46, 46)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_generate_events_refuses_a_threshold_that_is_not_finite(c):
    times, frames = _one_pixel([0.1, 0.0])
    with pytest.raises(ValueError, match="contrast threshold must be positive and finite"):
        generate_events(times, frames, c)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_generate_events_refuses_a_timestamp_that_is_not_finite(bad):
    _, frames = _one_pixel([0.1, 0.0, 0.1])
    with pytest.raises(ValueError, match="timestamps must be finite"):
        generate_events([0.0, 0.05, bad], frames, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, -1e-4])
def test_generate_events_refuses_a_frame_with_a_bad_intensity(bad):
    frames = [np.full((1, 2), 0.1), np.array([[0.2, bad]]), np.full((1, 2), 0.1)]
    with pytest.raises(ValueError, match="frame 1 must hold finite, non-negative intensities"):
        generate_events([0.0, 0.05, 0.1], frames, 0.1)


def test_generate_events_orders_ties_at_a_frame_boundary_by_y_x():
    # The two log levels lie within a factor of 2 of each other, so their
    # difference is exact; with c half of it, the second crossing of every
    # changing pixel lands exactly on the frame at t = 0.1.
    lo, hi = 0.3, 0.5
    c = (np.log(hi + LOG_EPS) - np.log(lo + LOG_EPS)) / 2
    f0 = np.array([[lo, hi, lo], [hi, lo, lo]])
    f1 = np.array([[hi, lo, hi], [lo, lo, hi]])
    times = [0.0, 0.1, 0.2]
    got = generate_events(times, [f0, f1, f1], c)
    assert _records(got[got["t"] == 0.1]) == [
        (0.1, 0, 0, 1), (0.1, 0, 1, -1), (0.1, 0, 2, 1), (0.1, 1, 0, -1), (0.1, 1, 2, 1)]
    assert _records(got) == _reference_events(times, [f0, f1, f1], c)


@pytest.mark.parametrize("seed", range(6))
def test_generate_events_sorts_stamps_past_a_frame_time(seed):
    # Here t_{k-1} + (t_k - t_{k-1}) * 1.0 rounds one ulp above t_k at both
    # frame boundaries, so a crossing that lands on frame k is stamped after
    # t_k, where the next interval's crossings begin.  With c half the gap
    # between the two log levels, a lo -> hi step lands its second crossing
    # on the frame.
    times = [0.03, 0.29, 0.82]
    lo, hi = 0.3, 0.5
    c = (np.log(hi + LOG_EPS) - np.log(lo + LOG_EPS)) / 2
    rng = np.random.default_rng(seed)
    frames = [rng.choice([lo, hi, 0.38, 0.44], size=(5, 6)) for _ in times]
    frames[0][0], frames[1][0] = lo, hi  # row 0 lands on frame 1
    frames[1][1], frames[2][1] = hi, lo  # row 1 lands on frame 2
    got = generate_events(times, frames, c)
    for t_k in times[1:]:
        assert np.any(got["t"] == np.nextafter(t_k, 1.0))
    assert _records(got) == _reference_events(times, frames, c)


# -- simulate_sequence windows ------------------------------------------------------


def test_simulate_sequence_last_window_holds_events_at_the_last_frame_time():
    scene = SceneConfig(
        camera=CameraModel(fx=45.0, fy=45.0, cx=23.5, cy=17.5, width=48, height=36),
        duration=0.25,
        random_obstacles=6,
        rng_seed=29,
    )
    seq = simulate_sequence(scene)
    times = [f.t for f in seq.frames]
    at_last = seq.events[seq.events["t"] == times[-1]]
    assert at_last.size > 0  # the emulator stamps crossings at the last frame time
    assert np.array_equal(np.concatenate(seq.event_windows), seq.events)
    assert np.array_equal(seq.event_windows[-1][-at_last.size:], at_last)
    for k, w in enumerate(seq.event_windows[:-1]):
        assert w.size == 0 or (times[k] <= w["t"][0] and w["t"][-1] < times[k + 1])

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evreflex import flow, io_formats, sim
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
from evreflex.types import (
    EVENT_DTYPE,
    CameraModel,
    EventWindowError,
    ShapeMismatchError,
    accumulate_events,
    as_event_array,
    make_events,
)

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


_SPHERE = dict(radius=0.2, start=(0.0, 0.0, 1.0), velocity=(0.0, 0.0, 0.0))

_INTEGER_SETTINGS = {
    "random_obstacles": lambda v: SceneConfig(random_obstacles=v),
    "rng_seed": lambda v: SceneConfig(rng_seed=v),
    "class_id": lambda v: SphereObstacle(**_SPHERE, class_id=v),
}


@pytest.mark.parametrize("field", list(_INTEGER_SETTINGS))
@pytest.mark.parametrize("value", [1.5, 2.0, True])
def test_integer_settings_refuse_non_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        _INTEGER_SETTINGS[field](value)


_VECTOR_SETTINGS = {
    "start": lambda v: SphereObstacle(**{**_SPHERE, "start": v}),
    "velocity": lambda v: SphereObstacle(**{**_SPHERE, "velocity": v}),
    "light_dir": lambda v: SceneConfig(light_dir=v, obstacles=(SphereObstacle(**_SPHERE),)),
    "half_extents": lambda v: SceneConfig(half_extents=v),
    "waypoints": lambda v: TrajectorySpec(waypoints=((0.0, 0.0, 0.0), v)),
}


@pytest.mark.parametrize("field", list(_VECTOR_SETTINGS))
@pytest.mark.parametrize("value", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 1.0, ((1.0, 1.0), 1.0, 1.0)],
                         ids=["two", "four", "scalar", "ragged"])
def test_vector_settings_refuse_the_wrong_length(field, value):
    # 2-vectors once failed late in broadcasting, at render (waypoints) or not at
    # all (a 4-number waypoint dropped its 4th)
    with pytest.raises(ValueError, match=f"^{field} must have shape"):
        _VECTOR_SETTINGS[field](value)


def test_a_room_of_flat_faces_renders_constant_intensity_and_no_events():
    flat = sim.TextureSpec(amplitude=0.0, base=0.35)
    scene = SceneConfig(
        camera=CameraModel(fx=20.0, fy=20.0, cx=11.5, cy=8.5, width=24, height=18),
        trajectory=TrajectorySpec(waypoints=((-1.0, 0.5, 0.0), (1.0, -0.5, 60.0)), speed=4.0),
        wall_texture=flat, floor_texture=flat, ceiling_texture=flat,
        rng_seed=5, duration=0.3)
    seq = simulate_sequence(scene)
    for frame in seq.frames:
        assert np.all(frame.intensity.values == np.float32(0.35))
    assert seq.events.size == 0
    # the same room with textured walls fires events
    assert simulate_sequence(replace(scene, wall_texture=sim.TextureSpec())).events.size > 0


@pytest.mark.parametrize("random_obstacles", [0, 2])
def test_list_and_tuple_obstacles_render_the_same_frame(random_obstacles):
    # a list of obstacles once failed to join the random spheres' tuple
    scene = replace(_head_on_scene(), random_obstacles=random_obstacles)
    frames = [render_frame(replace(scene, obstacles=obstacles), 0.05)
              for obstacles in (list(scene.obstacles), tuple(scene.obstacles))]
    rasters = [[f.intensity.values, f.depth.values, f.class_map.values, f.flow_fwd.u,
                f.flow_fwd.v, f.flow_bwd.u, f.flow_bwd.v] for f in frames]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*rasters))


def test_a_list_of_obstacles_is_the_config_its_tuple_is():
    # the list was kept as given: the two configs compared unequal and the
    # list's config could not be hashed
    sphere = _head_on_scene().obstacles[0]
    as_list, as_tuple = SceneConfig(obstacles=[sphere]), SceneConfig(obstacles=(sphere,))
    assert as_list.obstacles == (sphere,)
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)


@pytest.mark.parametrize("spec, field", [
    (dict(amplitude=0.0, base=-1.0), "base"),
    (dict(amplitude=0.0, base=1.5), "base"),
    (dict(amplitude=1.0, base=0.2), "base"),
    (dict(amplitude=0.6, base=0.9), "base"),
])
def test_texture_refuses_values_outside_the_unit_range(spec, field):
    # shading clipped them without a word: base=-1.0 rendered like base=0.0,
    # and amplitude=1.0 at base=0.2 flattened its troughs
    with pytest.raises(ValueError, match=f"^{field} "):
        sim.TextureSpec(**spec)
    # the extremes of the range are a texture
    assert sim.TextureSpec(amplitude=1.0, base=0.5) and sim.TextureSpec(amplitude=0.0, base=1.0)


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
    normals = np.zeros_like(points)
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
            lambert = np.maximum(normals[sel] @ light, 0.0)
            out[sel] = sphere.albedo * (sim._AMBIENT + (1.0 - sim._AMBIENT) * lambert)
            classes[sel] = sphere.class_id

    def flow_to(t_to):
        # camera-frame coordinates at t_to from the depth: the ray of each
        # pixel turned into that frame, times the depth, plus the camera's
        # move and, on a sphere's pixels, the sphere's
        pos2, yaw2 = traj.pose(t_to)
        origin2 = np.array([pos2[0], pos2[1], scene.camera_height])
        rot2 = sim._camera_basis(yaw2)
        turn = rot2.T @ sim._camera_basis(yaw)
        offset = (origin - origin2) @ rot2
        step = np.zeros_like(points)
        for i, sphere in enumerate(obstacles):
            step[best_obj == 6 + i] = (np.asarray(sphere.velocity, dtype=np.float64)
                                       * (t_to - t)) @ rot2
        rel = [best_t * (turn[c, 0] * dirs_cam[..., 0] + turn[c, 1] * dirs_cam[..., 1]
                         + turn[c, 2] * dirs_cam[..., 2]) + offset[c] + step[..., c]
               for c in range(3)]
        z = np.maximum(rel[2], 1e-9)
        return cam.fx * rel[0] / z + cam.cx - xs, cam.fy * rel[1] / z + cam.cy - ys

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
                sim._turned_rays.cache_clear()
            depths.append(_assert_renders_like_reference(scene, 0.05).depth.values)
        assert not np.array_equal(depths[0], depths[1])


def test_cached_ray_tables_are_read_only():
    # At yaw 45 degrees this camera has, for each world axis, rays parallel to
    # that axis' faces, so no room-table index array is empty.
    camera = CameraModel(fx=4.0, fy=4.0, cx=8.0, cy=5.0, width=16, height=11)
    basis = sim._camera_basis(math.radians(45.0)).tobytes()
    room = sim._room(camera, basis, (3.0, 3.0, 1.5))
    assert all(parallel.size for *_, parallel in room)
    turned = sim._camera_basis(math.radians(30.0)).tobytes()
    for table in (*sim._rays(camera, basis), *(a for axis in room for a in axis),
                  sim._turned_rays(camera, basis, basis), sim._turned_rays(camera, basis, turned),
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


# -- forward and backward flow invert each other on the static room ---------------

_WIDE_CAMERA = CameraModel(fx=40.0, fy=40.0, cx=23.5, cy=17.5, width=48, height=36)
# Camera positions at least a metre from the walls: the room spans +-3 m.
_CAMERA_XY = st.tuples(_cm(-200, 200), _cm(-200, 200))

# The tolerance, in px.  On one room face the backward flow is a homography of
# the pixel less the pixel, so it is smooth, and bilinear interpolation over a
# 1 px footprint errs by at most 1/8 of its second derivatives along x and y,
# summed.  A turn of theta per frame gives second derivatives of about
# 2 theta / f per px^2: 0.004 at 4.5 degrees (90 deg/s at 20 frames/s) and
# f = 40 px, so about 0.0005 px per component.  A move of at most 15 cm per
# frame, at least a metre from a wall, adds less.  The largest error on 3,000
# seeded scenes was 0.0009 px.  float32 storage of flows under 10 px adds
# under 1e-5 px.
_INVERSION_TOL_PX = 0.01


def _turn_then_move_scene(seed, spheres, start, yaw, turn, end, speed, **textures):
    # A turn in place at 90 deg/s, then a straight move, among seeded spheres.
    return SceneConfig(
        camera=_WIDE_CAMERA,
        trajectory=TrajectorySpec(
            waypoints=((*start, yaw), (*start, yaw + turn), (*end, yaw + turn)),
            speed=speed, yaw_rate_deg=90.0),
        random_obstacles=spheres, rng_seed=seed, duration=0.3, **textures)


def _same_static_face(scene, now, then):
    """Frame k+1's cast, and the mask of frame-k pixels that show a room face
    (static) and whose sample x + flow_fwd[k] has its 2x2 footprint in frame
    k+1 inside the raster on that same face (unoccluded, and not across an
    edge)."""
    cast_now, cast_then = (sim._cast(scene, scene.realized_obstacles(), np.array(f.position),
                                     f.yaw, f.t) for f in (now, then))
    _, inside, corners = flow._warp(cast_then.obj.astype(np.float64), *flow._uv(now.flow_fwd))
    qualifies = inside & (cast_now.obj <= 5)
    for corner in corners:
        qualifies &= corner == cast_now.obj
    return cast_then, qualifies


_TURN_THEN_MOVE = dict(seed=st.integers(0, 10_000), spheres=st.integers(0, 4), start=_CAMERA_XY,
                       yaw=st.integers(-180, 180), turn=st.integers(-30, 30), end=_CAMERA_XY,
                       speed=_cm(20, 300), k=st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(**_TURN_THEN_MOVE)
@example(seed=0, spheres=3, start=(0.0, 0.0), yaw=30, turn=10, end=(1.5, 1.0), speed=2.0,
         k=1)
def test_forward_and_backward_flow_invert_on_static_unoccluded_pixels(
        seed, spheres, start, yaw, turn, end, speed, k):
    scene = _turn_then_move_scene(seed, spheres, start, yaw, turn, end, speed)
    times = scene.frame_times()
    now, then = render_frame(scene, float(times[k])), render_frame(scene, float(times[k + 1]))
    qualifies = _same_static_face(scene, now, then)[1]
    back_u, _ = flow.warp(then.flow_bwd.u.astype(np.float64), now.flow_fwd)
    back_v, _ = flow.warp(then.flow_bwd.v.astype(np.float64), now.flow_fwd)
    assume(qualifies.any())
    assert np.abs(back_u + now.flow_fwd.u)[qualifies].max() <= _INVERSION_TOL_PX
    assert np.abs(back_v + now.flow_fwd.v)[qualifies].max() <= _INVERSION_TOL_PX


# -- the camera-frame flow is the world points' projection -----------------------

# _flow_to moves each pixel's hit point into the camera frame at t_to from its
# depth.  The world-point formula, the projection of (p + v dt - o_to) @ R_to,
# is the same geometry, so the two differ by float64 rounding of the
# camera-frame point, which the projection divides by its z: an error e in it
# moves u by up to (fx + |u + x - cx|) e / z.  The tolerance, in px, is
# _WORLD_POINT_TOL_M (1 + |flow|) / max(|z|, 1e-9), z the world-point
# formula's.  On 6,000 seeded scenes the largest error was 8.8e-14
# (1 + |flow|) / z px, and 1.4e-13 px where z > 0.1 m; near z = 0, where the
# flows run to thousands of px and the 1e-9 clamp then takes over, the z term
# carries the bound.
_WORLD_POINT_TOL_M = 1e-12


def _float64_flows(scene: SceneConfig, t: float):
    """render_frame's frame at t with each flow a float64 (2, H, W) array, as
    computed before float32 storage."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "FlowField", lambda u, v: np.stack([u, v]))
        return render_frame(scene, t)


def _world_point_flow(scene: SceneConfig, frame, t_to: float):
    """The flow of frame to the pose at t_to from its world hit points, each
    moved with its sphere, as (2, H, W); and their camera-frame z at t_to."""
    obstacles, cam = scene.realized_obstacles(), scene.camera
    cast = sim._cast(scene, obstacles, np.array(frame.position), frame.yaw, frame.t)
    moved = cast.points.copy()
    for i, sphere in enumerate(obstacles):
        moved[cast.obj == 6 + i] += np.asarray(sphere.velocity) * (t_to - frame.t)
    pos, yaw = sim._Trajectory(scene.trajectory).pose(t_to)
    rel = (moved - np.array([pos[0], pos[1], scene.camera_height])) @ sim._camera_basis(yaw)
    z = np.maximum(rel[..., 2], 1e-9)
    ys, xs = np.mgrid[0 : cam.height, 0 : cam.width].astype(np.float64)
    return np.stack([cam.fx * rel[..., 0] / z + cam.cx - xs,
                     cam.fy * rel[..., 1] / z + cam.cy - ys]), rel[..., 2]


@settings(max_examples=60, deadline=None)
@given(**_TURN_THEN_MOVE, held=st.booleans())
@example(seed=0, spheres=3, start=(0.0, 0.0), yaw=30, turn=10, end=(1.5, 1.0), speed=2.0,
         k=1, held=False)
def test_flows_match_the_world_point_formula(seed, spheres, start, yaw, turn, end, speed, k,
                                             held):
    scene = _turn_then_move_scene(seed, spheres, start, yaw, turn, end, speed)
    if held:
        scene = replace(scene, trajectory=TrajectorySpec(waypoints=((*start, yaw),)))
    frame = _float64_flows(scene, float(scene.frame_times()[k]))
    for got, t_to in ((frame.flow_fwd, frame.t + scene.dt), (frame.flow_bwd, frame.t - scene.dt)):
        if got is None:
            continue
        want, z = _world_point_flow(scene, frame, t_to)
        tol = _WORLD_POINT_TOL_M * (1.0 + np.abs(want)) / np.maximum(np.abs(z), 1e-9)
        assert np.all(np.abs(got - want) <= tol)


def test_flow_along_the_optical_axis_is_the_depth_ratio_less_one():
    # The camera moves forward at V along its optical axis, so a static point
    # at depth Z lies at Z - V dt one frame later: its pixel moves away from
    # the principal point by (x - cx, y - cy) (Z / (Z - V dt) - 1).  Both
    # sides hold float32 storage's rounding, so the tolerance is counted in
    # float32 ulps of the oracle: one for the stored flow's, and
    # Z / (Z - V dt) for the stored depth's, which the ratio amplifies by that
    # factor.  The largest error seen was 1.14 ulps, 4.9e-8 px.
    speed = 2.0
    scene = SceneConfig(
        camera=_WIDE_CAMERA,
        trajectory=TrajectorySpec(waypoints=((-1.5, 0.0, 0.0), (1.5, 0.0, 0.0)), speed=speed),
        obstacles=(SphereObstacle(radius=0.3, start=(0.5, 0.1, 1.4), velocity=(-2.0, 0.0, 0.0)),),
        duration=0.25)
    cam = scene.camera
    ys, xs = np.mgrid[0 : cam.height, 0 : cam.width].astype(np.float64)
    for t in scene.frame_times()[:-1]:
        frame = render_frame(scene, float(t))
        static = frame.class_map.values != sim.CLASS_FLYING
        assert 0 < static.sum() < static.size
        depth = frame.depth.values.astype(np.float64)
        scale = depth / (depth - speed * scene.dt)
        for got, offset in ((frame.flow_fwd.u, xs - cam.cx), (frame.flow_fwd.v, ys - cam.cy)):
            want = offset * (scale - 1.0)
            tol = (1.0 + scale) * np.spacing(np.abs(want).astype(np.float32))
            assert np.all(np.abs(got - want)[static] <= tol[static])


# -- static room faces keep their brightness along the forward flow ----------------

# Wall and floor checkers with a 1 m period, sampled only where one pixel step
# of frame k+1's footprint spans at most 1/16 of it: coarser footprints alias
# the texture, and bilinear sampling there errs by up to its amplitude.
_TEXTURE_PERIOD_M = 1.0
_MAX_STEP_M = _TEXTURE_PERIOD_M / 16
# The tolerance, in intensity.  On one face the image is the checker
# base + (A/2) sin(w su) sin(w sv), w = 2 pi / period, seen through a
# homography.  Bilinear interpolation over a 1 px footprint errs by at most
# 1/8 of its second derivatives along x and y, summed.  A pixel step of at
# most s metres bounds each by A (w s)^2, so the error by A (w s)^2 / 4 =
# 0.023 at A = 0.6 and w s = 2 pi / 16, plus a little from the homography's
# own curvature.  The largest error on 2,100 seeded scenes (1,151 with a
# qualifying pixel, 971k pixels) was 0.0112; a forward flow drawn over 1.1
# frame intervals instead of one reads 0.032.  float32 storage of
# intensities and flows adds under 1e-5.
_BRIGHTNESS_TOL = 0.025


@settings(max_examples=60, deadline=None)
@given(**_TURN_THEN_MOVE)
@example(seed=0, spheres=3, start=(0.0, 0.0), yaw=30, turn=10, end=(1.5, 1.0), speed=2.0,
         k=1)
def test_static_faces_keep_their_brightness_along_the_forward_flow(
        seed, spheres, start, yaw, turn, end, speed, k):
    scene = _turn_then_move_scene(
        seed, spheres, start, yaw, turn, end, speed,
        wall_texture=sim.TextureSpec(period_m=_TEXTURE_PERIOD_M),
        floor_texture=sim.TextureSpec(amplitude=0.5, period_m=_TEXTURE_PERIOD_M))
    times = scene.frame_times()
    now, then = render_frame(scene, float(times[k])), render_frame(scene, float(times[k + 1]))
    cast_then, qualifies = _same_static_face(scene, now, then)
    # the longest side of each sample's footprint, in metres on its face
    u, v = flow._uv(now.flow_fwd)
    tl, tr, bl, br = np.stack([flow._warp(cast_then.points[..., axis], u, v)[2]
                               for axis in range(3)], axis=-1)
    step = np.max([np.linalg.norm(a - b, axis=-1) for a, b in ((tr, tl), (bl, tl), (br, tr),
                                                               (br, bl))], axis=0)
    qualifies &= step <= _MAX_STEP_M
    assume(qualifies.any())
    sampled, _ = flow.warp(then.intensity.values.astype(np.float64), now.flow_fwd)
    error = np.abs(sampled - now.intensity.values)[qualifies]
    assert error.max() <= _BRIGHTNESS_TOL


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


@pytest.mark.parametrize("times", [[[0.0], [0.05], [0.1]], [[0.1], [0.05], [0.0]]],
                         ids=["increasing", "decreasing"])
def test_generate_events_refuses_timestamps_that_are_not_1d(times):
    # np.diff of a (3, 1) array runs along its length-1 axis, so the order
    # check once passed a decreasing column and the emulator failed later
    _, frames = _one_pixel([0.1, 0.0, 0.1])
    with pytest.raises(ValueError, match=r"^timestamps must be 1-D, got shape \(3, 1\)"):
        generate_events(np.array(times), frames, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, -1e-4])
def test_generate_events_refuses_a_frame_with_a_bad_intensity(bad):
    frames = [np.full((1, 2), 0.1), np.array([[0.2, bad]]), np.full((1, 2), 0.1)]
    with pytest.raises(ValueError, match="frame 1 must hold finite, non-negative intensities"):
        generate_events([0.0, 0.05, 0.1], frames, 0.1)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (1, 65537)])
def test_generate_events_refuses_a_frame_whose_pixels_do_not_fit_event_coordinates(shape):
    # x and y are uint16: a frame must be 2-D with sides of at most 65536
    frames = [np.zeros(shape), np.ones(shape)]
    with pytest.raises(ShapeMismatchError, match="frames must be 2-D"):
        generate_events([0.0, 0.05], frames, 0.1)


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


def test_generate_events_orders_ties_across_a_frame_boundary_by_y_x():
    # Pixel (0, 1) lands its second crossing on frame 1, stamped t = 0.1 by
    # interval 1.  Pixel (0, 0) stops one ulp short of hi at frame 1 and jumps
    # far above it at frame 2, so interval 2 crosses hi a tiny fraction into
    # the interval, also stamped 0.1: the later interval holds the smaller key.
    lo, hi = 0.3, 0.5
    c = (np.log(hi + LOG_EPS) - np.log(lo + LOG_EPS)) / 2
    frames = [np.array([[lo, lo]]), np.array([[np.nextafter(hi, 0.0), hi]]),
              np.array([[1e3, hi]])]
    times = [0.0, 0.1, 0.2]
    got = generate_events(times, frames, c)
    assert _records(got[got["t"] == 0.1]) == [(0.1, 0, 0, 1), (0.1, 0, 1, 1)]
    assert _records(got) == _reference_events(times, frames, c)


@st.composite
def _straddling_times(draw):
    """3 to 10 frame times, each in the binade above the one before, at which
    t_{k-1} + (t_k - t_{k-1}) * 1.0 rounds past t_k at every boundary.

    t_k - t_{k-1} lies in t_k's binade and is exact to half its ulp, when
    t_{k-1}'s last set bit is half of t_k's ulp: the subtraction and then the
    sum are ties, which round up when t_k's mantissa is odd and t_{k-1}'s is
    3 mod 4.  Walking t_k up by ulps meets such a value within 4 steps.  The
    difference lies in t_k's binade when t_k >= 2^E + t_{k-1}, 2^E the
    binade's start; t_k is drawn from the lower half of that range, so each
    binade leaves the next one room.
    """
    n = draw(st.integers(3, 10))
    exp = draw(st.integers(-14, -8))
    times = [math.ldexp(1.0 + (4 * draw(st.integers(0, 2**49 - 1)) + 3) * 2.0**-52, exp)]
    for k in range(1, n):
        low, top = math.ldexp(1.0, exp + k) + times[-1], math.ldexp(1.0, exp + k + 1)
        t = low + draw(st.floats(0.0, 0.5)) * (top - low)
        for _ in range(4):
            if times[-1] + (t - times[-1]) * 1.0 > t and int(t / math.ulp(t)) % 4 == 3:
                break
            t = math.nextafter(t, math.inf)
        assert times[-1] + (t - times[-1]) * 1.0 > t
        times.append(t)
    return times


@pytest.mark.parametrize("seed", range(6))
@settings(max_examples=15, deadline=None)
@given(times=_straddling_times())
@example(times=[0.03, 0.29, 0.82])
def test_generate_events_sorts_stamps_past_a_frame_time(seed, times):
    # At every frame boundary, t_{k-1} + (t_k - t_{k-1}) * 1.0 rounds above
    # t_k, so a crossing that lands on frame k is stamped after t_k, where the
    # next interval's crossings begin.  With c half the gap between the two
    # log levels, a lo -> hi step lands its second crossing on the frame: row
    # 2k-2 takes that step at frame k.  Row 2k-1 stops one ulp short of hi at
    # frame k and jumps far above it at frame k+1, so interval k+1 crosses
    # hi a tiny fraction into the interval, stamped t_k itself: before the
    # crossing interval k stamped past t_k.  The emulator must merge the two
    # intervals at every boundary.
    lo, hi = 0.3, 0.5
    c = (np.log(hi + LOG_EPS) - np.log(lo + LOG_EPS)) / 2
    rng = np.random.default_rng(seed)
    frames = [rng.choice([lo, hi, 0.38, 0.44], size=(2 * len(times), 6)) for _ in times]
    for k in range(1, len(times)):
        for j, frame in enumerate(frames):
            frame[2 * k - 2] = lo if j < k else hi
            frame[2 * k - 1] = lo if j < k else np.nextafter(hi, 0.0) if j == k else 1e3
    got = generate_events(times, frames, c)
    for k in range(1, len(times)):
        past = times[k - 1] + (times[k] - times[k - 1]) * 1.0
        assert past > times[k] and np.any(got["t"] == past)
        assert k == len(times) - 1 or np.any(got["t"] == times[k])
    assert _records(got) == _reference_events(times, frames, c)


def test_generate_events_holds_at_most_twice_its_output_beside_a_few_rasters():
    # The emulator packs each frame interval's events as it goes and copies
    # the packed intervals into the returned array at the end: twice the
    # output.  Beside them it holds one interval's working set: base, n, the
    # two log frames and the step's temporaries, a few float64 rasters, and
    # that interval's crossings, which on this 20-frame scene stay well below
    # the whole stream.  Sorting the whole stream at once held about 8x it.
    camera = CameraModel(fx=200.0, fy=200.0, cx=172.5, cy=129.5, width=346, height=260)
    scene = SceneConfig(
        camera=camera,
        trajectory=TrajectorySpec(waypoints=((-2.4, 0.0, 0.0), (2.5, 0.0, 0.0))),
        obstacles=(SphereObstacle(radius=0.3, start=(2.2, 0.05, 1.45), velocity=(-3.0, 0.0, 0.0)),),
        random_obstacles=8,
        rng_seed=0,
        duration=1.0,
    )
    times = scene.frame_times()
    frames = [render_frame(scene, t).intensity for t in times]
    raster = camera.width * camera.height * np.dtype(np.float64).itemsize
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        events = generate_events(times, frames, scene.contrast_threshold)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert events.size > 500_000
    assert peak <= 2 * events.nbytes + 8 * raster


# -- event producers ---------------------------------------------------------------


def _assert_event_dtype(events):
    assert events.dtype == EVENT_DTYPE and events.dtype.itemsize == 16
    assert [events.dtype.fields[name][1] for name in ("t", "x", "y", "polarity")] == [0, 8, 10, 12]


def test_every_event_producer_returns_exactly_event_dtype(tmp_path):
    # np.concatenate of two EVENT_DTYPE arrays returns a packed dtype of
    # itemsize 13 on numpy 2.x, which no longer matches the on-disk record
    made = make_events([0.1, 0.2], [1, 2], [0, 1], [1, -1])
    packed = np.concatenate([made, made])
    scene = SceneConfig(
        camera=CameraModel(fx=45.0, fy=45.0, cx=23.5, cy=17.5, width=48, height=36),
        duration=0.25, random_obstacles=6, rng_seed=29)
    seq = simulate_sequence(scene)
    times, frames = [0.0, 0.05, 0.1], [np.full((2, 3), v) for v in (0.1, 0.5, 0.2)]
    path = tmp_path / "events.evrx"
    io_formats.write_events(path, made, 3, 2)
    producers = [
        made,
        make_events([], [], [], []),
        generate_events(times, frames, 0.1),
        generate_events(times, [frames[0]] * 3, 0.1),
        io_formats.read_events(path)[0],
        as_event_array(packed),
        seq.events,
        *seq.event_windows,
    ]
    assert producers[2].size > 0 and producers[3].size == 0
    for events in producers:
        _assert_event_dtype(events)
    assert seq.events.size > 0 and not seq.events.flags.writeable
    for window in seq.event_windows:
        assert not window.flags.writeable
        assert window.size == 0 or np.shares_memory(window, seq.events)


# -- simulate_sequence windows ------------------------------------------------------


def _events_at_the_last_frame_time():
    """A 48x36 sequence whose emulator stamps crossings at the last frame time."""
    scene = SceneConfig(
        camera=CameraModel(fx=45.0, fy=45.0, cx=23.5, cy=17.5, width=48, height=36),
        duration=0.25,
        random_obstacles=6,
        rng_seed=29,
    )
    return simulate_sequence(scene)


def test_simulate_sequence_last_window_holds_events_at_the_last_frame_time():
    seq = _events_at_the_last_frame_time()
    times = [f.t for f in seq.frames]
    at_last = seq.events[seq.events["t"] == times[-1]]
    assert at_last.size > 0  # the emulator stamps crossings at the last frame time
    assert np.array_equal(np.concatenate(seq.event_windows), seq.events)
    assert np.array_equal(seq.event_windows[-1][-at_last.size:], at_last)
    for k, w in enumerate(seq.event_windows[:-1]):
        assert w.size == 0 or (times[k] <= w["t"][0] and w["t"][-1] < times[k + 1])


def test_accumulating_the_last_window_to_nextafter_counts_every_event():
    # accumulate_events takes a half-open window, so a caller closes the last
    # window, which holds the events at the last frame time, with nextafter
    seq = _events_at_the_last_frame_time()
    times = [f.t for f in seq.frames]
    cam = seq.scene.camera
    ends = [*times[1:-1], np.nextafter(times[-1], np.inf)]
    counted = 0
    for window, t0, t1 in zip(seq.event_windows, times[:-1], ends, strict=True):
        em = accumulate_events(window, (t0, t1), cam.width, cam.height)
        counted += int(em.pos_count.sum()) + int(em.neg_count.sum())
    assert counted == seq.events.size
    with pytest.raises(EventWindowError):
        accumulate_events(seq.event_windows[-1], (times[-2], times[-1]), cam.width, cam.height)

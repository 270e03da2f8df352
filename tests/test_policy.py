import numpy as np
import pytest

from evreflex.policy import EgoMotion, evasion_direction, obstacle_motion_vector
from evreflex.tti import TtiMap
from evreflex.types import CameraModel, FloatMap, FlowField, MapSemantics, ShapeMismatchError


def _camera(shape, fx=100.0, fy=50.0):
    h, w = shape
    return CameraModel(fx=fx, fy=fy, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)


def _tti(values, dt=0.1):
    values = np.asarray(values, dtype=np.float64)
    return TtiMap(values, dt=dt, valid=np.ones(values.shape, dtype=bool))


def test_motion_vector_empty_mask():
    shape = (4, 4)
    vec, count = obstacle_motion_vector(
        FlowField(np.zeros(shape), np.zeros(shape)),
        FloatMap(np.ones(shape), MapSemantics.DEPTH_M),
        _tti(np.zeros(shape)),
        np.zeros(shape, dtype=bool),
        _camera(shape),
    )
    assert count == 0 and np.array_equal(vec, np.zeros(3))


def test_motion_vector_single_pixel():
    shape = (4, 4)
    tau = np.zeros(shape)
    tau[1, 2] = 0.5
    depth = np.full(shape, 2.0)
    mask = np.zeros(shape, dtype=bool)
    mask[1, 2] = True
    vec, count = obstacle_motion_vector(
        FlowField(np.zeros(shape), np.zeros(shape)),
        FloatMap(depth, MapSemantics.DEPTH_M),
        _tti(tau),
        mask,
        _camera(shape),
    )
    assert count == 1
    assert np.allclose(vec, [0.0, 0.0, 1.0])


def test_motion_vector_matches_loop_oracle():
    rng = np.random.default_rng(0)
    shape = (8, 8)
    u = rng.normal(size=shape)
    v = rng.normal(size=shape)
    d = rng.uniform(0.5, 4.0, shape)
    tau = rng.uniform(0, 2, shape)
    mask = rng.random(shape) > 0.5
    cam = _camera(shape, fx=80.0, fy=120.0)
    vec, count = obstacle_motion_vector(
        FlowField(u, v), FloatMap(d, MapSemantics.DEPTH_M), _tti(tau, dt=0.05), mask, cam
    )
    sums = np.zeros(3)
    n = 0
    for y in range(8):
        for x in range(8):
            if mask[y, x]:
                uf = np.float32(u[y, x])
                vf = np.float32(v[y, x])
                df = np.float32(d[y, x])
                tf = np.float32(tau[y, x])
                # Stored as float32, multiplied in float64, as the policy does.
                sums += [float(uf) * float(df) / (80.0 * 0.05),
                         float(vf) * float(df) / (120.0 * 0.05), float(df) * float(tf)]
                n += 1
    assert count == n
    assert np.allclose(vec, sums / n, rtol=1e-9, atol=1e-9)


def test_motion_vector_metric_lifting():
    shape = (4, 4)
    cam = CameraModel(fx=100.0, fy=50.0, cx=1.5, cy=1.5, width=4, height=4)
    u = np.full(shape, 2.0)
    v = np.full(shape, 1.0)
    d = np.full(shape, 3.0)
    tau = np.full(shape, 0.5)
    mask = np.ones(shape, dtype=bool)
    vec, _ = obstacle_motion_vector(
        FlowField(u, v), FloatMap(d, MapSemantics.DEPTH_M), _tti(tau, dt=0.1), mask,
        camera=cam,
    )
    # u*d/(fx*dt), v*d/(fy*dt), d*tau
    assert np.allclose(vec, [2.0 * 3.0 / (100.0 * 0.1), 1.0 * 3.0 / (50.0 * 0.1), 1.5])


@pytest.mark.parametrize("camera_shape", [(4, 5), (5, 4), (3, 4)], ids=str)
def test_motion_vector_refuses_a_camera_of_another_size(camera_shape):
    # the wrong intrinsics once lifted the flow silently
    shape = (4, 4)
    with pytest.raises(ShapeMismatchError, match="camera"):
        obstacle_motion_vector(
            FlowField(np.zeros(shape), np.zeros(shape)),
            FloatMap(np.ones(shape), MapSemantics.DEPTH_M),
            _tti(np.zeros(shape)),
            np.ones(shape, dtype=bool),
            _camera(camera_shape),
        )


@pytest.mark.parametrize("v", [(0.0, 0.0), (0.0, 0.0, 1.0, 0.0), 1.0], ids=["two", "four", "scalar"])
def test_egomotion_refuses_a_vector_that_is_not_3d(v):
    # (0, 0) was once taken as z = 0
    with pytest.raises(ValueError, match="^v must have shape"):
        EgoMotion(v)


def test_evasion_canonical_cross_product():
    res = evasion_direction((1.0, 0.0, 0.0), EgoMotion((0.0, 0.0, 1.0)))
    assert not res.degenerate
    assert np.allclose(res.psi, (0.0, -1.0, 0.0))


def test_evasion_parallel_falls_back_to_x():
    res = evasion_direction((0.0, 0.0, 1.0), EgoMotion((0.0, 0.0, 1.0)))
    assert res.degenerate
    assert np.allclose(res.psi, (1.0, 0.0, 0.0))


def test_evasion_zero_everything_gives_zero():
    res = evasion_direction((0.0, 0.0, 0.0), EgoMotion((1.0, 0.0, 0.0)))
    assert res.degenerate
    assert np.allclose(res.psi, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_evasion_refuses_non_finite_motion_vector(axis, bad):
    # a NaN vector once came back as the +X fallback, flagged degenerate
    m = [0.0, 0.0, 1.0]
    m[axis] = bad
    with pytest.raises(ValueError, match="motion vector must be finite"):
        evasion_direction(m, EgoMotion((0.0, 0.0, 1.0)))


def test_evasion_unit_norm_for_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        m = rng.normal(size=3)
        v = rng.normal(size=3)
        res = evasion_direction(m, EgoMotion(tuple(v)))
        if not res.degenerate:
            assert abs(np.linalg.norm(res.psi) - 1.0) < 1e-6


def test_evasion_orthogonality_and_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = rng.normal(size=3)
        v = rng.normal(size=3)
        res = evasion_direction(m, EgoMotion(tuple(v)))
        if res.degenerate:
            continue
        assert abs(np.dot(res.psi, v)) < 1e-6
        assert abs(np.dot(res.psi, m)) < 1e-6
        scaled = evasion_direction(3.7 * m, EgoMotion(tuple(v)))
        assert np.allclose(scaled.psi, res.psi, atol=1e-9)


def test_evasion_mirror_symmetry():
    v = EgoMotion((0.0, 0.0, 1.0))
    res = evasion_direction((0.4, 0.2, 1.0), v)
    mirrored = evasion_direction((-0.4, 0.2, 1.0), v)
    assert mirrored.psi[1] == pytest.approx(-res.psi[1])
    assert mirrored.psi[0] == pytest.approx(res.psi[0])

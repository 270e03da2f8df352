import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evreflex import io_formats
from evreflex.flow import FlowSolverConfig, charbonnier
from evreflex.policy import EgoMotion
from evreflex.io_formats import (
    BadMagicError,
    BoundsError,
    ConfigError,
    FormatError,
    RunConfig,
    TruncatedError,
    VersionError,
    atomic_write_bytes,
    atomic_write_text,
    dump_config,
    parse_config,
    read_config,
    read_events,
    write_events,
)
from evreflex.sim import SceneConfig, SphereObstacle, TextureSpec, TrajectorySpec, generate_events
from evreflex.types import (
    CameraModel,
    EventOrderError,
    accumulate_events,
    make_events,
)


def _random_events(rng, n, width=32, height=24):
    t = np.sort(rng.uniform(0, 10, n))
    return make_events(t, rng.integers(0, width, n), rng.integers(0, height, n),
                       rng.choice([-1, 1], n))


@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (4, 1), ()])
def test_an_event_array_that_is_not_1d_is_refused(shape, tmp_path):
    # numpy once failed inside both functions, with messages that named no argument
    events = make_events([0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3], [0, 0, 1, 1], [1, -1, 1, -1])
    events = events[:int(np.prod(shape))].reshape(shape)
    refusal = rf"^events must be 1-D, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=refusal):
        accumulate_events(events, (0.0, 1.0), 8, 8)
    with pytest.raises(ValueError, match=refusal):
        write_events(tmp_path / "events.bin", events, 8, 8)
    assert not (tmp_path / "events.bin").exists()


def test_empty_event_file_is_24_bytes(tmp_path):
    path = tmp_path / "empty.evrx"
    write_events(path, make_events([], [], [], []), 8, 8)
    assert path.stat().st_size == 24
    arr, w, h = read_events(path)
    assert arr.shape == (0,) and (w, h) == (8, 8)


def test_three_events_file_size(tmp_path):
    path = tmp_path / "three.evrx"
    ev = make_events([0.1, 0.2, 0.3], [1, 2, 3], [4, 5, 6], [1, -1, 1])
    write_events(path, ev, 8, 8)
    assert path.stat().st_size == 24 + 48


def test_events_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    path1 = tmp_path / "a.evrx"
    path2 = tmp_path / "b.evrx"
    ev = _random_events(rng, 10_000)
    write_events(path1, ev, 32, 24)
    back, w, h = read_events(path1)
    write_events(path2, back, w, h)
    assert path1.read_bytes() == path2.read_bytes()
    assert (back == ev).all()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.evrx"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagicError):
        read_events(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v2.evrx"
    path.write_bytes(struct.pack("<4sIIIQ", b"EVRX", 2, 4, 4, 0))
    with pytest.raises(VersionError):
        read_events(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "trunc.evrx"
    ev = make_events([0.5], [1], [1], [1])
    write_events(path, ev, 4, 4)
    data = path.read_bytes()
    for cut in (3, 10, 23, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(TruncatedError):
            read_events(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(TruncatedError):
        read_events(path)


def test_out_of_bounds_coordinates_rejected(tmp_path):
    path = tmp_path / "oob.evrx"
    header = struct.pack("<4sIIIQ", b"EVRX", 1, 2, 2, 1)
    record = np.zeros(1, dtype=make_events([], [], [], []).dtype)
    record["t"] = 0.1
    record["x"] = 5  # exceeds declared width 2
    path.write_bytes(header + record.tobytes())
    with pytest.raises(BoundsError):
        read_events(path)
    with pytest.raises(BoundsError):
        write_events(path, record, 2, 2)
    # a raster write_events refuses, even with no record to fall outside it
    for width, height, name in ((0, 2, "width"), (2, 0, "height")):
        path.write_bytes(struct.pack("<4sIIIQ", b"EVRX", 1, width, height, 0))
        with pytest.raises(FormatError, match=f"header: {name} must be at least 1"):
            read_events(path)


@pytest.mark.parametrize("name", ["width", "height"])
@pytest.mark.parametrize("size", [0, -1, 4.0, True, 65537, 2**32])
@pytest.mark.parametrize("call", [
    lambda ev, width, height, path: write_events(path, ev, width, height),
    lambda ev, width, height, path: accumulate_events(ev, (0.0, 1.0), width, height),
], ids=["write_events", "accumulate_events"])
def test_raster_size_outside_uint16_coordinates_refused(tmp_path, call, size, name):
    sides = {"width": 4, "height": 4, name: size}
    for ev in (make_events([], [], [], []), make_events([0.5], [1], [1], [1])):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(ev, sides["width"], sides["height"], tmp_path / "e.evrx")
    assert not any(tmp_path.iterdir())



def _two_record_file(path, t, polarity):
    """A hand-written EVRX file of 2 records at pixels (0, 0) and (1, 1) of a
    4x4 raster, bypassing write_events' checks."""
    header = struct.pack("<4sIIIQ", b"EVRX", 1, 4, 4, 2)
    records = b"".join(struct.pack("<dHHb3x", ti, i, i, p)
                       for i, (ti, p) in enumerate(zip(t, polarity)))
    path.write_bytes(header + records)
    return path


def test_read_events_refuses_what_write_events_refuses(tmp_path):
    good = _two_record_file(tmp_path / "good.evrx", (0.5, 0.75), (1, -1))
    back, w, h = read_events(good)
    assert back["t"].tolist() == [0.5, 0.75] and back["polarity"].tolist() == [1, -1]
    with pytest.raises(EventOrderError):
        read_events(_two_record_file(tmp_path / "nan.evrx", (0.5, np.nan), (1, 1)))
    with pytest.raises(EventOrderError):
        read_events(_two_record_file(tmp_path / "order.evrx", (0.75, 0.5), (1, 1)))
    with pytest.raises(ValueError, match="^polarity"):
        read_events(_two_record_file(tmp_path / "p0.evrx", (0.5, 0.75), (0, 1)))

# Header (magic, version 1, width 65536, height 8, count 3), then one 16-byte
# record per event: t f64, x u16, y u16, polarity i8, 3 zero pad bytes.
_PINNED_EVRX = bytes.fromhex(
    "45565258" "01000000" "00000100" "08000000" "0300000000000000"
    "0000000000000000" "0000" "0000" "01" "000000"
    "000000000000e03f" "0300" "0200" "ff" "000000"
    "000000000000f43f" "ffff" "0700" "01" "000000"
)


def test_event_file_bytes_pinned(tmp_path):
    path = tmp_path / "pinned.evrx"
    ev = make_events([0.0, 0.5, 1.25], [0, 3, 65535], [0, 2, 7], [1, -1, 1])
    write_events(path, ev, 65536, 8)
    assert path.read_bytes() == _PINNED_EVRX
    back, w, h = read_events(path)
    assert (w, h) == (65536, 8) and np.array_equal(back, ev)
    # an owned, writable array, independent of the file
    assert back.flags.owndata and back.flags.writeable
    assert back.tobytes() == _PINNED_EVRX[24:]


def test_huge_declared_count_is_truncation_not_allocation(tmp_path):
    path = tmp_path / "huge.evrx"
    path.write_bytes(struct.pack("<4sIIIQ", b"EVRX", 1, 4, 4, 2**40) + b"\x00" * 16)
    assert path.stat().st_size == 40
    with pytest.raises(TruncatedError):
        read_events(path)


@pytest.mark.parametrize("t", [[0.1, np.nan, 0.2], [np.nan], [0.1, np.inf], [-np.inf, 0.1]])
def test_write_events_rejects_non_finite_timestamps(tmp_path, t):
    ev = make_events(t, [0] * len(t), [0] * len(t), [1] * len(t))
    with pytest.raises(EventOrderError):
        write_events(tmp_path / "nan.evrx", ev, 4, 4)
    assert not (tmp_path / "nan.evrx").exists()


@pytest.mark.parametrize("polarity", [0, 2, -128])
def test_write_events_rejects_polarity_other_than_unit(tmp_path, polarity):
    ev = make_events([0.1, 0.2], [0, 1], [0, 1], [-1, polarity])
    with pytest.raises(ValueError, match="^polarity"):
        write_events(tmp_path / "p.evrx", ev, 4, 4)


def test_atomic_write_bytes_chunks_in_order(tmp_path):
    path = tmp_path / "chunks.bin"
    atomic_write_bytes(path, b"ab", np.arange(3, dtype="<u2"), b"")
    assert path.read_bytes() == b"ab\x00\x00\x01\x00\x02\x00"
    atomic_write_bytes(path, b"one")
    assert path.read_bytes() == b"one"


def test_atomic_write_text_utf8_roundtrip_and_overwrite(tmp_path):
    path = tmp_path / "note.txt"
    atomic_write_text(path, "café → 1\n")
    assert path.read_bytes() == "café → 1\n".encode("utf-8")
    atomic_write_text(path, "two")
    assert path.read_text(encoding="utf-8") == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["note.txt"]


def test_atomic_write_text_failed_replace_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "text")
    assert target.is_dir() and not any(target.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 200), width=st.integers(1, 40), height=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_events_roundtrip_property(n, width, height, seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    ev = _random_events(rng, n, width, height)
    path = tmp_path_factory.mktemp("ev") / "x.evrx"
    write_events(path, ev, width, height)
    back, w, h = read_events(path)
    assert (back == ev).all() and (w, h) == (width, height)


# -- config ------------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.scene.frame_rate == 20.0
    assert cfg.scene.contrast_threshold == 0.15
    assert cfg.flow.alpha == 0.5
    assert cfg.flow.charbonnier_eps == 0.001
    assert cfg.flow.pyramid_levels == 4


def test_config_parses_contrast_threshold():
    cfg = parse_config("contrast_threshold = 0.15\n")
    assert cfg.scene.contrast_threshold == 0.15


def test_config_range_error_names_key():
    with pytest.raises(ConfigError, match="contrast_threshold"):
        parse_config("contrast_threshold = -1\n")


@pytest.mark.parametrize("text, key, line", [
    ("wall_texture = 2.0\n", "wall_texture", 1),
    ("[flow]\ncharbonnier_eps = -1\n", "charbonnier_eps", 2),
    ("[flow]\n\ncharbonnier_alpha = 1.5\n", "charbonnier_alpha", 3),
    ("[trajectory]\nyaw_rate = 0\n", "yaw_rate", 2),
    ("[trajectory]\nspeed = 0\n", "speed", 2),
    ("[obstacle]\nalbedo = 1.5\n", "albedo", 2),
    ("room_half_extents = 3 3 -1\n", "room_half_extents", 1),
    ("room_half_extents = 3 3 0.5\n", "camera_height", None),
    ("duration = 0.01\n", "duration", 1),
    ("frame_rate = 10\nduration = 0.05\n", "duration", 2),
    ("light_dir = 0 0 0\n", "light_dir", 1),
    ("light_dir = nan 0 1\n", "light_dir", 1),
    ("[camera]\nfx = -1\n", "fx", 2),
    ("[camera]\n\nfy = 0\n", "fy", 3),
    ("[camera]\ncx = 500\n", "cx", 2),
    ("[camera]\ncy = -1\n", "cy", 2),
    ("[camera]\nwidth = 0\n", "width", 2),
    ("[camera]\nheight = -2\n", "height", 2),
    ("frame_rate = nan\n", "frame_rate", 1),
    ("duration = inf\n", "duration", 1),
    ("contrast_threshold = nan\n", "contrast_threshold", 1),
    ("contrast_threshold = inf\n", "contrast_threshold", 1),
    ("room_half_extents = 3 nan 1.5\n", "room_half_extents", 1),
    ("wall_texture = 0.5 nan\n", "wall_texture", 1),
    ("wall_texture = 0.6 0.5 0.9\n", "wall_texture", 1),
    ("floor_texture = 0 0.5 inf\n", "floor_texture", 1),
    ("[flow]\nalpha = nan\n", "alpha", 2),
    ("[flow]\nalpha = inf\n", "alpha", 2),
    ("[flow]\ncharbonnier_eps = nan\n", "charbonnier_eps", 2),
    ("[camera]\nfx = nan\n", "fx", 2),
    ("[camera]\nfy = inf\n", "fy", 2),
    ("[trajectory]\nspeed = nan\n", "speed", 2),
    ("[trajectory]\nyaw_rate = inf\n", "yaw_rate", 2),
    ("[trajectory]\nwaypoint = nan 0 0\nwaypoint = 1 0 0\n", "waypoint", 2),
    ("[obstacle]\nradius = nan\n", "radius", 2),
    ("[obstacle]\nstart = 0 nan 1\n", "start", 2),
    ("[obstacle]\nvelocity = inf 0 0\n", "velocity", 2),
    ("rng_seed = -3\nrandom_obstacles = 2\n", "rng_seed", 1),
    ("[camera]\nwidth = 70000\n", "width", 2),
])
def test_config_dataclass_range_errors_name_key_and_line(text, key, line):
    with pytest.raises(ConfigError, match=f"key '{key}'") as err:
        parse_config(text)
    assert err.value.line == line


_SPHERE = dict(radius=0.2, start=(0.0, 0.0, 1.0), velocity=(0.0, 0.0, 0.0))
_CAMERA = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
_FRAMES = ([0.0, 0.1], [np.ones((2, 2)), np.ones((2, 2))])

# Every setting that must be positive and finite: how to build it with a value,
# and (config text with {} for the value, config key) where a config sets it.
_POSITIVE_SETTINGS = {
    "fx": (lambda v: CameraModel(**{**_CAMERA, "fx": v}), ("[camera]\nfx = {}\n", "fx")),
    "fy": (lambda v: CameraModel(**{**_CAMERA, "fy": v}), ("[camera]\nfy = {}\n", "fy")),
    "period_m": (lambda v: TextureSpec(period_m=v), ("wall_texture = 0.5 {}\n", "wall_texture")),
    "radius": (lambda v: SphereObstacle(**{**_SPHERE, "radius": v}),
               ("[obstacle]\nradius = {}\n", "radius")),
    "speed": (lambda v: TrajectorySpec(speed=v), ("[trajectory]\nspeed = {}\n", "speed")),
    "yaw_rate_deg": (lambda v: TrajectorySpec(yaw_rate_deg=v),
                     ("[trajectory]\nyaw_rate = {}\n", "yaw_rate")),
    "half_extents": (lambda v: SceneConfig(half_extents=(3.0, 3.0, v)),
                     ("room_half_extents = 3 3 {}\n", "room_half_extents")),
    "frame_rate": (lambda v: SceneConfig(frame_rate=v), ("frame_rate = {}\n", "frame_rate")),
    "duration": (lambda v: SceneConfig(duration=v), ("duration = {}\n", "duration")),
    "contrast_threshold": (lambda v: SceneConfig(contrast_threshold=v),
                           ("contrast_threshold = {}\n", "contrast_threshold")),
    "charbonnier_eps": (lambda v: FlowSolverConfig(charbonnier_eps=v),
                        ("[flow]\ncharbonnier_eps = {}\n", "charbonnier_eps")),
    "eps": (lambda v: charbonnier(0.0, eps=v), None),
    "alpha": (lambda v: charbonnier(0.0, alpha=v), None),
    "contrast threshold": (lambda v: generate_events(*_FRAMES, v), None),
}


# "1" once passed the finite check as 1.0 and then failed on "1" > 0 with a
# TypeError that named no field, and True among numbers passed as 1; a config
# value is always a number
@pytest.mark.parametrize("field", list(_POSITIVE_SETTINGS))
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, "1", None, True],
                         ids=["0", "-1", "nan", "inf", "str", "None", "bool"])
def test_positive_settings_refuse_values_not_positive_and_finite(field, value):
    build, config = _POSITIVE_SETTINGS[field]
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        build(value)
    if config is not None and isinstance(value, float):
        text, key = config
        text = text.format(value)
        with pytest.raises(ConfigError, match=f"key '{key}'") as err:
            parse_config(text)
        assert err.value.line == text.count("\n")


# Every other range-checked setting, and the settings that are triples of
# numbers: how to build it with a value (a triple holds the value thrice).
_NUMBER_SETTINGS = {
    "alpha": lambda v: FlowSolverConfig(alpha=v),
    "charbonnier_alpha": lambda v: FlowSolverConfig(charbonnier_alpha=v),
    "amplitude": lambda v: TextureSpec(amplitude=v),
    "base": lambda v: TextureSpec(base=v),
    "albedo": lambda v: SphereObstacle(**{**_SPHERE, "albedo": v}),
    "camera_height": lambda v: SceneConfig(camera_height=v),
    "cx": lambda v: CameraModel(**{**_CAMERA, "cx": v}),
    "cy": lambda v: CameraModel(**{**_CAMERA, "cy": v}),
    "start": lambda v: SphereObstacle(**{**_SPHERE, "start": (v, v, v)}),
    "light_dir": lambda v: SceneConfig(light_dir=(v, v, v)),
    "v": lambda v: EgoMotion((v, v, v)),
    "start, one of three": lambda v: SphereObstacle(**{**_SPHERE, "start": (0.0, v, 1.0)}),
    "v, one of three": lambda v: EgoMotion((v, 0.0, 0.0)),
}


# "1" once failed a range comparison with a TypeError that named no field, or
# was stored as a string in a triple; True passed as 1, alone and among numbers
@pytest.mark.parametrize("field", list(_NUMBER_SETTINGS))
@pytest.mark.parametrize("value", ["1", True, None], ids=["str", "bool", "None"])
def test_number_settings_refuse_values_that_are_not_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field.split(',')[0]} must hold finite numbers"):
        _NUMBER_SETTINGS[field](value)


@pytest.mark.parametrize("text, key, line", [
    ("contrast_threshold = 0.1\ncontrast_threshold = 0.2\n", "contrast_threshold", 2),
    ("frame_rate = 10\n[scene]\nframe_rate = 20\n", "frame_rate", 3),
    ("[flow]\nalpha = 1\n[flow]\n\nalpha = 2\n", "alpha", 5),
    ("[camera]\nwidth = 10\nwidth = 10\n", "width", 3),
    ("[obstacle]\nradius = 0.3\n[obstacle]\nradius = 0.3\nradius = 0.4\n", "radius", 5),
])
def test_config_key_given_twice_in_a_section_is_refused(text, key, line):
    with pytest.raises(ConfigError, match=f"key '{key}' already given") as err:
        parse_config(text)
    assert err.value.line == line


def test_config_waypoints_and_obstacles_repeat():
    cfg = parse_config("[trajectory]\nwaypoint = 0 0 0\nwaypoint = 1 0 90\n"
                       "[obstacle]\nradius = 0.3\n[obstacle]\nradius = 0.4\n")
    assert cfg.scene.trajectory.waypoints == ((0.0, 0.0, 0.0), (1.0, 0.0, 90.0))
    assert [s.radius for s in cfg.scene.obstacles] == [0.3, 0.4]


def test_config_shortest_duration_is_one_frame_interval():
    scene = parse_config("frame_rate = 20\nduration = 0.05\n").scene
    assert scene.frame_times()[-1] <= scene.duration


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frame_rat"):
        parse_config("frame_rat = 10\n")


def test_config_refuses_the_retired_step_size_key():
    # the fixed-point solve has no step size
    with pytest.raises(ConfigError, match="unknown key 'step_size' in section '\\[flow\\]'") as err:
        parse_config("frame_rate = 10\n[flow]\nalpha = 0.5\nstep_size = 0.5\n")
    assert err.value.line == 4


@pytest.mark.parametrize("text, key", [
    ("[flow]\niters_per_level = 0\n", "iters_per_level"),
    ("[flow]\nconvergence_tol = nan\n", "convergence_tol"),
], ids=["iters_per_level", "convergence_tol"])
def test_config_refuses_the_retired_solver_keys(text, key):
    # the fixed-point solve has no iteration cap or tolerance; its counts are constants
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in section '\\[flow\\]'") as err:
        parse_config(text)
    assert err.value.line == 2


def test_config_unknown_section_rejected():
    with pytest.raises(ConfigError, match="lighting"):
        parse_config("[lighting]\nx = 1\n")


def test_config_parse_error_carries_line_number():
    try:
        parse_config("frame_rate = 10\nnot a kv line\n")
    except ConfigError as err:
        assert err.line == 2
    else:
        raise AssertionError("expected ConfigError")


def test_config_full_roundtrip_through_dump(tmp_path):
    text = """
# demo scene
room_half_extents = 2.0 3.0 1.5
frame_rate = 10
duration = 0.5
contrast_threshold = 0.2

[camera]
fx = 80
fy = 80
width = 32
height = 32

[trajectory]
speed = 0.7
waypoint = -1.0 0.0 0.0
waypoint = 1.0 0.0 0.0

[obstacle]
radius = 0.25
start = 0.5 0.5 1.0
velocity = -0.5 0.0 0.0

[flow]
alpha = 0.25
pyramid_levels = 3
"""
    cfg = parse_config(text)
    assert cfg.scene.camera.width == 32
    assert len(cfg.scene.obstacles) == 1
    assert cfg.flow.pyramid_levels == 3
    dumped = dump_config(cfg)
    again = parse_config(dumped)
    assert dump_config(again) == dumped
    path = tmp_path / "cfg.txt"
    path.write_text(dumped)
    assert dump_config(read_config(path)) == dumped


def _every_key_off_default() -> RunConfig:
    """A RunConfig in which every config key holds a non-default value."""
    spheres = (
        SphereObstacle(radius=0.3, start=(0.5, 0.5, 1.0), velocity=(-0.5, 0.0, 0.1),
                       class_id=3, albedo=0.7),
        SphereObstacle(radius=0.15, start=(-1.0, 0.25, 0.5), velocity=(0.0, 1.5, 0.0),
                       class_id=0, albedo=0.1),
    )
    scene = SceneConfig(
        half_extents=(2.5, 3.5, 1.25),
        wall_texture=TextureSpec(0.3, 0.7, 0.4),
        floor_texture=TextureSpec(0.1, 0.2, 0.6),
        ceiling_texture=TextureSpec(0.9, 0.3, 0.45),
        obstacles=spheres,
        trajectory=TrajectorySpec(waypoints=((-1.5, 0.5, 10.0), (1.0, -0.5, 20.0)),
                                  speed=0.75, yaw_rate_deg=30.0),
        camera=CameraModel(fx=80.0, fy=90.5, cx=10.25, cy=12.0, width=40, height=30),
        camera_height=1.1,
        frame_rate=25.0,
        duration=0.8,
        contrast_threshold=0.2,
        light_dir=(0.1, -0.2, 0.9),
        rng_seed=7,
        random_obstacles=3,
    )
    flow = FlowSolverConfig(alpha=0.25, charbonnier_eps=0.01, charbonnier_alpha=0.4,
                            pyramid_levels=3)
    return RunConfig(scene=scene, flow=flow)


def _sections(cfg: RunConfig) -> list:
    scene = cfg.scene
    return ([("scene", scene), ("camera", scene.camera), ("trajectory", scene.trajectory)]
            + [("obstacle", s) for s in scene.obstacles] + [("flow", cfg.flow)])


def test_config_every_key_roundtrips_through_dump():
    cfg = _every_key_off_default()
    renamed = {"half_extents": "room_half_extents", "yaw_rate_deg": "yaw_rate",
               "waypoints": "waypoint"}
    nested = {"obstacles", "trajectory", "camera"}
    defaults = parse_config("[obstacle]\n[obstacle]\n")
    expected = {}
    for (section, obj), (_, default) in zip(_sections(cfg), _sections(defaults)):
        names = [f.name for f in dataclasses.fields(obj) if f.name not in nested]
        for name in names:
            assert getattr(obj, name) != getattr(default, name), (section, name)
        expected[section] = {renamed.get(name, name) for name in names}

    dumped = dump_config(cfg)
    assert parse_config(dumped) == cfg
    written = {}
    for line in dumped.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            written.setdefault(section, set()).add(line.split(" = ")[0])
    accepted = {section: set(keys) for section, keys in io_formats._KEYS.items()}
    assert written == accepted == expected


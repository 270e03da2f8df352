import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evreflex.flow import FlowSolverConfig, estimate_flow, total_loss, warp
from evreflex.metrics import flow_aee, prf1
from evreflex.policy import obstacle_motion_vector
from evreflex.sim import generate_events
from evreflex.tti import (
    TtiMap,
    estimate_tti_dynamic,
    estimate_tti_static,
    ground_truth_inverse_tti,
    tti_mse,
)
from evreflex.types import (
    EventOrderError,
    EventMap,
    EventWindowError,
    FloatMap,
    FlowField,
    ShapeMismatchError,
    accumulate_events,
    as_event_array,
    event_mask,
    make_events,
    CameraModel,
    MapSemantics,
)


def test_accumulate_two_positive_events_counts_and_time():
    em = accumulate_events(make_events([0.1, 0.3], [3, 3], [4, 4], [1, 1]), (0.0, 0.4), 8, 8)
    assert em.pos_count[4, 3] == 2
    assert em.neg_count[4, 3] == 0
    assert em.pos_time[4, 3] == pytest.approx(0.75)
    assert em.pos_count.sum() == 2


def test_accumulate_empty_stream_is_all_zero():
    em = accumulate_events(make_events([], [], [], []), (0.0, 1.0), 4, 4)
    for channel in (em.pos_count, em.neg_count, em.pos_time, em.neg_time):
        assert not channel.any()


def test_accumulate_conserves_event_count():
    rng = np.random.default_rng(42)
    n = 1000
    t = np.sort(rng.uniform(0.0, 0.99, n))
    ev = make_events(t, rng.integers(0, 16, n), rng.integers(0, 12, n),
                     rng.choice([-1, 1], n))
    em = accumulate_events(ev, (0.0, 1.0), 16, 12)
    assert em.total_events == n
    # independent counting oracle over the input list
    pos = int((ev["polarity"] > 0).sum())
    assert int(em.pos_count.sum()) == pos
    assert int(em.neg_count.sum()) == n - pos


def test_accumulate_rejects_unsorted():
    ev = make_events([0.5, 0.2], [0, 0], [0, 0], [1, 1])
    with pytest.raises(EventOrderError):
        accumulate_events(ev, (0.0, 1.0), 4, 4)


def test_accumulate_rejects_event_outside_window():
    with pytest.raises(EventWindowError):
        accumulate_events(make_events([1.5], [0], [0], [1]), (0.0, 1.0), 4, 4)
    with pytest.raises(EventWindowError):
        accumulate_events(make_events([1.0], [0], [0], [1]), (0.0, 1.0), 4, 4)  # t1 exclusive


def test_accumulate_rejects_empty_window():
    with pytest.raises(EventWindowError):
        accumulate_events(make_events([], [], [], []), (0.5, 0.5), 4, 4)


@pytest.mark.parametrize("width, height, name", [(0, 4, "width"), (4, 0, "height"),
                                                 (-1, 4, "width"), (4, -2, "height")])
def test_accumulate_refuses_a_side_below_one(width, height, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        accumulate_events(make_events([], [], [], []), (0.0, 1.0), width, height)


def test_accumulate_order_independent_for_distinct_pixels():
    a = make_events([0.1, 0.2, 0.3], [0, 1, 2], [0, 1, 2], [1, -1, 1])
    em1 = accumulate_events(a, (0.0, 1.0), 4, 4)
    # same multiset accumulates identically regardless of which pixel fired when
    b = make_events([0.1, 0.2, 0.3], [2, 1, 0], [2, 1, 0], [1, -1, 1])
    em2 = accumulate_events(b, (0.0, 1.0), 4, 4)
    assert em1.total_events == em2.total_events
    assert (event_mask(em1) == event_mask(em2)).all()


def test_times_normalized_and_sentinel_invariant():
    rng = np.random.default_rng(1)
    n = 500
    t = np.sort(rng.uniform(0.01, 1.99, n))
    ev = make_events(t, rng.integers(0, 8, n), rng.integers(0, 8, n), rng.choice([-1, 1], n))
    em = accumulate_events(ev, (0.0, 2.0), 8, 8)
    assert float(em.pos_time.max()) <= 1.0 and float(em.neg_time.max()) <= 1.0
    # time > 0 implies count > 0
    assert not ((em.pos_time > 0) & (em.pos_count == 0)).any()
    assert not ((em.neg_time > 0) & (em.neg_count == 0)).any()


def test_event_mask_popcount_matches_recount():
    rng = np.random.default_rng(3)
    n = 300
    t = np.sort(rng.uniform(0, 0.9, n))
    xs = rng.integers(0, 10, n)
    ys = rng.integers(0, 10, n)
    ev = make_events(t, xs, ys, rng.choice([-1, 1], n))
    em = accumulate_events(ev, (0.0, 1.0), 10, 10)
    mask = event_mask(em)
    # per-pixel re-count oracle
    touched = set(zip(xs.tolist(), ys.tolist()))
    assert int(mask.sum()) == len(touched)
    assert mask[0, 0] == ((0, 0) in touched)


def test_event_mask_single_event():
    em = accumulate_events(make_events([0.0], [0], [0], [1]), (0.0, 1.0), 4, 4)
    mask = event_mask(em)
    assert mask[0, 0] and mask.sum() == 1


def test_float_map_semantics_validation():
    with pytest.raises(ValueError):
        FloatMap(np.full((2, 2), -1.0), MapSemantics.DEPTH_M)
    with pytest.raises(ValueError):
        FloatMap(np.full((2, 2), np.nan), MapSemantics.INTENSITY)
    with pytest.raises(ValueError, match="^CLASS_ID map must hold integers"):
        FloatMap([[0, 0], [2.5, 2.5]], MapSemantics.CLASS_ID)
    fm = FloatMap(np.zeros((3, 2)), MapSemantics.INV_TTI_S)
    assert fm.values.shape == (3, 2)
    assert not fm.values.flags.writeable


_CHANNELS = ("pos_count", "neg_count", "pos_time", "neg_time")


def _event_map(**channels):
    """An EventMap over (0, 1) from accumulate_events' 2x3 channels, the named ones replaced."""
    em = accumulate_events(make_events([0.25], [1], [0], [1]), (0.0, 1.0), 3, 2)
    return EventMap(0.0, 1.0, **{name: channels.get(name, getattr(em, name)) for name in _CHANNELS})


@pytest.mark.parametrize("build, dtype, refusal", [
    (lambda a: FlowField(a, np.zeros((2, 3))).u, np.float64, None),
    (lambda a: FlowField(np.zeros((2, 3)), a).v, np.int64, None),
    (lambda a: FloatMap(a, MapSemantics.DEPTH_M).values, np.float64, None),
    (lambda a: FloatMap(a, MapSemantics.CLASS_ID).values, np.int64, None),
    (lambda a: _event_map(pos_count=a), np.uint32, (ValueError, "^pos_count must be read-only")),
    (lambda a: _event_map(neg_time=a), np.float64, (TypeError, "^neg_time must be a float32")),
], ids=["FlowField.u-float64", "FlowField.v-int64", "FloatMap-float64", "FloatMap-int64",
        "EventMap-writable", "EventMap-float64"])
def test_container_stores_its_payload_read_only_in_the_contract_dtype(build, dtype, refusal):
    raw = np.arange(6, dtype=dtype).reshape(2, 3)  # writable
    if refusal:
        with pytest.raises(refusal[0], match=refusal[1]):
            build(raw)
        return
    stored = build(raw)
    assert stored.dtype == np.float32 and not stored.flags.writeable
    raw[0, 0] = 7
    assert np.array_equal(stored, np.arange(6).reshape(2, 3))


@pytest.mark.parametrize("t_start, t_end", [(np.nan, 1.0), (0.0, np.inf), (1.0, 1.0)])
def test_event_map_refuses_a_window_that_is_empty_or_not_finite(t_start, t_end):
    # accumulate_events' rule; EventMap once took a NaN start and an infinite end
    em = accumulate_events(make_events([0.25], [1], [0], [1]), (0.0, 1.0), 3, 2)
    with pytest.raises(EventWindowError):
        EventMap(t_start, t_end, **{name: getattr(em, name) for name in _CHANNELS})


def test_event_map_refuses_channels_of_different_shapes():
    tall = accumulate_events(make_events([], [], [], []), (0.0, 1.0), 2, 3)
    with pytest.raises(ShapeMismatchError, match="^neg_count has shape"):
        _event_map(neg_count=tall.neg_count)


def test_flow_field_validation():
    with pytest.raises(ShapeMismatchError):
        FlowField(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        FlowField(np.full((2, 2), np.inf), np.zeros((2, 2)))


def test_camera_model_validation():
    with pytest.raises(ValueError):
        CameraModel(fx=-1, fy=1, cx=0, cy=0, width=4, height=4)
    with pytest.raises(ValueError):
        CameraModel(fx=1, fy=1, cx=9, cy=0, width=4, height=4)


@pytest.mark.parametrize("field, kwargs", [
    ("fx", dict(fx=0)),
    ("fy", dict(fy=-2)),
    ("cx", dict(cx=4)),
    ("cy", dict(cy=-0.5)),
    ("width", dict(width=0, cx=0)),
    ("height", dict(height=0, cy=0)),
    # a width of 64.5 once rendered a 65-column raster
    ("width", dict(width=64.5)),
    ("width", dict(width=4.0)),
    ("width", dict(width=True, cx=0)),
    ("height", dict(height="4")),
    # EVENT_DTYPE's uint16 coordinates address at most 65536 columns and rows;
    # a wider camera once parsed and rendered every frame before events refused it
    ("width", dict(width=70000)),
    ("height", dict(height=65537)),
])
def test_camera_model_message_starts_with_field(field, kwargs):
    args = dict(fx=1, fy=1, cx=0, cy=0, width=4, height=4)
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"^{field} "):
        CameraModel(**args)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.999), st.integers(0, 7),
                          st.integers(0, 7), st.sampled_from([-1, 1])),
                max_size=64))
def test_accumulation_depends_only_on_multiset(raw):
    raw = sorted(raw, key=lambda r: r[0])
    ev = make_events(*np.array(raw, dtype=np.float64).reshape(-1, 4).T)
    em = accumulate_events(ev, (0.0, 1.0), 8, 8)
    assert em.total_events == len(ev)
    assert (em.pos_time <= 1.0).all()


def _accumulate_loop(events, t0, t1, width, height):
    """Per-event oracle: counts add up, and the last event of each pixel and
    polarity in stream order sets its latest time."""
    counts = np.zeros((2, height, width), dtype=np.uint32)
    latest = np.zeros((2, height, width), dtype=np.float32)
    for ev in events:
        c = 0 if ev["polarity"] > 0 else 1
        counts[c, ev["y"], ev["x"]] += 1
        latest[c, ev["y"], ev["x"]] = np.float32((float(ev["t"]) - t0) / (t1 - t0))
    return counts, latest


@st.composite
def _windowed_streams(draw):
    width, height = draw(st.one_of(
        st.sampled_from([(1, 1), (1, 9), (9, 1)]),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
    ))
    t0 = draw(st.floats(-5.0, 5.0))
    span = draw(st.floats(0.01, 10.0))
    # stamps on a coarse grid inside [t0, t0 + span): equal stamps are common
    ticks = draw(st.lists(st.integers(0, 15), max_size=60))
    n = len(ticks)
    xs = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, height - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    t = t0 + np.sort(np.asarray(ticks, dtype=np.float64)) * (span / 16.0)
    return make_events(t, xs, ys, ps), (t0, t0 + span), width, height


@settings(max_examples=200, deadline=None)
@given(_windowed_streams())
def test_accumulate_matches_per_event_loop(case):
    ev, (t0, t1), width, height = case
    em = accumulate_events(ev, (t0, t1), width, height)
    counts, latest = _accumulate_loop(ev, t0, t1, width, height)
    for got, want in ((em.pos_count, counts[0]), (em.neg_count, counts[1]),
                      (em.pos_time, latest[0]), (em.neg_time, latest[1])):
        assert got.dtype == want.dtype and got.shape == (height, width)
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    mask = event_mask(em)
    assert mask.dtype == bool
    assert np.array_equal(mask, (em.pos_count > 0) | (em.neg_count > 0))


@pytest.mark.parametrize("t", [
    [0.1, np.nan, 0.2],
    [np.nan, 0.1],
    [0.1, np.nan],
    [np.nan],
    [0.1, np.inf],
    [-np.inf, 0.1],
    [np.inf],
])
def test_accumulate_rejects_non_finite_timestamps(t):
    ev = make_events(t, [0] * len(t), [0] * len(t), [1] * len(t))
    with pytest.raises(EventOrderError):
        accumulate_events(ev, (0.0, 1.0), 4, 4)


@pytest.mark.parametrize("window", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf),
                                    (-np.inf, 1.0)])
def test_accumulate_rejects_non_finite_window(window):
    with pytest.raises(EventWindowError):
        accumulate_events(make_events([], [], [], []), window, 4, 4)


@pytest.mark.parametrize("polarity", [0, 2, -2, 127, -128])
def test_accumulate_rejects_polarity_other_than_unit(polarity):
    ev = make_events([0.1, 0.2], [0, 1], [0, 1], [1, polarity])
    with pytest.raises(ValueError, match="^polarity"):
        accumulate_events(ev, (0.0, 1.0), 4, 4)


# -- as_event_array: an event array, or another layout rebuilt by make_events ----------

# The four fields in another order, width and byte order than EVENT_DTYPE.
_FOREIGN = np.dtype([("polarity", "<i2"), ("y", ">u4"), ("t", "<f4"), ("x", "<i4")])
# EVENT_DTYPE's fields without its pad bytes: what np.concatenate of two
# event arrays returns on numpy 2.x.
_PACKED = np.dtype({"names": ["t", "x", "y", "polarity"], "formats": ["<f8", "<u2", "<u2", "i1"],
                    "offsets": [0, 8, 10, 12], "itemsize": 13})


def _records(dtype, t, x, y, polarity):
    out = np.zeros(len(t), dtype=dtype)
    for name, values in (("t", t), ("x", x), ("y", y), ("polarity", polarity)):
        out[name] = values
    return out


def test_as_event_array_returns_an_event_array_itself():
    ev = make_events([0.1, 0.2], [1, 3], [2, 4], [1, -1])
    assert as_event_array(ev) is ev


@pytest.mark.parametrize("dtype", [_FOREIGN, _PACKED], ids=["foreign", "packed"])
def test_as_event_array_rebuilds_another_layout_like_make_events(dtype):
    rng = np.random.default_rng(7)
    n = 50
    t = np.sort(rng.uniform(-1, 1, n)).astype(np.float32)
    xs, ys = rng.integers(0, 400, n), rng.integers(0, 300, n)
    ps = rng.choice([-1, 1], n)
    got = as_event_array(_records(dtype, t, xs, ys, ps))
    want = make_events(t, xs, ys, ps)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert as_event_array(_records(dtype, [], [], [], [])).dtype == want.dtype


@pytest.mark.parametrize("x, y, polarity, field", [
    (70000, 0, 1, "x"),
    (-1, 0, 1, "x"),
    (0, 65536, 1, "y"),
    (0, 0, 300, "polarity"),
])
def test_as_event_array_refuses_another_layout_out_of_range(x, y, polarity, field):
    # int32 x = 70000 used to wrap to 4464 in the uint16 field
    records = _records(_FOREIGN, [0.1, 0.2], [0, x], [0, y], [1, polarity])
    with pytest.raises(OverflowError, match=f"^{field} "):
        as_event_array(records)
    with pytest.raises(OverflowError, match=f"^{field} "):
        accumulate_events(records, (0.0, 1.0), 4, 4)


def test_as_event_array_refuses_a_fractional_coordinate_in_another_layout():
    records = _records([("t", "<f8"), ("x", "<f4"), ("y", "<u2"), ("polarity", "i1")],
                       [0.1], [1.5], [0], [1])
    with pytest.raises(ValueError, match="^x "):
        as_event_array(records)


@pytest.mark.parametrize("events", [
    [(0.1, 1, 2, 1), (0.2, 3, 4, -1)],
    ((0.1, 1, 2, 1),),
    [],
    (e for e in [(0.1, 1, 2, 1)]),
    np.array([[0.1, 1, 2, 1]]),
    np.zeros(2, dtype=[("t", "<f8"), ("x", "<u2"), ("y", "<u2")]),
    None,
], ids=["list", "tuple", "empty list", "generator", "plain array", "missing field", "None"])
def test_as_event_array_refuses_every_other_form(events):
    with pytest.raises(TypeError, match="EVENT_DTYPE"):
        as_event_array(events)


def test_accumulate_events_refuses_a_list():
    with pytest.raises(TypeError, match="EVENT_DTYPE"):
        accumulate_events([], (0.0, 1.0), 4, 4)


# -- make_events refuses values it cannot store ----------------------------------------


@pytest.mark.parametrize("x, y, polarity, field", [
    (np.array([-1]), np.array([0]), np.array([1]), "x"),
    (np.array([0]), np.array([70000]), np.array([1]), "y"),
    (np.array([0]), np.array([0]), np.array([300]), "polarity"),
    (np.array([0.0]), np.array([np.inf]), np.array([1]), "y"),
    ([0], [65536], [1], "y"),
    ([0], [0], [-129], "polarity"),
])
def test_make_events_refuses_out_of_range_components(x, y, polarity, field):
    with pytest.raises(OverflowError, match=f"^{field} "):
        make_events([0.1], x, y, polarity)


@pytest.mark.parametrize("x, y, polarity, field", [
    ([1.5], [0], [1], "x"),
    (np.array([0]), np.array([2.25]), np.array([1]), "y"),
    ([0], [0], [np.nan], "polarity"),
    (["3"], [0], [1], "x"),
])
def test_make_events_refuses_non_integer_components(x, y, polarity, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        make_events([0.1], x, y, polarity)


def test_make_events_keeps_integral_floats_and_range_ends():
    ev = make_events([0.1, 0.2], np.array([0.0, 65535.0]), [65535, 0], np.array([-128, 127]))
    assert ev["x"].tolist() == [0, 65535]
    assert ev["y"].tolist() == [65535, 0]
    assert ev["polarity"].tolist() == [-128, 127]


@pytest.mark.parametrize("t, x, y, polarity, field", [
    ([0.1, 0.2], [3], [0, 1], [1, 1], "x"),
    ([0.1, 0.2], 3, [0, 1], [1, 1], "x"),
    ([0.1, 0.2], [0, 1], [0, 1, 2], [1, 1], "y"),
    ([0.1, 0.2], [0, 1], [0, 1], [[1], [1]], "polarity"),
    ([0.1, 0.2], [0, 1], [0, 1], [], "polarity"),
    (0.1, [0], [0], [1], "t"),
    ([[0.1], [0.2]], [0, 1], [0, 1], [1, 1], "t"),
], ids=["x of one", "x scalar", "y longer", "polarity 2-D", "polarity empty", "t scalar",
        "t 2-D"])
def test_make_events_refuses_components_not_1d_or_not_as_long_as_t(t, x, y, polarity, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        make_events(t, x, y, polarity)


# -- the shape rule: one raster of the wrong shape at each raster boundary -----

RIGHT, WRONG = (4, 5), (4, 6)


def _depth(shape):
    return FloatMap(np.ones(shape), MapSemantics.DEPTH_M)


def _flow(shape):
    return FlowField(np.zeros(shape), np.zeros(shape))


def _mask(shape):
    return np.ones(shape, dtype=bool)


def _tti_map(shape):
    return TtiMap(np.zeros(shape), dt=0.1, valid=_mask(shape))


def _one_event_map(shape):
    return accumulate_events(make_events([0.5], [0], [0], [1]), (0.0, 1.0), shape[1], shape[0])


_SHAPE_BOUNDARIES = {
    "FlowField": ("v", lambda: FlowField(np.zeros(RIGHT), np.zeros(WRONG))),
    "warp": ("src", lambda: warp(np.zeros(WRONG), _flow(RIGHT))),
    "total_loss images": (
        "img_t1", lambda: total_loss(_flow(RIGHT), np.zeros(RIGHT), np.zeros(WRONG),
                                     FlowSolverConfig())),
    "total_loss weight_mask": (
        "weight_mask", lambda: total_loss(_flow(RIGHT), np.zeros(RIGHT), np.zeros(RIGHT),
                                          FlowSolverConfig(), np.ones(WRONG))),
    "estimate_flow images": (
        "img_t1", lambda: estimate_flow(None, np.zeros(RIGHT), np.zeros(WRONG))),
    "estimate_flow em": (
        "em", lambda: estimate_flow(_one_event_map(WRONG), np.zeros(RIGHT), np.zeros(RIGHT))),
    "TtiMap": ("valid", lambda: TtiMap(np.zeros(RIGHT), dt=0.1, valid=_mask(WRONG))),
    "ground_truth_inverse_tti": (
        "d_prev", lambda: ground_truth_inverse_tti(_depth(WRONG), _depth(RIGHT), _flow(RIGHT),
                                                   0.1)),
    "estimate_tti_dynamic": (
        "d_next", lambda: estimate_tti_dynamic(_flow(RIGHT), _depth(RIGHT), _depth(WRONG), 0.1)),
    "estimate_tti_static": (
        "d_curr", lambda: estimate_tti_static(_flow(RIGHT), _depth(WRONG), 0.1)),
    "tti_mse": ("gt", lambda: tti_mse(_tti_map(RIGHT), _tti_map(WRONG))),
    "flow_aee fields": ("gt", lambda: flow_aee(_flow(RIGHT), _flow(WRONG))),
    "flow_aee mask": ("mask", lambda: flow_aee(_flow(RIGHT), _flow(RIGHT), _mask(WRONG))),
    "prf1": ("class_map", lambda: prf1(_mask(RIGHT), _mask(RIGHT),
                                       FloatMap(np.zeros(WRONG), MapSemantics.CLASS_ID))),
    "obstacle_motion_vector": (
        "danger_mask", lambda: obstacle_motion_vector(
            _flow(RIGHT), _depth(RIGHT), _tti_map(RIGHT), _mask(WRONG),
            CameraModel(fx=10.0, fy=10.0, cx=2.0, cy=2.0, width=RIGHT[1], height=RIGHT[0]))),
    "generate_events": (
        "frame 1", lambda: generate_events([0.0, 0.05], [np.ones(RIGHT), np.ones(WRONG)], 0.1)),
}


@pytest.mark.parametrize("boundary", _SHAPE_BOUNDARIES)
def test_a_raster_of_the_wrong_shape_is_refused_by_name(boundary):
    # the refusal names the offending argument with its shape, and the shape
    # it had to match
    name, call = _SHAPE_BOUNDARIES[boundary]
    with pytest.raises(ShapeMismatchError) as refusal:
        call()
    message = str(refusal.value)
    assert f"{name} {WRONG}" in message and str(RIGHT) in message


def test_a_raster_that_is_not_2d_is_refused_by_name():
    with pytest.raises(ShapeMismatchError, match=r"^img_t must be a 2-D raster, got shape \(20,\)"):
        estimate_flow(None, np.zeros(20), np.zeros(RIGHT))


_MAPS = {
    "FloatMap": lambda values: FloatMap(values, MapSemantics.INV_TTI_S),
    "TtiMap": lambda values: TtiMap(values, 0.1, np.ones(np.shape(values), dtype=bool)),
}


@pytest.mark.parametrize("kind", _MAPS)
def test_a_map_refuses_its_values_by_name(kind):
    build = _MAPS[kind]
    refusal = r"^values must be a 2-D raster, got shape \(20,\)$"
    with pytest.raises(ShapeMismatchError, match=refusal):
        build(np.zeros(20))
    with pytest.raises(ValueError, match="^values holds non-finite values"):
        build(np.full(RIGHT, np.nan))

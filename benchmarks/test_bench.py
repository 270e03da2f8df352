"""Tests of the benchmark harness itself (run: python3 -m pytest benchmarks).

They use the --smoke mode, which runs every workload on tiny inputs, to check
the harness, the metric names against BENCHMARK.json, the span self-time
calculation and that the output checks catch broken outputs.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types as pytypes
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHAIN = ("flow.estimate_flow.ms", "types.accumulate_events.ms", "tti.estimate_tti_dynamic.ms",
         "tti.threshold_collision.ms", "policy.obstacle_motion_vector.ms",
         "policy.evasion_direction.ms")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def fake_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0))
    with tracer.span("root"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 3
            with tracer.span("a.inner"):  # 2 .. 2.5
                pass
        with tracer.span("b"):  # 4 .. 6
            pass
    assert [s.name for s in tracer.spans] == ["root", "a", "a.inner", "b"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert {s.root for s in tracer.spans} == {0}
    assert self_times(tracer.spans) == [6.0, 1.5, 0.5, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("x", 1.0, 5.0, 0, 0),
             Span("y", 3.0, 7.0, 0, 0), Span("z", 9.0, 12.0, 0, 0)]
    # children cover [1, 7] and [9, 10] of the root's [0, 10]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_summarize_reports_median_self_time():
    spans = [Span("op", 0.0, 4.0, -1, 0), Span("f", 0.0, 1.0, 0, 0),
             Span("op", 4.0, 10.0, -1, 2), Span("f", 4.0, 7.0, 2, 2), Span("f", 7.0, 8.0, 2, 2)]
    stats = summarize(spans)
    assert stats["f"].calls == 3
    assert stats["f"].self_median_ms == pytest.approx(1000.0)
    assert stats["op"].self_total_s == pytest.approx(3.0 + 2.0)


def test_instrument_records_nested_calls_and_restores():
    mod = pytypes.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2  # reaches inner through the namespace
    original = (mod.inner, mod.outer)
    tracer = Tracer()
    with tracer.instrument([(mod, "outer", "m.outer"), (mod, "inner", "m.inner")]):
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == original
    assert [(s.name, s.parent) for s in tracer.spans] == [("m.outer", -1), ("m.inner", 0)]


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced_prints_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_prints_every_per_layer_metric(workload):
    result = smoke(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: v["value"] for name, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["trace.coverage_pct"] > 50
    flow_names = [n for n in values if n.startswith("flow.")]
    if workload == "approach":
        assert values["flow.estimate_flow.ms"] == max(values[n] for n in CHAIN)
    else:
        assert all(values[n] == 0 for n in flow_names)
    if workload == "ingest":
        assert values["io_formats.read_events.ms"] > 0 and values["types.event_mask.ms"] > 0
    if workload == "render":
        assert values["sim.render_frame.ms"] > 0 and values["sim.simulate_sequence.workers_speedup"] > 0
        assert values["sim.events_unwindowed"] >= 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "render", "--seed", "0", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ---------------------------------------------------------------------------
# inputs and output checks
# ---------------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    size = workloads.SMOKE
    assert workloads.busy_scene(5, size) == workloads.busy_scene(5, size)
    assert workloads.busy_scene(5, size) != workloads.busy_scene(6, size)
    a = workloads.make_recording(5, size).events
    b = workloads.make_recording(5, size).events
    assert a.tobytes() == b.tobytes()


def test_window_reference_matches_accumulate_on_repeated_pixels():
    from evreflex.types import accumulate_events, event_mask, make_events

    events = make_events([0.1, 0.2, 0.2, 0.3, 0.7, 0.9], [1, 1, 2, 1, 2, 0],
                         [0, 0, 1, 0, 1, 1], [1, 1, -1, -1, -1, 1])
    em = accumulate_events(events, (0.0, 1.0), 3, 2)
    ref = workloads.window_reference(events, 0.0, 1.0, 3, 2)
    assert workloads.check_window(em, event_mask(em), ref) == []
    assert ref.pos_time[0, 1] == np.float32(0.2) and ref.neg_time[1, 2] == np.float32(0.7)


def test_checks_catch_broken_outputs():
    size = workloads.SMOKE
    seq = workloads.sim.simulate_sequence(workloads.approach_scene(size))
    ego = workloads.policy.EgoMotion((0.0, 0.0, workloads.CAMERA_SPEED))
    out = workloads.approach_pair(seq, 1, ego)
    assert workloads.check_pair(out) == []
    bad_psi = dataclasses.replace(out.evasion, psi=(0.5, 0.0, 0.0))
    assert workloads.check_pair(dataclasses.replace(out, evasion=bad_psi))

    scene, ref = workloads.render_inputs(0, size)
    rendered = workloads.render_pass(scene)
    assert workloads.check_sequence(rendered, ref) == (0, [])
    frames = list(rendered.frames)
    frames[2] = dataclasses.replace(frames[2], intensity=frames[1].intensity)
    failed, problems = workloads.check_sequence(dataclasses.replace(rendered, frames=tuple(frames)), ref)
    assert failed == 1 and "frame 2 differs" in problems[0]
    windows = list(rendered.event_windows)
    windows[1] = windows[1][1:]
    failed, problems = workloads.check_sequence(
        dataclasses.replace(rendered, event_windows=tuple(windows)))
    assert failed == len(rendered.frames) and "consecutive" in problems[0]

    # An event at exactly the last frame time belongs to the last window.
    t_last = rendered.frames[-1].t
    events = workloads.types.make_events([t_last - 0.01, t_last], [0, 1], [0, 0], [1, -1])
    windows = (events[:0],) * (len(rendered.frames) - 2) + (events,)
    at_end = dataclasses.replace(rendered, events=events, event_windows=windows)
    assert workloads.check_sequence(at_end) == (0, [])
    failed, problems = workloads.check_sequence(
        dataclasses.replace(at_end, event_windows=windows[:-1] + (events[:1],)))
    assert failed == len(rendered.frames) and "consecutive" in problems[0]

    rec = workloads.make_recording(0, size)
    flipped = rec.events.copy()
    flipped["polarity"][0] *= -1
    assert workloads.check_roundtrip(rec, rec.events.copy(), (rec.width, rec.height)) == []
    assert workloads.check_roundtrip(rec, flipped, (rec.width, rec.height))
    t0, t1 = rec.edges[0], rec.edges[1]
    window = rec.events[rec.events["t"] < t1]
    em = workloads.types.accumulate_events(window, (t0, t1), rec.width, rec.height)
    ref = workloads.window_reference(window, t0, t1, rec.width, rec.height)
    ref.pos_time = ref.pos_time.copy()
    ref.pos_time[ref.hit & (ref.pos_time > 0)] *= 0.5
    assert workloads.check_window(em, workloads.types.event_mask(em), ref)
    assert workloads.check_partition(window, np.array([0, window.shape[0] - 1]))

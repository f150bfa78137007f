"""Tests of the benchmark's own arithmetic and instrumentation.

Run with the library on the path:  PYTHONPATH=src pytest benchmarks
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import spans
from stats import percentile, samples_beyond, tail_ok
import workloads
from workloads import CheckFailed, check_grasps, check_trial_report

from rockstack import scenesim
from rockstack.graspdetect import GraspCandidate, GraspConfig, HandGeometry
from rockstack.geometry import RigidTransform
from rockstack.scenesim import SceneSpec, generate_scene

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class TestPercentile:
    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 100, 101):
            values = list(rng.exponential(10.0, n))
            for q in (0, 10, 50, 90, 99, 100):
                assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)

    def test_interpolates_between_ranks(self):
        assert percentile([4, 1, 3, 2], 50) == 2.5
        assert percentile([1, 2, 3, 4, 5], 50) == 3
        assert percentile(list(range(1, 101)), 90) == pytest.approx(90.1)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestTailRule:
    def test_p90_needs_a_hundred_samples(self):
        assert samples_beyond(100, 90) == 10
        assert tail_ok(100, 90)
        assert not tail_ok(99, 90)

    def test_median_needs_twenty(self):
        assert tail_ok(20, 50) and not tail_ok(19, 50)

    def test_p99_needs_a_thousand(self):
        assert tail_ok(1000, 99) and not tail_ok(999, 99)


def _span(name, start, end, parent, op=0):
    return (name, float(start), float(end), parent, op)


class TestSelfTime:
    def test_nested_spans(self):
        tree = [
            _span("op", 0, 10, -1),
            _span("a", 1, 4, 0),
            _span("b", 2, 3, 1),
            _span("c", 5, 9, 0),
        ]
        assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]

    def test_self_times_sum_to_root(self):
        tree = [
            _span("op", 0, 20, -1),
            _span("a", 1, 19, 0),
            _span("b", 2, 8, 1),
            _span("b", 9, 18, 1),
            _span("c", 10, 11, 3),
        ]
        assert sum(spans.self_times(tree)) == pytest.approx(20.0)

    def test_layer_metrics_per_op_and_coverage(self):
        tree = [
            _span("op", 0, 10, -1, 0),
            _span("graspdetect.detect_grasps", 1, 9, 0, 0),
            _span("op", 10, 20, -1, 1),
            _span("graspdetect.detect_grasps", 10, 20, 2, 1),
        ]
        m = spans.layer_metrics(tree, {}, n_ops=2)
        assert m["graspdetect.detect_grasps.calls_per_op"] == 1.0
        assert m["graspdetect.detect_grasps.self_ms_per_op"] == pytest.approx(9e3)
        assert m["bench.unattributed_ms_per_op"] == pytest.approx(1e3)
        assert m["bench.span_coverage"] == pytest.approx(0.9)
        assert m["graspdetect.detect_grasps.ms_p50"] == pytest.approx(9e3)

    def test_render_masks_geometry_raycast_chain(self):
        scene = generate_scene(SceneSpec(rock_count=(2, 2)), seed=4)
        tracer = spans.Tracer()
        with tracer.op(0):
            masks = scenesim.render_instance_masks(scene, scene.base_camera)
        assert masks
        names = [s[0] for s in tracer.spans]
        parent_of = {i: s[3] for i, s in enumerate(tracer.spans)}
        masks_i = names.index("scenesim.render_instance_masks")
        geom_i = names.index("scenesim.render_scene_geometry")
        ray_ids = [i for i, n in enumerate(names) if n == "shapes.Superellipsoid.raycast"]
        assert parent_of[masks_i] == names.index("op")
        assert parent_of[geom_i] == masks_i
        assert ray_ids and all(parent_of[i] == geom_i for i in ray_ids)
        selfs = spans.self_times(tracer.spans)
        assert min(selfs) >= 0.0
        root = tracer.spans[names.index("op")]
        assert sum(selfs) == pytest.approx(root[2] - root[1], rel=1e-9)
        children = [i for i, p in parent_of.items() if p == geom_i]
        covered = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in children)
        geom = tracer.spans[geom_i]
        assert selfs[geom_i] == pytest.approx(geom[2] - geom[1] - covered, rel=1e-9)
        m = spans.layer_metrics(tracer.spans, tracer.counters, n_ops=1)
        assert m["scenesim.render.px_per_op"] == scene.base_camera.intrinsics.width * scene.base_camera.intrinsics.height
        assert m["shapes.Superellipsoid.raycast.rays_per_op"] > 0


def _rockstack_bindings() -> dict:
    bindings = {}
    for module in spans._rockstack_modules():
        for key, value in vars(module).items():
            bindings[(module.__name__, key)] = value
    for cls in (RigidTransform, scenesim.Superellipsoid):
        for key, value in vars(cls).items():
            bindings[(cls.__qualname__, key)] = value
    return bindings


class TestWrappers:
    def test_installed_in_every_importing_module(self):
        import rockstack
        from rockstack import graspdetect, harness, taskexec

        original = graspdetect.detect_grasps
        tracer = spans.Tracer()
        tracer.install()
        try:
            wrapped = graspdetect.detect_grasps
            assert wrapped is not original and wrapped.__wrapped__ is original
            assert harness.detect_grasps is wrapped
            assert taskexec.detect_grasps is wrapped
            assert rockstack.detect_grasps is wrapped
        finally:
            tracer.uninstall()

    def test_uninstall_restores_every_attribute(self):
        before = _rockstack_bindings()
        tracer = spans.Tracer()
        tracer.install()
        assert _rockstack_bindings() != before
        tracer.uninstall()
        after = _rockstack_bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_op_restores_after_an_exception(self):
        before = _rockstack_bindings()
        tracer = spans.Tracer()
        with pytest.raises(ZeroDivisionError):
            with tracer.op(0):
                RigidTransform.identity()
                1 / 0
        after = _rockstack_bindings()
        assert all(after[k] is before[k] for k in before)
        assert [s[0] for s in tracer.spans] == ["op", "geometry.RigidTransform.__post_init__"]


class TestOutputChecks:
    def _grasp(self, score, approach=(0.0, 0.0, -1.0), width=40.0):
        a = np.asarray(approach, dtype=float)
        c = np.cross(a, [0.0, 1.0, 0.0]) if abs(a[1]) < 0.9 else np.cross(a, [1.0, 0.0, 0.0])
        c /= np.linalg.norm(c)
        pose = RigidTransform(np.column_stack([a, c, np.cross(a, c)]), np.zeros(3))
        return GraspCandidate(pose=pose, grasp_width=width, score=score, closing_point_count=20, seed_index=0, orientation_index=0)

    def test_grasp_contract(self):
        hand, cfg = HandGeometry(), GraspConfig(num_selected=2)
        assert check_grasps([self._grasp(2.0), self._grasp(1.0)], hand, cfg)
        assert not check_grasps([], hand, cfg)
        for bad in (
            [self._grasp(1.0), self._grasp(2.0)],
            [self._grasp(3.0), self._grasp(2.0), self._grasp(1.0)],
            [self._grasp(1.0, approach=(1.0, 0.0, 0.0))],
            [self._grasp(1.0, width=hand.max_aperture + 1.0)],
        ):
            with pytest.raises(CheckFailed):
                check_grasps(bad, hand, cfg)

    def test_trial_report_contract(self):
        ok = {"task": "stack", "trial_seed": 1, "success": True, "phases": [], "rocks": [], "parts": [], "metrics": {}}
        assert check_trial_report(ok)
        crashed = dict(ok, success=False, phases=[{"phase": "trial", "error_code": "exception:KeyError"}])
        with pytest.raises(CheckFailed):
            check_trial_report(crashed)
        lossy = dict(ok, extra=1)
        with pytest.raises(CheckFailed):
            check_trial_report(lossy)


def test_benchmark_json_lists_every_metric():
    bench = json.loads(BENCHMARK_JSON.read_text())
    layer = list(spans.layer_metrics([], {}, 1)) + ["harness.trace_overhead"]
    assert [m["name"] for m in bench["per_layer"]] == layer
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == spans.unit_of(m["name"])
    import run

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.GATED
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_unplaceable_seeds_are_skipped_and_listed(monkeypatch):
    from rockstack.errors import PlacementError

    def fake_generate(spec, seed):
        if seed % 3 == 0:
            raise PlacementError("no room")
        return seed

    monkeypatch.setattr(workloads, "generate_scene", fake_generate)
    skipped: list = []
    got = list(workloads.placeable_scenes(SceneSpec(), range(7), skipped))
    assert got == [(1, 1), (2, 2), (4, 4), (5, 5)]
    assert skipped == [0, 3, 6]

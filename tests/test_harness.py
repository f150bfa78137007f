"""Experiment runner, metrics aggregation and report/CSV round trips.

Metrics are validated against hand-computed spreadsheet-style expectations
on synthetic report sets, and the written output tree is checked for
byte-identical reproducibility, serial and parallel.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from rockstack.errors import ConfigError, PlacementError, ValidationError
from rockstack.geometry import CameraIntrinsics, RigidTransform
from rockstack.graspdetect import GraspConfig, HandGeometry
from rockstack.harness import (
    DEFAULT_ASSEMBLY_CAMERA,
    ExperimentConfig,
    MetricsSummary,
    compute_metrics,
    dump_json,
    recompute_summary_from_files,
    run_experiment,
    run_trial,
    summary_to_csv,
)
from rockstack.scenesim import (
    DEFAULT_BASE_CAMERA,
    DEFAULT_HAND_INTRINSICS,
    SceneSpec,
    SensorModel,
    Terrain,
    generate_scene,
    object_pixels,
)
from rockstack.taskexec import ExecParams, TrialLog, TrialReport, derive_seed, observe_object

import observe_oracle
from conftest import tree_hash
from pose_oracle import oracle_pose_stability_trial
from test_golden import NOMINAL_SENSOR

QUICK_STACK = {
    "task": "stack",
    "trials": 2,
    "base_seed": 5,
    "scene": {
        "rock_count": [2, 2],
        "rock_exponents": [0.7, 1.05],
        "rock_height_axis": [10, 18],
        "rock_semi_axis": [16, 30],
    },
}


# every field of each config section set off its default
NON_DEFAULT_SECTIONS = [
    HandGeometry(finger_width=10.0, max_aperture=70.0, finger_depth=40.0, hand_height=20.0),
    GraspConfig(
        num_samples=64,
        num_orientations=3,
        num_selected=7,
        hand_axis=(0.0, -1.0, 0.0),
        approach_filter=False,
        cone_half_angle_deg=30.0,
        min_closing_points=5,
        seed=9,
        friction_half_angle_deg=20.0,
        expected_closing_points=25.0,
        push_step=1.5,
        width_clearance=3.0,
        min_insertion=60.0,
        plane_margin=4.0,
        normals_k=9,
        voxel_leaf=1.5,
    ),
    SensorModel(depth_sigma=2.0, dropout_rate=0.01, mask_erosion=0.1, boundary_flip_rate=0.02),
    SceneSpec(
        rock_count=(3, 3),
        rock_semi_axis=(15.0, 25.0),
        rock_height_axis=(10.0, 18.0),
        rock_exponents=(0.8, 1.1),
        min_separation=120.0,
        min_area_separation=0.2,
        region=((-100.0, 100.0), (400.0, 600.0)),
        terrain_extent=(300.0, 200.0),
        terrain_center=(0.0, 510.0),
        terrain_pitch=8.0,
        terrain_amplitude=4.0,
        parts=("body", "leg"),
        body_position=(10.0, 550.0),
        base_camera=DEFAULT_ASSEMBLY_CAMERA,
        hand_camera_intrinsics={
            "fx": 120.0,
            "fy": 120.0,
            "cx": 80.0,
            "cy": 60.0,
            "width": 160,
            "height": 120,
        },
    ),
    ExecParams(
        stack_target_xy=(240.0, 490.0),
        release_clearance_factor=1.1,
        pregrasp_height=340.0,
        pregrasp_offset=110.0,
        transport_height=290.0,
        arm_speed=150.0,
        action_time=0.25,
        reach_min=(-400.0, 20.0, -10.0),
        reach_max=(400.0, 800.0, 900.0),
        attach_tol_mm=2.0,
        attach_tol_deg=4.0,
        pre_assembly_position=(10.0, 420.0, 230.0),
        crop_half_xy=60.0,
        support_from_terrain=False,
    ),
    CameraIntrinsics(fx=300.0, fy=310.0, cx=160.0, cy=120.0, width=320, height=240),
]
_SECTION_OF = {type(s): s for s in NON_DEFAULT_SECTIONS}
# every field but schema_version, whose one legal value is its default
NON_DEFAULT_SECTIONS.append(
    ExperimentConfig(
        task="assemble",
        trials=3,
        base_seed=7,
        samples=50,
        scene=_SECTION_OF[SceneSpec],
        sensor=_SECTION_OF[SensorModel],
        hand=_SECTION_OF[HandGeometry],
        grasp=_SECTION_OF[GraspConfig],
        exec=_SECTION_OF[ExecParams],
    )
)

POSE_WITH_EXTRA_KEY = dict(RigidTransform.identity().to_json_dict(), bogus=1)


def fake_stack_report(seed, success, rocks, pairs=(3, 3)) -> TrialReport:
    rep = TrialReport(
        task="stack",
        trial_seed=seed,
        success=success,
        phases=[{"phase": "detect", "outcome": "ok", "error_code": None, "sim_time_s": 1.0}],
        rocks=rocks,
    )
    rep.metrics = {
        "sort_pairs_correct": pairs[0],
        "sort_pairs_total": pairs[1],
        "sim_time_s": 10.0,
        "stacked_count": sum(1 for r in rocks if r.get("stable")),
        "rock_count": len(rocks),
    }
    return rep


def rock_entry(est, true, align, stable, failure=None):
    return {
        "instance_id": 0,
        "outcome": "placed" if stable else "failed",
        "failure_code": failure,
        "height_est_mm": est,
        "height_true_mm": true,
        "alignment_error_mm": align,
        "stable": stable,
    }


class TestConfig:
    def test_defaults_load(self):
        cfg = ExperimentConfig.from_json_dict({"task": "stack"})
        assert cfg.trials == 1
        assert cfg.grasp.num_selected == 20
        assert cfg.hand.max_aperture == 80.0

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict({"task": "juggle"})

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_json_dict({"task": "stack", "schema_version": 99})

    def test_field_path_in_error(self):
        bad = [
            ("scene", {"rock_count": [3, 2]}),
            ("grasp", {"num_samples": 0}),
            ("sensor", {"depth_sigma": "high"}),
            ("grasp", {"cone_half_angle_deg": "wide"}),
            ("grasp", {"num_samples": 2.5}),
            ("grasp", {"num_selected": "20"}),
            ("grasp", {"seed": True}),
            ("trials", "3"),
            ("samples", 2.5),
            ("base_seed", True),
        ]
        bad += [(name, {"no_such_field": 1}) for name in ("scene", "sensor", "hand", "grasp", "exec")]
        bad += [(name, [1]) for name in ("scene", "sensor", "hand", "grasp", "exec")]
        bad += [("scene", {"base_camera": {"position": [0, 0, 1]}})]
        bad += [("scene", {"hand_camera_intrinsics": {"fx": 130.0}})]
        bad += [("sensor", {"depth_sigma": "2.5"}), ("sensor", {"dropout_rate": True})]
        bad += [("sensr", {"depth_sigma": 2.0}), ("trails", 5)]
        bad += [("scene", {"rock_count": [0, 0], "parts": ["body", cls]}) for cls in ("wheel", "joint")]
        bad += [("sensor", {"depth_sigma": float("nan")}), ("scene", {"terrain_pitch": float("inf")})]
        bad += [("scene", {"terrain_amplitude": -float("inf")}), ("hand", {"max_aperture": 10**400})]
        bad += [("scene", {"region": 5}), ("scene", {"region": [1, 2]}), ("scene", {"rock_count": [2]})]
        bad += [("scene", {"rock_count": [1.0, 2]}), ("exec", {"reach_min": [0.0, 0.0]})]
        bad += [("exec", {"stack_target_xy": [250.0, float("nan")]}), ("grasp", {"hand_axis": "z"})]
        for name, payload in bad:
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig.from_json_dict({"task": "stack", name: payload})
        with pytest.raises(ConfigError, match="expected a JSON object, got list"):
            ExperimentConfig.from_json_dict([1, 2])

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"sensor": {"depth_sigma": "2.5"}}, "sensor: depth_sigma: expected a number, got '2.5'"),
            ({"sensor": {"dropout_rate": True}}, "sensor: dropout_rate: expected a number, got True"),
            ({"sensr": {"depth_sigma": 2.0}, "trails": 5}, "sensr: unknown key"),
            (
                {"scene": {"base_camera": {"position": [0, 0, 1]}}},
                "scene: base_camera: missing key 'intrinsics'",
            ),
            (
                {"scene": {"base_camera": dict(DEFAULT_BASE_CAMERA, fov=60)}},
                "scene: base_camera: fov: unknown key",
            ),
            (
                {"scene": {"base_camera": {**DEFAULT_BASE_CAMERA, "intrinsics": {"fx": 270.0}}}},
                "scene: base_camera: intrinsics: missing key 'fy'",
            ),
            (
                {"scene": {"base_camera": {"intrinsics": DEFAULT_HAND_INTRINSICS, "pose": {}}}},
                "scene: base_camera: pose: missing key 'rotation'",
            ),
            (
                {"scene": {"hand_camera_intrinsics": dict(DEFAULT_HAND_INTRINSICS, width=320.5)}},
                "scene: hand_camera_intrinsics: width: expected an integer, got 320.5",
            ),
            (
                {"scene": {"hand_camera_intrinsics": dict(DEFAULT_HAND_INTRINSICS, fx=-1.0)}},
                "scene: hand_camera_intrinsics: focal lengths must be positive, got fx=-1.0 fy=130.0",
            ),
            (
                {"scene": {"rock_count": [0, 0], "parts": ["body", "wheel"]}},
                "scene: unknown part class 'wheel'",
            ),
            ({"sensor": {"depth_sigma": float("nan")}}, "sensor: depth_sigma: expected a finite number, got nan"),
            (
                {"scene": {"region": [1, 2]}},
                "scene: region: expected an array shaped like [[-150.0, 120.0], [390.0, 610.0]], got [1, 2]",
            ),
            ({"scene": {"rock_count": [2, 3.5]}}, "scene: rock_count: expected an integer, got 3.5"),
            ({"exec": {"arm_speed": 0}}, "exec: arm_speed: must be > 0, got 0.0"),
            ({"exec": {"arm_speed": -200.0}}, "exec: arm_speed: must be > 0, got -200.0"),
            ({"exec": {"action_time": -0.5}}, "exec: action_time: must be >= 0, got -0.5"),
            ({"exec": {"crop_half_xy": -5.0}}, "exec: crop_half_xy: must be > 0, got -5.0"),
            ({"exec": {"attach_tol_mm": -1.0}}, "exec: attach_tol_mm: must be >= 0, got -1.0"),
            ({"exec": {"attach_tol_deg": -0.1}}, "exec: attach_tol_deg: must be >= 0, got -0.1"),
            (
                {"exec": {"reach_min": [500, 0, 0]}},
                "exec: reach_min: must be below reach_max on every axis, "
                "got [500.0, 0.0, 0.0] and [450.0, 830.0, 950.0]",
            ),
            (
                {"exec": {"reach_max": [450.0, 830.0, -30.0]}},
                "exec: reach_min: must be below reach_max on every axis, "
                "got [-450.0, 30.0, -20.0] and [450.0, 830.0, -30.0]",
            ),
            ({"scene": {"no_such": 1}}, "scene: no_such: unknown key"),
            (
                {"exec": {"support_from_terrain": "no"}},
                "exec: support_from_terrain: expected true or false, got 'no'",
            ),
            ({"grasp": {"approach_filter": 0}}, "grasp: approach_filter: expected true or false, got 0"),
            ({"scene": {"parts": "body"}}, "scene: parts: expected an array, got 'body'"),
            (
                {"scene": {"base_camera": {"intrinsics": DEFAULT_HAND_INTRINSICS, "pose": POSE_WITH_EXTRA_KEY}}},
                "scene: base_camera: pose: bogus: unknown key",
            ),
            (
                {"scene": {"base_camera": dict(DEFAULT_BASE_CAMERA, position=[0.0, 500.0])}},
                "scene: base_camera: position: expected an array shaped like [0.0, 0.0, 0.0], got [0.0, 500.0]",
            ),
            (
                {"scene": {"base_camera": dict(DEFAULT_BASE_CAMERA, position=[0.0, float("nan"), 1000.0])}},
                "scene: base_camera: position: expected a finite number, got nan",
            ),
            ({"scene": {"terrain_pitch": 0}}, "scene: terrain_pitch: must be > 0, got 0.0"),
            ({"scene": {"terrain_pitch": -10}}, "scene: terrain_pitch: must be > 0, got -10.0"),
            (
                {"scene": {"terrain_extent": [-330, 210]}},
                "scene: terrain_extent: must be > 0 on both axes, got [-330.0, 210.0]",
            ),
            (
                {"scene": {"terrain_pitch": 0.001}},
                "scene: terrain_pitch: 0.001 makes a grid of 277201080001 cells over terrain_extent, "
                "more than 1000000",
            ),
            (
                {"scene": {"rock_count": [0, 0], "parts": [["body"]]}},
                "scene: parts: expected a part class name, got ['body']",
            ),
            (
                {"grasp": {"expected_closing_points": 0}},
                "grasp: expected_closing_points: must be > 0, got 0.0",
            ),
            (
                {"grasp": {"expected_closing_points": -40}},
                "grasp: expected_closing_points: must be > 0, got -40.0",
            ),
            ({"grasp": {"normals_k": 2}}, "grasp: normals_k: must be >= 3, got 2"),
            (
                {"grasp": {"friction_half_angle_deg": 120}},
                "grasp: friction_half_angle_deg: must be in (0, 90], got 120.0",
            ),
            (
                {"grasp": {"friction_half_angle_deg": 0}},
                "grasp: friction_half_angle_deg: must be in (0, 90], got 0.0",
            ),
            ({"grasp": {"voxel_leaf": -0.5}}, "grasp: voxel_leaf: must be >= 0, got -0.5"),
            ({"grasp": {"width_clearance": -60}}, "grasp: width_clearance: must be >= 0, got -60.0"),
        ],
    )
    def test_error_message_is_the_field_path(self, data, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_json_dict(dict(data, task="stack"))
        assert str(info.value) == message

    def test_grasp_range_edges_load(self):
        edges = {
            "expected_closing_points": 1e-3,
            "friction_half_angle_deg": 90.0,
            "normals_k": 3,
            "voxel_leaf": 0.0,
            "width_clearance": 0.0,
        }
        cfg = ExperimentConfig.from_json_dict({"task": "stack", "grasp": edges})
        assert cfg.grasp == GraspConfig(**edges)

    def test_exec_range_edges_load(self):
        edges = {"action_time": 0.0, "attach_tol_mm": 0.0, "attach_tol_deg": 0.0, "arm_speed": 1e-3}
        cfg = ExperimentConfig.from_json_dict({"task": "stack", "exec": edges})
        assert cfg.exec == ExecParams(**edges)

    @pytest.mark.parametrize("section", NON_DEFAULT_SECTIONS, ids=lambda s: type(s).__name__)
    def test_section_round_trip_covers_every_field(self, section):
        names = [f.name for f in dataclasses.fields(section)]
        unchanged = [f.name for f in dataclasses.fields(section) if getattr(section, f.name) == f.default]
        assert unchanged == (["schema_version"] if isinstance(section, ExperimentConfig) else [])
        data = section.to_json_dict()
        assert list(data) == names
        assert type(section).from_json_dict(json.loads(json.dumps(data))) == section

    def test_round_trip(self):
        cfg = ExperimentConfig.from_json_dict(QUICK_STACK)
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert back.to_json_dict() == cfg.to_json_dict()

    @pytest.mark.parametrize("rock_count", [[0, 0], [0, 2]])
    def test_grasp_bench_needs_a_rock_in_every_scene(self, rock_count):
        scene = {"rock_count": rock_count, "parts": ["body", "head"]}
        with pytest.raises(ConfigError, match="rock_count"):
            ExperimentConfig.from_json_dict({"task": "grasp_bench", "scene": scene})
        # other tasks still take scenes without rocks
        ExperimentConfig.from_json_dict({"task": "pose_stability", "scene": scene})

    def test_assembly_defaults_fill_scene(self):
        cfg = ExperimentConfig.from_json_dict({"task": "assemble"})
        assert "body" in cfg.scene.parts
        assert cfg.scene.base_camera is not None


class TestComputeMetrics:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics([])

    def test_success_rate_arithmetic_reference(self):
        # 46 of 50 is the canonical 92% headline figure
        reports = [
            fake_stack_report(i, i < 46, [rock_entry(40.0, 40.0, 1.0, True)])
            for i in range(50)
        ]
        summary = compute_metrics(reports)
        assert summary.success_rate == pytest.approx(0.92)

    def test_all_perfect_trials(self):
        reports = [
            fake_stack_report(i, True, [rock_entry(40.0, 40.0, 0.0, True)]) for i in range(4)
        ]
        summary = compute_metrics(reports)
        assert summary.mean_alignment_error_mm == 0.0
        assert summary.height_rel_error_median == 0.0
        assert summary.grasp_success_rate == 1.0

    def test_mixed_set_matches_hand_computation(self):
        reports = [
            fake_stack_report(
                0,
                True,
                [rock_entry(42.0, 40.0, 2.0, True), rock_entry(30.0, 33.0, 4.0, True)],
                pairs=(1, 1),
            ),
            fake_stack_report(
                1,
                False,
                [rock_entry(50.0, 40.0, 6.0, True), rock_entry(20.0, 20.0, None, False, "toppled")],
                pairs=(0, 1),
            ),
            fake_stack_report(
                2,
                False,
                [rock_entry(None, 35.0, None, False, "grasp-fail")],
                pairs=(1, 1),
            ),
        ]
        summary = compute_metrics(reports)
        assert summary.success_rate == pytest.approx(1 / 3)
        assert summary.size_sort_agreement == pytest.approx(2 / 3)
        # rel errors: .05, |30-33|/33, .25, 0.0 -> median = (.05 + 3/33) / 2
        assert summary.height_rel_error_median == pytest.approx((0.05 + 3 / 33) / 2)
        # alignment over stable placements: (2+4+6)/3
        assert summary.mean_alignment_error_mm == pytest.approx(4.0)
        # grasp attempts: all 5 rocks except the grasp-fail one succeeded
        assert summary.grasp_success_rate == pytest.approx(4 / 5)
        assert summary.sim_time_stats["total_s"] == pytest.approx(30.0)

    def test_single_trial_rates_are_binary(self):
        reports = [fake_stack_report(0, True, [rock_entry(40.0, 40.0, 1.0, True)])]
        summary = compute_metrics(reports)
        assert summary.success_rate in (0.0, 1.0)

    def test_assembly_per_class_rates(self):
        def assembly_report(seed, grasp_ok, joint_ok, attached):
            phases = [{"phase": "get_pose", "outcome": "ok", "error_code": None, "sim_time_s": 1.0}]
            phases.append(
                {"phase": "grasp", "outcome": "ok" if grasp_ok else "failed",
                 "error_code": None if grasp_ok else "grasp-fail", "sim_time_s": 1.0}
            )
            if grasp_ok:
                phases.append({"phase": "pre_assembly", "outcome": "ok", "error_code": None, "sim_time_s": 1.0})
                phases.append(
                    {"phase": "detect_joint", "outcome": "ok" if joint_ok else "failed",
                     "error_code": None if joint_ok else "joint-not-visible", "sim_time_s": 1.0}
                )
            rep = TrialReport(
                task="assemble",
                trial_seed=seed,
                success=attached,
                phases=phases,
                parts=[{
                    "part_class": "head",
                    "outcome": "attached" if attached else "failed",
                    "failure_code": None if attached else "x",
                }],
            )
            rep.metrics = {"sim_time_s": 5.0}
            return rep

        reports = [
            assembly_report(0, True, True, True),
            assembly_report(1, True, True, True),
            assembly_report(2, True, False, False),
            assembly_report(3, False, False, False),
        ]
        summary = compute_metrics(reports)
        row = summary.per_class["head"]
        assert row["attempts"] == 4
        assert row["grasp_success_rate"] == pytest.approx(3 / 4)
        assert row["joint_detection_rate"] == pytest.approx(2 / 3)
        assert row["attach_rate"] == pytest.approx(2 / 4)


class TestRunExperiment:
    def test_byte_identical_rerun_and_parallel(self, tmp_path):
        cfg = ExperimentConfig.from_json_dict(QUICK_STACK)
        dirs = [tmp_path / f"run{i}" for i in range(3)]
        run_experiment(cfg, out_dir=dirs[0], workers=1)
        run_experiment(cfg, out_dir=dirs[1], workers=1)
        run_experiment(cfg, out_dir=dirs[2], workers=2)
        h = [tree_hash(d) for d in dirs]
        assert h[0] == h[1] == h[2]

    def test_parallel_workers_get_every_grasp_field(self, tmp_path):
        # the config is read from JSON, so a field that reader dropped
        # would run both modes with its default (min_insertion 10 mm finds
        # grasps on these rocks, 60 mm finds none)
        cfg = ExperimentConfig.from_json_dict(
            {"task": "grasp_bench", "trials": 2, "grasp": {"min_insertion": 60}}
        )
        serial, _ = run_experiment(cfg, out_dir=tmp_path / "serial", workers=1)
        run_experiment(cfg, out_dir=tmp_path / "parallel", workers=2)
        assert [r.metrics["n_grasps"] for r in serial] == [0, 0]
        assert tree_hash(tmp_path / "serial") == tree_hash(tmp_path / "parallel")

    def test_parallel_workers_get_the_config_object(self, tmp_path):
        # built in Python, never read from JSON: the pool is handed the
        # object itself, so its non-default grasp field reaches each worker
        cfg = ExperimentConfig(task="grasp_bench", trials=2, grasp=GraspConfig(min_insertion=60.0))
        serial, summary = run_experiment(cfg, out_dir=tmp_path / "serial", workers=1)
        parallel, _ = run_experiment(cfg, out_dir=tmp_path / "parallel", workers=2)
        assert [r.metrics["n_grasps"] for r in serial] == [0, 0]
        assert [r.metrics["n_grasps"] for r in parallel] == [0, 0]
        assert summary.success_rate == 0.0
        assert tree_hash(tmp_path / "serial") == tree_hash(tmp_path / "parallel")

    def test_summary_recomputable_from_files(self, tmp_path):
        cfg = ExperimentConfig.from_json_dict(QUICK_STACK)
        _, summary = run_experiment(cfg, out_dir=tmp_path)
        again = recompute_summary_from_files(tmp_path)
        assert again.to_json_dict() == summary.to_json_dict()
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written == summary.to_json_dict()

    def test_trial_seed_policy(self, tmp_path):
        cfg = ExperimentConfig.from_json_dict(QUICK_STACK)
        reports, _ = run_experiment(cfg, out_dir=tmp_path)
        assert [r.trial_seed for r in reports] == [5, 6]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"success": "false"}, "trial_1.json: success: expected true or false, got 'false'"),
            ({"bogus": 1}, "trial_1.json: bogus: unknown key"),
        ],
    )
    def test_malformed_trial_file_is_named(self, tmp_path, change, message):
        for i in range(2):
            report = TrialLog("stack", i).report(True).to_json_dict()
            (tmp_path / f"trial_{i}.json").write_text(json.dumps(dict(report, **change) if i else report))
        with pytest.raises(ConfigError) as info:
            recompute_summary_from_files(tmp_path)
        assert str(info.value) == message

    def test_crash_containment(self, monkeypatch, tmp_path):
        import rockstack.harness as harness_mod

        real = harness_mod.run_stacking_task

        def poisoned(scene, hand, grasp, sensor, params, seed):
            if seed == 6:
                raise RuntimeError("poisoned trial")
            return real(scene, hand, grasp, sensor, params, seed)

        monkeypatch.setattr(harness_mod, "run_stacking_task", poisoned)
        cfg = ExperimentConfig.from_json_dict(dict(QUICK_STACK, trials=3))
        reports, summary = run_experiment(cfg, out_dir=tmp_path)
        assert len(reports) == 3
        assert reports[1].success is False
        assert reports[1].phases[0]["error_code"] == "exception:RuntimeError"
        assert reports[1].phases[0]["error_message"] == "poisoned trial"
        assert reports[0].success or reports[0].phases  # other trials completed
        assert (tmp_path / "trial_2.json").exists()

    @pytest.mark.parametrize("task", ["stack", "pose_stability"])
    def test_unplaceable_seed_is_not_a_crash(self, task, capsys):
        # test_scenesim's unplaceable spec: eight rocks 120 mm apart in a 60 x 40 mm region
        scene = {"rock_count": [8, 8], "region": [[-30.0, 30.0], [480.0, 520.0]], "min_separation": 120.0}
        cfg = ExperimentConfig.from_json_dict({"task": task, "base_seed": 0, "scene": scene})
        with pytest.raises(PlacementError) as info:
            generate_scene(cfg.scene, 0)
        report = run_trial(cfg, 0)
        assert report.success is False
        assert report.phases == [
            {
                "phase": "scene",
                "outcome": "failed",
                "error_code": "placement-failed",
                "error_message": str(info.value),
                "sim_time_s": 0.0,
            }
        ]
        assert capsys.readouterr().err == ""

    def test_pose_stability_zero_noise_exact_zero(self):
        cfg = ExperimentConfig.from_json_dict(
            {"task": "pose_stability", "samples": 40, "base_seed": 4}
        )
        report = run_trial(cfg, 0)
        classes = report.metrics["classes"]
        assert classes
        for row in classes.values():
            assert row["sigma_x_mm"] == 0.0
            assert row["sigma_y_mm"] == 0.0
            assert row["sigma_z_mm"] == 0.0

    def test_grasp_bench_trial(self):
        cfg = ExperimentConfig.from_json_dict(
            {"task": "grasp_bench", "base_seed": 1, "scene": {"rock_count": [1, 1]}}
        )
        report = run_trial(cfg, 0)
        assert report.metrics["n_grasps"] >= 1
        assert report.success
        # the rock is observed by the task runners' two-view wrist sweep
        scene = generate_scene(cfg.scene, cfg.base_seed)
        args = (scene, scene.rocks[0].center_of_mass, cfg.sensor, cfg.exec, derive_seed(cfg.base_seed, 10))
        whole, _, _, _ = observe_oracle.observe_object(*args)
        # the size of the whole merged cloud, not of its crop
        assert report.metrics["cloud_points"] == observe_object(*args).points == len(whole)
        assert len(observe_object(*args).cloud) < len(whole)

    def test_nominal_stack_trial_casts_at_most_50k_rays(self, monkeypatch):
        # A count of terrain rays, not a timing: a trial casts only what it
        # reads. Whole images would be 76,800 base rays plus 38,400 wrist
        # rays per rock.
        real = Terrain.raycast_world
        rays = []

        def counted(terrain, origin, dirs):
            rays.append(len(dirs))
            return real(terrain, origin, dirs)

        monkeypatch.setattr(Terrain, "raycast_world", counted)
        cfg = ExperimentConfig.from_json_dict({"task": "stack", "base_seed": 1000, "sensor": NOMINAL_SENSOR})
        for index in (0, 2):
            rays.clear()
            report = run_trial(cfg, index)
            assert report.success and len(report.rocks) == 4
            assert sum(rays) <= 50_000


def _pose_cfg(samples: int = 60, sensor: dict | None = None, scene: dict | None = None):
    data = {"task": "pose_stability", "samples": samples, "sensor": sensor or {}}
    if scene is not None:
        data["scene"] = scene
    return ExperimentConfig.from_json_dict(data)


def _pose_json(report: TrialReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


# a 600 mm camera over the body whose aim puts the socket pixel just past the
# bottom border (v = 240.46) or just inside it (v = 239.94)
def _aimed_camera(look_at_y: float) -> dict:
    return {
        "position": [0.0, 500.0, 600.0],
        "look_at": [0.0, look_at_y, 0.0],
        "intrinsics": {"fx": 600.0, "fy": 600.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
    }


class TestPoseOracleAgreement:
    """The batched pose-stability runner reproduces the per-sample loop of
    ``tests/pose_oracle.py`` byte for byte."""

    @pytest.mark.parametrize(
        "sensor",
        [
            {},
            {"depth_sigma": 2.0},
            {"depth_sigma": 3.0, "dropout_rate": 0.3},
            {"depth_sigma": 2.0, "dropout_rate": 0.97},
        ],
        ids=["sigma0", "sigma2", "sigma3-dropout0.3", "sigma2-dropout0.97"],
    )
    def test_seeds_per_sensor(self, sensor):
        cfg = _pose_cfg(sensor=sensor)
        for seed in range(6):
            got = _pose_json(run_trial(cfg, seed))
            assert got == _pose_json(oracle_pose_stability_trial(cfg, seed))
        if sensor.get("dropout_rate") == 0.97:
            classes = json.loads(got)["metrics"]["classes"]
            assert any(row["samples"] < cfg.samples for row in classes.values())

    @pytest.mark.parametrize(
        "scene",
        [
            {"parts": ["head", "leg"], "rock_count": [1, 2]},
            {"parts": [], "rock_count": [3, 4]},
        ],
        ids=["no-body", "rocks-only"],
    )
    def test_scenes_without_a_socket_probe(self, scene):
        cfg = _pose_cfg(sensor={"depth_sigma": 2.0}, scene=scene)
        for seed in range(2):
            got = _pose_json(run_trial(cfg, seed))
            assert got == _pose_json(oracle_pose_stability_trial(cfg, seed))
            assert "body_joint" not in json.loads(got)["metrics"]["classes"]

    def test_two_samples(self):
        cfg = _pose_cfg(samples=2, sensor={"depth_sigma": 3.0, "dropout_rate": 0.3})
        for seed in range(3):
            assert _pose_json(run_trial(cfg, seed)) == _pose_json(
                oracle_pose_stability_trial(cfg, seed)
            )

    def test_socket_read_window_inside_the_body_read_window(self):
        # the two probes share the socket's nine pixels and so read one
        # noise value per shared pixel per sample
        from rockstack.geometry import mask_centroid, project_point
        from rockstack.perception import detect_objects, window_bounds
        from rockstack.scenesim import generate_scene

        cfg = _pose_cfg(sensor={"depth_sigma": 2.0})
        scene = generate_scene(cfg.scene, 3)
        cam = scene.base_camera
        (body,) = detect_objects(scene, cam, labels=("body",))
        socket = scene.parts[0].attachment_world("socket_top")
        u, v, _ = project_point(cam.intrinsics, cam.pose.inverse().apply(socket.translation))
        shape = (cam.intrinsics.height, cam.intrinsics.width)
        bv0, bv1, bu0, bu1 = window_bounds(*mask_centroid(body), 5, shape)
        sv0, sv1, su0, su1 = window_bounds(float(u), float(v), 3, shape)
        assert (sv1 - sv0, su1 - su0) == (3, 3)
        assert bv0 <= sv0 and sv1 <= bv1 and bu0 <= su0 and su1 <= bu1
        got = _pose_json(run_trial(cfg, 3))
        assert got == _pose_json(oracle_pose_stability_trial(cfg, 3))
        assert {"body", "body_joint"} <= set(json.loads(got)["metrics"]["classes"])

    @pytest.mark.parametrize("look_at_y, joint_kept", [(444.8, False), (445.3, True)])
    def test_socket_at_the_image_border(self, look_at_y, joint_kept):
        scene = {"parts": ["body"], "rock_count": [2, 2], "base_camera": _aimed_camera(look_at_y)}
        cfg = _pose_cfg(sensor={"depth_sigma": 2.0}, scene=scene)
        got = _pose_json(run_trial(cfg, 0))
        assert got == _pose_json(oracle_pose_stability_trial(cfg, 0))
        assert ("body_joint" in json.loads(got)["metrics"]["classes"]) is joint_kept

    def test_no_object_in_view(self):
        # a camera aimed past every object: no probe, no read window
        camera = {
            "position": [0.0, 500.0, 600.0],
            "look_at": [3000.0, 5000.0, 800.0],
            "intrinsics": {"fx": 300.0, "fy": 300.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
        }
        sensor = {"depth_sigma": 2.0, "dropout_rate": 0.3}
        cfg = _pose_cfg(sensor=sensor, scene={"base_camera": camera})
        got = _pose_json(run_trial(cfg, 0))
        assert got == _pose_json(oracle_pose_stability_trial(cfg, 0))
        assert json.loads(got)["metrics"]["classes"] == {}
        assert json.loads(got)["phases"][0]["outcome"] == "ok"

    def test_tilted_and_offset_camera(self):
        # a rotation without zero entries: the robot-frame transform must
        # round each point as the single-point path does
        camera = {
            "position": [-140.0, 330.0, 420.0],
            "look_at": [15.0, 530.0, 0.0],
            "intrinsics": {"fx": 300.0, "fy": 300.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
        }
        cfg = _pose_cfg(sensor={"depth_sigma": 2.0}, scene={"base_camera": camera})
        for seed in range(2):
            got = _pose_json(run_trial(cfg, seed))
            assert got == _pose_json(oracle_pose_stability_trial(cfg, seed))
            assert len(json.loads(got)["metrics"]["classes"]) >= 4

    def test_unexpected_error_reaches_the_crash_record(self, monkeypatch, capsys):
        import rockstack.harness as harness_mod

        def broken(windows):
            raise TypeError("injected")

        monkeypatch.setattr(harness_mod, "median_window_depths", broken)
        report = run_trial(_pose_cfg(sensor={"depth_sigma": 2.0}), 0)
        assert report.success is False
        assert report.phases == [
            {
                "phase": "trial",
                "outcome": "failed",
                "error_code": "exception:TypeError",
                "error_message": "injected",
                "sim_time_s": 0.0,
            }
        ]
        assert report.metrics == {"sim_time_s": 0.0}
        # the traceback goes to stderr, never into the record
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pose_stability trial 0 (seed 0) crashed:" in captured.err
        assert "Traceback (most recent call last)" in captured.err
        assert "in broken" in captured.err
        assert captured.err.rstrip().endswith("TypeError: injected")

    def test_window_pixels_outside_the_footprints(self, monkeypatch):
        # Shrink the footprints to the pixels that render an object id, the
        # least set that still yields the masks: the read windows then
        # reach past it, and those pixels must be cast before the noise.
        import rockstack.scenesim as scenesim_mod

        real = scenesim_mod.render_scene_geometry

        def id_pixels(scene, camera):
            _, ids = real(scene, camera)
            return np.flatnonzero(np.isin(ids, [o.instance_id for o in scene.objects()]))

        casts = []

        def render(scene, camera, extra_objects=None, pixels=None):
            casts.append(pixels)
            return real(scene, camera, extra_objects, pixels)

        monkeypatch.setattr(scenesim_mod, "object_pixels", id_pixels)
        monkeypatch.setattr(scenesim_mod, "render_scene_geometry", render)
        cfg = _pose_cfg(sensor={"depth_sigma": 2.0, "dropout_rate": 0.3})
        for seed in range(2):
            want = _pose_json(oracle_pose_stability_trial(cfg, seed))
            casts.clear()  # count the trial's casts only
            assert _pose_json(run_trial(cfg, seed)) == want
            assert len(casts) == 2 and casts[1].size > 0

    def test_casts_only_footprints_and_probe_windows(self, monkeypatch):
        # A count of terrain rays, not a timing: the trial must not fall
        # back to casting the whole image.
        real = Terrain.raycast_world
        rays = []

        def counted(terrain, origin, dirs):
            rays.append(len(dirs))
            return real(terrain, origin, dirs)

        monkeypatch.setattr(Terrain, "raycast_world", counted)
        cfg = _pose_cfg(samples=20, sensor={"depth_sigma": 2.0})
        report = run_trial(cfg, 1)
        assert report.success
        scene = generate_scene(cfg.scene, 1)
        intr = scene.base_camera.intrinsics
        # every probe reads at most a 5x5 window: one per object and the socket
        windows = 25 * (len(scene.objects()) + 1)
        assert sum(rays) <= object_pixels(scene, scene.base_camera).size + windows
        assert sum(rays) < 0.1 * intr.width * intr.height


class TestDumpJson:
    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "trial_0.json"
        dump_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            dump_json(path, {"a": 2, "b": object()})  # fails after "a" is written
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trial_0.json"]


class TestCsv:
    def test_pose_stability_table_shape(self):
        # rows = object class, columns = per-axis standard deviations; the
        # hardware reference row (head: 0.37/0.21/0.34 mm) fits this shape
        summary = MetricsSummary(task="pose_stability", trials=1, success_rate=1.0)
        summary.pose_sigma_mm = {
            "head": {"sigma_x_mm": 0.37, "sigma_y_mm": 0.21, "sigma_z_mm": 0.34, "samples": 144871},
            "leg": {"sigma_x_mm": 0.35, "sigma_y_mm": 0.13, "sigma_z_mm": 0.33, "samples": 144871},
        }
        csv_text = summary_to_csv(summary)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "object,sigma_x_mm,sigma_y_mm,sigma_z_mm"
        assert lines[1] == "head,0.3700,0.2100,0.3400"
        assert lines[2].startswith("leg,")

    def test_assembly_table_shape(self):
        summary = MetricsSummary(task="assemble", trials=56, success_rate=0.75)
        summary.per_class = {
            "head": {"attempts": 14, "grasp_success_rate": 0.928, "joint_detection_rate": 0.953, "attach_rate": 0.9},
            "leg": {"attempts": 42, "grasp_success_rate": 0.761, "joint_detection_rate": 0.862, "attach_rate": 0.7},
        }
        csv_text = summary_to_csv(summary)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "object,attempts,grasp_success_rate,joint_detection_rate,attach_rate"
        assert lines[1].startswith("head,14,")
        assert lines[2].startswith("leg,42,")

    def test_stack_summary_includes_alignment_reference(self):
        reports = [fake_stack_report(0, True, [rock_entry(40.0, 40.0, 2.0, True)])]
        summary = compute_metrics(reports)
        csv_text = summary_to_csv(summary)
        assert "reference_alignment_error_mm,25" in csv_text
        assert summary.reference_alignment_error_mm == 25.0

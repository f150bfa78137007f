"""Arm kinematics, grasp execution, stack stability and the task runners.

The stability check is validated against a Monte Carlo containment oracle
that recomputes vertical surface extents by bisection on the implicit
functions (a fully independent path from the production ray caster).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from rockstack.errors import (
    BehindCameraError,
    ConfigError,
    EmptyCloudError,
    EmptyMaskError,
    GraspMissError,
    MissingDepthError,
    MultiObjectError,
    NegativeHeightError,
    NoContactError,
    NothingHeldError,
    OutOfBoundsError,
    UnreachablePoseError,
    ValidationError,
)
from rockstack.geometry import (
    CameraIntrinsics,
    RigidTransform,
    camera_pose_from_lookat,
    deproject_pixel,
    project_point,
)
from rockstack.graspdetect import GraspCandidate, GraspConfig, HandGeometry, detect_grasps
from rockstack.harness import ExperimentConfig, compute_metrics, run_trial
from rockstack.perception import (
    estimate_height,
    median_window_depth,
    object_workspace_pose,
)
from rockstack.pointcloud import cloud_from_depth, crop_workspace
from rockstack.scenesim import (
    MISS_ID,
    CameraSpec,
    RockModel,
    Scene,
    SceneSpec,
    SensorModel,
    Terrain,
    generate_scene,
)
from rockstack.shapes import Superellipsoid
from rockstack.taskexec import (
    TOP_DOWN,
    ArmState,
    ExecParams,
    StackState,
    TrialLog,
    TrialReport,
    _cast_vertical,
    _cloud_plane,
    _measure_point_via_depth,
    _observe_base,
    _vertical_surface_z,
    check_stack_stability,
    derive_seed,
    execute_grasp,
    gripper_geometry,
    move_to,
    observe_object,
    place_on_stack,
    run_assembly_task,
    run_stacking_task,
    settle_object,
)

import observe_oracle
from stability_oracle import monte_carlo_stability, oracle_margin, random_resting_pair
from test_golden import CONFIGS as GOLDEN_CONFIGS

EASY_SCENE = SceneSpec(
    rock_exponents=(0.7, 1.05), rock_height_axis=(10.0, 18.0), rock_semi_axis=(16.0, 30.0)
)


def flat_scene(rocks: list[RockModel]) -> Scene:
    cam = CameraSpec(
        CameraIntrinsics(fx=270, fy=270, cx=160, cy=120, width=320, height=240),
        camera_pose_from_lookat((0.0, 500.0, 1000.0), (0.0, 500.0, 0.0)),
    )
    return Scene(
        terrain=Terrain(np.zeros((48, 64)), pitch=10.0, origin=(-320.0, 290.0)),
        rocks=rocks,
        parts=[],
        base_camera=cam,
        hand_camera_intrinsics=CameraIntrinsics(fx=130, fy=130, cx=80, cy=60, width=160, height=120),
        seed=0,
    )


def top_down_grasp(xy, palm_z, closing_angle=0.0, width=44.0) -> GraspCandidate:
    approach = np.array([0.0, 0.0, -1.0])
    closing = np.array([math.cos(closing_angle), math.sin(closing_angle), 0.0])
    pose = RigidTransform(
        np.column_stack([approach, closing, np.cross(approach, closing)]),
        (xy[0], xy[1], palm_z),
    )
    return GraspCandidate(pose=pose, grasp_width=width, score=1.0, closing_point_count=50)


def sphere_rock(radius, position, instance_id=0) -> RockModel:
    return RockModel(
        shape=Superellipsoid(radius, radius, radius, 1.0, 1.0),
        pose=RigidTransform.from_translation(position),
        instance_id=instance_id,
    )


class TestMoveTo:
    def test_inside_reach(self):
        arm = ArmState.home(ExecParams(), HandGeometry())
        moved = move_to(arm, TOP_DOWN.with_translation((0.0, 500.0, 200.0)))
        np.testing.assert_allclose(moved.pose.translation, [0.0, 500.0, 200.0])

    def test_outside_reach_rejected(self):
        arm = ArmState.home(ExecParams(), HandGeometry())
        with pytest.raises(UnreachablePoseError):
            move_to(arm, TOP_DOWN.with_translation((5000.0, 0.0, 0.0)))

    def test_attached_object_follows_rigidly(self):
        rock = sphere_rock(20.0, (0.0, 500.0, 20.0))
        scene = flat_scene([rock])
        arm = ArmState.home(ExecParams(), HandGeometry())
        grasp = top_down_grasp((0.0, 500.0), palm_z=45.0)
        arm, _ = execute_grasp(arm, scene, grasp, HandGeometry())
        rel_before = arm.pose.inverse().compose(rock.pose)
        delta = np.array([15.0, -25.0, 120.0])
        target = RigidTransform(arm.pose.rotation, arm.pose.translation + delta)
        before = rock.pose.translation.copy()
        arm = move_to(arm, target, scene)
        np.testing.assert_allclose(rock.pose.translation, before + delta, atol=1e-9)
        rel_after = arm.pose.inverse().compose(rock.pose)
        np.testing.assert_allclose(rel_after.rotation, rel_before.rotation, atol=1e-9)
        np.testing.assert_allclose(rel_after.translation, rel_before.translation, atol=1e-9)


class TestExecuteGrasp:
    def test_sphere_grasp_attaches(self):
        rock = sphere_rock(20.0, (0.0, 500.0, 20.0))
        scene = flat_scene([rock])
        arm = ArmState.home(ExecParams(), HandGeometry())
        arm, travel = execute_grasp(arm, scene, top_down_grasp((0.0, 500.0), 45.0), HandGeometry())
        assert arm.attached_id == 0
        assert travel > 0

    def test_displaced_grasp_misses(self):
        rock = sphere_rock(20.0, (0.0, 500.0, 20.0))
        scene = flat_scene([rock])
        arm = ArmState.home(ExecParams(), HandGeometry())
        with pytest.raises(GraspMissError):
            execute_grasp(arm, scene, top_down_grasp((100.0, 500.0), 45.0), HandGeometry())

    def test_two_abutting_rocks_multi_object(self):
        a = sphere_rock(15.0, (-16.0, 500.0, 15.0), instance_id=0)
        b = sphere_rock(15.0, (16.0, 500.0, 15.0), instance_id=1)
        scene = flat_scene([a, b])
        arm = ArmState.home(ExecParams(), HandGeometry())
        grasp = top_down_grasp((0.0, 500.0), 32.0, closing_angle=0.0, width=70.0)
        with pytest.raises(MultiObjectError):
            execute_grasp(arm, scene, grasp, HandGeometry())

    def test_squeeze_centers_object_on_closing_axis(self):
        rock = sphere_rock(20.0, (8.0, 500.0, 20.0))  # offset along closing axis x
        scene = flat_scene([rock])
        arm = ArmState.home(ExecParams(), HandGeometry())
        arm, _ = execute_grasp(arm, scene, top_down_grasp((0.0, 500.0), 45.0), HandGeometry())
        assert abs(rock.pose.translation[0]) < 1.0  # pulled onto the centerline
        assert rock.pose.translation[1] == pytest.approx(500.0)


class TestStackStability:
    def test_concentric_equal_rocks_stable(self):
        a = sphere_rock(25.0, (0.0, 0.0, 25.0), 0)
        b = sphere_rock(25.0, (0.0, 0.0, 74.5), 1)
        assert check_stack_stability(b, a) == "stable"

    def test_large_offset_topples(self):
        terrain = Terrain(np.zeros((48, 64)), pitch=10.0, origin=(-320.0, 290.0))
        a = sphere_rock(30.0, (0.0, 500.0, 30.0), 0)
        b = sphere_rock(20.0, (40.0, 500.0, 120.0), 1)  # CoM beyond the support edge
        settle_object(b, terrain, [a])
        assert check_stack_stability(b, a) == "toppled"

    def test_no_contact_raises(self):
        a = sphere_rock(20.0, (0.0, 0.0, 20.0), 0)
        b = sphere_rock(20.0, (0.0, 0.0, 200.0), 1)
        with pytest.raises(NoContactError):
            check_stack_stability(b, a)
        c = sphere_rock(20.0, (500.0, 0.0, 20.0), 1)
        with pytest.raises(NoContactError):
            check_stack_stability(c, a)

    def test_hull_fallback_covers_points_and_lines(self):
        """check_stack_stability takes its no-hull fallback from
        ``QhullError`` alone, which scipy raises for one point, two points
        and collinear points."""
        for pts in ([[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]):
            with pytest.raises(QhullError):
                ConvexHull(np.array(pts))

    def test_agrees_with_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        checked = 0
        agreements = 0
        attempts = 0
        while checked < 60 and attempts < 400:
            attempts += 1
            pair = random_resting_pair(rng)
            if pair is None:
                continue
            top, support = pair
            margin = oracle_margin(top, support)
            if abs(margin) < 1.25:  # below the check's 1 mm stated resolution
                continue
            got = check_stack_stability(top, support)
            want = monte_carlo_stability(top, support, rng, n=10_000)
            checked += 1
            agreements += got == want
        assert checked == 60
        assert agreements == checked


class TestVerticalSurface:
    """The closed-form extent of yaw-only rocks against the vertical ray
    cast, which every other pose still takes."""

    @pytest.mark.parametrize("e1", [0.3, 2.0])
    @pytest.mark.parametrize("e2", [0.3, 2.0])
    def test_closed_form_matches_the_cast(self, e1, e2):
        shape = Superellipsoid(30.0, 22.0, 15.0, e1, e2)
        rng = np.random.default_rng(41)
        omega = rng.uniform(-math.pi, math.pi, 3000)
        cw, sw = np.cos(omega), np.sin(omega)
        rim = np.column_stack(
            [shape.ax * np.sign(cw) * np.abs(cw) ** e2, shape.ay * np.sign(sw) * np.abs(sw) ** e2]
        )
        # on the silhouette, 1e-12 to 1e-2 inside or outside it, and within
        scale = np.concatenate(
            [
                np.ones(500),
                1.0 + rng.choice([-1.0, 1.0], 1500) * np.geomspace(1e-12, 1e-2, 1500),
                rng.uniform(0.0, 1.0, 1000),
            ]
        )
        local = np.column_stack([rim * scale[:, None], np.zeros(3000)])
        # The silhouette is G = 1, and G = scale^(2 / e1) along a ray from the
        # axis. Within 1e-6 of it the height az (1 - G)^(e1 / 2) is below the
        # resolution of either method for e1 < 2.
        away = np.abs(1.0 - scale ** (2.0 / e1)) > 1e-6
        assert (away & (np.abs(scale - 1.0) < 1e-3)).sum() > 300
        for yaw in (0.0, 0.9, -2.4):
            rock = RockModel(shape, RigidTransform.rotation_z(yaw, (15.0, 480.0, 22.0)), 0)
            xys = rock.pose.apply(local)[:, :2]
            for from_above in (True, False):
                got = _vertical_surface_z(rock, xys, from_above)[away]
                want = _cast_vertical(rock, xys, from_above)[away]
                assert np.array_equal(np.isnan(got), np.isnan(want))
                hit = ~np.isnan(got)
                assert hit.sum() > 1000
                assert np.abs(got[hit] - want[hit]).max() <= 1e-6

    def test_other_poses_are_ray_cast(self, monkeypatch):
        shape = Superellipsoid(25.0, 20.0, 12.0, 0.8, 1.3)
        tilted = RockModel(
            shape,
            RigidTransform.rotation_z(0.4, (0.0, 500.0, 20.0)).compose(RigidTransform.rotation_x(1e-9)),
            0,
        )
        xys = np.random.default_rng(43).uniform((-30.0, 470.0), (30.0, 530.0), size=(2000, 2))
        got = _vertical_surface_z(tilted, xys, True)
        assert np.isfinite(got).sum() > 500
        assert got.tobytes() == _cast_vertical(tilted, xys, True).tobytes()

        def no_cast(self, origin, dirs):
            raise AssertionError("a yaw-only rock was ray cast")

        monkeypatch.setattr(RockModel, "raycast_world", no_cast)
        yawed = RockModel(shape, RigidTransform.rotation_z(0.4, (0.0, 500.0, 20.0)), 1)
        assert np.isfinite(_vertical_surface_z(yawed, xys, False)).sum() > 500


class TestPlaceOnStack:
    def test_first_rock_near_target(self):
        rock = sphere_rock(20.0, (0.0, 500.0, 20.0))
        scene = flat_scene([rock])
        params = ExecParams()
        arm = ArmState.home(params, HandGeometry())
        arm, _ = execute_grasp(
            arm, scene, top_down_grasp((0.0, 500.0), 45.0), HandGeometry(), support_z=0.0
        )
        arm = move_to(arm, RigidTransform(arm.pose.rotation, (0.0, 500.0, 300.0)), scene)
        stack = StackState(target_xy=params.stack_target_xy, base_z=0.0)
        arm, stack, rec = place_on_stack(arm, scene, stack, 40.0, params)
        assert rec["outcome"] == "stable"
        assert rec["alignment_error_mm"] < 1.0
        assert stack.placed == [0]
        assert stack.top_z == pytest.approx(40.0, abs=1.0)
        assert arm.attached_id is None

    def test_nothing_held_raises(self):
        scene = flat_scene([sphere_rock(20.0, (0.0, 500.0, 20.0))])
        params = ExecParams()
        arm = ArmState.home(params, HandGeometry())
        with pytest.raises(NothingHeldError):
            place_on_stack(arm, scene, StackState(params.stack_target_xy, 0.0), 40.0, params)

    def test_off_center_grasp_topples_from_support(self):
        # grasp 40 mm off the centroid: the held rock hangs offset and lands
        # past the 30 mm support's edge (the observed hardware failure mode)
        support = sphere_rock(30.0, (250.0, 500.0, 30.0), instance_id=0)
        big = RockModel(
            shape=Superellipsoid(55.0, 26.0, 16.0, 0.8, 0.8),
            pose=RigidTransform.from_translation((0.0, 500.0, 16.0)),
            instance_id=1,
        )
        scene = flat_scene([support, big])
        params = ExecParams()
        arm = ArmState.home(params, HandGeometry())
        grasp = top_down_grasp((40.0, 500.0), 33.0, closing_angle=math.pi / 2)
        arm, _ = execute_grasp(arm, scene, grasp, HandGeometry(), support_z=0.0)
        arm = move_to(arm, RigidTransform(arm.pose.rotation, (40.0, 500.0, 300.0)), scene)
        stack = StackState(target_xy=(250.0, 500.0), base_z=0.0)
        stack.placed = [0]
        stack.top_z = 60.0
        arm, stack, rec = place_on_stack(arm, scene, stack, 32.0, params)
        assert rec["outcome"] == "toppled"
        assert rec["alignment_error_mm"] > 30.0
        assert stack.placed == [0]  # topple removes only the new rock


class TestRunStackingTask:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_each_centroid_is_computed_once(self, monkeypatch, seed):
        """A stack trial computes each detection's mask centroid once, for
        the centroid window, the sort and the position read alike."""
        import rockstack

        calls = []
        real = rockstack.geometry.mask_centroid

        def counted(mask):
            calls.append(mask)
            return real(mask)

        for module in vars(rockstack).values():
            if getattr(module, "mask_centroid", None) is real:
                monkeypatch.setattr(module, "mask_centroid", counted)
        scene = generate_scene(replace(EASY_SCENE, rock_count=(3, 3)), seed=seed)
        report = run_stacking_task(
            scene, HandGeometry(), GraspConfig(), SensorModel(depth_sigma=2.0), ExecParams(), seed=seed
        )
        assert len(report.rocks) == 3
        assert len(calls) == len({id(m) for m in calls}) == len(report.rocks)

    def test_two_rock_zero_noise_success(self):
        spec = replace(EASY_SCENE, rock_count=(2, 2))
        scene = generate_scene(spec, seed=5)
        report = run_stacking_task(
            scene, HandGeometry(), GraspConfig(), SensorModel(), ExecParams(), seed=5
        )
        assert report.success
        assert report.metrics["stacked_count"] == 2
        assert all(r["outcome"] == "placed" for r in report.rocks)

    def test_rock_wider_than_aperture_recorded_as_failure(self):
        spec = replace(EASY_SCENE, rock_count=(2, 2))
        scene = generate_scene(spec, seed=5)
        # swap one rock for a smooth dome far too wide to pinch anywhere
        scene.rocks[1].shape = Superellipsoid(95.0, 95.0, 20.0, 1.0, 1.0)
        scene.rocks[1].pose = RigidTransform(
            scene.rocks[1].pose.rotation,
            (scene.rocks[1].pose.translation[0], scene.rocks[1].pose.translation[1], 20.0),
        )
        report = run_stacking_task(
            scene, HandGeometry(), GraspConfig(), SensorModel(), ExecParams(), seed=5
        )
        assert not report.success
        failed = [r for r in report.rocks if r["outcome"] == "failed"]
        assert failed and failed[0]["failure_code"] in ("grasp-fail", "grasp-miss")

    def test_seed_determinism_byte_identical(self):
        spec = replace(EASY_SCENE, rock_count=(2, 2))
        reports = []
        for _ in range(2):
            scene = generate_scene(spec, seed=8)
            rep = run_stacking_task(
                scene, HandGeometry(), GraspConfig(), SensorModel(depth_sigma=2.0), ExecParams(), seed=8
            )
            reports.append(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert reports[0] == reports[1]

    def test_needs_two_rocks(self):
        spec = replace(EASY_SCENE, rock_count=(1, 1))
        scene = generate_scene(spec, seed=0)
        with pytest.raises(ValidationError):
            run_stacking_task(
                scene, HandGeometry(), GraspConfig(), SensorModel(), ExecParams(), seed=0
            )

    def test_phase_order_legal(self):
        spec = replace(EASY_SCENE, rock_count=(3, 3))
        scene = generate_scene(spec, seed=2)
        report = run_stacking_task(
            scene, HandGeometry(), GraspConfig(), SensorModel(), ExecParams(), seed=2
        )
        names = [p["phase"] for p in report.phases]
        assert names[0] == "detect"
        assert names[1] == "sort"
        # per-rock phases appear in pose -> grasp -> place order (a failure
        # aborts the rest of that rock's sequence)
        for i in range(3):
            sub = [n for n in names if n.endswith(f"rock_{i}")]
            stems = [n.split("_rock_")[0] for n in sub]
            allowed = ("pose", "grasp", "place", "abort")
            assert all(s in allowed for s in stems)
            order = [allowed.index(s) for s in stems if s != "abort"]
            assert order == sorted(order)


    @pytest.mark.parametrize(
        "error", [MissingDepthError, EmptyMaskError, NegativeHeightError, TypeError]
    )
    def test_perception_errors_fail_one_rock(self, monkeypatch, error):
        import rockstack.taskexec as taskexec_mod

        calls = []
        estimate = taskexec_mod.estimate_height

        def first_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise error("injected")
            return estimate(*args, **kwargs)

        monkeypatch.setattr(taskexec_mod, "estimate_height", first_call_fails)
        cfg = ExperimentConfig.from_json_dict({"task": "stack", "scene": {"rock_count": [3, 3]}})
        report = run_trial(cfg, 0)
        assert not report.success
        if error is TypeError:
            assert report.phases[0]["error_code"] == "exception:TypeError"
            return
        # the first rock fails its pose read; the others still run
        assert len(calls) == 3
        assert report.rocks[0]["outcome"] == "failed"
        assert report.rocks[0]["failure_code"] == "pose-detect-fail"
        assert report.rocks[0]["height_est_mm"] is None
        phases = [(p["phase"], p["outcome"], p["error_code"]) for p in report.phases]
        assert [p for p in phases if p[0].endswith("_rock_0")] == [
            ("pose_rock_0", "failed", "pose-detect-fail")
        ]
        assert ("pose_rock_1", "ok", None) in phases and ("pose_rock_2", "ok", None) in phases

    @staticmethod
    def _two_rock_run(monkeypatch, name, wrap):
        """Stack the two-rock scene of seed 5 (both placed when nothing is
        patched) with ``taskexec.<name>`` replaced by ``wrap(real)``; returns
        the report and each rock's (phase, outcome, error_code) tuples."""
        import rockstack.taskexec as taskexec_mod

        monkeypatch.setattr(taskexec_mod, name, wrap(getattr(taskexec_mod, name)))
        scene = generate_scene(replace(EASY_SCENE, rock_count=(2, 2)), seed=5)
        report = run_stacking_task(
            scene, HandGeometry(), GraspConfig(), SensorModel(), ExecParams(), seed=5
        )
        phases = [(p["phase"], p["outcome"], p["error_code"]) for p in report.phases]
        per_rock = [[p for p in phases if p[0].endswith(f"_rock_{i}")] for i in range(2)]
        assert not report.success
        assert len(report.rocks) == 2
        return report, per_rock

    def test_wrong_object_record(self, monkeypatch):
        calls = []

        def wrap(real):
            def grasp_the_other(arm, scene, *args, **kwargs):
                calls.append(args)
                arm, travel = real(arm, scene, *args, **kwargs)
                if len(calls) == 1:
                    other = [r.instance_id for r in scene.rocks if r.instance_id != arm.attached_id]
                    arm = replace(arm, attached_id=other[0])
                return arm, travel

            return grasp_the_other

        report, per_rock = self._two_rock_run(monkeypatch, "execute_grasp", wrap)
        rock = report.rocks[0]
        assert rock["outcome"] == "failed"
        assert rock["failure_code"] == "wrong-object"
        assert rock["grasped_instance_id"] != rock["instance_id"]
        assert isinstance(rock["stable"], bool)
        assert isinstance(rock["alignment_error_mm"], float)
        assert isinstance(rock["grasp_score"], float)
        assert per_rock[0] == [
            ("pose_rock_0", "ok", None),
            ("grasp_rock_0", "ok", None),
            ("place_rock_0", "failed", "wrong-object"),
        ]

    def test_toppled_record(self, monkeypatch):
        report, per_rock = self._two_rock_run(
            monkeypatch, "check_stack_stability", lambda real: lambda top, support: "toppled"
        )
        assert report.rocks[0]["outcome"] == "placed"
        rock = report.rocks[1]
        assert rock["outcome"] == "failed"
        assert rock["failure_code"] == "toppled"
        assert rock["stable"] is False
        assert rock["grasped_instance_id"] == rock["instance_id"]
        assert isinstance(rock["alignment_error_mm"], float)
        assert report.metrics["stacked_count"] == 1
        assert per_rock[1] == [
            ("pose_rock_1", "ok", None),
            ("grasp_rock_1", "ok", None),
            ("place_rock_1", "failed", "toppled"),
        ]

    def test_empty_grasp_list_record(self, monkeypatch):
        cones = []

        def wrap(real):
            def no_grasps(cloud, hand, cfg, *args, **kwargs):
                cones.append(cfg.cone_half_angle_deg)
                real(cloud, hand, cfg, *args, **kwargs)
                return []

            return no_grasps

        report, per_rock = self._two_rock_run(monkeypatch, "detect_grasps", wrap)
        # one detection per rock, with the configured cone: no retry
        assert cones == [GraspConfig().cone_half_angle_deg] * 2
        for i, rock in enumerate(report.rocks):
            assert rock["outcome"] == "failed"
            assert rock["failure_code"] == "grasp-fail"
            assert rock["grasp_score"] is None and "grasped_instance_id" not in rock
            assert per_rock[i] == [
                (f"pose_rock_{i}", "ok", None),
                (f"grasp_rock_{i}", "failed", "empty-grasp-list"),
            ]

    def test_no_detections_record(self, monkeypatch):
        import rockstack.taskexec as taskexec_mod

        monkeypatch.setattr(taskexec_mod, "detections_from_masks", lambda *args, **kwargs: [])
        scene = generate_scene(replace(EASY_SCENE, rock_count=(2, 2)), seed=5)
        params = ExecParams()
        report = run_stacking_task(
            scene, HandGeometry(), GraspConfig(), SensorModel(), params, seed=5
        )
        assert not report.success and report.rocks == []
        assert report.phases == [
            {
                "phase": "detect",
                "outcome": "failed",
                "error_code": "no-detections",
                "sim_time_s": params.action_time,
            }
        ]
        assert report.metrics == {"sim_time_s": params.action_time}

    def test_plane_support_heights(self):
        """``support_from_terrain: false`` measures each rock's height from
        the fitted base plane instead of the true terrain: the trials run
        without a crash, every posed rock gets a height, and the heights
        are not those measured from the terrain."""
        sensor = {"depth_sigma": 2.0, "mask_erosion": 0.1, "boundary_flip_rate": 0.02, "dropout_rate": 0.01}
        changed = False
        for seed in range(3):
            heights = {}
            for terrain in (True, False):
                cfg = ExperimentConfig.from_json_dict(
                    {"task": "stack", "base_seed": seed, "sensor": sensor, "exec": {"support_from_terrain": terrain}}
                )
                report = run_trial(cfg, 0)
                outcomes = {p["phase"]: p["outcome"] for p in report.phases}
                assert not any((p["error_code"] or "").startswith("exception:") for p in report.phases)
                for i, rock in enumerate(report.rocks):
                    if outcomes[f"pose_rock_{i}"] == "ok":
                        assert rock["height_est_mm"] is not None
                heights[terrain] = [rock["height_est_mm"] for rock in report.rocks]
            changed |= heights[True] != heights[False]
        assert changed

    def test_task_failure_aborts_the_rock(self, monkeypatch):
        calls = []

        def wrap(real):
            def first_grasp_misses(*args, **kwargs):
                calls.append(args)
                if len(calls) == 1:
                    raise GraspMissError("injected")
                return real(*args, **kwargs)

            return first_grasp_misses

        report, per_rock = self._two_rock_run(monkeypatch, "execute_grasp", wrap)
        rock = report.rocks[0]
        assert rock["outcome"] == "failed"
        assert rock["failure_code"] == "grasp-miss"
        assert isinstance(rock["grasp_score"], float)
        assert "grasped_instance_id" not in rock
        assert rock["stable"] is None and rock["alignment_error_mm"] is None
        assert per_rock[0] == [("pose_rock_0", "ok", None), ("abort_rock_0", "failed", "grasp-miss")]
        # the arm was freed: the next rock is grasped and placed
        assert report.rocks[1]["outcome"] == "placed"
        assert per_rock[1][-1] == ("place_rock_1", "ok", None)

    def test_dropout_sensor_records_rocks_not_a_crash(self):
        # 99% dropout leaves most masks without depth; every trial of this
        # config used to end as exception:MissingDepthError
        cfg = ExperimentConfig.from_json_dict(
            {"task": "stack", "base_seed": 500, "sensor": {"depth_sigma": 2.0, "dropout_rate": 0.99}}
        )
        report = run_trial(cfg, 1)
        assert not any(p["error_code"].startswith("exception:") for p in report.phases if p["error_code"])
        assert len(report.rocks) == 3
        assert [r["failure_code"] for r in report.rocks] == ["pose-detect-fail"] * 3
        # no rock reached a grasp, so there is no grasp rate to report
        assert compute_metrics([report]).grasp_success_rate is None


# a base camera whose top rows look above the horizon, so not every ray descends
LEVEL_BASE_CAMERA = {
    "position": [0.0, 0.0, 250.0],
    "look_at": [0.0, 500.0, 60.0],
    "intrinsics": {"fx": 270.0, "fy": 270.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
}
# wrist intrinsics wide enough that the sweep's outer rays rise
WIDE_HAND_INTRINSICS = {"fx": 25.0, "fy": 25.0, "cx": 80.0, "cy": 60.0, "width": 160, "height": 120}


def _observe_cases():
    """(config, seed) for the scenes and sensors of the golden stack and
    assembly configs, plus 99% dropout, a base camera whose rays do not all
    descend and wrist cameras whose rays do not all descend."""
    cases = []
    for name in ("stack_nominal_0", "stack_nominal_12", "stack_sigma0", "assemble_head", "assemble_leg"):
        cfg = ExperimentConfig.from_json_dict(GOLDEN_CONFIGS[name])
        cases += [pytest.param(cfg, cfg.base_seed + i, id=f"{name}-{i}") for i in range(cfg.trials)]
    stack = ExperimentConfig.from_json_dict(GOLDEN_CONFIGS["stack_nominal_0"])
    variants = {
        "dropout99": {"sensor": SensorModel(depth_sigma=2.0, dropout_rate=0.99)},
        "level-base-camera": {"scene": replace(stack.scene, base_camera=LEVEL_BASE_CAMERA)},
        "wide-wrist-camera": {"scene": replace(stack.scene, hand_camera_intrinsics=WIDE_HAND_INTRINSICS)},
    }
    for name, change in variants.items():
        cases += [pytest.param(replace(stack, **change), seed, id=f"{name}-{seed}") for seed in range(2)]
    return cases


def _outcome(read, *args):
    """``read(*args)``, or the name of the error it raised."""
    try:
        return read(*args)
    except Exception as exc:  # compared, not handled
        return type(exc).__name__


def _same(a, b) -> bool:
    """Equal values, bit for bit for floats and float arrays."""
    if isinstance(a, str) or isinstance(b, str):
        return isinstance(a, str) and isinstance(b, str) and a == b
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestObserveOracle:
    """The runners' observations cast only the pixels they read; every value
    they read equals that of the whole images (``observe_oracle``)."""

    @pytest.mark.parametrize("cfg, seed", _observe_cases())
    def test_base_view_matches_the_whole_image(self, cfg, seed):
        scene = generate_scene(cfg.scene, seed)
        camera = scene.base_camera
        intr, pose = camera.intrinsics, camera.pose
        labels = ("rock",) if cfg.task == "stack" else ("head", "leg")
        whole, want = observe_oracle.observe_base(scene, cfg.sensor, seed, labels)
        view, dets = _observe_base(scene, cfg.sensor, seed, labels)
        assert [d.instance_id for d in dets] == [d.instance_id for d in want]
        # the stacking runner fits the plane before it reads any rock
        got = _outcome(_cloud_plane, [view], 2, derive_seed(seed, 3))
        want_plane = _outcome(observe_oracle.base_plane, whole, camera, seed)
        supports = [(scene.terrain.height_at, scene.terrain.height_at)]
        if isinstance(want_plane, str):
            assert got == want_plane
        else:
            plane, points = got
            assert _same(plane.normal, want_plane.normal) and plane.offset == want_plane.offset
            assert points == len(cloud_from_depth(whole, intr, pose, stride=2))
            supports.append((plane.z_at, want_plane.z_at))
        for got_det, want_det in zip(dets, want):
            np.testing.assert_array_equal(got_det.bitmap, want_det.bitmap)
            got_pos = _outcome(object_workspace_pose, got_det, view.depth, intr, pose)
            want_pos = _outcome(object_workspace_pose, want_det, whole, intr, pose)
            assert _same(got_pos, want_pos)
            if isinstance(want_pos, str):
                continue
            # each side's support height is read at the position that side read
            for got_z, want_z in supports:
                got_h = _outcome(estimate_height, got_det, view.depth, intr, pose, float(got_z(*got_pos[:2])))
                want_h = _outcome(estimate_height, want_det, whole, intr, pose, float(want_z(*want_pos[:2])))
                assert _same(got_h, want_h)
        # the depth read anywhere equals the whole image's; elsewhere it reads 0
        cast = view.depth != 0
        np.testing.assert_array_equal(view.depth[cast], whole[cast])
        for part in scene.parts:
            for name in part.attachments:
                point = part.attachment_world(name).translation
                got = _outcome(_measure_point_via_depth, point, view)
                assert _same(got, _outcome(_measure_whole, point, whole, camera))
        # footprints, reads and the plane's sample were cast, not the whole image
        assert np.count_nonzero(view.ids != MISS_ID) <= view.depth.size // 4

    @pytest.mark.parametrize("cfg, seed", _observe_cases())
    def test_wrist_sweep_matches_the_whole_images(self, cfg, seed):
        scene = generate_scene(cfg.scene, seed)
        grasp_cfg = replace(cfg.grasp, seed=derive_seed(seed, 30))
        for obj in scene.objects()[:2]:
            xy = obj.pose.translation[:2]
            got = _outcome(observe_object, scene, xy, cfg.sensor, cfg.exec, derive_seed(seed, 10))
            want = _outcome(observe_oracle.observe_object, scene, xy, cfg.sensor, cfg.exec, derive_seed(seed, 10))
            if isinstance(want, str):
                assert got == want
                continue
            cloud, plane, ws, viewpoint = want
            assert got.points == len(cloud)
            assert _same(got.plane.normal, plane.normal) and got.plane.offset == plane.offset
            assert _same(got.cloud.points, crop_workspace(cloud, ws).points)
            np.testing.assert_array_equal(got.workspace.min_corner, ws.min_corner)
            np.testing.assert_array_equal(got.workspace.max_corner, ws.max_corner)
            assert got.viewpoint == viewpoint
            whole = detect_grasps(cloud, cfg.hand, grasp_cfg, plane, ws, viewpoint)
            if len(got.cloud):
                grasps = detect_grasps(got.cloud, cfg.hand, grasp_cfg, got.plane, got.workspace, got.viewpoint)
                assert [g.to_json_dict() for g in grasps] == [g.to_json_dict() for g in whole]
            else:
                assert whole == []

    def test_empty_crop_has_no_grasps(self):
        cfg = ExperimentConfig.from_json_dict(GOLDEN_CONFIGS["stack_nominal_0"])
        scene = generate_scene(cfg.scene, 0)
        params = replace(cfg.exec, crop_half_xy=0.01)
        xy = scene.rocks[0].pose.translation[:2]
        got = observe_object(scene, xy, cfg.sensor, params, 5)
        cloud, plane, ws, viewpoint = observe_oracle.observe_object(scene, xy, cfg.sensor, params, 5)
        assert len(got.cloud) == len(crop_workspace(cloud, ws)) == 0
        assert got.points == len(cloud) > 0
        assert detect_grasps(cloud, cfg.hand, cfg.grasp, plane, ws, viewpoint) == []
        # the runners detect nothing on an empty crop, and do not fail
        report = run_trial(replace(cfg, exec=params), 0)
        assert report.rocks and all(r["failure_code"] == "grasp-fail" for r in report.rocks)

    def test_no_valid_pixel_fails_as_the_whole_cloud_does(self):
        cfg = ExperimentConfig.from_json_dict(GOLDEN_CONFIGS["stack_nominal_0"])
        scene = generate_scene(cfg.scene, 0)
        sensor = SensorModel(dropout_rate=1.0)
        view, _ = _observe_base(scene, sensor, 0, ("rock",))
        with pytest.raises(EmptyCloudError, match="depth image has no valid pixels"):
            _cloud_plane([view], 2, 3)
        with pytest.raises(EmptyCloudError, match="depth image has no valid pixels"):
            observe_object(scene, scene.rocks[0].pose.translation[:2], sensor, cfg.exec, 0)


class TestBaseViewMasks:
    """``_observe_base`` casts no mask pixel of its own: the footprints
    that ``NoisyDepth.masks`` casts already hold every pixel of every
    detection, however strongly the sensor degrades the masks."""

    @pytest.mark.parametrize(
        "sensor",
        [
            SensorModel(boundary_flip_rate=0.5),
            SensorModel(mask_erosion=0.2, boundary_flip_rate=0.5),
            SensorModel(mask_erosion=0.6, boundary_flip_rate=0.5),
        ],
    )
    @pytest.mark.parametrize("task", ["stack", "assemble", "pose_stability"])
    def test_every_mask_pixel_is_cast(self, task, sensor):
        scene_spec = ExperimentConfig.from_json_dict({"task": task}).scene
        detections = 0
        for seed in range(30):
            scene = generate_scene(scene_spec, seed)
            view, dets = _observe_base(scene, sensor, seed, ("rock", "body", "head", "leg"))
            for det in dets:
                assert not np.isnan(view.clean[det.bitmap]).any()
            detections += len(dets)
        assert detections >= 30


def _measure_whole(point, depth, camera):
    """``_measure_point_via_depth`` on a whole depth image."""
    u, v, _ = project_point(camera.intrinsics, camera.pose.inverse().apply(point))
    d = median_window_depth(depth, float(u), float(v), size=3)
    return camera.pose.apply(deproject_pixel(camera.intrinsics, float(u), float(v), d))


class TestRunAssemblyTask:
    @staticmethod
    def _config(part_class: str) -> ExperimentConfig:
        return ExperimentConfig.from_json_dict(
            {"task": "assemble", "scene": {"rock_count": [0, 0], "parts": ["body", part_class]}}
        )

    def test_head_zero_noise_attaches(self):
        cfg = self._config("head")
        scene = generate_scene(cfg.scene, seed=1)
        report = run_assembly_task(
            scene, cfg.hand, cfg.grasp, SensorModel(), cfg.exec, seed=1
        )
        assert report.success
        part = report.parts[0]
        assert part["outcome"] == "attached"
        assert part["attach_pos_error_mm"] <= 3.0
        assert part["attach_rot_error_deg"] <= 5.0
        # independent frame oracle: plug frame actually meets the socket
        body = [p for p in scene.parts if p.part_class == "body"][0]
        head = [p for p in scene.parts if p.part_class == "head"][0]
        plug = head.attachment_world("plug")
        socket = body.attachment_world("socket_top")
        assert np.linalg.norm(plug.translation - socket.translation) <= 3.0
        # mated: plug z opposes socket z
        assert float(plug.rotation[:, 2] @ socket.rotation[:, 2]) < -0.996

    def test_occluded_leg_joint_recorded(self):
        cfg = self._config("leg")
        scene = generate_scene(cfg.scene, seed=0)  # seed 0 grasps with the plug hidden
        report = run_assembly_task(
            scene, cfg.hand, cfg.grasp, SensorModel(), cfg.exec, seed=0
        )
        phases = {p["phase"]: p for p in report.phases}
        assert not report.success
        assert phases["detect_joint"]["outcome"] == "failed"
        assert phases["detect_joint"]["error_code"] == "joint-not-visible"

    def test_phase_transitions_linear(self):
        cfg = self._config("head")
        scene = generate_scene(cfg.scene, seed=2)
        report = run_assembly_task(
            scene, cfg.hand, cfg.grasp, SensorModel(), cfg.exec, seed=2
        )
        names = [p["phase"] for p in report.phases]
        expected = ["get_pose", "grasp", "pre_assembly", "detect_joint", "displace", "attach"]
        assert names == expected[: len(names)]

    @pytest.mark.parametrize(
        "error, code", [(MissingDepthError, "pose-detect-fail"), (TypeError, "exception:TypeError")]
    )
    def test_only_perception_errors_fail_get_pose(self, monkeypatch, error, code):
        import rockstack.taskexec as taskexec_mod

        def broken(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(taskexec_mod, "object_workspace_pose", broken)
        report = run_trial(self._config("head"), 0)
        assert not report.success
        assert report.phases[0]["error_code"] == code

    @pytest.mark.parametrize(
        "error", [MissingDepthError, OutOfBoundsError, BehindCameraError, TypeError]
    )
    def test_only_perception_errors_fail_detect_joint(self, monkeypatch, error):
        # the second depth read is the plug's, in detect_joint
        import rockstack.taskexec as taskexec_mod

        calls = []
        measure = taskexec_mod._measure_point_via_depth

        def second_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise error("injected")
            return measure(*args, **kwargs)

        monkeypatch.setattr(taskexec_mod, "_measure_point_via_depth", second_call_fails)
        report = run_trial(self._config("head"), 1)  # attaches when nothing is injected
        assert len(calls) == 2 and not report.success
        if error is TypeError:
            assert report.phases[0]["error_code"] == "exception:TypeError"
        else:
            assert report.phases[-1]["phase"] == "detect_joint"
            assert report.phases[-1]["error_code"] == "joint-not-visible"

    def test_determinism(self):
        cfg = self._config("leg")
        outs = []
        for _ in range(2):
            scene = generate_scene(cfg.scene, seed=7)
            rep = run_assembly_task(
                scene, cfg.hand, cfg.grasp, SensorModel(depth_sigma=1.0), cfg.exec, seed=7
            )
            outs.append(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert outs[0] == outs[1]


class TestTrialReport:
    def test_json_round_trip(self):
        rep = TrialReport(
            task="stack",
            trial_seed=3,
            success=True,
            phases=[{"phase": "detect", "outcome": "ok", "error_code": None, "sim_time_s": 0.5}],
            rocks=[{"instance_id": 0, "outcome": "placed"}],
            metrics={"sim_time_s": 12.5},
        )
        back = TrialReport.from_json_dict(rep.to_json_dict())
        assert back.to_json_dict() == rep.to_json_dict()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"success": "false"}, "success: expected true or false, got 'false'"),
            ({"success": 0}, "success: expected true or false, got 0"),
            ({"trial_seed": 1.5}, "trial_seed: expected an integer, got 1.5"),
            ({"trial_seed": None}, "trial_seed: expected an integer, got None"),
        ],
    )
    def test_bad_field_is_named(self, change, message):
        data = dict(TrialLog("stack", 3).report(False).to_json_dict(), **change)
        with pytest.raises(ConfigError) as info:
            TrialReport.from_json_dict(data)
        assert str(info.value) == message

    def test_missing_field_and_non_object_rejected(self):
        with pytest.raises(ConfigError, match="missing key 'phases'"):
            TrialReport.from_json_dict({"task": "stack", "trial_seed": 0, "success": True})
        with pytest.raises(ConfigError, match="expected a JSON object, got list"):
            TrialReport.from_json_dict([])

    def test_unknown_key_is_dropped(self):
        # a lossy round trip, which a reader of trial files rejects
        data = TrialLog("stack", 3).report(True).to_json_dict()
        back = TrialReport.from_json_dict(dict(data, bogus=1))
        assert back.to_json_dict() == data


class TestGripperGeometry:
    def test_fingers_straddle_opening(self):
        hand = HandGeometry()
        arm = ArmState.home(ExecParams(), hand)
        arm = replace(arm, opening=40.0)
        gripper = gripper_geometry(arm, hand)
        # finger inner faces sit at +/- opening/2 in the hand frame
        pts = gripper.surface_points_world(spacing=3.0)
        local = (pts - arm.pose.translation) @ arm.pose.rotation
        fingers = local[(local[:, 0] > 1.0) & (np.abs(local[:, 1]) > 19.0)]
        assert fingers.size > 0
        assert np.min(np.abs(fingers[:, 1])) >= 20.0 - 1e-6


class TestTrialLog:
    def test_phases_run_from_the_previous_phase(self):
        params = ExecParams(arm_speed=100.0, action_time=0.5)
        trial = TrialLog("stack", 4, params)
        trial.move(150.0)
        trial.phase("first")
        trial.phase("empty")
        trial.action()
        trial.move(50.0)
        trial.phase("second", "grasp-fail")
        report = trial.report(False, {"rock_count": 2}, rocks=[{"outcome": "failed"}])
        assert report.phases == [
            {"phase": "first", "outcome": "ok", "error_code": None, "sim_time_s": 1.5},
            {"phase": "empty", "outcome": "ok", "error_code": None, "sim_time_s": 0.0},
            {"phase": "second", "outcome": "failed", "error_code": "grasp-fail", "sim_time_s": 1.0},
        ]
        assert list(report.metrics.items()) == [("rock_count", 2), ("sim_time_s", 2.5)]
        assert (report.task, report.trial_seed, report.success) == ("stack", 4, False)
        assert report.rocks == [{"outcome": "failed"}] and report.parts == []
        assert report.sim_time_s == 2.5

    def test_timeless_trial(self):
        trial = TrialLog("pose_stability", 9)
        trial.phase("pose_bench")
        report = trial.report(True)
        assert report.phases[0]["sim_time_s"] == 0.0
        assert report.metrics == {"sim_time_s": 0.0}

    @pytest.mark.parametrize("task, seed", [("stack", 3), ("assemble", 0), ("assemble", 1)])
    def test_phase_times_add_up_to_the_trial_time(self, task, seed):
        report = run_trial(ExperimentConfig.from_json_dict({"task": task}), seed)
        assert len(report.phases) > 1
        total = sum(p["sim_time_s"] for p in report.phases)
        assert total == pytest.approx(report.sim_time_s, abs=1e-5)

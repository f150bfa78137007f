"""Acceptance suite: the eleven gate criteria, each at its stated tolerance.

Every test prints one PASS line with its measured numbers (run with -s to
see them); hardware headline figures (92% stacking, 96% sorting, 25 mm
alignment, the per-object rate tables) are report-format references, not
simulation targets, and appear here only as labels alongside the measured
analogs.

Run just this module with:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import math
import time

import numpy as np

from rockstack.geometry import (
    CameraIntrinsics,
    RigidTransform,
    camera_pose_from_lookat,
    deproject_pixel,
    project_point,
)
from rockstack.graspdetect import GraspConfig, HandGeometry, detect_grasps
from rockstack.harness import (
    ExperimentConfig,
    run_experiment,
    run_trial,
    summary_to_csv,
)
from rockstack.perception import (
    detect_objects,
    estimate_height,
    object_workspace_pose,
    sort_by_mask_area,
)
from rockstack.pointcloud import (
    PointCloud,
    Workspace,
    cloud_from_depth,
    fit_plane_ransac,
)
from rockstack.scenesim import (
    CameraSpec,
    SceneSpec,
    SensorModel,
    generate_scene,
    render_depth,
)
from rockstack.taskexec import ExecParams, check_stack_stability, run_stacking_task

from conftest import tree_hash
from grasp_oracle import rock_scene_cloud
from stability_oracle import monte_carlo_stability, oracle_margin, random_resting_pair
from test_graspdetect import brute_force_sound

EASY_SCENE = {
    "rock_exponents": [0.7, 1.05],
    "rock_height_axis": [10.0, 18.0],
    "rock_semi_axis": [16.0, 30.0],
}
NOMINAL_SENSOR = {
    "depth_sigma": 2.0,
    "mask_erosion": 0.1,
    "boundary_flip_rate": 0.02,
    "dropout_rate": 0.01,
}


def _report(name: str, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {name}: PASS ({detail})")


def test_criterion_01_geometry_round_trip_speed():
    """1e5 random (u,v,d): project(deproject) identity within 1e-6, < 1 s."""
    intr = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=640, height=480)
    rng = np.random.default_rng(1)
    n = 100_000
    u = rng.uniform(0, intr.width - 1e-9, n)
    v = rng.uniform(0, intr.height - 1e-9, n)
    d = rng.uniform(0.5, 5000.0, n)
    start = time.perf_counter()
    pts = deproject_pixel(intr, u, v, d)
    u2, v2, d2 = project_point(intr, pts)
    elapsed = time.perf_counter() - start
    err = max(
        float(np.max(np.abs(u2 - u))),
        float(np.max(np.abs(v2 - v))),
        float(np.max(np.abs(d2 - d))),
    )
    assert err < 1e-6
    assert elapsed < 1.0
    _report("criterion 1 round-trip", f"max err {err:.2e}, {elapsed * 1000:.0f} ms for 1e5")


def test_criterion_02_ransac_recovery():
    """Plane z=0, 1000 inliers sigma=1mm + 30% box outliers: normal within
    1 degree and offset within 1 mm on >= 99 of 100 seeds."""
    good = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        inliers = np.column_stack(
            [rng.uniform(-250, 250, (1000, 2)), rng.normal(0, 1.0, 1000)]
        )
        outliers = rng.uniform(-250, 250, (429, 3))  # 30% of the total
        cloud = PointCloud(np.concatenate([inliers, outliers]))
        plane, _ = fit_plane_ransac(cloud, iters=200, tol=5.0, seed=seed)
        angle = math.degrees(math.acos(min(1.0, abs(float(plane.normal[2])))))
        if angle < 1.0 and abs(plane.offset) < 1.0:
            good += 1
    assert good >= 99
    _report("criterion 2 RANSAC", f"{good}/100 seeds within 1 deg / 1 mm")


def test_criterion_03_grasp_soundness_100_scenes():
    """On 100 seeded rock scenes every selected grasp passes the brute-force
    collision/closing/approach/width oracle; never more than 20 returned."""
    hand = HandGeometry()
    checked = 0
    total_grasps = 0
    for seed in range(100):
        cloud, plane, ws, viewpoint = rock_scene_cloud(seed)
        cfg = GraspConfig(seed=seed)
        grasps = detect_grasps(cloud, hand, cfg, plane, ws, viewpoint)
        assert len(grasps) <= 20
        from rockstack.pointcloud import crop_workspace, filter_above_plane

        work = filter_above_plane(crop_workspace(cloud, ws), plane, cfg.plane_margin)
        for g in grasps:
            assert brute_force_sound(g, work, hand, cfg), f"unsound grasp on seed {seed}"
        total_grasps += len(grasps)
        checked += 1
    assert checked == 100
    _report("criterion 3 soundness", f"{total_grasps} grasps over 100 scenes, all sound, <= 20 each")


def test_criterion_04_real_time_budget():
    """detect_grasps on a ~20,000-point cloud: median < 100 ms over 20 runs."""
    scene = generate_scene(SceneSpec(rock_count=(1, 1)), seed=3)
    rock = scene.rocks[0]
    cx, cy = rock.center_of_mass[:2]
    intr = CameraIntrinsics(fx=140.0, fy=140.0, cx=84.0, cy=60.0, width=168, height=120)
    cam = CameraSpec(intr, camera_pose_from_lookat((cx, cy, 350.0), (cx, cy, 0.0)))
    depth = render_depth(scene, cam, SensorModel(), seed=0)
    cloud = cloud_from_depth(depth, intr, cam.pose)
    assert len(cloud) >= 20_000
    plane, _ = fit_plane_ransac(cloud, 200, 4.0, seed=1, max_points=2500)
    ws = Workspace((cx - 70, cy - 70, -60.0), (cx + 70, cy + 70, 400.0))
    hand = HandGeometry()
    cfg = GraspConfig(seed=2)
    limit_ms = 100.0
    times = []
    for _ in range(20):
        start = time.perf_counter()
        grasps = detect_grasps(cloud, hand, cfg, plane, ws, (cx, cy, 350.0))
        times.append(time.perf_counter() - start)
    median_ms = float(np.median(times)) * 1000.0
    assert grasps
    assert median_ms < limit_ms
    _report(
        "criterion 4 real-time",
        f"median {median_ms:.1f} ms on {len(cloud)} points, {len(grasps)} grasps, "
        f"headroom {median_ms / limit_ms:.2f} (median / {limit_ms:.0f} ms limit)",
    )


def test_criterion_05_size_classification():
    """Clean masks with >=10% cross-section separation: 100% pairwise order
    agreement over 50 scenes; degraded (erosion 0.25, flips 0.05): >= 90%."""
    spec = SceneSpec(rock_count=(3, 4), min_separation=85.0, min_area_separation=0.10)
    degraded_sensor = SensorModel(mask_erosion=0.25, boundary_flip_rate=0.05)
    results = {"clean": [0, 0], "degraded": [0, 0]}
    for seed in range(50):
        scene = generate_scene(spec, seed=seed)
        sections = {r.instance_id: r.max_cross_section_area() for r in scene.rocks}
        for sensor, key in ((None, "clean"), (degraded_sensor, "degraded")):
            dets = detect_objects(
                scene, scene.base_camera, sensor=sensor, seed=seed, labels=("rock",)
            )
            order = [d.instance_id for d in sort_by_mask_area(dets)]
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    results[key][1] += 1
                    results[key][0] += sections[order[i]] >= sections[order[j]]
    clean_rate = results["clean"][0] / results["clean"][1]
    degraded_rate = results["degraded"][0] / results["degraded"][1]
    assert clean_rate == 1.0
    assert degraded_rate >= 0.90
    _report(
        "criterion 5 sorting",
        f"clean {results['clean'][0]}/{results['clean'][1]}, "
        f"degraded {degraded_rate:.1%} (hardware headline analog: 96%)",
    )


def test_criterion_06_height_estimation():
    """sigma_d=2mm over 100 rocks: median relative error <= 4%; zero noise:
    absolute error <= 2 mm."""
    spec = SceneSpec()
    noisy = SensorModel(depth_sigma=2.0)
    rel_errors = []
    abs_zero = []
    seed = 0
    while len(rel_errors) < 100:
        scene = generate_scene(spec, seed=seed)
        depth_noisy = render_depth(scene, scene.base_camera, noisy, seed * 7 + 1)
        depth_clean = render_depth(scene, scene.base_camera, SensorModel(), seed * 7 + 2)
        for det in detect_objects(scene, scene.base_camera, labels=("rock",)):
            rock = scene.object_by_id(det.instance_id)
            pts = rock.surface_points_world(32, 64)
            true_h = float(np.max(pts[:, 2])) - float(
                scene.terrain.height_at(*rock.center_of_mass[:2])
            )
            args = (scene.base_camera.intrinsics, scene.base_camera.pose)
            heights = []
            for depth in (depth_noisy, depth_clean):
                x, y, _ = object_workspace_pose(det, depth, *args)
                support_z = float(scene.terrain.height_at(x, y))
                heights.append(estimate_height(det, depth, *args, support_z))
            rel_errors.append(abs(heights[0] - true_h) / true_h)
            abs_zero.append(abs(heights[1] - true_h))
        seed += 1
    median_rel = float(np.median(rel_errors[:100]))
    max_abs = float(np.max(abs_zero[:100]))
    assert median_rel <= 0.04
    assert max_abs <= 2.0
    _report(
        "criterion 6 height",
        f"median rel err {median_rel:.2%} at sigma=2mm (reference: 4%), zero-noise max {max_abs:.2f} mm",
    )


def test_criterion_07_stacking_benchmark():
    """50 nominal-noise scenes: >= 44/50 success and < 60 s wall clock;
    zero-noise easy suite: 50/50; mean alignment reported beside the 25 mm
    hardware reference."""
    hand = HandGeometry()
    cfg = GraspConfig()
    params = ExecParams()

    easy_spec = SceneSpec.from_json_dict(EASY_SCENE)
    easy_ok = 0
    for seed in range(50):
        scene = generate_scene(easy_spec, seed=seed)
        easy_ok += run_stacking_task(scene, hand, cfg, SensorModel(), params, seed).success
    assert easy_ok == 50

    nominal_sensor = SensorModel.from_json_dict(NOMINAL_SENSOR)
    start = time.perf_counter()
    successes = 0
    alignments = []
    for seed in range(50):
        scene = generate_scene(SceneSpec(), seed=seed)
        rep = run_stacking_task(scene, hand, cfg, nominal_sensor, params, seed)
        successes += rep.success
        alignments += [
            r["alignment_error_mm"]
            for r in rep.rocks
            if r.get("stable") and r["alignment_error_mm"] is not None
        ]
    wall = time.perf_counter() - start
    mean_alignment = float(np.mean(alignments))
    assert successes >= 44
    assert wall < 60.0
    _report(
        "criterion 7 stacking",
        f"easy 50/50, nominal {successes}/50 in {wall:.1f} s, "
        f"mean alignment {mean_alignment:.1f} mm (hardware reference: 25 mm)",
    )


def test_criterion_08_pose_stability():
    """Zero noise: sigma exactly (0,0,0). sigma_d=2mm over 1e4 samples:
    measured sigma_z within 15% of analytic propagation; CSV has the
    object-by-sigma table shape."""
    zero_cfg = ExperimentConfig.from_json_dict(
        {"task": "pose_stability", "samples": 100, "base_seed": 2}
    )
    zero_rep = run_trial(zero_cfg, 0)
    for row in zero_rep.metrics["classes"].values():
        assert (row["sigma_x_mm"], row["sigma_y_mm"], row["sigma_z_mm"]) == (0.0, 0.0, 0.0)

    noisy_cfg = ExperimentConfig.from_json_dict(
        {
            "task": "pose_stability",
            "samples": 10_000,
            "base_seed": 2,
            "sensor": {"depth_sigma": 2.0},
        }
    )
    rep = run_trial(noisy_cfg, 0)
    classes = rep.metrics["classes"]
    # flat-top object, 5x5 median window: depth noise + input quantization
    # propagate through the median (asymptotic), plus integer-mm output
    # quantization of the median itself
    sigma_eff_sq = 2.0**2 + 1.0 / 12.0
    predicted = math.sqrt(math.pi / (2 * 25) * sigma_eff_sq + 1.0 / 12.0)
    measured = classes["body"]["sigma_z_mm"]
    ratio = measured / predicted
    assert 0.85 <= ratio <= 1.15
    assert classes["body"]["samples"] == 10_000

    from rockstack.harness import compute_metrics

    summary = compute_metrics([rep])
    csv_text = summary_to_csv(summary)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "object,sigma_x_mm,sigma_y_mm,sigma_z_mm"
    assert len(lines) >= 4  # one row per measured object class
    _report(
        "criterion 8 pose stability",
        f"zero-noise exact zeros; sigma_z {measured:.3f} vs analytic {predicted:.3f} "
        f"(ratio {ratio:.2f}) over 1e4 samples; CSV rows={len(lines) - 1}",
    )


def test_criterion_09_assembly_benchmark():
    """14 head and 42 leg zero-noise trials with per-phase attribution;
    every reported attach re-verified by an independent frame oracle within
    3 mm / 5 deg; 100% attach among unobstructed (joint-visible) trials."""
    from rockstack.taskexec import run_assembly_task

    results = {}
    for part_class, trials in (("head", 14), ("leg", 42)):
        cfg = ExperimentConfig.from_json_dict(
            {"task": "assemble", "scene": {"rock_count": [0, 0], "parts": ["body", part_class]}}
        )
        visible = attached = 0
        for seed in range(trials):
            scene = generate_scene(cfg.scene, seed=seed)
            rep = run_assembly_task(
                scene, cfg.hand, cfg.grasp, SensorModel(), cfg.exec, seed
            )
            phases = {p["phase"]: p for p in rep.phases}
            assert phases, "per-phase attribution missing"
            for p in rep.phases:
                assert p["outcome"] in ("ok", "failed")
            part = rep.parts[0]
            if phases.get("detect_joint", {}).get("outcome") == "ok":
                visible += 1
            if part["outcome"] == "attached":
                attached += 1
                # independent frame-algebra oracle over the recorded raw frames
                plug = RigidTransform.from_json_dict(part["plug_frame"])
                socket = RigidTransform.from_json_dict(part["socket_frame"])
                mate = socket.compose(RigidTransform.rotation_x(math.pi))
                pos_err = float(np.linalg.norm(plug.translation - mate.translation))
                rel = mate.rotation.T @ plug.rotation
                axis_err = math.degrees(
                    math.acos(np.clip((mate.rotation[:, 2] @ plug.rotation[:, 2]), -1, 1))
                )
                assert pos_err <= 3.0 + 1e-9
                assert axis_err <= 5.0 + 1e-9
        results[part_class] = (trials, visible, attached)
        # unobstructed (joint visible) trials must all attach at zero noise
        assert attached == visible
    head = results["head"]
    leg = results["leg"]
    _report(
        "criterion 9 assembly",
        f"head {head[2]}/{head[0]} attached ({head[1]} visible), "
        f"leg {leg[2]}/{leg[0]} attached ({leg[1]} visible); "
        "hardware reference rates: head 92.8%/95.3%, leg 76.1%/86.2%",
    )


def test_criterion_10_deterministic_output_tree(tmp_path):
    """Identical config and seeds give a byte-identical output tree, serial
    and parallel runs included."""
    cfg = ExperimentConfig.from_json_dict(
        {
            "task": "stack",
            "trials": 4,
            "base_seed": 11,
            "scene": dict(EASY_SCENE, rock_count=[2, 2]),
            "sensor": NOMINAL_SENSOR,
        }
    )
    dirs = [tmp_path / f"run{i}" for i in range(3)]
    run_experiment(cfg, out_dir=dirs[0], workers=1)
    run_experiment(cfg, out_dir=dirs[1], workers=1)
    run_experiment(cfg, out_dir=dirs[2], workers=2)
    hashes = [tree_hash(d) for d in dirs]
    assert hashes[0] == hashes[1] == hashes[2]
    _report("criterion 10 determinism", f"3 runs, tree hash {hashes[0][:12]}…")


def test_criterion_11_stability_oracle_agreement():
    """check_stack_stability agrees with the 1e4-sample Monte Carlo
    containment oracle on 1000 random resting pairs.

    Pairs whose stability margin is within 1.25 mm of the decision boundary
    are redrawn: the check's stated resolution is the 1 mm sampling grid,
    below which grid and Monte Carlo hulls may legitimately disagree.
    """
    rng = np.random.default_rng(7)
    checked = 0
    agreements = 0
    stable_count = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 8000, "pair generator starved"
        pair = random_resting_pair(rng)
        if pair is None:
            continue
        top, support = pair
        if abs(oracle_margin(top, support, grid=70)) < 1.25:
            continue
        got = check_stack_stability(top, support)
        want = monte_carlo_stability(top, support, rng, n=10_000)
        agreements += got == want
        stable_count += got == "stable"
        checked += 1
    assert checked == 1000
    assert agreements == 1000
    _report(
        "criterion 11 stability oracle",
        f"1000/1000 agreement ({stable_count} stable, {1000 - stable_count} toppled)",
    )

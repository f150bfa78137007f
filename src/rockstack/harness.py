"""Experiment runner and metrics: seeded trial batches for the stacking,
assembly, pose-stability and grasp benchmarks, with per-trial JSON reports
and a recomputable summary.

Determinism contract: trial i always runs with seed ``base_seed + i``; the
whole output tree (trial files plus summary) is byte-identical across reruns
and across serial vs. parallel execution. Reports therefore carry simulated
durations only; wall-clock timing is printed to stderr, never written.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .geometry import deproject_pixel, mask_centroid, project_point
from .graspdetect import GraspConfig, HandGeometry, detect_grasps
from .perception import (
    WorkspacePose,
    detections_from_masks,
    median_window_depths,
    pose_stability_stats,
    window_bounds,
)
from .pointcloud import Workspace, cloud_from_depth, fit_plane_ransac
from .scenesim import (
    SceneSpec,
    SensorModel,
    apply_depth_noise,
    generate_scene,
    instance_masks,
    render_scene_geometry,
)
from .taskexec import (
    ExecParams,
    TrialReport,
    _derive_seed,
    run_assembly_task,
    run_stacking_task,
)

SCHEMA_VERSION = 1
TASKS = ("stack", "assemble", "pose_stability", "grasp_bench")

# hardware baseline the simulated alignment metric is reported alongside
REFERENCE_ALIGNMENT_MM = 25.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: task, trial count, seed policy and nested configs."""

    task: str = "stack"
    trials: int = 1
    base_seed: int = 0
    samples: int = 2000  # pose_stability repetitions per trial
    scene: SceneSpec = field(default_factory=SceneSpec)
    sensor: SensorModel = field(default_factory=SensorModel)
    hand: HandGeometry = field(default_factory=HandGeometry)
    grasp: GraspConfig = field(default_factory=GraspConfig)
    exec_params: ExecParams = field(default_factory=ExecParams)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task: unknown task {self.task!r}; expected one of {TASKS}")
        for name in ("trials", "base_seed", "samples"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name}: expected an integer, got {value!r}")
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")
        if self.samples < 2:
            raise ConfigError("samples: must be >= 2")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "task": self.task,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "samples": self.samples,
            "scene": self.scene.to_json_dict(),
            "sensor": self.sensor.to_json_dict(),
            "hand": self.hand.to_json_dict(),
            "grasp": self.grasp.to_json_dict(),
            "exec": self.exec_params.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
        kwargs: dict = {}
        for key in ("task", "trials", "base_seed", "samples"):
            if key in data:
                kwargs[key] = data[key]
        task = kwargs.get("task", "stack")
        scene_data = dict(data.get("scene", {}))
        if task == "assemble":
            if "parts" not in scene_data:
                scene_data.setdefault("rock_count", [0, 0])
                scene_data["parts"] = ["body", "head"]
            scene_data.setdefault("base_camera", DEFAULT_ASSEMBLY_CAMERA)
            scene_data.setdefault("min_separation", 140.0)
        if task == "pose_stability" and "parts" not in scene_data:
            scene_data.setdefault("rock_count", [1, 1])
            scene_data["parts"] = ["body", "head", "leg"]
        sections = (
            ("scene", SceneSpec, scene_data),
            ("sensor", SensorModel, data.get("sensor", {})),
            ("hand", HandGeometry, data.get("hand", {})),
            ("grasp", GraspConfig, data.get("grasp", {})),
        )
        for name, factory, payload in sections:
            try:
                kwargs[name] = factory.from_json_dict(payload)
            except (ValueError, TypeError, KeyError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        try:
            kwargs["exec_params"] = ExecParams.from_json_dict(data.get("exec", {}))
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"exec: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f))


DEFAULT_ASSEMBLY_CAMERA = {
    "position": [0.0, 40.0, 300.0],
    "look_at": [0.0, 520.0, 90.0],
    "intrinsics": {"fx": 300.0, "fy": 300.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
}


@dataclass
class MetricsSummary:
    """Aggregate metrics, a pure fold over the trial reports."""

    task: str
    trials: int
    success_rate: float | None = None
    size_sort_agreement: float | None = None
    height_rel_error_median: float | None = None
    mean_alignment_error_mm: float | None = None
    grasp_success_rate: float | None = None
    joint_detection_rate: float | None = None
    attach_rate: float | None = None
    pose_sigma_mm: dict | None = None
    sim_time_stats: dict = field(default_factory=dict)
    per_class: dict = field(default_factory=dict)
    reference_alignment_error_mm: float = REFERENCE_ALIGNMENT_MM

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "trials": self.trials,
            "success_rate": self.success_rate,
            "size_sort_agreement": self.size_sort_agreement,
            "height_rel_error_median": self.height_rel_error_median,
            "mean_alignment_error_mm": self.mean_alignment_error_mm,
            "grasp_success_rate": self.grasp_success_rate,
            "joint_detection_rate": self.joint_detection_rate,
            "attach_rate": self.attach_rate,
            "pose_sigma_mm": self.pose_sigma_mm,
            "sim_time_stats": self.sim_time_stats,
            "per_class": self.per_class,
            "reference_alignment_error_mm": self.reference_alignment_error_mm,
        }


def compute_metrics(reports: list[TrialReport]) -> MetricsSummary:
    """Exact aggregation over reports; recomputable by any JSON reader."""
    if not reports:
        raise ValidationError("compute_metrics needs at least one report")
    task = reports[0].task
    n = len(reports)
    summary = MetricsSummary(task=task, trials=n)
    summary.success_rate = sum(1 for r in reports if r.success) / n
    sim_times = [float(r.metrics.get("sim_time_s", 0.0)) for r in reports]
    summary.sim_time_stats = {
        "total_s": round(sum(sim_times), 6),
        "mean_s": round(sum(sim_times) / n, 6),
    }

    if task == "stack":
        pairs_total = sum(int(r.metrics.get("sort_pairs_total", 0)) for r in reports)
        pairs_correct = sum(int(r.metrics.get("sort_pairs_correct", 0)) for r in reports)
        summary.size_sort_agreement = pairs_correct / pairs_total if pairs_total else None
        rel_errors = []
        alignments = []
        grasp_attempts = 0
        grasp_successes = 0
        for r in reports:
            for rock in r.rocks:
                est = rock.get("height_est_mm")
                true = rock.get("height_true_mm")
                if est is not None and true:
                    rel_errors.append(abs(est - true) / true)
                if rock.get("failure_code") != "pose-detect-fail":
                    grasp_attempts += 1
                    if rock.get("outcome") == "placed" or rock.get("failure_code") == "toppled":
                        grasp_successes += 1
                if rock.get("stable") and rock.get("alignment_error_mm") is not None:
                    alignments.append(rock["alignment_error_mm"])
        summary.height_rel_error_median = (
            float(np.median(rel_errors)) if rel_errors else None
        )
        summary.mean_alignment_error_mm = (
            float(np.mean(alignments)) if alignments else None
        )
        summary.grasp_success_rate = (
            grasp_successes / grasp_attempts if grasp_attempts else None
        )
    elif task == "assemble":
        per_class: dict = {}
        for r in reports:
            for part in r.parts:
                cls_name = part["part_class"]
                row = per_class.setdefault(
                    cls_name,
                    {
                        "attempts": 0,
                        "grasp_successes": 0,
                        "joint_detected": 0,
                        "attached": 0,
                    },
                )
                row["attempts"] += 1
                phase_names = {p["phase"]: p["outcome"] for p in r.phases}
                if phase_names.get("grasp") == "ok":
                    row["grasp_successes"] += 1
                if phase_names.get("detect_joint") == "ok":
                    row["joint_detected"] += 1
                if part.get("outcome") == "attached":
                    row["attached"] += 1
        summary.per_class = {
            k: {
                "attempts": v["attempts"],
                "grasp_success_rate": v["grasp_successes"] / v["attempts"],
                "joint_detection_rate": (
                    v["joint_detected"] / v["grasp_successes"] if v["grasp_successes"] else None
                ),
                "attach_rate": v["attached"] / v["attempts"],
            }
            for k, v in sorted(per_class.items())
        }
        total_grasp = sum(v["grasp_successes"] for v in per_class.values())
        total_attempts = sum(v["attempts"] for v in per_class.values())
        total_joint = sum(v["joint_detected"] for v in per_class.values())
        total_attach = sum(v["attached"] for v in per_class.values())
        summary.grasp_success_rate = total_grasp / total_attempts if total_attempts else None
        summary.joint_detection_rate = total_joint / total_grasp if total_grasp else None
        summary.attach_rate = total_attach / total_attempts if total_attempts else None
    elif task == "pose_stability":
        merged: dict = {}
        for r in reports:
            for cls_name, row in r.metrics.get("classes", {}).items():
                merged.setdefault(cls_name, []).append(row)
        summary.pose_sigma_mm = {
            cls_name: {
                "sigma_x_mm": float(np.mean([row["sigma_x_mm"] for row in rows])),
                "sigma_y_mm": float(np.mean([row["sigma_y_mm"] for row in rows])),
                "sigma_z_mm": float(np.mean([row["sigma_z_mm"] for row in rows])),
                "samples": int(sum(row["samples"] for row in rows)),
            }
            for cls_name, rows in sorted(merged.items())
        }
    elif task == "grasp_bench":
        counts = [int(r.metrics.get("n_grasps", 0)) for r in reports]
        summary.per_class = {
            "rock": {
                "attempts": n,
                "nonempty_rate": sum(1 for c in counts if c > 0) / n,
                "mean_grasps": float(np.mean(counts)),
                "max_grasps": int(np.max(counts)),
            }
        }
    return summary


# ---------------------------------------------------------------------------
# per-task trial runners


def _run_pose_stability_trial(cfg: ExperimentConfig, seed: int) -> TrialReport:
    """Repeated pose measurement of statically placed objects.

    Each probe is a pixel read through the depth image: the mask centroid
    of every detection (5x5 median window) and, with a body in the scene,
    the projected socket (3x3 window). Sample k draws fresh sensor noise
    from ``_derive_seed(seed, 100_000 + k)`` over a window two pixels wider
    than each probe's read window, in probe order, which is
    distribution-identical to re-noising the full image.

    Only the noise changes from sample to sample, so the scene is rendered
    once (the masks come from the same id image as the depth) and the
    centroids, projected socket, windows, in-image checks and camera
    transform are computed once. Every sample writes all its noisy windows
    into one depth buffer before any probe reads it, because windows of
    different probes may overlap; the read windows are collected into a
    ``(samples, h, w)`` stack per probe, and the medians, deprojection and
    transform to the robot frame then run as one array pass per probe. A
    sample whose read window has no valid pixel is dropped; a probe whose
    pixel lies outside the image is dropped whole. Positions are gathered
    per label in sample-major, probe-minor order.
    """
    scene = generate_scene(cfg.scene, seed)
    camera = scene.base_camera
    intr = camera.intrinsics
    depth_float, ids = render_scene_geometry(scene, camera)
    dets = detections_from_masks(
        instance_masks(scene, ids), labels=("rock", "head", "leg", "body")
    )

    probes = []  # (label, u, v, read window size)
    for det in dets:
        cu, cv = mask_centroid(det.mask)
        probes.append((det.label, cu, cv, 5))
    bodies = [p for p in scene.parts if p.part_class == "body"]
    if bodies:
        socket = bodies[0].attachment_world("socket_top")
        cam_pt = camera.pose.inverse().apply(socket.translation)
        u, v, _ = project_point(intr, cam_pt)
        probes.append(("body_joint", float(u), float(v), 3))

    n_samples = cfg.samples
    depth = apply_depth_noise(depth_float, SensorModel(), 0)
    writes = []  # (clean region, buffer view) for every probe, in probe order
    reads = []  # (label, u, v, buffer view, window stack) for probes inside the image
    for label, u, v, size in probes:
        v0, v1, u0, u1 = window_bounds(u, v, size + 2, depth.shape)
        writes.append((depth_float[v0:v1, u0:u1], depth[v0:v1, u0:u1]))
        if 0 <= u < intr.width and 0 <= v < intr.height:
            v0, v1, u0, u1 = window_bounds(u, v, size, depth.shape)
            stack = np.empty((n_samples, v1 - v0, u1 - u0), dtype=np.uint16)
            reads.append((label, u, v, depth[v0:v1, u0:u1], stack))

    for k in range(n_samples):
        rng = np.random.default_rng(_derive_seed(seed, 100_000 + k))
        for region, view in writes:
            view[...] = apply_depth_noise(region, cfg.sensor, rng)
        for *_, view, stack in reads:
            stack[k] = view

    by_label: dict = {}  # label -> [(positions (n, 3), kept (n,))] in probe order
    for label, u, v, _, stack in reads:
        d = median_window_depths(stack)
        kept = ~np.isnan(d)
        cam_pts = deproject_pixel(intr, u, v, d[kept])
        # One matrix-vector product per robot axis rounds each point as the
        # single-point ``camera.pose.apply`` does (both are contiguous
        # length-3 dot products); an (n, 3) @ (3, 3) product does not once
        # the rotation has no zero entries.
        per_axis = np.stack([cam_pts @ row for row in camera.pose.rotation], axis=1)
        pos = np.zeros((n_samples, 3))
        pos[kept] = per_axis + camera.pose.translation
        by_label.setdefault(label, []).append((pos, kept))

    classes = {}
    for label, rows in sorted(by_label.items()):
        kept = np.stack([k for _, k in rows], axis=1)
        pts = np.stack([pos for pos, _ in rows], axis=1)[kept]
        if len(pts) < 2:
            continue
        sx, sy, sz = pose_stability_stats(
            [WorkspacePose(p, sample_index=i) for i, p in enumerate(pts)]
        )
        classes[label] = {
            "sigma_x_mm": sx,
            "sigma_y_mm": sy,
            "sigma_z_mm": sz,
            "samples": len(pts),
        }
    report = TrialReport(
        task="pose_stability",
        trial_seed=seed,
        success=bool(classes),
        phases=[{"phase": "pose_bench", "outcome": "ok", "error_code": None, "sim_time_s": 0.0}],
    )
    report.metrics = {"classes": classes, "sim_time_s": 0.0}
    return report


def _run_grasp_bench_trial(cfg: ExperimentConfig, seed: int) -> TrialReport:
    """Detect grasps above the first rock of a seeded scene."""
    scene = generate_scene(cfg.scene, seed)
    rock = scene.rocks[0]
    eye = np.array(
        [rock.center_of_mass[0], rock.center_of_mass[1], cfg.exec_params.pregrasp_height]
    )
    from .geometry import camera_pose_from_lookat
    from .scenesim import CameraSpec, render_depth

    cam = CameraSpec(
        scene.hand_camera_intrinsics, camera_pose_from_lookat(eye, (eye[0], eye[1], 0.0))
    )
    depth = render_depth(scene, cam, cfg.sensor, _derive_seed(seed, 1))
    cloud = cloud_from_depth(depth, cam.intrinsics, cam.pose, stride=1)
    plane, _ = fit_plane_ransac(
        cloud, iters=200, tol=4.0, seed=_derive_seed(seed, 2), max_points=2500
    )
    half = cfg.exec_params.crop_half_xy
    ws = Workspace(
        (eye[0] - half, eye[1] - half, -60.0), (eye[0] + half, eye[1] + half, 400.0)
    )
    grasp_cfg = replace(cfg.grasp, seed=_derive_seed(seed, 3))
    grasps = detect_grasps(cloud, cfg.hand, grasp_cfg, plane, ws, viewpoint=eye)
    report = TrialReport(
        task="grasp_bench",
        trial_seed=seed,
        success=len(grasps) > 0,
        phases=[{"phase": "detect", "outcome": "ok", "error_code": None, "sim_time_s": 0.0}],
    )
    report.metrics = {
        "n_grasps": len(grasps),
        "grasps": [g.to_json_dict() for g in grasps],
        "cloud_points": len(cloud),
        "sim_time_s": 0.0,
    }
    return report


def run_trial(cfg: ExperimentConfig, index: int) -> TrialReport:
    """Run trial ``index`` with seed ``base_seed + index``; never raises.

    Unexpected exceptions become failure reports so one poisoned trial
    cannot abort the batch.
    """
    seed = cfg.base_seed + index
    try:
        if cfg.task == "stack":
            scene = generate_scene(cfg.scene, seed)
            return run_stacking_task(
                scene, cfg.hand, cfg.grasp, cfg.sensor, cfg.exec_params, seed
            )
        if cfg.task == "assemble":
            scene = generate_scene(cfg.scene, seed)
            return run_assembly_task(
                scene, cfg.hand, cfg.grasp, cfg.sensor, cfg.exec_params, seed
            )
        if cfg.task == "pose_stability":
            return _run_pose_stability_trial(cfg, seed)
        if cfg.task == "grasp_bench":
            return _run_grasp_bench_trial(cfg, seed)
        raise ConfigError(f"task: unknown task {cfg.task!r}")
    except Exception as exc:  # crash containment: record, don't abort
        report = TrialReport(
            task=cfg.task,
            trial_seed=seed,
            success=False,
            phases=[
                {
                    "phase": "trial",
                    "outcome": "failed",
                    "error_code": f"exception:{type(exc).__name__}",
                    "sim_time_s": 0.0,
                }
            ],
        )
        report.metrics = {"sim_time_s": 0.0}
        return report


def _trial_worker(cfg_json: dict, index: int) -> dict:
    cfg = ExperimentConfig.from_json_dict(cfg_json)
    return run_trial(cfg, index).to_json_dict()


def _dump_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def run_experiment(
    cfg: ExperimentConfig,
    out_dir=None,
    workers: int = 1,
    progress=None,
) -> tuple[list[TrialReport], MetricsSummary]:
    """Run all trials, write per-trial reports incrementally plus a summary.

    ``workers > 1`` executes trials in a process pool; outputs are byte
    identical to a serial run because every trial depends only on
    (config, base_seed + i) and files are keyed by trial index.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    report_dicts: list[dict | None] = [None] * cfg.trials

    def _note(i: int) -> None:
        if progress is not None:
            print(f"trial {i + 1}/{cfg.trials} done", file=progress)

    if workers <= 1:
        for i in range(cfg.trials):
            report_dicts[i] = run_trial(cfg, i).to_json_dict()
            if out_path is not None:
                _dump_json(out_path / f"trial_{i}.json", report_dicts[i])
            _note(i)
    else:
        from concurrent.futures import as_completed

        cfg_json = cfg.to_json_dict()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_trial_worker, cfg_json, i): i for i in range(cfg.trials)}
            for future in as_completed(futures):
                i = futures[future]
                report_dicts[i] = future.result()
                if out_path is not None:
                    _dump_json(out_path / f"trial_{i}.json", report_dicts[i])
                _note(i)

    reports = [TrialReport.from_json_dict(d) for d in report_dicts]
    summary = compute_metrics(reports)
    if out_path is not None:
        _dump_json(out_path / "summary.json", summary.to_json_dict())
    if progress is not None:
        wall = time.perf_counter() - started
        print(f"{cfg.trials} trials in {wall:.2f}s wall clock", file=progress)
    return reports, summary


def summary_to_csv(summary: MetricsSummary) -> str:
    """Table-shaped CSV: one row per object class.

    Pose-stability summaries export sigma columns; task summaries export
    attempt/success-rate columns.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if summary.task == "pose_stability" and summary.pose_sigma_mm:
        writer.writerow(["object", "sigma_x_mm", "sigma_y_mm", "sigma_z_mm"])
        for cls_name, row in summary.pose_sigma_mm.items():
            writer.writerow(
                [
                    cls_name,
                    f"{row['sigma_x_mm']:.4f}",
                    f"{row['sigma_y_mm']:.4f}",
                    f"{row['sigma_z_mm']:.4f}",
                ]
            )
    elif summary.task == "assemble":
        writer.writerow(["object", "attempts", "grasp_success_rate", "joint_detection_rate", "attach_rate"])
        for cls_name, row in summary.per_class.items():
            jd = row["joint_detection_rate"]
            writer.writerow(
                [
                    cls_name,
                    row["attempts"],
                    f"{row['grasp_success_rate']:.4f}",
                    "" if jd is None else f"{jd:.4f}",
                    f"{row['attach_rate']:.4f}",
                ]
            )
    else:
        writer.writerow(["object", "metric", "value"])
        d = summary.to_json_dict()
        for key in (
            "success_rate",
            "size_sort_agreement",
            "height_rel_error_median",
            "mean_alignment_error_mm",
            "grasp_success_rate",
            "reference_alignment_error_mm",
        ):
            if d.get(key) is not None:
                writer.writerow(["rock", key, f"{d[key]:.6g}"])
    return buf.getvalue()


def recompute_summary_from_files(out_dir) -> MetricsSummary:
    """Rebuild the summary from the written trial files (audit path)."""
    out_path = Path(out_dir)
    trial_files = sorted(
        out_path.glob("trial_*.json"), key=lambda p: int(p.stem.split("_")[1])
    )
    reports = []
    for p in trial_files:
        with open(p, "r", encoding="utf-8") as f:
            reports.append(TrialReport.from_json_dict(json.load(f)))
    return compute_metrics(reports)

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
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .geometry import (
    JsonFields,
    deproject_pixel,
    json_keys,
    json_nested,
    mask_centroid,
    project_point,
)
from .graspdetect import GraspConfig, HandGeometry, detect_grasps
from .perception import (
    detections_from_masks,
    median_window_depths,
    pose_stability_stats,
    window_bounds,
)
from .scenesim import (
    MISS_ID,
    SceneSpec,
    SensorModel,
    finish_depth_noise,
    generate_scene,
    instance_masks,
    object_pixels,
    render_scene_geometry,
)
from .taskexec import (
    ExecParams,
    TrialLog,
    TrialReport,
    derive_seed,
    observe_object,
    run_assembly_task,
    run_stacking_task,
)

SCHEMA_VERSION = 1
TASKS = ("stack", "assemble", "pose_stability", "grasp_bench")

# hardware baseline the simulated alignment metric is reported alongside
REFERENCE_ALIGNMENT_MM = 25.0


@dataclass(frozen=True)
class ExperimentConfig(JsonFields):
    """One experiment: task, trial count, seed policy and nested configs.
    JSON keys are the field names."""

    schema_version: int = SCHEMA_VERSION
    task: str = "stack"
    trials: int = 1
    base_seed: int = 0
    samples: int = 2000  # pose_stability repetitions per trial
    scene: SceneSpec = SceneSpec()
    sensor: SensorModel = SensorModel()
    hand: HandGeometry = HandGeometry()
    grasp: GraspConfig = GraspConfig()
    exec: ExecParams = ExecParams()

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {self.schema_version}")
        if self.task not in TASKS:
            raise ConfigError(f"task: unknown task {self.task!r}; expected one of {TASKS}")
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")
        if self.samples < 2:
            raise ConfigError("samples: must be >= 2")
        if self.task == "grasp_bench" and self.scene.rock_count[0] < 1:
            raise ConfigError("scene.rock_count: grasp_bench needs at least one rock per scene")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        """The shared reader, after filling the scene defaults of the
        ``assemble`` and ``pose_stability`` tasks into ``data``."""
        scene = data.get("scene", {}) if isinstance(data, dict) else None
        task = data.get("task") if isinstance(scene, dict) else None
        if task in ("assemble", "pose_stability"):
            scene = dict(scene)
            if task == "assemble":
                if "parts" not in scene:
                    scene.setdefault("rock_count", [0, 0])
                    scene["parts"] = ["body", "head"]
                scene.setdefault("base_camera", DEFAULT_ASSEMBLY_CAMERA)
                scene.setdefault("min_separation", 140.0)
            elif "parts" not in scene:
                scene.setdefault("rock_count", [1, 1])
                scene["parts"] = ["body", "head", "leg"]
            data = dict(data, scene=scene)
        return super().from_json_dict(data)


DEFAULT_ASSEMBLY_CAMERA = {
    "position": [0.0, 40.0, 300.0],
    "look_at": [0.0, 520.0, 90.0],
    "intrinsics": {"fx": 300.0, "fy": 300.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
}


@dataclass
class MetricsSummary(JsonFields):
    """Aggregate metrics, a pure fold over the trial reports; JSON keys are
    the field names."""

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


def compute_metrics(reports: list[TrialReport]) -> MetricsSummary:
    """Exact aggregation over reports; recomputable by any JSON reader."""
    if not reports:
        raise ValidationError("compute_metrics needs at least one report")
    task = reports[0].task
    n = len(reports)
    summary = MetricsSummary(task=task, trials=n)
    summary.success_rate = sum(1 for r in reports if r.success) / n
    sim_times = [r.sim_time_s for r in reports]
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
    the projected socket (3x3 window). Sample k re-noises, in probe order,
    a write window two pixels wider than each probe's read window, drawing
    from ``derive_seed(seed, 100_000 + k)``; that is distribution-identical
    to re-noising the full image. Only the noise changes from sample to
    sample, so the centroids, windows, in-image checks and camera transform
    are computed once, and the scene is cast only where the trial reads it:

    * the union of the objects' footprints
      (:func:`~rockstack.scenesim.object_pixels`), which holds every pixel
      that can take an object id, so the masks built from it equal those of
      a whole-image render;
    * then the write-window pixels outside that union, where only terrain
      can be hit.

    Both are cast by :func:`~rockstack.scenesim.render_scene_geometry`,
    whose pixel subsets are bit-equal to the whole image. The trial then
    runs in three steps:

    1. *Draw.* Per sample, for each write window in probe order, the
       ``normal`` and then (with dropout) the ``random`` draws of
       :func:`~rockstack.scenesim.apply_depth_noise` land in row k of a
       ``(samples, window pixels)`` array, the write windows side by side.
    2. *Finish.* One call of the noise model's finishing step turns the
       clean write windows plus all draws into uint16 depths.
    3. *Gather.* Windows of different probes may overlap, and a later
       write overwrites an earlier one before any probe reads, so every
       read-window pixel takes its column from the last write window that
       covers it (its own probe's window always does). The read windows of
       all samples are one gather per probe; the medians, deprojection and
       transform to the robot frame then run as one array pass per probe.

    A sample whose read window has no valid pixel is dropped; a probe whose
    pixel lies outside the image is dropped whole. Positions are gathered
    per label in sample-major, probe-minor order.
    """
    scene = generate_scene(cfg.scene, seed)
    camera = scene.base_camera
    intr = camera.intrinsics
    shape = (intr.height, intr.width)
    depth_float = np.full(shape, np.nan)  # set where cast
    ids = np.full(shape, MISS_ID, dtype=np.int32)
    footprints = object_pixels(scene, camera)
    depth_float.flat[footprints], ids.flat[footprints] = render_scene_geometry(
        scene, camera, pixels=footprints
    )
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

    write_bounds = [window_bounds(u, v, size + 2, shape) for _, u, v, size in probes]
    needed = np.zeros(shape, dtype=bool)
    for v0, v1, u0, u1 in write_bounds:
        needed[v0:v1, u0:u1] = True
    needed.flat[footprints] = False
    terrain_only = np.flatnonzero(needed)
    if terrain_only.size:
        depth_float.flat[terrain_only], _ = render_scene_geometry(
            scene, camera, pixels=terrain_only
        )

    column = np.empty(shape, dtype=np.intp)  # stack column last written at each pixel
    writes = []  # (first, end) stack columns of each write window, in probe order
    regions = [np.empty(0)]  # the clean write windows, flattened; never empty
    width = 0
    reads = []  # (label, u, v, read window bounds) for probes inside the image
    for (label, u, v, size), (v0, v1, u0, u1) in zip(probes, write_bounds):
        region = depth_float[v0:v1, u0:u1]
        writes.append((width, width + region.size))
        column[v0:v1, u0:u1] = np.arange(width, width + region.size).reshape(region.shape)
        regions.append(region.ravel())
        width += region.size
        if 0 <= u < intr.width and 0 <= v < intr.height:
            reads.append((label, u, v, window_bounds(u, v, size, shape)))

    n_samples = cfg.samples
    sensor = cfg.sensor
    normal = np.empty((n_samples, width)) if sensor.depth_sigma > 0 else None
    uniform = np.empty((n_samples, width)) if sensor.dropout_rate > 0 else None
    for k in range(n_samples):
        rng = np.random.default_rng(derive_seed(seed, 100_000 + k))
        for a, b in writes:
            if normal is not None:
                normal[k, a:b] = rng.normal(0.0, sensor.depth_sigma, b - a)
            if uniform is not None:
                uniform[k, a:b] = rng.random(b - a)
    clean = np.broadcast_to(np.concatenate(regions), (n_samples, width))
    noisy = finish_depth_noise(clean, sensor, normal, uniform)

    by_label: dict = {}  # label -> [(positions (n, 3), kept (n,))] in probe order
    for label, u, v, (v0, v1, u0, u1) in reads:
        d = median_window_depths(noisy[:, column[v0:v1, u0:u1].ravel()])
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
        sx, sy, sz = pose_stability_stats(pts)
        classes[label] = {
            "sigma_x_mm": sx,
            "sigma_y_mm": sy,
            "sigma_z_mm": sz,
            "samples": len(pts),
        }
    trial = TrialLog("pose_stability", seed)
    trial.phase("pose_bench")
    return trial.report(bool(classes), {"classes": classes})


def _run_grasp_bench_trial(cfg: ExperimentConfig, seed: int) -> TrialReport:
    """Detect grasps on the first rock of a seeded scene.

    The rock is observed by the wrist sweep the task runners use
    (:func:`~rockstack.taskexec.observe_object`), and detection runs once
    with the configured cone, as in the task runners.
    """
    scene = generate_scene(cfg.scene, seed)
    seen = observe_object(
        scene, scene.rocks[0].center_of_mass, cfg.sensor, cfg.exec, derive_seed(seed, 10)
    )
    grasps = []
    if len(seen.cloud):
        grasp_cfg = replace(cfg.grasp, seed=derive_seed(seed, 30))
        grasps = detect_grasps(seen.cloud, cfg.hand, grasp_cfg, seen.plane, seen.workspace, seen.viewpoint)
    trial = TrialLog("grasp_bench", seed)
    trial.phase("detect")
    metrics = {
        "n_grasps": len(grasps),
        "grasps": [g.to_json_dict() for g in grasps],
        "cloud_points": seen.points,
    }
    return trial.report(len(grasps) > 0, metrics)


def run_trial(cfg: ExperimentConfig, index: int) -> TrialReport:
    """Run trial ``index`` with seed ``base_seed + index``; never raises.

    Unexpected exceptions become failure reports so one poisoned trial
    cannot abort the batch. The report's one phase records the exception's
    type as its ``error_code`` and its message as ``error_message``; the
    traceback goes to stderr.
    """
    seed = cfg.base_seed + index
    try:
        if cfg.task == "stack":
            scene = generate_scene(cfg.scene, seed)
            return run_stacking_task(
                scene, cfg.hand, cfg.grasp, cfg.sensor, cfg.exec, seed
            )
        if cfg.task == "assemble":
            scene = generate_scene(cfg.scene, seed)
            return run_assembly_task(
                scene, cfg.hand, cfg.grasp, cfg.sensor, cfg.exec, seed
            )
        if cfg.task == "pose_stability":
            return _run_pose_stability_trial(cfg, seed)
        if cfg.task == "grasp_bench":
            return _run_grasp_bench_trial(cfg, seed)
        raise ConfigError(f"task: unknown task {cfg.task!r}")
    except Exception as exc:  # crash containment: record, don't abort
        print(f"{cfg.task} trial {index} (seed {seed}) crashed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        trial = TrialLog(cfg.task, seed)
        trial.phase("trial", f"exception:{type(exc).__name__}", str(exc))
        return trial.report(False)


def _trial_worker(cfg_json: dict, index: int) -> dict:
    cfg = ExperimentConfig.from_json_dict(cfg_json)
    return run_trial(cfg, index).to_json_dict()


def _dump_json(path: Path, payload: dict) -> None:
    """Write ``payload`` to a temporary file beside ``path``, then move it
    into place, so ``path`` holds either its old bytes or the whole new
    file, never a partial one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    """Rebuild the summary from the written trial files (audit path).

    Raises ``ValidationError`` when the set is incomplete: the trial
    indices are not exactly ``0..n-1``, or a ``summary.json`` in the
    directory counts other than n trials.
    """
    out_path = Path(out_dir)
    indexed = []
    for p in out_path.glob("trial_*.json"):
        index = p.stem.removeprefix("trial_")
        if not index.isdecimal():
            raise ValidationError(f"{p}: expected a trial_<index>.json name")
        indexed.append((int(index), p))
    indexed.sort()
    indices = [i for i, _ in indexed]
    if indices != list(range(len(indices))):
        missing = sorted(set(range(indices[-1] + 1)) - set(indices))
        raise ValidationError(
            f"{out_path}: trial indices are not 0..{len(indices) - 1}"
            f" (missing {missing}, found {len(indices)} files)"
        )
    summary_path = out_path / "summary.json"
    if summary_path.exists():
        with open(summary_path, "r", encoding="utf-8") as f:
            recorded = json.load(f)
        trials = recorded.get("trials") if isinstance(recorded, dict) else None
        if trials != len(indices):
            raise ValidationError(
                f"{summary_path}: counts {trials!r} trials, but {len(indices)} trial files exist"
            )
    reports = []
    for _, p in indexed:
        with open(p, "r", encoding="utf-8") as f:
            reports.append(json_nested(p.name, _read_trial_report, json.load(f)))
    return compute_metrics(reports)


def _read_trial_report(data) -> TrialReport:
    """A trial file's report; ``ConfigError`` names a bad field, or a key
    that is not a report field."""
    json_keys(data, (), [f.name for f in fields(TrialReport)])
    return TrialReport.from_json_dict(data)

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
import sys
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, PlacementError, ValidationError
from .geometry import (
    JsonFields,
    deproject_pixel,
    json_keys,
    json_nested,
    open_atomic,
    project_point,
)
from .graspdetect import GraspConfig, HandGeometry, detect_grasps
from .perception import (
    CENTROID_WINDOW,
    POINT_WINDOW,
    detections_from_masks,
    median_window_depths,
    pose_stability_stats,
    window_pixels,
)
from .scenesim import (
    NoisyDepth,
    SceneSpec,
    SensorModel,
    generate_scene,
    noisy_readings,
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
    success_rate: float
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
    summary = MetricsSummary(task=task, trials=n, success_rate=sum(1 for r in reports if r.success) / n)
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
    of every detection (``CENTROID_WINDOW`` median window) and, with a body
    in the scene, the projected socket (``POINT_WINDOW``). Only the noise
    changes from sample to sample, so the centroids, windows, in-image
    checks and camera transform are computed once. The scene is read through a noiseless
    :class:`~rockstack.scenesim.NoisyDepth`, which casts only where the
    trial reads: the objects' footprints, for the masks (``masks``), then
    the read windows. Its ``clean`` range is bit-equal to a whole-image
    render.

    The noise is one table, :func:`~rockstack.scenesim.noisy_readings` of
    the distinct read pixels in flat-index order, seeded with
    ``derive_seed(seed, 100_000)``: sample k of the j-th pixel is row k,
    column j, so overlapping windows read one value per shared pixel. Each
    probe gathers its columns for all samples at once, and its medians,
    deprojection and transform to the robot frame are one array pass.

    A sample whose read window has no valid pixel is dropped; a probe whose
    pixel lies outside the image is dropped whole. Positions are gathered
    per label in sample-major, probe-minor order.
    """
    scene = generate_scene(cfg.scene, seed)
    camera = scene.base_camera
    intr = camera.intrinsics
    shape = (intr.height, intr.width)
    view = NoisyDepth(scene, camera, SensorModel(), seed)
    dets = detections_from_masks(view.masks(), labels=("rock", "head", "leg", "body"))

    probes = []  # (label, u, v, read window size)
    for det in dets:
        cu, cv = det.centroid
        probes.append((det.label, cu, cv, CENTROID_WINDOW))
    bodies = [p for p in scene.parts if p.part_class == "body"]
    if bodies:
        socket = bodies[0].attachment_world("socket_top")
        cam_pt = camera.pose.inverse().apply(socket.translation)
        u, v, _ = project_point(intr, cam_pt)
        probes.append(("body_joint", float(u), float(v), POINT_WINDOW))

    windows = [window_pixels(u, v, size, shape) for _, u, v, size in probes]
    pixels = np.unique(np.concatenate([np.empty(0, dtype=np.intp)] + windows))
    view.cast(pixels)
    n_samples = cfg.samples
    noisy = noisy_readings(view.clean.ravel()[pixels], cfg.sensor, derive_seed(seed, 100_000), n_samples)

    by_label: dict = {}  # label -> [(positions (n, 3), kept (n,))] in probe order
    for (label, u, v, _), window in zip(probes, windows):
        if not (0 <= u < intr.width and 0 <= v < intr.height):
            continue
        d = median_window_depths(noisy[:, np.searchsorted(pixels, window)])
        kept = ~np.isnan(d)
        pos = np.zeros((n_samples, 3))
        pos[kept] = camera.pose.apply(deproject_pixel(intr, u, v, d[kept]))
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

    A seed whose scene cannot be placed (``PlacementError``) is reported as
    one failed ``scene`` phase with ``error_code`` ``placement-failed`` and
    the generator's message as ``error_message``.

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
    except PlacementError as exc:  # the seed has no scene; the code did not fail
        trial = TrialLog(cfg.task, seed)
        trial.phase("scene", "placement-failed", str(exc))
        return trial.report(False)
    except Exception as exc:  # crash containment: record, don't abort
        print(f"{cfg.task} trial {index} (seed {seed}) crashed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        trial = TrialLog(cfg.task, seed)
        trial.phase("trial", f"exception:{type(exc).__name__}", str(exc))
        return trial.report(False)


def dump_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted JSON through
    :func:`~rockstack.geometry.open_atomic`, so ``path`` never holds a
    partial file."""
    with open_atomic(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def run_experiment(
    cfg: ExperimentConfig,
    out_dir=None,
    workers: int = 1,
    progress=None,
) -> tuple[list[TrialReport], MetricsSummary]:
    """Run all trials, write per-trial reports incrementally plus a summary.

    One loop takes each trial's report as it completes: from
    :func:`run_trial` calls in index order, or with ``workers > 1`` from a
    process pool that is given ``run_trial`` and the config object. Outputs
    are byte identical either way because every trial depends only on
    (config, base_seed + i) and files are keyed by trial index.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    reports: list[TrialReport | None] = [None] * cfg.trials
    with ExitStack() as stack:
        if workers <= 1:
            done = ((i, run_trial(cfg, i)) for i in range(cfg.trials))
        else:
            # imported on first use: the pool loads multiprocessing (about 25 ms), which a serial run never uses
            from concurrent.futures import ProcessPoolExecutor, as_completed

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            futures = {pool.submit(run_trial, cfg, i): i for i in range(cfg.trials)}
            done = ((futures[f], f.result()) for f in as_completed(futures))
        for i, report in done:
            reports[i] = report
            if out_path is not None:
                dump_json(out_path / f"trial_{i}.json", report.to_json_dict())
            if progress is not None:
                print(f"trial {i + 1}/{cfg.trials} done", file=progress)

    summary = compute_metrics(reports)
    if out_path is not None:
        dump_json(out_path / "summary.json", summary.to_json_dict())
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

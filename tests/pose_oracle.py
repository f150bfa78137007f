"""Reference pose-stability trial for the harness tests.

The noise is drawn by hand as one table over the distinct pixels the probes
read, in flat-index order: one ``normal`` draw over ``(samples, pixels)``,
then one ``random`` draw of the same shape, from
``default_rng(derive_seed(seed, 100_000))``. Then the whole per-object
pipeline runs once per sample: a fresh copy of the clean depth image with
row k of the table written at the read pixels, then ``object_workspace_pose``
for every detection and, for the socket, a 3x3 median read at its
projection deprojected to the robot frame, with any exception dropping the
sample. The batched runner must reproduce its report bit for bit.
"""

from __future__ import annotations

import numpy as np

from rockstack.geometry import deproject_pixel, mask_centroid, project_point
from rockstack.harness import ExperimentConfig
from rockstack.perception import (
    detect_objects,
    median_window_depth,
    object_workspace_pose,
    pose_stability_stats,
)
from rockstack.scenesim import SensorModel, apply_depth_noise, generate_scene, render_scene_geometry
from rockstack.taskexec import TrialReport, derive_seed


def oracle_pose_stability_trial(cfg: ExperimentConfig, seed: int) -> TrialReport:
    scene = generate_scene(cfg.scene, seed)
    camera = scene.base_camera
    depth_float, _ = render_scene_geometry(scene, camera)
    clean = apply_depth_noise(depth_float, SensorModel(), 0)
    dets = detect_objects(scene, camera, labels=("rock", "head", "leg", "body"))

    probes = []  # (label, kind, u, v, window, payload)
    for det in dets:
        cu, cv = mask_centroid(det)
        probes.append((det.label, "detection", cu, cv, 5, det))
    bodies = [p for p in scene.parts if p.part_class == "body"]
    if bodies:
        socket = bodies[0].attachment_world("socket_top")
        cam_pt = camera.pose.inverse().apply(socket.translation)
        u, v, _ = project_point(camera.intrinsics, cam_pt)
        probes.append(("body_joint", "point", float(u), float(v), 3, socket.translation))

    h, w = clean.shape
    read = np.zeros((h, w), dtype=bool)
    for _, _, u, v, win, _ in probes:
        half = win // 2
        iu, iv = int(round(u)), int(round(v))
        read[max(iv - half, 0) : max(iv + half + 1, 0), max(iu - half, 0) : max(iu + half + 1, 0)] = True
    pixels = np.flatnonzero(read)

    n_samples = cfg.samples
    sensor = cfg.sensor
    rng = np.random.default_rng(derive_seed(seed, 100_000))
    clean_reads = np.broadcast_to(depth_float.ravel()[pixels], (n_samples, pixels.size))
    valid = np.isfinite(clean_reads)
    noisy = np.where(valid, clean_reads, 0.0)
    if sensor.depth_sigma > 0:
        noisy = noisy + rng.normal(0.0, sensor.depth_sigma, size=clean_reads.shape)
    quant = np.clip(np.rint(noisy), 0, 65535).astype(np.uint16)
    quant[~valid] = 0
    if sensor.dropout_rate > 0:
        quant[rng.random(clean_reads.shape) < sensor.dropout_rate] = 0

    positions: dict = {}
    for k in range(n_samples):
        depth_k = clean.copy()
        depth_k.flat[pixels] = quant[k]
        for label, kind, u, v, win, payload in probes:
            try:
                if kind == "detection":
                    pos = object_workspace_pose(payload, depth_k, camera.intrinsics, camera.pose)
                else:
                    d = median_window_depth(depth_k, u, v, size=win)
                    pos = camera.pose.apply(deproject_pixel(camera.intrinsics, u, v, d))
            except Exception:
                continue
            positions.setdefault(label, []).append(pos)

    classes = {}
    for label, pts in sorted(positions.items()):
        if len(pts) < 2:
            continue
        sx, sy, sz = pose_stability_stats(np.stack(pts))
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

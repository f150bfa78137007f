"""Whole-image reference for the task runners' observations.

The runners render only the pixels they read (``taskexec._observe_base``,
``taskexec.observe_object`` and the stacking runner's base-plane fit, all
through ``scenesim.NoisyDepth``). These are the plain versions: render and
noise the whole image, build the whole cloud, fit the plane to all of it,
and crop only in the grasp detector. Every value the runners read must be
bit-equal to these.
"""

from __future__ import annotations

import numpy as np

from rockstack.geometry import camera_pose_from_lookat
from rockstack.perception import detections_from_masks
from rockstack.pointcloud import PointCloud, Workspace, cloud_from_depth, fit_plane_ransac
from rockstack.scenesim import (
    CameraSpec,
    apply_depth_noise,
    instance_masks,
    render_depth,
    render_scene_geometry,
)
from rockstack.taskexec import derive_seed


def observe_base(scene, sensor, seed: int, labels: tuple):
    """The base camera's whole noisy depth image and detections."""
    depth, ids = render_scene_geometry(scene, scene.base_camera)
    dets = detections_from_masks(
        instance_masks(scene, ids), sensor, derive_seed(seed, 2), labels=labels
    )
    return apply_depth_noise(depth, sensor, derive_seed(seed, 1)), dets


def base_plane(depth: np.ndarray, camera: CameraSpec, seed: int):
    """The stacking runner's support plane, fit to the whole stride-2 cloud."""
    cloud = cloud_from_depth(depth, camera.intrinsics, camera.pose, stride=2)
    plane, _ = fit_plane_ransac(cloud, iters=200, tol=4.0, seed=derive_seed(seed, 3), max_points=2500)
    return plane


def observe_object(scene, xy, sensor, params, seed: int):
    """The wrist sweep's whole merged cloud, its plane, the crop box and the
    viewpoint, from two whole images."""
    cx, cy = float(xy[0]), float(xy[1])
    height = params.pregrasp_height - 20.0
    pts = []
    for i, dx in enumerate((-120.0, 120.0)):
        cam = CameraSpec(
            scene.hand_camera_intrinsics,
            camera_pose_from_lookat((cx + dx, cy, height), (cx, cy, 0.0)),
        )
        depth = render_depth(scene, cam, sensor, derive_seed(seed, 200 + i))
        pts.append(cloud_from_depth(depth, cam.intrinsics, cam.pose, stride=1).points)
    cloud = PointCloud(np.concatenate(pts), frame="robot")
    plane, _ = fit_plane_ransac(cloud, iters=200, tol=4.0, seed=derive_seed(seed, 210), max_points=2500)
    half = params.crop_half_xy
    ws = Workspace((cx - half, cy - half, -60.0), (cx + half, cy + half, 400.0))
    return cloud, plane, ws, (cx, cy, params.pregrasp_height)

"""Reference grasp detector shared by the unit and acceptance suites.

It evaluates one seed and one orientation at a time, scores each candidate
with :func:`score_candidate` (a closing-region mask over the whole cloud)
and ranks with a Python sort: the detector as it was before it was batched.
The batched detector must reproduce its output bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from rockstack.geometry import RigidTransform, camera_pose_from_lookat
from rockstack.graspdetect import (
    GraspCandidate,
    GraspConfig,
    HandGeometry,
    sample_seeds,
    score_candidate,
)
from rockstack.pointcloud import (
    Plane,
    PointCloud,
    Workspace,
    cloud_from_depth,
    crop_workspace,
    estimate_normals,
    filter_above_plane,
    fit_plane_ransac,
    voxel_downsample,
)
from rockstack.scenesim import CameraSpec, SceneSpec, SensorModel, generate_scene, render_depth

_EPS = 1e-9


def rock_scene_cloud(seed: int):
    """Two-view wrist observation cloud over the first rock of a seeded scene.

    Returns ``(cloud, plane, workspace, viewpoint)``; the workspace is a
    140 mm square around the rock.
    """
    scene = generate_scene(SceneSpec(rock_count=(1, 2)), seed=seed)
    rock = scene.rocks[0]
    cx, cy = rock.center_of_mass[:2]
    pts = []
    for i, dx in enumerate((-120.0, 120.0)):
        cam = CameraSpec(
            scene.hand_camera_intrinsics,
            camera_pose_from_lookat((cx + dx, cy, 330.0), (cx, cy, 0.0)),
        )
        depth = render_depth(scene, cam, SensorModel(), seed * 31 + i)
        pts.append(cloud_from_depth(depth, cam.intrinsics, cam.pose).points)
    cloud = PointCloud(np.concatenate(pts), frame="robot")
    plane, _ = fit_plane_ransac(cloud, 200, 4.0, seed=seed, max_points=2500)
    ws = Workspace((cx - 70, cy - 70, -60.0), (cx + 70, cy + 70, 400.0))
    return cloud, plane, ws, (cx, cy, 350.0)


def finger_volumes_mask(points: np.ndarray, pose: RigidTransform, hand: HandGeometry) -> np.ndarray:
    """Boolean mask of points inside either finger volume of a grasp pose."""
    local = pose.inverse().apply(points)
    half_ap = hand.max_aperture / 2.0
    return (
        (local[:, 0] >= -_EPS)
        & (local[:, 0] <= hand.finger_depth + _EPS)
        & (np.abs(local[:, 1]) > half_ap + _EPS)
        & (np.abs(local[:, 1]) <= half_ap + hand.finger_width - _EPS)
        & (np.abs(local[:, 2]) <= hand.hand_height / 2.0 + _EPS)
    )


def frame_axes(cfg: GraspConfig) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Approach axis plus (closing, hand) axis pairs for each orientation."""
    h_cfg = np.asarray(cfg.hand_axis, dtype=np.float64)
    approach = -h_cfg
    ref = np.array([1.0, 0.0, 0.0]) if abs(h_cfg[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    c0 = ref - np.dot(ref, h_cfg) * h_cfg
    c0 = c0 / np.linalg.norm(c0)
    axes = []
    for k in range(cfg.num_orientations):
        theta = math.pi * k / cfg.num_orientations
        c = (
            c0 * math.cos(theta)
            + np.cross(h_cfg, c0) * math.sin(theta)
            + h_cfg * np.dot(h_cfg, c0) * (1.0 - math.cos(theta))
        )
        c /= np.linalg.norm(c)
        axes.append((c, np.cross(approach, c)))
    return approach, axes


def reference_candidates(cloud: PointCloud, hand: HandGeometry, cfg: GraspConfig) -> list[GraspCandidate]:
    """Scored candidates, one seed and one orientation at a time."""
    seeds = sample_seeds(cloud, cfg)
    pts = cloud.points
    approach, axes = frame_axes(cfg)
    half_ap = hand.max_aperture / 2.0
    corridor_half = half_ap + hand.finger_width
    half_h = hand.hand_height / 2.0
    fd = hand.finger_depth
    step = cfg.push_step

    # the cloud in each orientation's hand frame: approach, closing and hand
    # coordinates
    local = [
        RigidTransform(np.column_stack([approach, c, h]), np.zeros(3)).inverse().rotate(pts)
        for c, h in axes
    ]
    pa = local[0][:, 0]

    out: list[GraspCandidate] = []
    for seed_index, pt_idx in enumerate(seeds):
        s = pts[pt_idx]
        u_all = pa - float(pa[pt_idx])
        for orient_index, (c_axis, h_axis) in enumerate(axes):
            pc, ph = local[orient_index][:, 1], local[orient_index][:, 2]
            gamma = pc - float(pc[pt_idx])
            eta = ph - float(ph[pt_idx])
            in_band = np.abs(eta) <= half_h
            closing_band = in_band & (np.abs(gamma) <= half_ap)
            if not np.any(closing_band):
                continue
            finger_band = in_band & (np.abs(gamma) > half_ap) & (np.abs(gamma) <= corridor_half)
            corridor = closing_band | finger_band
            u = u_all[corridor]
            back = fd - float(u.min()) + step
            tip_closing = u_all[closing_band] + back - fd
            palm_closing = u_all[closing_band] + back
            if np.any(finger_band):
                bad_finger = float(np.min(u_all[finger_band] + back - fd))
            else:
                bad_finger = np.inf
            bad_palm = float(np.min(palm_closing))
            depth_limit = min(bad_finger - _EPS, bad_palm + _EPS)
            max_steps = int(math.floor(depth_limit / step))
            if max_steps < 1:
                continue
            delta = max_steps * step
            caught = (tip_closing <= delta + _EPS) & (delta <= palm_closing + _EPS)
            count = int(np.count_nonzero(caught))
            if count < cfg.min_closing_points:
                continue
            insertion = delta - float(np.min(tip_closing[caught]))
            if insertion < cfg.min_insertion:
                continue
            g = gamma[closing_band][caught]
            extent = float(g.max() - g.min())
            if extent + cfg.width_clearance > hand.max_aperture:
                continue
            origin = s + approach * (delta - back)
            grasp = GraspCandidate(
                pose=RigidTransform(np.column_stack([approach, c_axis, h_axis]), origin),
                grasp_width=extent + cfg.width_clearance,
                score=0.0,
                closing_point_count=count,
                seed_index=seed_index,
                orientation_index=orient_index,
            )
            score = score_candidate(
                cloud, grasp, hand, cfg.friction_half_angle_deg, cfg.expected_closing_points
            )
            out.append(
                GraspCandidate(
                    grasp.pose, grasp.grasp_width, score, count, seed_index, orient_index
                )
            )
    return out


def filter_by_approach(grasps: list[GraspCandidate], cfg: GraspConfig) -> list[GraspCandidate]:
    """Keep candidates approaching within the cone about world -z; order kept."""
    if not cfg.approach_filter:
        return list(grasps)
    cos_thresh = math.cos(math.radians(cfg.cone_half_angle_deg))
    down = np.array([0.0, 0.0, -1.0])
    return [g for g in grasps if float(g.approach @ down) >= cos_thresh - _EPS]


def select_grasps(grasps: list[GraspCandidate], cfg: GraspConfig) -> list[GraspCandidate]:
    """Top ``num_selected`` by a Python sort: descending score, ties broken
    by (seed, orientation) index."""
    ranked = sorted(grasps, key=lambda g: (-g.score, g.seed_index, g.orientation_index))
    return ranked[: cfg.num_selected]


def preprocess(
    cloud: PointCloud,
    cfg: GraspConfig,
    plane: Plane,
    workspace: Workspace | None = None,
    viewpoint=(0.0, 0.0, 0.0),
) -> PointCloud | None:
    """The detector's working cloud, or None when it is too small to use."""
    work = crop_workspace(cloud, workspace) if workspace is not None else cloud
    work = filter_above_plane(work, plane, cfg.plane_margin)
    if cfg.voxel_leaf > 0:
        work = voxel_downsample(work, cfg.voxel_leaf)
    if len(work) < max(cfg.normals_k, cfg.min_closing_points):
        return None
    return estimate_normals(work, k=cfg.normals_k, viewpoint=viewpoint)


def reference_detect(
    cloud: PointCloud,
    hand: HandGeometry,
    cfg: GraspConfig,
    plane: Plane,
    workspace: Workspace | None = None,
    viewpoint=(0.0, 0.0, 0.0),
) -> list[GraspCandidate]:
    """What ``detect_grasps`` must return for the same arguments."""
    work = preprocess(cloud, cfg, plane, workspace, viewpoint)
    if work is None:
        return []
    return select_grasps(filter_by_approach(reference_candidates(work, hand, cfg), cfg), cfg)

"""Deterministic grasp detection, synthetic-scene manipulation tasks and a
seeded benchmark harness for desk-scale pick-and-place experiments."""

from .geometry import (
    CameraIntrinsics,
    InstanceMask,
    RigidTransform,
    deproject_pixel,
    mask_area,
    mask_centroid,
    project_point,
)
from .graspdetect import (
    GraspCandidate,
    GraspConfig,
    HandGeometry,
    detect_grasps,
)
from .harness import ExperimentConfig, MetricsSummary, compute_metrics, run_experiment
from .perception import (
    estimate_height,
    object_workspace_pose,
    pose_stability_stats,
    sort_by_mask_area,
)
from .pointcloud import (
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
from .scenesim import (
    Scene,
    SceneSpec,
    SensorModel,
    Terrain,
    degrade_mask,
    generate_scene,
    render_depth,
    render_instance_masks,
)
from .taskexec import (
    ArmState,
    ExecParams,
    StackState,
    TrialReport,
    check_stack_stability,
    execute_grasp,
    move_to,
    place_on_stack,
    run_assembly_task,
    run_stacking_task,
)

__version__ = "0.1.0"

__all__ = [
    "ArmState",
    "CameraIntrinsics",
    "ExecParams",
    "ExperimentConfig",
    "GraspCandidate",
    "GraspConfig",
    "HandGeometry",
    "InstanceMask",
    "MetricsSummary",
    "Plane",
    "PointCloud",
    "RigidTransform",
    "Scene",
    "SceneSpec",
    "SensorModel",
    "StackState",
    "Terrain",
    "TrialReport",
    "Workspace",
    "check_stack_stability",
    "cloud_from_depth",
    "compute_metrics",
    "crop_workspace",
    "degrade_mask",
    "deproject_pixel",
    "detect_grasps",
    "estimate_height",
    "estimate_normals",
    "execute_grasp",
    "filter_above_plane",
    "fit_plane_ransac",
    "generate_scene",
    "mask_area",
    "mask_centroid",
    "move_to",
    "object_workspace_pose",
    "place_on_stack",
    "pose_stability_stats",
    "project_point",
    "render_depth",
    "render_instance_masks",
    "run_assembly_task",
    "run_experiment",
    "run_stacking_task",
    "sort_by_mask_area",
    "voxel_downsample",
]

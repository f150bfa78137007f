"""Detection-to-workspace-pose pipeline: size sorting by mask area, pixel
deprojection of mask centroids, and height estimation from one depth image.

The detector here is an oracle over rendered instance masks, but everything
downstream consumes plain :class:`Detection` records, so a live segmentation
model could be swapped in without touching this module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMaskError,
    InsufficientSamplesError,
    MissingDepthError,
    NegativeHeightError,
    ValidationError,
)
from .geometry import (
    CameraIntrinsics,
    InstanceMask,
    RigidTransform,
    deproject_pixel,
    mask_area,
    mask_bbox,
    mask_centroid,
)
from .pointcloud import Plane
from .scenesim import CameraSpec, Scene, SensorModel, Terrain, degrade_mask, render_instance_masks

logger = logging.getLogger(__name__)

# share of a mask's highest z values whose median is the object top
_TOP_FRACTION = 0.05
# side, px, of the median window object_workspace_pose reads at a mask centroid
CENTROID_WINDOW = 5


@dataclass(frozen=True)
class Detection:
    """One detected object: class label, mask, tight bbox, confidence."""

    label: str
    mask: InstanceMask
    bbox: tuple[int, int, int, int]
    confidence: float
    instance_id: int = -1  # oracle provenance; a live detector leaves -1

    @classmethod
    def from_mask(cls, mask: InstanceMask) -> "Detection":
        return cls(
            label=mask.label,
            mask=mask,
            bbox=mask_bbox(mask),
            confidence=mask.confidence,
            instance_id=mask.instance_id,
        )


def detect_objects(
    scene: Scene,
    camera: CameraSpec,
    sensor: SensorModel | None = None,
    seed: int = 0,
    labels: tuple | None = None,
) -> list[Detection]:
    """Oracle detector: exact rendered masks, optionally sensor-degraded.

    Stands in for a trained segmentation network; emits the same records a
    live detector would.
    """
    masks = render_instance_masks(scene, camera)
    return detections_from_masks(masks, sensor, seed, labels)


def detections_from_masks(
    masks: list[InstanceMask],
    sensor: SensorModel | None = None,
    seed: int = 0,
    labels: tuple | None = None,
) -> list[Detection]:
    """The detections of :func:`detect_objects` from already rendered masks.

    Mask ``i`` (counted over all masks, before the label filter) is degraded
    with seed ``seed + 1000 * (i + 1)``; masks left empty are dropped.
    """
    out = []
    for i, mask in enumerate(masks):
        if labels is not None and mask.label not in labels:
            continue
        if sensor is not None and (sensor.mask_erosion > 0 or sensor.boundary_flip_rate > 0):
            mask = degrade_mask(mask, sensor, seed + 1000 * (i + 1))
        if mask_area(mask) == 0:
            continue
        out.append(Detection.from_mask(mask))
    return out


def sort_by_mask_area(detections: list[Detection]) -> list[Detection]:
    """Non-increasing mask area; ties broken by centroid (v, then u).

    Detections with empty masks are dropped with a warning.
    """
    keep = []
    for det in detections:
        if mask_area(det.mask) == 0:
            logger.warning("dropping detection %r with empty mask", det.label)
            continue
        keep.append(det)
    def key(det: Detection):
        cu, cv = mask_centroid(det.mask)
        return (-mask_area(det.mask), cv, cu)
    return sorted(keep, key=key)


def window_bounds(u: float, v: float, size: int, shape: tuple) -> tuple[int, int, int, int]:
    """Rows ``v0:v1`` and columns ``u0:u1`` of the ``size x size`` window
    centred on the pixel nearest (u, v), clipped at the image border.

    Every end lies in ``[0, n]``, so a window wholly outside the image is
    empty."""
    half = size // 2
    h, w = shape
    v0, v1 = _clipped_span(int(round(v)), half, h)
    u0, u1 = _clipped_span(int(round(u)), half, w)
    return v0, v1, u0, u1


def _clipped_span(i: int, half: int, n: int) -> tuple[int, int]:
    return min(max(i - half, 0), n), max(min(i + half + 1, n), 0)


def median_window_depths(windows: np.ndarray) -> np.ndarray:
    """Median of the valid (> 0) depths of each window in a stack, mm.

    ``windows`` has shape ``(n, ...)``; each of the n windows is reduced on
    its own. A window without a valid pixel yields NaN.
    """
    flat = windows.reshape(len(windows), math.prod(windows.shape[1:]))
    valid = flat > 0
    count = valid.sum(axis=1)
    ordered = np.sort(np.where(valid, flat.astype(np.float64), np.inf), axis=1)
    out = np.full(len(flat), np.nan)
    rows = np.flatnonzero(count)
    hi = count[rows] // 2
    lo = (count[rows] - 1) // 2
    out[rows] = (ordered[rows, lo] + ordered[rows, hi]) / 2.0
    return out


def median_window_depth(depth: np.ndarray, u: float, v: float, size: int = 5) -> float:
    """Median of the valid depths in a ``size x size`` window at (u, v), mm.

    Robust to holes; raises when the whole window is missing.
    """
    v0, v1, u0, u1 = window_bounds(u, v, size, depth.shape)
    d = median_window_depths(depth[None, v0:v1, u0:u1])[0]
    if np.isnan(d):
        raise MissingDepthError(f"no valid depth in {size}x{size} window at ({u:.1f}, {v:.1f})")
    return float(d)


def object_workspace_pose(
    detection: Detection,
    depth: np.ndarray,
    intr: CameraIntrinsics,
    cam_to_robot: RigidTransform,
) -> np.ndarray:
    """Mask centroid -> median window depth -> deproject -> robot frame.

    Returns the ``(3,)`` position in the robot frame, mm."""
    if mask_area(detection.mask) == 0:
        raise EmptyMaskError("cannot locate an empty detection")
    cu, cv = mask_centroid(detection.mask)
    d = median_window_depth(depth, cu, cv, size=CENTROID_WINDOW)
    return cam_to_robot.apply(deproject_pixel(intr, cu, cv, d))


def estimate_height(
    detection: Detection,
    depth: np.ndarray,
    intr: CameraIntrinsics,
    cam_to_robot: RigidTransform,
    support,
) -> float:
    """Object top minus the support surface under its centroid, mm.

    The top is a robust maximum: the median of the highest 5% (at least 5)
    of the mask's deprojected z values, which keeps depth speckle from
    inflating the estimate. ``support`` may be a Plane, a Terrain, or a
    plain z value.
    """
    bitmap = detection.mask.bitmap
    vs, us = np.nonzero(bitmap)
    if us.size == 0:
        raise EmptyMaskError("cannot measure an empty detection")
    ds = depth[vs, us].astype(np.float64)
    valid = ds > 0
    if not np.any(valid):
        raise MissingDepthError("no valid depth under the detection mask")
    pts = deproject_pixel(intr, us[valid], vs[valid], ds[valid])
    z = cam_to_robot.apply(pts)[:, 2]
    k = max(5, int(round(_TOP_FRACTION * z.size)))
    k = min(k, z.size)
    top = float(np.median(np.sort(z)[-k:]))

    center = object_workspace_pose(detection, depth, intr, cam_to_robot)
    if isinstance(support, Plane):
        support_z = support.z_at(center[0], center[1])
    elif isinstance(support, Terrain):
        support_z = float(support.height_at(center[0], center[1]))
    else:
        support_z = float(support)
    height = top - support_z
    if height <= 0:
        raise NegativeHeightError(
            f"estimated top {top:.1f} below support {support_z:.1f}; bad reference"
        )
    return height


def pose_stability_stats(positions: np.ndarray) -> tuple[float, float, float]:
    """Per-coordinate sample standard deviation (ddof=1) of repeated
    position measurements, given as an ``(n, 3)`` array, one row per sample.

    Coordinates whose samples are all identical report exactly 0 (no
    accumulated float dust).
    """
    arr = np.asarray(positions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"positions must have shape (n, 3), got {arr.shape}")
    if len(arr) < 2:
        raise InsufficientSamplesError("need at least 2 pose samples")
    sigma = arr.std(axis=0, ddof=1)
    constant = np.all(arr == arr[0], axis=0)
    sigma[constant] = 0.0
    return float(sigma[0]), float(sigma[1]), float(sigma[2])

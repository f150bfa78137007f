"""Shared fixtures: reference intrinsics, synthetic clouds, the
output-tree hash and the rigid-transform rounding rule by hand."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from rockstack.geometry import CameraIntrinsics
from rockstack.pointcloud import PointCloud


@pytest.fixture
def intr() -> CameraIntrinsics:
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def box_cloud(
    width: float = 40.0,
    depth: float = 60.0,
    height: float = 30.0,
    center=(0.0, 0.0),
    pitch: float = 2.0,
    with_floor: bool = False,
) -> PointCloud:
    """Surface samples of an axis-aligned box resting at z=0: top face plus
    the four side walls (what a camera sweep around the box would capture)."""
    cx, cy = center
    hx, hy = width / 2.0, depth / 2.0
    xs = np.arange(-hx, hx + pitch / 2, pitch)
    ys = np.arange(-hy, hy + pitch / 2, pitch)
    zs = np.arange(0.0, height + pitch / 2, pitch)
    pts = []
    xx, yy = np.meshgrid(xs, ys)
    pts.append(np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, height)]))
    xx, zz = np.meshgrid(xs, zs)
    for sign in (-hy, hy):
        pts.append(np.column_stack([xx.ravel(), np.full(xx.size, sign), zz.ravel()]))
    yy, zz = np.meshgrid(ys, zs)
    for sign in (-hx, hx):
        pts.append(np.column_stack([np.full(yy.size, sign), yy.ravel(), zz.ravel()]))
    if with_floor:
        fx = np.arange(-hx - 60, hx + 60, pitch)
        fy = np.arange(-hy - 60, hy + 60, pitch)
        xx, yy = np.meshgrid(fx, fy)
        floor = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        outside = (np.abs(floor[:, 0]) > hx) | (np.abs(floor[:, 1]) > hy)
        pts.append(floor[outside])
    cloud = np.concatenate(pts)
    cloud[:, 0] += cx
    cloud[:, 1] += cy
    return PointCloud(cloud, frame="robot")


def write_cloud_xyz(path, cloud: PointCloud) -> None:
    """Write ``cloud`` as ``pointcloud.load_cloud_xyz`` reads it: a ``#``
    comment line, then ``x y z [nx ny nz]`` per point."""
    rows = cloud.points if cloud.normals is None else np.hstack([cloud.points, cloud.normals])
    np.savetxt(path, rows, header=f"point cloud, {len(cloud)} points, mm")


def tree_hash(d: Path) -> str:
    """SHA-256 over the file names and bytes of a run's output tree, in name
    order."""
    h = hashlib.sha256()
    for f in sorted(Path(d).iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def rotated_by_hand(r, p) -> list:
    """The rotation ``r`` of the point ``p`` as a list of Python floats,
    by the rounding rule of ``RigidTransform``: coordinate i is
    ``x * r[i, 0] + y * r[i, 1] + z * r[i, 2]``, left to right."""
    x, y, z = (float(v) for v in p)
    return [x * float(r[i, 0]) + y * float(r[i, 1]) + z * float(r[i, 2]) for i in range(3)]

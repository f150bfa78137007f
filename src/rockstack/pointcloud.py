"""Point-cloud construction from depth plus the preprocessing the grasp
detector depends on: workspace cropping, voxel downsampling, normal
estimation and RANSAC support-plane fitting.

Clouds are immutable; every operation returns a new cloud and is
deterministic (seeded where randomness is involved), so results are safe to
reproduce bit-for-bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateInputError,
    EmptyCloudError,
    TooFewPointsError,
    ValidationError,
)
from .geometry import CameraIntrinsics, RigidTransform, deproject_pixel

NORMAL_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class PointCloud:
    """Points in mm with optional per-point unit normals."""

    points: np.ndarray  # (n, 3) float64
    normals: np.ndarray | None = None  # (n, 3) float64, unit length
    frame: str = "robot"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if nrm.shape[0] != pts.shape[0]:
                raise ValidationError("normal count must equal point count")
            lengths = np.linalg.norm(nrm, axis=1)
            if nrm.shape[0] and np.max(np.abs(lengths - 1.0)) > NORMAL_UNIT_TOL:
                raise ValidationError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, index) -> "PointCloud":
        """Cloud restricted to the given row index (order preserved)."""
        normals = self.normals[index] if self.normals is not None else None
        return PointCloud(self.points[index], normals, self.frame)


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned box in the robot frame, mm."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64).reshape(3)
        hi = np.asarray(self.max_corner, dtype=np.float64).reshape(3)
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        if not np.all(lo < hi):
            raise ValidationError("workspace min must be < max per axis")

    def contains(self, points) -> np.ndarray:
        """Whether each point (last axis x, y, z) lies in the closed box;
        a NaN coordinate is outside. Tests one column at a time, which
        avoids the ``(n, 3)`` boolean temporaries of a whole-array test."""
        p = np.asarray(points, dtype=np.float64)
        lo, hi = self.min_corner, self.max_corner
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return (
            (x >= lo[0]) & (x <= hi[0]) & (y >= lo[1]) & (y <= hi[1]) & (z >= lo[2]) & (z <= hi[2])
        )


@dataclass(frozen=True)
class Plane:
    """Plane n . p = offset with unit normal n."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        length = np.linalg.norm(n)
        if abs(length - 1.0) > 1e-9:
            raise ValidationError("plane normal must be unit length within 1e-9")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    def signed_distance(self, points) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.normal - self.offset

    def z_at(self, x: float, y: float) -> float:
        """Plane height at an xy location (requires a non-horizontal-degenerate normal)."""
        nz = self.normal[2]
        if abs(nz) < 1e-12:
            raise ValidationError("plane is vertical; has no unique z at xy")
        return float((self.offset - self.normal[0] * x - self.normal[1] * y) / nz)


def cloud_from_depth(
    depth: np.ndarray,
    intr: CameraIntrinsics,
    cam_to_robot: RigidTransform,
    stride: int = 1,
) -> PointCloud:
    """Deproject every valid strided pixel and transform to the robot frame.

    Output order is row-major over the stride grid, one point per pixel with
    depth > 0.
    """
    depth = np.asarray(depth)
    grid = stride_pixels(depth.shape, stride)
    pixels = grid[depth.flat[grid] > 0]
    if pixels.size == 0:
        raise EmptyCloudError("depth image has no valid pixels")
    return cloud_from_pixels(depth, intr, cam_to_robot, pixels)


def stride_pixels(shape: tuple, stride: int) -> np.ndarray:
    """Flat row-major indices of the stride grid of an image of ``shape``:
    every ``stride``-th column of every ``stride``-th row, row by row.
    ``ValidationError`` for a stride below 1."""
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    h, w = shape
    return (np.arange(0, h, stride)[:, None] * w + np.arange(0, w, stride)).ravel()


def cloud_from_pixels(
    depth: np.ndarray,
    intr: CameraIntrinsics,
    cam_to_robot: RigidTransform,
    pixels: np.ndarray,
) -> PointCloud:
    """The points of the flat row-major pixel indices ``pixels``, each of
    which must hold depth > 0, in their order; empty for no pixels.

    Each point is bit-equal to that pixel's point in :func:`cloud_from_depth`
    of the same image: deprojection and the transform are both per point.
    """
    depth = np.asarray(depth)
    pixels = np.asarray(pixels, dtype=np.intp)
    v, u = np.divmod(pixels, depth.shape[1])
    cam_pts = deproject_pixel(intr, u, v, depth.flat[pixels].astype(np.float64))
    return PointCloud(cam_to_robot.apply(cam_pts), frame="robot")


def crop_workspace(cloud: PointCloud, workspace: Workspace) -> PointCloud:
    """Keep exactly the points inside the closed box; order preserved."""
    return cloud.select(workspace.contains(cloud.points))


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """One centroid per occupied voxel, keyed by floor(p / leaf).

    Output is ordered by voxel key (lexicographic), which makes the result
    independent of input order up to centroid averaging.
    """
    if leaf <= 0:
        raise ValidationError("voxel leaf size must be > 0")
    if len(cloud) == 0:
        return cloud
    keys = np.floor(cloud.points / leaf).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    sorted_pts = cloud.points[order]
    boundaries = np.any(np.diff(sorted_keys, axis=0) != 0, axis=1)
    starts = np.concatenate([[0], np.nonzero(boundaries)[0] + 1])
    sums = np.add.reduceat(sorted_pts, starts, axis=0)
    counts = np.diff(np.concatenate([starts, [len(cloud)]]))
    return PointCloud(sums / counts[:, None], frame=cloud.frame)


def estimate_normals(cloud: PointCloud, k: int = 15, viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """Per-point normals from the k-NN covariance, oriented toward the sensor.

    The normal is the smallest-eigenvalue eigenvector of the neighborhood
    covariance; it is flipped so that n . (viewpoint - p) >= 0.
    """
    n = len(cloud)
    if k < 3:
        raise ValidationError("k must be >= 3 for normal estimation")
    if n < k:
        raise TooFewPointsError(f"cloud of {n} points is smaller than k={k}")
    # imported on first use: scipy.spatial takes about 0.4 s to load, and a pose trial never fits normals
    from scipy.spatial import cKDTree

    tree = cKDTree(cloud.points)
    _, idx = tree.query(cloud.points, k=k)
    nb = cloud.points[idx]  # (n, k, 3)
    centered = nb - nb.mean(axis=1, keepdims=True)
    cov = np.matmul(centered.transpose(0, 2, 1), centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]  # eigenvalues ascending: column 0 = smallest
    # deterministic sign before viewpoint orientation
    lead = np.argmax(np.abs(normals), axis=1)
    signs = np.sign(normals[np.arange(n), lead])
    signs[signs == 0] = 1.0
    normals = normals * signs[:, None]
    to_sensor = np.asarray(viewpoint, dtype=np.float64) - cloud.points
    flip = np.sum(normals * to_sensor, axis=1) < 0
    normals[flip] = -normals[flip]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points, normals, cloud.frame)


def _plane_from_three(points: np.ndarray) -> tuple[np.ndarray, float] | None:
    # the cross product written out with np.cross's own expressions, so the
    # normal is bit-equal at a fraction of the call overhead
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = points.tolist()
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
    n = np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])
    length = np.linalg.norm(n)
    if length < 1e-9:
        return None
    n = n / length
    return n, float(n @ points[0])


def _orient_plane(normal: np.ndarray, offset: float) -> tuple[np.ndarray, float]:
    # canonical orientation: "above" is the robot +z side
    if normal[2] < 0 or (normal[2] == 0 and (normal[0] < 0 or (normal[0] == 0 and normal[1] < 0))):
        return -normal, -offset
    return normal, offset


# hypotheses x points per scoring block: 512 KB per float array, so a
# block's temporaries stay under 1 MB unless one row of points is longer
_SCORE_ELEMENTS = 1 << 16
# a cross product this close to the degeneracy threshold, relative to it,
# is judged by _plane_from_three itself
_NEAR_DEGENERATE = 1e-6


def _ransac_triples(rng: np.random.Generator, m: int, iters: int) -> np.ndarray:
    """The ``(iters, 3)`` triples that ``iters`` calls of
    ``rng.choice(m, 3, replace=False)`` return, drawn in one call that
    leaves ``rng`` in the same state.

    ``choice`` runs Floyd's algorithm: bounded draws over [0, m-3],
    [0, m-2] and [0, m-1], where a value already taken is replaced by
    that range's top. It then shuffles, swapping position 2 with a draw
    over [0, 2] and position 1 with a draw over [0, 1]. ``integers`` with
    these exclusive highs makes the same five bounded draws per triple
    through the same routine; a range of one value draws nothing.
    """
    draws = rng.integers(0, np.tile([m - 2, m - 1, m, 3, 2], iters)).reshape(iters, 5)
    t = draws[:, :3].copy()
    t[t[:, 1] == t[:, 0], 1] = m - 2
    t[(t[:, 2] == t[:, 0]) | (t[:, 2] == t[:, 1]), 2] = m - 1
    rows = np.arange(iters)
    for pos, col in ((2, 3), (1, 4)):
        swap = draws[:, col]
        taken = t[rows, swap]
        t[rows, swap] = t[:, pos]
        t[:, pos] = taken
    return t


def _hypothesis_counts(pts: np.ndarray, triples: np.ndarray, tol: float) -> np.ndarray:
    """Per triple, ``np.count_nonzero(np.abs(pts @ n - off) <= tol)`` for
    the plane ``(n, off)`` that :func:`_plane_from_three` builds of its
    points, or -1 where it builds none.

    The planes are built together and scored in blocks of hypotheses,
    each block one matrix product over all the points, whose distances
    may round apart from a single plane's by far less than
    margin = 1e-9 (1 + max |p|), the maximum over the finite coordinates.
    So each hypothesis is counted at ``tol - margin`` and ``tol + margin``:
    equal counts are the exact count, and where they differ, or where the
    cross product's length is near the 1e-9 threshold, the triple is
    scored as a plane of its own.
    """
    a, b, c = pts[triples].transpose(1, 2, 0)
    u, v = b - a, c - a
    n = np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]])
    length = np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    live = length > 1e-9 * (1 + _NEAR_DEGENERATE)
    near = ~live & (length >= 1e-9 * (1 - _NEAR_DEGENERATE))
    normals = (n[:, live] / length[live]).T
    offsets = normals[:, 0] * a[0, live] + normals[:, 1] * a[1, live] + normals[:, 2] * a[2, live]
    planes = np.column_stack([normals, -offsets])
    margin = 1e-9 * (1.0 + np.abs(pts[np.isfinite(pts)]).max(initial=0.0))
    homogeneous = np.vstack([pts.T, np.ones(pts.shape[0])])
    block = max(1, _SCORE_ELEMENTS // pts.shape[0])
    tight = np.zeros(planes.shape[0], dtype=np.intp)
    loose = np.zeros(planes.shape[0], dtype=np.intp)
    for lo in range(0, planes.shape[0], block):
        part = slice(lo, lo + block)
        dist = planes[part] @ homogeneous
        np.abs(dist, out=dist)
        tight[part] = row_counts(dist <= tol - margin)
        loose[part] = row_counts(dist <= tol + margin)
    counts = np.full(triples.shape[0], -1, dtype=np.intp)
    counts[live] = np.where(tight == loose, tight, -2)
    for i in np.flatnonzero(near | (counts == -2)):
        model = _plane_from_three(pts[triples[i]])
        counts[i] = -1 if model is None else np.count_nonzero(np.abs(pts @ model[0] - model[1]) <= tol)
    return counts


def row_counts(mask: np.ndarray) -> np.ndarray:
    """True values in each row of a 2-D boolean array, as ``intp``; equal to
    ``np.count_nonzero(mask, axis=1)``.

    It is a popcount of the rows' packed bits, which takes 6.6 us on a
    30 x 540 block where ``count_nonzero`` takes 10.7 us, and 11.5 against
    35.0 us on 26 x 2,500 (best of 7 timeit runs, one core of a 2-vCPU Xeon).
    """
    return np.bitwise_count(np.packbits(mask, axis=1)).sum(axis=1, dtype=np.intp)


def fit_plane_ransac(
    cloud: PointCloud,
    iters: int = 200,
    tol: float = 5.0,
    seed: int = 0,
    max_points: int | None = None,
) -> tuple[Plane, np.ndarray]:
    """Seeded RANSAC plane fit; returns the plane and sorted inlier indices.

    The fit is :func:`fit_plane_sample` over the rows :func:`ransac_sample`
    draws. The winning hypothesis (most inliers; ties broken by lowest
    iteration index) is refit by least squares over its inliers, and the
    returned inlier set is recomputed against the refit plane over the full
    cloud. ``max_points`` caps the hypothesis/scoring subset for large
    clouds; the final refit and inlier indices always refer to the full
    cloud.
    """
    rows, rng = ransac_sample(len(cloud), seed, max_points)
    plane = fit_plane_sample(cloud.points[rows], rng, iters, tol)
    full_inliers = np.nonzero(np.abs(plane.signed_distance(cloud.points)) <= tol)[0]
    return plane, full_inliers


def ransac_sample(
    n: int, seed: int, max_points: int | None = None
) -> tuple[np.ndarray, np.random.Generator]:
    """The sorted rows of an n-point cloud that :func:`fit_plane_ransac`
    with this ``seed`` and ``max_points`` fits to, and the generator, after
    that draw, from which it draws its hypotheses.

    The rows depend on n alone, so a caller that knows n can build just
    those points and pass them to :func:`fit_plane_sample`.
    """
    if n < 3:
        raise TooFewPointsError("plane fit needs at least 3 points")
    rng = np.random.default_rng(seed)
    if max_points is not None and n > max_points:
        return np.sort(rng.choice(n, size=max_points, replace=False)), rng
    return np.arange(n), rng


def fit_plane_sample(pts: np.ndarray, rng: np.random.Generator, iters: int, tol: float) -> Plane:
    """The plane of :func:`fit_plane_ransac` from its subset ``pts`` (the
    points of the rows :func:`ransac_sample` drew, in order) and the
    generator that drew them.

    Hypothesis k is the plane through the triple that the k-th of ``iters``
    calls of ``rng.choice(m, 3, replace=False)`` would draw, none where the
    triple's cross product is shorter than 1e-9, scored by its points
    within ``tol``. The winner is the first hypothesis with the most
    inliers, as a loop keeping only a strictly greater count picks it, and
    is refit by least squares over its inliers.

    The triples are drawn in one call that leaves ``rng`` as those
    ``choice`` calls would (:func:`_ransac_triples`). The planes are built
    and scored together (:func:`_hypothesis_counts`); a count that the
    rounding of the joint product could change, by a margin of
    1e-9 (1 + max |p|) either side of ``tol``, is recounted for that plane
    alone. So the plane is bit-equal to scoring one hypothesis at a time.
    """
    triples = _ransac_triples(rng, pts.shape[0], iters)
    counts = _hypothesis_counts(pts, triples, tol)
    if not np.any(counts > 0):
        raise DegenerateInputError("all sampled triples were collinear; no plane model")
    best_model = _plane_from_three(pts[triples[np.argmax(counts)]])

    normal, offset = best_model
    inliers = np.abs(pts @ normal - offset) <= tol
    inlier_pts = pts[inliers]
    centroid = inlier_pts.mean(axis=0)
    _, _, vt = np.linalg.svd(inlier_pts - centroid, full_matrices=False)
    normal = vt[-1]
    normal, offset = _orient_plane(normal, float(normal @ centroid))
    return Plane(normal / np.linalg.norm(normal), offset)


def filter_above_plane(cloud: PointCloud, plane: Plane, margin: float = 0.0) -> PointCloud:
    """Keep points with signed distance > margin; order preserved.

    The plane normal must be oriented so that "above" is the robot +z side
    (the orientation :func:`fit_plane_ransac` returns).
    """
    return cloud.select(plane.signed_distance(cloud.points) > margin)


# ---------------------------------------------------------------------------
# ASCII cloud file: '#' comments, then 'x y z [nx ny nz]' per line, mm


def load_cloud_xyz(path) -> PointCloud:
    pts: list[list[float]] = []
    nrm: list[list[float]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vals = [float(tok) for tok in line.split()]
        if len(vals) == 3:
            pts.append(vals)
        elif len(vals) == 6:
            pts.append(vals[:3])
            nrm.append(vals[3:])
        else:
            raise ValidationError(f"bad cloud line (expected 3 or 6 values): {line!r}")
    if nrm and len(nrm) != len(pts):
        raise ValidationError("cloud file mixes lines with and without normals")
    points = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(nrm, dtype=np.float64) if nrm else None
    if normals is not None:
        lengths = np.linalg.norm(normals, axis=1)
        lengths[lengths == 0] = 1.0
        normals = normals / lengths[:, None]
    return PointCloud(points, normals)

"""Reference RANSAC plane fit: one hypothesis at a time, as the library
fitted before its hypotheses were drawn, built and scored in array passes.

``fit_plane_sample`` draws each triple with its own
``rng.choice(m, 3, replace=False)`` call, builds the plane with
``np.cross`` and scores it over every point. The library must return the
same plane, bit for bit, and leave the generator in the same state.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np

from render_oracle import plane_from_three
from rockstack.errors import DegenerateInputError
from rockstack.pointcloud import Plane


def fit_plane_sample(pts: np.ndarray, rng: np.random.Generator, iters: int, tol: float) -> Plane:
    best_count = 0
    best_model = None
    m = pts.shape[0]
    for _ in range(iters):
        triple = rng.choice(m, size=3, replace=False)
        model = plane_from_three(pts[triple])
        if model is None:
            continue
        normal, offset = model
        count = int(np.count_nonzero(np.abs(pts @ normal - offset) <= tol))
        if count > best_count:
            best_count = count
            best_model = model
    if best_model is None:
        raise DegenerateInputError("all sampled triples were collinear; no plane model")

    normal, offset = best_model
    inliers = np.abs(pts @ normal - offset) <= tol
    inlier_pts = pts[inliers]
    centroid = inlier_pts.mean(axis=0)
    _, _, vt = np.linalg.svd(inlier_pts - centroid, full_matrices=False)
    normal = vt[-1]
    offset = float(normal @ centroid)
    # "above" is the robot +z side
    if normal[2] < 0 or (normal[2] == 0 and (normal[0] < 0 or (normal[0] == 0 and normal[1] < 0))):
        normal, offset = -normal, -offset
    return Plane(normal / np.linalg.norm(normal), offset)


@contextlib.contextmanager
def record_fits(owner, calls: list):
    """Append ``(pts, rng_before, iters, tol, plane, rng_after)`` of every
    call to ``owner.fit_plane_sample`` to ``calls`` while the context is
    open; the points and both generators are copies."""
    original = owner.fit_plane_sample

    def wrapper(pts, rng, iters, tol):
        before = copy.deepcopy(rng)
        plane = original(pts, rng, iters, tol)
        calls.append((np.array(pts), before, iters, tol, plane, copy.deepcopy(rng)))
        return plane

    owner.fit_plane_sample = wrapper
    try:
        yield calls
    finally:
        owner.fit_plane_sample = original

"""Reference kernels for the render, terrain and RANSAC oracle tests.

The superellipsoid march evaluates the gap at every one of its 48 samples
on the bounding-sphere bracket, the terrain cast runs all 8 fixed-point
iterations on every descending ray, and the plane hypothesis takes its
normal from ``np.cross``: the kernels as they were before they learned to
skip work whose result is already known. The library kernels must
reproduce them bit for bit.
"""

from __future__ import annotations

import contextlib

import numpy as np

_MISS = np.inf


def first_crossing(g_fn, s_lo, s_hi, active, n_samples=48, n_bisect=24):
    n = s_lo.shape[0]
    hit_s = np.full(n, _MISS)
    if not np.any(active):
        return hit_s
    idx = np.nonzero(active)[0]
    lo = s_lo[idx].copy()
    hi = s_hi[idx].copy()
    span = hi - lo
    prev = lo.copy()
    found = np.zeros(idx.size, dtype=bool)
    bracket_lo = np.zeros(idx.size)
    bracket_hi = np.zeros(idx.size)
    for i in range(1, n_samples + 1):
        s = lo + span * (i / n_samples)
        todo = ~found
        if not np.any(todo):
            break
        inside = np.zeros(idx.size, dtype=bool)
        inside[todo] = g_fn(s[todo], idx[todo]) <= 0.0
        newly = todo & inside
        bracket_lo[newly] = prev[newly]
        bracket_hi[newly] = s[newly]
        found |= newly
        prev = s
    if not np.any(found):
        return hit_s
    f_idx = np.nonzero(found)[0]
    a = bracket_lo[f_idx]
    b = bracket_hi[f_idx]
    rows = idx[f_idx]
    for _ in range(n_bisect):
        mid = 0.5 * (a + b)
        inside = g_fn(mid, rows) <= 0.0
        b = np.where(inside, mid, b)
        a = np.where(inside, a, mid)
    hit_s[rows] = b
    return hit_s


def superellipsoid_raycast(shape, origins, dirs):
    """``Superellipsoid.raycast`` with every sphere-bracket sample evaluated."""
    o = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    d = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    r = shape.bounding_radius
    a = np.sum(d * d, axis=1)
    b = 2.0 * np.sum(o * d, axis=1)
    c = np.sum(o * o, axis=1) - r * r
    disc = b * b - 4.0 * a * c
    ok = disc > 0
    sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
    s_lo = (-b - sqrt_disc) / (2.0 * a)
    s_hi = (-b + sqrt_disc) / (2.0 * a)
    s_lo = np.maximum(s_lo, 0.0)
    active = ok & (s_hi > 0)

    def gap(s, rows):
        pts = o[rows] + s[:, None] * d[rows]
        return shape.implicit(pts) - 1.0

    return first_crossing(gap, s_lo, s_hi, active)


def terrain_height_at(terrain, x, y):
    gx = (np.asarray(x, dtype=np.float64) - terrain.origin[0]) / terrain.pitch
    gy = (np.asarray(y, dtype=np.float64) - terrain.origin[1]) / terrain.pitch
    ny, nx = terrain.heights.shape
    gx = np.clip(gx, 0.0, nx - 1.0)
    gy = np.clip(gy, 0.0, ny - 1.0)
    ix = np.clip(np.floor(gx).astype(int), 0, nx - 2)
    iy = np.clip(np.floor(gy).astype(int), 0, ny - 2)
    fx = gx - ix
    fy = gy - iy
    h00 = terrain.heights[iy, ix]
    h01 = terrain.heights[iy, ix + 1]
    h10 = terrain.heights[iy + 1, ix]
    h11 = terrain.heights[iy + 1, ix + 1]
    return (
        h00 * (1 - fx) * (1 - fy)
        + h01 * fx * (1 - fy)
        + h10 * (1 - fx) * fy
        + h11 * fx * fy
    )


def terrain_raycast(terrain, origin, dirs):
    """``Terrain.raycast_world`` with all 8 iterations on every ray."""
    dz = dirs[:, 2]
    descending = dz < -1e-9
    s = np.full(dirs.shape[0], np.inf)
    if not np.any(descending):
        return s
    d = dirs[descending]
    oz = origin[2]
    est = np.full(d.shape[0], (np.mean(terrain.heights) - oz)) / d[:, 2]
    for _ in range(8):
        x = origin[0] + est * d[:, 0]
        y = origin[1] + est * d[:, 1]
        h = terrain_height_at(terrain, x, y)
        est = (h - oz) / d[:, 2]
    x = origin[0] + est * d[:, 0]
    y = origin[1] + est * d[:, 1]
    resid = np.abs(oz + est * d[:, 2] - terrain_height_at(terrain, x, y))
    good = (resid < 0.05) & (est > 0)
    s_sub = np.where(good, est, np.inf)
    s[descending] = s_sub
    return s


def plane_from_three(points):
    a, b, c = points
    n = np.cross(b - a, c - a)
    length = np.linalg.norm(n)
    if length < 1e-9:
        return None
    n = n / length
    return n, float(n @ a)


@contextlib.contextmanager
def record_calls(owner, name: str, calls: list):
    """Append ``(self, *args)`` of every call to ``owner.name`` to ``calls``
    (arrays copied) while the context is open."""
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(tuple(np.array(a) if isinstance(a, np.ndarray) else a for a in args))
        return original(*args)

    setattr(owner, name, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, name, original)

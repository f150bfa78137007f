"""Reference kernels for the render, terrain and RANSAC oracle tests.

The superellipsoid march evaluates the gap at every one of its 48 samples
on the bounding-sphere bracket, and the plane hypothesis takes its normal
from ``np.cross``: the kernels as they were before they learned to skip
work whose result is already known. The library kernels must reproduce
them bit for bit, ``Terrain.height_at`` must reproduce
:func:`terrain_height_at`, and ``Terrain.raycast_world`` must reproduce
:func:`terrain_raycast`, the exact cell walk as it was before it kept its
tables per terrain and worked in place.
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


# The exact terrain cast as it was before its per-terrain tables and its
# in-place kernel: the tables are rebuilt on every call and every step of
# the cell walk makes fresh arrays. ``Terrain.raycast_world`` must
# reproduce it bit for bit.
REFERENCE_RAY_BLOCK = 8192


def terrain_raycast(terrain, origin, dirs):
    s = np.full(dirs.shape[0], np.inf)
    # Each cell's bilinear patch h00 + bx fx + by fy + twist fx fy, over a
    # grid padded by one edge-replicated ring. The ring's cells are the
    # clamped regions beyond the edges: along a clamped axis the corner
    # heights are equal, so its terms vanish and its fraction drops out.
    h = np.pad(terrain.heights, 1, mode="edge")
    h00 = h[:-1, :-1]
    bx = h[:-1, 1:] - h00
    by = h[1:, :-1] - h00
    twist = h[1:, 1:] - h[:-1, 1:] - by
    patches = np.stack([h00.ravel(), bx.ravel(), by.ravel(), twist.ravel()])
    z_range = (float(terrain.heights.min()), float(terrain.heights.max()))
    # blocks keep the temporaries of a full image small
    for i in range(0, dirs.shape[0], REFERENCE_RAY_BLOCK):
        s[i : i + REFERENCE_RAY_BLOCK] = terrain_cast_block(
            terrain, origin, dirs[i : i + REFERENCE_RAY_BLOCK], patches, z_range
        )
    return s


def terrain_cast_block(terrain, origin, dirs, patches, z_range):
    s = np.full(dirs.shape[0], np.inf)
    ny, nx = terrain.heights.shape
    oz = float(origin[2])
    dz = dirs[:, 2]
    # the part of each ray whose z lies in the height range; no root
    # lies outside it
    with np.errstate(divide="ignore", invalid="ignore"):
        s_a = (z_range[1] - oz) / dz
        s_b = (z_range[0] - oz) / dz
    level = dz == 0
    within = z_range[0] <= oz <= z_range[1]
    s_lo = np.where(level, 0.0 if within else np.inf, np.fmin(s_a, s_b))
    s_hi = np.where(level, np.inf if within else -np.inf, np.fmax(s_a, s_b))
    s_lo = np.maximum(s_lo, 0.0)
    rays = np.flatnonzero((s_lo <= s_hi) & np.isfinite(s_lo))
    if rays.size == 0:
        return s

    # grid coordinates along a ray: g(s) = g0 + s * u
    gx0 = (float(origin[0]) - terrain.origin[0]) / terrain.pitch
    gy0 = (float(origin[1]) - terrain.origin[1]) / terrain.pitch
    ux = dirs[rays, 0] / terrain.pitch
    uy = dirs[rays, 1] / terrain.pitch
    dz = dz[rays]
    s_in = s_lo[rays]
    s_end = s_hi[rays]
    # Cells are tracked as integers, cx in [-1, nx - 1] with -1 and
    # nx - 1 the clamped regions. A cell's exit comes from its index,
    # never from flooring a point, so every step makes progress.
    cx = np.clip(np.floor(gx0 + s_in * ux), -1, nx - 1).astype(np.int64)
    cy = np.clip(np.floor(gy0 + s_in * uy), -1, ny - 1).astype(np.int64)
    step_x = np.sign(ux).astype(np.int64)
    step_y = np.sign(uy).astype(np.int64)
    # exit(c) = (bounds[row + c] - g0) / u: row picks the table for the
    # ray's direction; a ray that never leaves the cell exits at +inf
    bounds_x = _exit_bounds(nx)
    bounds_y = _exit_bounds(ny)
    row_x = (step_x + 1) * (nx + 1) + 1
    row_y = (step_y + 1) * (ny + 1) + 1
    with np.errstate(divide="ignore"):
        inv_ux = np.where(step_x == 0, 1.0, 1.0 / ux)
        inv_uy = np.where(step_y == 0, 1.0, 1.0 / uy)
    uxy = ux * uy
    while rays.size:
        sx = (bounds_x[row_x + cx] - gx0) * inv_ux
        sy = (bounds_y[row_y + cy] - gy0) * inv_uy
        s_out = np.minimum(np.minimum(sx, sy), s_end)
        fx = gx0 + s_in * ux - cx
        fy = gy0 + s_in * uy - cy
        h00, bx, by, twist = patches[:, (cy + 1) * (nx + 1) + cx + 1]
        # ray z minus height at s_in + t: f0 + f1 t + f2 t^2
        f0 = oz + s_in * dz - (h00 + bx * fx + by * fy + twist * fx * fy)
        f1 = dz - (bx * ux + by * uy + twist * (fx * uy + fy * ux))
        f2 = -twist * uxy
        # With f0 > 0 the first nonnegative root is f0 / q when f1 < 0
        # and q / f2 otherwise (the stable quadratic formula); NaN or a
        # negative value means none.
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (f1 + np.copysign(np.sqrt(f1 * f1 - 4.0 * f2 * f0), f1))
            t = np.where(f1 < 0.0, f0 / q, q / f2)
        t = np.where(f0 <= 0.0, 0.0, t)
        # At the end of its range a ray is at or below every height, so
        # its last root lies within the range; the allowance only
        # absorbs the rounding of that root.
        last = s_out >= s_end
        limit = s_out - s_in + np.where(last, 1e-9 * (1.0 + np.abs(s_out)), 0.0)
        hit = (t >= 0.0) & (t <= limit)
        s[rays[hit]] = s_in[hit] + t[hit]

        go = ~(hit | last)
        across_x = (sx <= sy)[go]
        rays = rays[go]
        ux, uy, uxy, dz, s_end = ux[go], uy[go], uxy[go], dz[go], s_end[go]
        inv_ux, inv_uy, row_x, row_y = inv_ux[go], inv_uy[go], row_x[go], row_y[go]
        step_x, step_y = step_x[go], step_y[go]
        s_in = np.maximum(s_out[go], s_in[go])
        cx, cy = cx[go], cy[go]
        cx = np.where(across_x, cx + step_x, cx)
        cy = np.where(across_x, cy, cy + step_y)
    return s


def _exit_bounds(n: int) -> np.ndarray:
    """Grid coordinate at which a ray leaves cell c in [-1, n - 1], for
    ``(dir + 1) * (n + 1) + 1 + c`` with dir the sign of its motion: the
    cell's low edge going down, none (+inf) standing still, its high edge
    going up; -inf and +inf past the clamped regions."""
    edges = np.arange(n, dtype=np.float64)
    return np.concatenate(
        [[-np.inf], edges, np.full(n + 1, np.inf), edges, [np.inf]]
    )

"""Reference terrain cast for the oracle tests: a dense march plus bisection
on ``Terrain.height_at``.

It shares nothing with the production cast but the height lookup. Each ray
is sampled from where its z enters the terrain's height range until its z
leaves that range or, off the grid, until the clamped height stops
changing along it. Samples lie at most 1/32 of a grid cell apart in the
grid coordinates that move the height (a coordinate clamped at an edge
does not), never fewer than 32 to a ray. The first sample at or below the surface is refined by
bisection to the last bit. A ray can graze a crest between two samples, so
wherever three samples bracket a minimum of the gap, a golden-section search
finds that minimum, and if it lies at or below the surface the crossing
before it counts too. A descending ray ends its range at the lowest height,
so it is taken to be under the surface there whatever the rounding of its
gap. Past the last sample the height is a constant, so a descending ray's
hit there is solved directly.
"""

from __future__ import annotations

import numpy as np

_GOLD = (np.sqrt(5.0) - 1.0) / 2.0


def terrain_cast(terrain, origin, dirs, cells_per_sample: float = 1 / 32, min_samples: int = 32):
    """Least ``s >= 0`` with ``origin + s * dirs`` at or below the terrain;
    inf where there is none."""
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n = dirs.shape[0]
    out = np.full(n, np.inf)
    ox, oy, oz = origin
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    z_lo, z_hi = float(terrain.heights.min()), float(terrain.heights.max())
    ny, nx = terrain.heights.shape

    def gap(s, rows):
        return oz + s * dz[rows] - terrain.height_at(ox + s * dx[rows], oy + s * dy[rows])

    # the part of the ray with z in [z_lo, z_hi]
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    for k in range(n):
        if dz[k] == 0:
            if not z_lo <= oz <= z_hi:
                hi[k] = -np.inf
        else:
            a, b = sorted(((z_hi - oz) / dz[k], (z_lo - oz) / dz[k]))
            lo[k], hi[k] = max(a, 0.0), b

    # the stretch of s over which each grid coordinate moves inside the
    # grid, and so moves the clamped point height_at reads; empty for a
    # coordinate that stays still
    spans = []
    for g0, u, size in (
        ((ox - terrain.origin[0]) / terrain.pitch, dx / terrain.pitch, nx),
        ((oy - terrain.origin[1]) / terrain.pitch, dy / terrain.pitch, ny),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            t0, t1 = -g0 / u, (size - 1 - g0) / u
        enter = np.where(u == 0, np.inf, np.minimum(t0, t1))
        leave = np.where(u == 0, -np.inf, np.maximum(t0, t1))
        spans.append((enter, leave, np.abs(u)))
    # past s_flat both coordinates are clamped or still: the height is constant
    s_flat = np.maximum(lo, np.maximum(spans[0][1], spans[1][1]))
    march_end = np.minimum(hi, s_flat)
    # a sample may not step over a point where a coordinate enters or leaves
    breaks = np.column_stack([spans[0][0], spans[0][1], spans[1][0], spans[1][1]])

    def next_sample(s, rows):
        rate = sum(np.where((a[rows] <= s) & (s <= b[rows]), u[rows], 0.0) for a, b, u in spans)
        with np.errstate(divide="ignore"):
            step = np.minimum((march_end[rows] - lo[rows]) / min_samples, cells_per_sample / rate)
        ahead = breaks[rows]
        ahead = np.where(ahead > s[:, None], ahead, np.inf).min(axis=1)
        return np.minimum(np.minimum(s + step, ahead), march_end[rows])

    # crossings: (rows, a, b) with the gap > 0 at a and <= 0 at b
    none = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
    crossings = [none]
    dips = [none]  # (rows, a, b) around a sampled minimum of the gap
    def at_or_below(s, g, rows):
        # at the end of its range a descending ray is at the lowest height,
        # whatever the rounding of its gap there
        return (g <= 0.0) | ((s >= hi[rows]) & (dz[rows] < 0))

    live = np.flatnonzero((lo <= march_end) & np.isfinite(march_end))
    s_prev = lo[live]
    g_prev = gap(s_prev, live)
    under = at_or_below(s_prev, g_prev, live)
    out[live[under]] = s_prev[under]
    live, s_prev, g_prev = live[~under], s_prev[~under], g_prev[~under]
    s_prev2, g_prev2 = s_prev, np.full(live.size, np.inf)
    while live.size:
        s = next_sample(s_prev, live)
        g = gap(s, live)
        under = at_or_below(s, g, live)
        crossings.append((live[under], s_prev[under], s[under]))
        dip = ~under & (g_prev < g_prev2) & (g_prev <= g)
        dips.append((live[dip], s_prev2[dip], s[dip]))
        go = ~under & (s < march_end[live])
        live = live[go]
        s_prev2, g_prev2 = s_prev[go], g_prev[go]
        s_prev, g_prev = s[go], g[go]

    rows, a, b = (np.concatenate(col) for col in zip(*dips))
    for _ in range(100):
        m1 = b - _GOLD * (b - a)
        m2 = a + _GOLD * (b - a)
        left = gap(m1, rows) <= gap(m2, rows)
        a, b = np.where(left, a, m1), np.where(left, m2, b)
    low = 0.5 * (a + b)
    under = gap(low, rows) <= 0.0
    start = np.concatenate([c[1] for c in dips])  # the dip's left sample
    crossings.append((rows[under], start[under], low[under]))

    rows, a, b = (np.concatenate(col) for col in zip(*crossings))
    while True:
        mid = 0.5 * (a + b)
        open_ = (mid != a) & (mid != b)
        if not np.any(open_):
            break
        under = gap(mid, rows) <= 0.0
        b = np.where(open_ & under, mid, b)
        a = np.where(open_ & ~under, mid, a)
    np.minimum.at(out, rows, b)

    # the constant tail beyond s_flat
    for k in np.flatnonzero(np.isinf(out) & (dz < 0) & (hi > s_flat) & (hi >= lo)):
        start = max(s_flat[k], lo[k])
        h = float(terrain.height_at(ox + start * dx[k], oy + start * dy[k]))
        out[k] = max((h - oz) / dz[k], start)
    return out

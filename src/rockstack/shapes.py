"""Implicit-surface geometry for simulated objects.

Rocks are superellipsoids: smoothly irregular, analytically testable for
inside/outside, with a closed-form volume. Robot parts and the gripper are
each a :class:`Union` of boxes, spheres and cylinders. Every shape supports
vectorized ray casting, inside tests and surface sampling in its local
frame; a cast is parametrized so the caller's ray parameter is preserved
(``p(s) = origin + s * direction``; directions need not be unit length).

A superellipsoid cast marches 48 samples along each ray's bounding-sphere
bracket and bisects the first one inside the body 24 times. It runs as a
few array passes over all rays of a cast: the march computes and evaluates
the samples in four blocks of 12, each only for the rays with no crossing
yet, and the bisection gathers the found rays' coordinates once.
That gives the same bits as a march that evaluates every sample of every
ray one sample at a time (``tests/render_oracle.py``):

* each sample is ``lo + span * (i / 48)`` and each midpoint
  ``0.5 * (a + b)``, the same product and sum per element;
* a point's implicit value is ``abs((o + s * d) / a)`` per coordinate and
  then the powers and sums of :meth:`Superellipsoid.implicit` in its order;
  an elementwise ufunc rounds an element the same whatever the shape of the
  array it sits in;
* a sample outside the ray's box interval is known to be outside the body,
  and a sample after the ray's first inside one cannot move its bracket, so
  leaving either out changes nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_MISS = np.inf
_MARCH_BLOCKS = 4  # column blocks of the superellipsoid march


def _kept(shape, key, build) -> np.ndarray:
    """``build()``'s array, made once per frozen ``shape`` and ``key``, kept
    in the shape's ``__dict__`` and returned read-only, so no caller can
    change what the next one reads."""
    memo = shape.__dict__.setdefault("_kept", {})
    if key not in memo:
        arr = build()
        arr.flags.writeable = False
        memo[key] = arr
    return memo[key]


def _first_crossing(inside, o, d, s_lo, s_hi, w_lo, w_hi, n_samples=48, n_bisect=24):
    """Vectorized first entry into a body along each ray on [s_lo, s_hi].

    ``inside(o, d, s)`` tells whether the point ``o + s * d`` lies in the
    body, per element; ``o`` and ``d`` are ``(3, k)`` coordinate rows and
    ``s`` has ``k`` parameters. Assumes the ray starts outside at s_lo for a
    proper entry hit. The samples sit at ``s_lo + (s_hi - s_lo) * i /
    n_samples``, i = 1..n_samples; the caller guarantees every sample outside
    the window ``[w_lo, w_hi]`` is outside the body, so only samples inside
    it are evaluated. The first inside sample and the one before it (or
    s_lo) bracket the entry, which ``n_bisect`` halvings narrow.

    ``inside`` runs at most ``_MARCH_BLOCKS + n_bisect`` times. The march
    takes the samples in ``_MARCH_BLOCKS`` blocks, in order; each block
    evaluates the in-window samples of the rays with no crossing yet, so the
    first inside sample a ray shows in a block is its first overall.
    Leaving out the samples after it and those outside the window cannot
    change a bracket, so the result is bit-equal to evaluating every sample
    in turn (see the module docstring).
    """
    hit_s = np.full(s_lo.shape[0], _MISS)
    idx = np.flatnonzero((w_lo <= w_hi) & (w_hi >= s_lo) & (w_lo <= s_lo + (s_hi - s_lo)))
    if idx.size == 0:
        return hit_s
    lo = s_lo[idx]
    span = s_hi[idx] - lo
    w_lo = w_lo[idx, None]
    w_hi = w_hi[idx, None]
    o = o.take(idx, axis=1)
    d = d.take(idx, axis=1)
    frac = np.arange(1, n_samples + 1) / n_samples
    first = np.full(idx.size, -1)  # sample index (from 0) of the first inside sample
    width = -(-n_samples // _MARCH_BLOCKS)
    for start in range(0, n_samples, width):
        f = frac[start : start + width]
        s = lo[:, None] + span[:, None] * f
        todo = (s >= w_lo) & (s <= w_hi)
        todo[first >= 0] = False
        rows, cols = np.divmod(np.flatnonzero(todo), f.size)
        if rows.size == 0:
            continue
        hit = inside(o.take(rows, axis=1), d.take(rows, axis=1), s.take(rows * f.size + cols))
        rows, cols = rows[hit], cols[hit]
        # flatnonzero runs row-major, so a row's first hit comes first
        new = np.ones(rows.size, dtype=bool)
        new[1:] = rows[1:] != rows[:-1]
        first[rows[new]] = start + cols[new]
    found = np.flatnonzero(first >= 0)
    if found.size == 0:
        return hit_s
    # the bracket's samples again, by the same expression as in the march
    i = first[found]
    lo = lo[found]
    span = span[found]
    b = lo + span * frac[i]
    a = np.where(i > 0, lo + span * frac[i - 1], lo)
    o = o.take(found, axis=1)
    d = d.take(found, axis=1)
    for _ in range(n_bisect):
        mid = 0.5 * (a + b)
        hit = inside(o, d, mid)
        b = np.where(hit, mid, b)
        a = np.where(hit, a, mid)
    hit_s[idx[found]] = b
    return hit_s


def _slab_interval(o: np.ndarray, d: np.ndarray, half: np.ndarray):
    """Per-ray parameter interval inside the box |p| <= half (Kay & Kajiya
    slabs); empty (lo > hi) on a miss. A zero direction component keeps the
    ray in or out of that slab for every s."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(d != 0, 1.0 / d, np.inf)
        t1 = (-half - o) * inv
        t2 = (half - o) * inv
    par = d == 0
    inside_slab = np.abs(o) <= half
    lo = np.where(par, np.where(inside_slab, -np.inf, np.inf), np.minimum(t1, t2))
    hi = np.where(par, np.where(inside_slab, np.inf, -np.inf), np.maximum(t1, t2))
    return lo.max(axis=1), hi.min(axis=1)


@dataclass(frozen=True)
class Superellipsoid:
    """Superellipsoid with semi-axes (mm) and shape exponents.

    Inside test: ((|x/ax|^(2/e2) + |y/ay|^(2/e2))^(e2/e1) + |z/az|^(2/e1)) <= 1.
    Exponents in [0.3, 2.0] keep the body convex and rock-like.
    """

    ax: float
    ay: float
    az: float
    e1: float = 1.0
    e2: float = 1.0

    def __post_init__(self):
        if min(self.ax, self.ay, self.az) <= 0:
            raise ValidationError("semi-axes must be > 0")
        if not (0.3 <= self.e1 <= 2.0 and 0.3 <= self.e2 <= 2.0):
            raise ValidationError("shape exponents must lie in [0.3, 2.0]")

    def implicit(self, pts: np.ndarray) -> np.ndarray:
        """Inside-outside function; <= 1 inside, > 1 outside."""
        p = np.asarray(pts, dtype=np.float64)
        x = np.abs(p[..., 0] / self.ax)
        y = np.abs(p[..., 1] / self.ay)
        z = np.abs(p[..., 2] / self.az)
        xy = (x ** (2.0 / self.e2) + y ** (2.0 / self.e2)) ** (self.e2 / self.e1)
        return xy + z ** (2.0 / self.e1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.implicit(pts) <= 1.0

    @property
    def volume(self) -> float:
        """Closed-form volume via Beta functions, mm^3."""
        # imported on first use: scipy.special takes about 0.25 s to load, and a pose trial never needs a volume
        from scipy.special import beta as beta_fn

        return (
            2.0
            * self.ax
            * self.ay
            * self.az
            * self.e1
            * self.e2
            * beta_fn(self.e1 / 2.0 + 1.0, self.e1)
            * beta_fn(self.e2 / 2.0, self.e2 / 2.0)
        )

    @property
    def bounding_radius(self) -> float:
        return math.sqrt(self.ax**2 + self.ay**2 + self.az**2)

    def half_height(self, x, y) -> np.ndarray:
        """Height of the surface above the local xy plane at (x, y), mm; NaN
        off the body's footprint.

        Closed form (Barr 1981): az * (1 - G)^(e1/2), where
        G = (|x/ax|^(2/e2) + |y/ay|^(2/e2))^(e2/e1) and the footprint is G < 1.
        """
        x = np.abs(np.asarray(x, dtype=np.float64) / self.ax)
        y = np.abs(np.asarray(y, dtype=np.float64) / self.ay)
        g = (x ** (2.0 / self.e2) + y ** (2.0 / self.e2)) ** (self.e2 / self.e1)
        half = self.az * np.maximum(1.0 - g, 0.0) ** (self.e1 / 2.0)
        return np.where(g < 1.0, half, np.nan)

    @staticmethod
    def surface_angles(n_eta: int = 32, n_omega: int = 64) -> tuple[np.ndarray, np.ndarray]:
        """The latitudes eta and longitudes omega of :meth:`surface_points`'
        grid: row ``k`` of the grid is ``(eta[k // n_omega], omega[k % n_omega])``."""
        eta = np.linspace(-math.pi / 2, math.pi / 2, n_eta)
        omega = np.linspace(-math.pi, math.pi, n_omega, endpoint=False)
        return eta, omega

    def surface_points(self, n_eta: int = 32, n_omega: int = 64) -> np.ndarray:
        """Deterministic parametric surface grid, shape (n_eta * n_omega, 3),
        over :meth:`surface_angles`; computed once per shape and size and
        returned read-only."""

        def build():
            ee, ww = np.meshgrid(*self.surface_angles(n_eta, n_omega), indexing="ij")
            return self._param_points(ee.ravel(), ww.ravel())

        return _kept(self, (n_eta, n_omega), build)

    def _param_points(self, eta: np.ndarray, omega: np.ndarray) -> np.ndarray:
        def sgn_pow(val, expo):
            return np.sign(val) * np.abs(val) ** expo

        ce = sgn_pow(np.cos(eta), self.e1)
        se = sgn_pow(np.sin(eta), self.e1)
        cw = sgn_pow(np.cos(omega), self.e2)
        sw = sgn_pow(np.sin(omega), self.e2)
        return np.stack([self.ax * ce * cw, self.ay * ce * sw, self.az * se], axis=-1)

    def raycast(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Entry parameter s per ray (local frame), inf for misses.

        Each ray's result depends on that ray alone: every step is
        elementwise or a reduction over the ray's own three coordinates, so
        a cast of any subset of the rays, in any order, gives each of them
        the same value bit for bit."""
        o = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
        d = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
        r = self.bounding_radius
        a = np.sum(d * d, axis=1)
        b = 2.0 * np.sum(o * d, axis=1)
        c = np.sum(o * o, axis=1) - r * r
        disc = b * b - 4.0 * a * c
        ok = disc > 0
        sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
        s_lo = (-b - sqrt_disc) / (2.0 * a)
        s_hi = (-b + sqrt_disc) / (2.0 * a)
        s_lo = np.maximum(s_lo, 0.0)
        hit = np.full(o.shape[0], _MISS)
        rays = np.flatnonzero(ok & (s_hi > 0))  # meet the bounding sphere ahead
        o = o[rays]
        d = d[rays]

        # The body lies in |x| <= ax, |y| <= ay, |z| <= az; the widening keeps
        # every sample point outside the widened box strictly outside the
        # body after rounding, so skipping it cannot change a result.
        half = np.array([self.ax, self.ay, self.az]) * (1.0 + 1e-9) + 1e-6
        w_lo, w_hi = _slab_interval(o, d, half)

        axes = np.array([[self.ax], [self.ay], [self.az]])
        e_xy, e_g, e_z = 2.0 / self.e2, self.e2 / self.e1, 2.0 / self.e1

        def inside(o, d, s):
            # implicit(o + s * d) <= 1 on coordinate rows: the same float
            # expressions, in the same order, as implicit (and v <= 1
            # exactly when the reference's gap v - 1 <= 0)
            p = np.abs((o + s * d) / axes)
            xy = p[:2] ** e_xy
            return (xy[0] + xy[1]) ** e_g + p[2] ** e_z <= 1.0

        hit[rays] = _first_crossing(inside, o.T, d.T, s_lo[rays], s_hi[rays], w_lo, w_hi)
        return hit


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in the owning part's local frame."""

    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(3))
        he = np.asarray(self.half_extents, dtype=np.float64).reshape(3)
        if np.any(he <= 0):
            raise ValidationError("box half-extents must be > 0")
        object.__setattr__(self, "half_extents", he)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        return np.all(np.abs(p - self.center) <= self.half_extents + 1e-12, axis=-1)

    def raycast(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        o = np.asarray(origins, dtype=np.float64).reshape(-1, 3) - self.center
        d = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
        t_near, t_far = _slab_interval(o, d, self.half_extents)
        hit = (t_near <= t_far) & (t_far >= 0) & (t_near >= 0)
        return np.where(hit, t_near, _MISS)

    def surface_points(self, spacing: float = 4.0) -> np.ndarray:
        hx, hy, hz = self.half_extents
        pts = []
        for axis, (ha, hb, hc) in (
            (0, (hx, hy, hz)),
            (1, (hy, hx, hz)),
            (2, (hz, hx, hy)),
        ):
            nb = max(2, int(round(2 * hb / spacing)) + 1)
            nc = max(2, int(round(2 * hc / spacing)) + 1)
            b = np.linspace(-hb, hb, nb)
            c = np.linspace(-hc, hc, nc)
            bb, cc = np.meshgrid(b, c, indexing="ij")
            for sign in (-ha, ha):
                face = np.zeros((bb.size, 3))
                face[:, axis] = sign
                others = [i for i in range(3) if i != axis]
                face[:, others[0]] = bb.ravel()
                face[:, others[1]] = cc.ravel()
                pts.append(face)
        return np.concatenate(pts) + self.center

    @property
    def bounding(self) -> tuple[np.ndarray, float]:
        return self.center, float(np.linalg.norm(self.half_extents))


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(3))
        if self.radius <= 0:
            raise ValidationError("sphere radius must be > 0")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        return np.sum((p - self.center) ** 2, axis=-1) <= self.radius**2 + 1e-9

    def raycast(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        o = np.asarray(origins, dtype=np.float64).reshape(-1, 3) - self.center
        d = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
        a = np.sum(d * d, axis=1)
        b = 2.0 * np.sum(o * d, axis=1)
        c = np.sum(o * o, axis=1) - self.radius**2
        disc = b * b - 4.0 * a * c
        ok = disc >= 0
        sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
        s = (-b - sqrt_disc) / (2.0 * a)
        hit = ok & (s >= 0)
        return np.where(hit, s, _MISS)

    def surface_points(self, spacing: float = 4.0) -> np.ndarray:
        # Fibonacci sphere; deterministic, roughly uniform
        n = max(16, int(4 * math.pi * self.radius**2 / spacing**2))
        i = np.arange(n, dtype=np.float64)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
        return self.center + self.radius * pts

    @property
    def bounding(self) -> tuple[np.ndarray, float]:
        return self.center, self.radius


@dataclass(frozen=True)
class Cylinder:
    """Finite cylinder from ``base`` along unit ``axis`` for ``length`` mm."""

    base: np.ndarray
    axis: np.ndarray
    length: float
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=np.float64).reshape(3))
        ax = np.asarray(self.axis, dtype=np.float64).reshape(3)
        n = np.linalg.norm(ax)
        if n < 1e-12:
            raise ValidationError("cylinder axis must be nonzero")
        object.__setattr__(self, "axis", ax / n)
        if self.length <= 0 or self.radius <= 0:
            raise ValidationError("cylinder length and radius must be > 0")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64) - self.base
        m = p @ self.axis
        radial = p - np.multiply.outer(m, self.axis)
        r2 = np.sum(radial * radial, axis=-1)
        return (m >= -1e-9) & (m <= self.length + 1e-9) & (r2 <= self.radius**2 + 1e-9)

    def raycast(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        o = np.asarray(origins, dtype=np.float64).reshape(-1, 3) - self.base
        d = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
        w = self.axis
        om = o @ w
        dm = d @ w
        o_perp = o - np.multiply.outer(om, w)
        d_perp = d - np.multiply.outer(dm, w)
        a = np.sum(d_perp * d_perp, axis=1)
        b = 2.0 * np.sum(o_perp * d_perp, axis=1)
        c = np.sum(o_perp * o_perp, axis=1) - self.radius**2
        best = np.full(o.shape[0], _MISS)
        # side surface
        nontrivial = a > 1e-14
        disc = b * b - 4.0 * a * c
        ok = nontrivial & (disc >= 0)
        sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
        denom = np.where(nontrivial, 2.0 * a, 1.0)
        for sgn in (-1.0, 1.0):
            s = (-b + sgn * sqrt_disc) / denom
            m = om + s * dm
            valid = ok & (s >= 0) & (m >= 0) & (m <= self.length)
            best = np.where(valid & (s < best), s, best)
        # caps
        moving = np.abs(dm) > 1e-14
        for cap_m in (0.0, self.length):
            s = np.where(moving, (cap_m - om) / np.where(moving, dm, 1.0), 0.0)
            p_perp = o_perp + s[:, None] * d_perp
            r2 = np.sum(p_perp * p_perp, axis=1)
            valid = moving & (s >= 0) & (r2 <= self.radius**2)
            best = np.where(valid & (s < best), s, best)
        return best

    def surface_points(self, spacing: float = 4.0) -> np.ndarray:
        w = self.axis
        ref = np.array([1.0, 0.0, 0.0]) if abs(w[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = np.cross(w, ref)
        u /= np.linalg.norm(u)
        v = np.cross(w, u)
        n_ang = max(8, int(round(2 * math.pi * self.radius / spacing)))
        n_len = max(2, int(round(self.length / spacing)) + 1)
        ang = np.linspace(0, 2 * math.pi, n_ang, endpoint=False)
        ring = self.radius * (np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v))
        lengths = np.linspace(0, self.length, n_len)
        side = (ring[None, :, :] + np.multiply.outer(lengths, w)[:, None, :]).reshape(-1, 3)
        caps = []
        n_rad = max(1, int(round(self.radius / spacing)))
        for cap_m in (0.0, self.length):
            for rr in np.linspace(self.radius / n_rad, self.radius, n_rad):
                caps.append(
                    rr * (np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v)) + cap_m * w
                )
            caps.append((cap_m * w)[None, :])
        return np.concatenate([side] + caps) + self.base

    @property
    def bounding(self) -> tuple[np.ndarray, float]:
        center = self.base + 0.5 * self.length * self.axis
        return center, math.sqrt((self.length / 2.0) ** 2 + self.radius**2)


def union_raycast(primitives, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Nearest hit over a union of primitives."""
    best = None
    for prim in primitives:
        s = prim.raycast(origins, dirs)
        best = s if best is None else np.minimum(best, s)
    return best


@dataclass(frozen=True)
class Union:
    """Union of boxes, spheres and cylinders in one local frame: the shape
    of a robot part or of the gripper."""

    primitives: tuple

    def raycast(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        return union_raycast(self.primitives, origins, dirs)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        mask = None
        for prim in self.primitives:
            m = prim.contains(pts)
            mask = m if mask is None else (mask | m)
        return mask

    @functools.cached_property
    def bounding(self) -> tuple[np.ndarray, float]:
        """Center (read-only) and radius of a sphere enclosing all
        primitives, computed once per union."""
        centers, radii = zip(*(prim.bounding for prim in self.primitives))
        centers = np.asarray(centers)
        mid = centers.mean(axis=0)
        mid.flags.writeable = False
        reach = max(float(np.linalg.norm(c - mid)) + r for c, r in zip(centers, radii))
        return mid, reach

    def surface_points(self, spacing: float = 2.5) -> np.ndarray:
        """The primitives' surface samples at ``spacing``, in primitive
        order; computed once per union and spacing and returned read-only."""
        return _kept(
            self,
            spacing,
            lambda: np.concatenate([prim.surface_points(spacing) for prim in self.primitives]),
        )

"""Seeded synthetic worlds: a sand-like heightfield, superellipsoid rocks and
modular robot parts, rendered to depth images and oracle instance masks.

Every output is a pure function of (inputs, seed). Depth is measured along
the camera's optical axis (+z) and quantized to 1 mm as ``uint16``; value 0
is the missing-depth sentinel. Instance masks are exact ("oracle") and may
be degraded separately through the sensor model's erosion/flip parameters,
which stand in for segmentation damage under harsh exposure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, EmptyCloudError, PlacementError, ValidationError
from .geometry import (
    CameraIntrinsics,
    InstanceMask,
    JsonFields,
    RigidTransform,
    camera_pose_from_lookat,
    json_array,
    json_keys,
    json_nested,
    mask_bbox,
)
from .shapes import Box, Cylinder, Sphere, Superellipsoid, Union

TERRAIN_ID = -1
MISS_ID = -2
_RAY_BLOCK = 8192  # terrain rays cast together: 64 KB per float temporary
# the most terrain grid points a scene may ask for: 8 MB per float64 array
# of heights, about 350 times the default 67 x 43 grid
_MAX_TERRAIN_CELLS = 1_000_000
_XYZ = (0.0, 0.0, 0.0)  # the JSON shape of a point
# widening, mm, that keeps a pixel-selection bound clear of float rounding
_ROUNDING_MM = 1e-3


@dataclass(frozen=True)
class Terrain:
    """Regular-grid heightfield, z in mm over an xy rectangle.

    Heights are bilinear within a cell and clamp to the edge values off the
    grid. :meth:`raycast_world` returns the exact first hit, and a
    descending ray always hits.
    """

    heights: np.ndarray  # (ny, nx)
    pitch: float
    origin: tuple[float, float]  # xy of heights[0, 0]

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=np.float64)
        object.__setattr__(self, "heights", h)
        if self.pitch <= 0:
            raise ValidationError("terrain pitch must be > 0")
        if not np.all(np.isfinite(h)):
            raise ValidationError("terrain heights must be finite")

    @classmethod
    def generate(
        cls,
        extent_x: float,
        extent_y: float,
        pitch: float,
        amplitude: float,
        seed: int,
        center=(0.0, 500.0),
    ) -> "Terrain":
        """Smooth seeded noise: coarse uniform values, cosine-interpolated."""
        nx = max(2, int(round(2 * extent_x / pitch)) + 1)
        ny = max(2, int(round(2 * extent_y / pitch)) + 1)
        rng = np.random.default_rng(seed)
        coarse_step = 8
        cnx = nx // coarse_step + 2
        cny = ny // coarse_step + 2
        coarse = rng.uniform(-amplitude, amplitude, size=(cny, cnx))
        gy = np.arange(ny) / coarse_step
        gx = np.arange(nx) / coarse_step
        iy = np.floor(gy).astype(int)
        ix = np.floor(gx).astype(int)
        fy = gy - iy
        fx = gx - ix
        # cosine smoothstep keeps the surface C1 and the slopes gentle
        wy = (1 - np.cos(np.pi * fy)) / 2
        wx = (1 - np.cos(np.pi * fx)) / 2
        top = coarse[np.ix_(iy, ix)] * (1 - wx) + coarse[np.ix_(iy, ix + 1)] * wx
        bot = coarse[np.ix_(iy + 1, ix)] * (1 - wx) + coarse[np.ix_(iy + 1, ix + 1)] * wx
        heights = top * (1 - wy[:, None]) + bot * wy[:, None]
        origin = (center[0] - extent_x, center[1] - extent_y)
        return cls(heights, pitch, origin)

    def height_at(self, x, y) -> np.ndarray:
        """Bilinear height lookup; coordinates clamp to the grid edge."""
        gx = (np.asarray(x, dtype=np.float64) - self.origin[0]) / self.pitch
        gy = (np.asarray(y, dtype=np.float64) - self.origin[1]) / self.pitch
        ny, nx = self.heights.shape
        gx = np.clip(gx, 0.0, nx - 1.0)
        gy = np.clip(gy, 0.0, ny - 1.0)
        ix = np.clip(np.floor(gx).astype(int), 0, nx - 2)
        iy = np.clip(np.floor(gy).astype(int), 0, ny - 2)
        fx = gx - ix
        fy = gy - iy
        gx1 = 1 - fx
        gy1 = 1 - fy
        flat = self.heights.ravel()
        k00 = iy * nx + ix
        k10 = k00 + nx
        return (
            flat[k00] * gx1 * gy1
            + flat[k00 + 1] * fx * gy1
            + flat[k10] * gx1 * fy
            + flat[k10 + 1] * fx * fy
        )

    def raycast_world(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter of the first terrain hit along ``origin + s * dirs``:
        the least ``s >= 0`` at which the ray is at or below
        :meth:`height_at`, inf where there is none.

        The cast is exact. It walks the grid cells each ray crosses while
        its z lies in ``[heights.min(), heights.max()]`` (Amanatides & Woo,
        1987). Within one cell the bilinear height along the ray is
        quadratic in ``s``, so the cell's first root is solved for directly.
        Off the grid the height is ``height_at``'s edge clamp: linear along
        the unclamped axis, constant in the corner regions. A descending ray
        therefore always hits, on or off the grid.

        Each ray's result depends on that ray alone, through elementwise
        arithmetic only, so a cast of any subset of the rays, in any order,
        gives each of them the same value bit for bit.
        """
        s = np.full(dirs.shape[0], np.inf)
        # Each cell's bilinear patch h00 + bx fx + by fy + twist fx fy, over a
        # grid padded by one edge-replicated ring. The ring's cells are the
        # clamped regions beyond the edges: along a clamped axis the corner
        # heights are equal, so its terms vanish and its fraction drops out.
        h = np.pad(self.heights, 1, mode="edge")
        h00 = h[:-1, :-1]
        bx = h[:-1, 1:] - h00
        by = h[1:, :-1] - h00
        twist = h[1:, 1:] - h[:-1, 1:] - by
        patches = np.stack([h00.ravel(), bx.ravel(), by.ravel(), twist.ravel()])
        z_range = (float(self.heights.min()), float(self.heights.max()))
        # blocks keep the temporaries of a full image small
        for i in range(0, dirs.shape[0], _RAY_BLOCK):
            s[i : i + _RAY_BLOCK] = self._cast_block(
                origin, dirs[i : i + _RAY_BLOCK], patches, z_range
            )
        return s

    def _cast_block(
        self, origin: np.ndarray, dirs: np.ndarray, patches: np.ndarray, z_range: tuple
    ) -> np.ndarray:
        s = np.full(dirs.shape[0], np.inf)
        ny, nx = self.heights.shape
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
        gx0 = (float(origin[0]) - self.origin[0]) / self.pitch
        gy0 = (float(origin[1]) - self.origin[1]) / self.pitch
        ux = dirs[rays, 0] / self.pitch
        uy = dirs[rays, 1] / self.pitch
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


@dataclass(frozen=True)
class SensorModel(JsonFields):
    """Depth noise plus the mask-degradation analog of harsh exposure."""

    depth_sigma: float = 0.0
    dropout_rate: float = 0.0
    mask_erosion: float = 0.0  # epsilon in [0, 1]; erosion radius = round(5 * epsilon)
    boundary_flip_rate: float = 0.0

    def __post_init__(self):
        if self.depth_sigma < 0:
            raise ValidationError("depth_sigma must be >= 0")
        for name in ("dropout_rate", "mask_erosion", "boundary_flip_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class CameraSpec:
    """Camera intrinsics plus its camera-to-robot pose."""

    intrinsics: CameraIntrinsics
    pose: RigidTransform

    def to_json_dict(self) -> dict:
        return {"intrinsics": self.intrinsics.to_json_dict(), "pose": self.pose.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CameraSpec":
        """``intrinsics`` plus either ``pose`` or ``position`` and
        ``look_at``, each 3 numbers; ``ConfigError`` names a missing or
        unknown key, or a bad value's key."""
        has_pose = isinstance(data, dict) and "pose" in data
        json_keys(data, ("intrinsics", "pose") if has_pose else ("intrinsics", "position", "look_at"))
        intr = json_nested("intrinsics", CameraIntrinsics.from_json_dict, data["intrinsics"])
        if has_pose:
            pose = json_nested("pose", RigidTransform.from_json_dict, data["pose"])
        else:
            pose = camera_pose_from_lookat(
                json_array("position", data["position"], _XYZ), json_array("look_at", data["look_at"], _XYZ)
            )
        return cls(intr, pose)


class Body:
    """A ``shape`` in its local frame placed at ``pose`` (local to world):
    the world-frame queries that rocks, robot parts and the gripper share."""

    def raycast_world(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter of the first hit along ``origin + s * dirs``, inf
        for a miss; ``origin`` is one point or one per ray.

        Each ray's result depends on that ray alone, so a cast of any subset
        of the rays gives each the same value bit for bit. The shapes' casts
        are per-ray; the products with the pose go through numpy's matrix
        routines, which round each row alike whatever the rows beside it. A
        single ray is cast as two copies, because numpy sends a one-row
        product to a vector routine that can round it differently."""
        if len(dirs) == 1:
            origin = origin if np.ndim(origin) == 1 else np.repeat(origin, 2, axis=0)
            return self.raycast_world(origin, np.repeat(dirs, 2, axis=0))[:1]
        inv = self.pose.inverse()
        o_local = np.broadcast_to(inv.apply(origin), dirs.shape)
        d_local = dirs @ self.pose.rotation
        return self.shape.raycast(o_local, d_local)

    def contains_world(self, pts: np.ndarray) -> np.ndarray:
        return self.shape.contains(self.pose.inverse().apply(pts))

    def surface_points_world(self, *args, **kwargs) -> np.ndarray:
        """``shape.surface_points(*args, **kwargs)`` in the world frame; with
        no arguments, at the shape's default density."""
        return self.pose.apply(self.shape.surface_points(*args, **kwargs))


@dataclass
class RockModel(Body):
    """Posed superellipsoid rock; center of mass at the pose translation."""

    shape: Superellipsoid
    pose: RigidTransform
    instance_id: int

    label = "rock"

    @property
    def true_volume(self) -> float:
        return self.shape.volume

    @property
    def center_of_mass(self) -> np.ndarray:
        return self.pose.translation

    @property
    def bounding(self) -> tuple[np.ndarray, float]:
        return self.pose.translation, self.shape.bounding_radius

    def max_cross_section_area(self) -> float:
        """Largest horizontal cross-section area, mm^2 (yaw-only poses).

        Rocks are generated upright (yaw-only rotation), so the widest
        horizontal slice is the local z=0 superellipse.
        """
        return self.shape.ax * self.shape.ay * superellipse_unit_area(self.shape.e2)


@dataclass
class RobotPartModel(Body):
    """A union of primitives with named attachment frames (plugs/sockets):
    a :data:`PARTS` part built by :func:`make_part`, or the gripper."""

    part_class: str
    shape: Union
    attachments: dict
    pose: RigidTransform
    instance_id: int

    @property
    def label(self) -> str:
        return self.part_class

    @property
    def bounding(self) -> tuple[np.ndarray, float]:
        center_local, radius = self.shape.bounding
        return self.pose.apply(center_local), radius

    def attachment_world(self, name: str) -> RigidTransform:
        return self.pose.compose(self.attachments[name])


# joints are ball-ended: the plug frame origin is the ball center, so a
# camera measurement of the ball's near surface corrects to the center by
# adding this radius along the sight ray
PLUG_BALL_RADIUS = 4.5

# part class -> (primitives, attachment frames), both in the part's frame.
# A plug's z points out of its part, a socket's out of the body.
PARTS = {
    # spherical head on a neck with a downward ball-end plug; the ball
    # protrudes well below the sphere so an oblique camera can sight it
    # under the head
    "head": (
        (
            Sphere(center=(0.0, 0.0, 30.0), radius=20.0),
            Cylinder(base=(0.0, 0.0, 4.0), axis=(0.0, 0.0, 1.0), length=8.0, radius=3.0),
            Sphere(center=(0.0, 0.0, PLUG_BALL_RADIUS), radius=PLUG_BALL_RADIUS),
        ),
        {"plug": RigidTransform.rotation_x(math.pi, (0.0, 0.0, PLUG_BALL_RADIUS))},
    ),
    # joint peg plus foot box, with the ball-end plug on the peg
    "leg": (
        (
            Box(center=(25.0, 0.0, 8.0), half_extents=(25.0, 8.0, 8.0)),
            Cylinder(base=(0.0, 0.0, 8.0), axis=(-1.0, 0.0, 0.0), length=8.0, radius=5.0),
            Sphere(center=(-12.0, 0.0, 8.0), radius=PLUG_BALL_RADIUS),
        ),
        {"plug": RigidTransform.rotation_y(-math.pi / 2, (-12.0, 0.0, 8.0))},
    ),
    # main body box with a top head socket and two side leg sockets
    "body": (
        (Box(center=(0.0, 0.0, 18.0), half_extents=(45.0, 30.0, 18.0)),),
        {
            "socket_top": RigidTransform.from_translation((0.0, 0.0, 36.0)),
            "socket_left": RigidTransform.rotation_x(-math.pi / 2, (0.0, 30.0, 18.0)),
            "socket_right": RigidTransform.rotation_x(math.pi / 2, (0.0, -30.0, 18.0)),
        },
    ),
}


def make_part(part_class: str, instance_id: int, pose: RigidTransform | None = None) -> RobotPartModel:
    """The :data:`PARTS` entry ``part_class`` at ``pose`` (identity by default)."""
    if part_class not in PARTS:
        raise ValidationError(f"unknown part class {part_class!r}")
    primitives, attachments = PARTS[part_class]
    return RobotPartModel(
        part_class,
        Union(primitives),
        dict(attachments),
        pose if pose is not None else RigidTransform.identity(),
        instance_id,
    )


@dataclass
class Scene:
    """World state: terrain, objects and the two camera roles."""

    terrain: Terrain
    rocks: list
    parts: list
    base_camera: CameraSpec
    hand_camera_intrinsics: CameraIntrinsics
    seed: int = 0

    def objects(self) -> list:
        return list(self.rocks) + list(self.parts)

    def object_by_id(self, instance_id: int):
        for obj in self.objects():
            if obj.instance_id == instance_id:
                return obj
        raise KeyError(f"no object with instance id {instance_id}")


@dataclass(frozen=True)
class SceneSpec(JsonFields):
    """Distribution parameters for seeded scene generation."""

    rock_count: tuple = (2, 4)
    rock_semi_axis: tuple = (14.0, 30.0)
    rock_height_axis: tuple = (12.0, 26.0)
    rock_exponents: tuple = (0.7, 1.4)
    min_separation: float = 110.0
    min_area_separation: float = 0.0  # fractional cross-section gap to enforce
    region: tuple = ((-150.0, 120.0), (390.0, 610.0))
    terrain_extent: tuple = (330.0, 210.0)
    terrain_center: tuple = (0.0, 500.0)
    terrain_pitch: float = 10.0
    terrain_amplitude: float = 5.0
    parts: tuple = ()  # e.g. ("body", "head")
    body_position: tuple = (0.0, 560.0)
    base_camera: dict | None = None
    hand_camera_intrinsics: dict | None = None

    def __post_init__(self):
        if self.rock_count[0] < 0 or self.rock_count[1] < self.rock_count[0]:
            raise ValidationError("rock_count must be (min, max) with 0 <= min <= max")
        if self.rock_semi_axis[0] <= 0 or self.rock_semi_axis[1] < self.rock_semi_axis[0]:
            raise ValidationError("rock_semi_axis range must be positive and ordered")
        if self.rock_count[0] == 0 and not self.parts:
            raise ValidationError("scene must contain at least one object")
        for part_class in self.parts:
            if not isinstance(part_class, str):
                raise ConfigError(f"parts: expected a part class name, got {part_class!r}")
            if part_class not in PARTS:
                raise ValidationError(f"unknown part class {part_class!r}")
        if not self.terrain_pitch > 0:
            raise ConfigError(f"terrain_pitch: must be > 0, got {self.terrain_pitch!r}")
        if not all(e > 0 for e in self.terrain_extent):
            raise ConfigError(f"terrain_extent: must be > 0 on both axes, got {list(self.terrain_extent)}")
        # Terrain.generate's grid, before rounding: 2 * extent / pitch + 1 points per axis
        cells = math.prod(2 * e / self.terrain_pitch + 1 for e in self.terrain_extent)
        if cells > _MAX_TERRAIN_CELLS:
            raise ConfigError(
                f"terrain_pitch: {self.terrain_pitch!r} makes a grid of {cells:.0f} cells over "
                f"terrain_extent, more than {_MAX_TERRAIN_CELLS}"
            )
        # parsed again by generate_scene; checked here so a bad camera fails at load
        if self.base_camera is not None:
            json_nested("base_camera", CameraSpec.from_json_dict, self.base_camera)
        if self.hand_camera_intrinsics is not None:
            json_nested(
                "hand_camera_intrinsics", CameraIntrinsics.from_json_dict, self.hand_camera_intrinsics
            )


DEFAULT_BASE_CAMERA = {
    "position": [0.0, 500.0, 1000.0],
    "look_at": [0.0, 500.0, 0.0],
    "intrinsics": {"fx": 270.0, "fy": 270.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
}
DEFAULT_HAND_INTRINSICS = {
    "fx": 130.0,
    "fy": 130.0,
    "cx": 80.0,
    "cy": 60.0,
    "width": 160,
    "height": 120,
}


def _settle_rock(rock: RockModel, terrain: Terrain) -> None:
    """Drop the rock along -z until its lowest surface point meets the terrain.

    Coarse parametric sampling plus two local refinements keeps the residual
    penetration well under 0.1 mm.
    """
    shape = rock.shape
    n_eta, n_omega = 32, 64
    eta = np.linspace(-math.pi / 2, math.pi / 2, n_eta)
    omega = np.linspace(-math.pi, math.pi, n_omega, endpoint=False)

    def gap_for(e_grid, w_grid):
        ee, ww = np.meshgrid(e_grid, w_grid, indexing="ij")
        pts = rock.pose.apply(shape._param_points(ee.ravel(), ww.ravel()))
        gaps = pts[:, 2] - terrain.height_at(pts[:, 0], pts[:, 1])
        k = int(np.argmin(gaps))
        return float(gaps[k]), ee.ravel()[k], ww.ravel()[k]

    best_gap, be, bw = gap_for(eta, omega)
    de, dw = math.pi / n_eta, 2 * math.pi / n_omega
    for _ in range(2):
        e_grid = np.linspace(max(be - de, -math.pi / 2), min(be + de, math.pi / 2), 17)
        w_grid = np.linspace(bw - dw, bw + dw, 17)
        g, be, bw = gap_for(e_grid, w_grid)
        best_gap = min(best_gap, g)
        de /= 8.0
        dw /= 8.0
    rock.pose = rock.pose.with_translation(rock.pose.translation - np.array([0.0, 0.0, best_gap]))


def _settle_part(part: RobotPartModel, terrain: Terrain) -> None:
    pts = part.surface_points_world(2.0)
    gaps = pts[:, 2] - terrain.height_at(pts[:, 0], pts[:, 1])
    drop = float(np.min(gaps))
    part.pose = part.pose.with_translation(part.pose.translation - np.array([0.0, 0.0, drop]))


def superellipse_unit_area(exponent: float) -> float:
    """Area of the superellipse |x|^(2/e) + |y|^(2/e) = 1 with unit semi-axes.

    Closed form: 2 e B(e/2 + 1, e/2); equals pi at e=1 and approaches 4 (the
    square) as e -> 0.
    """
    from scipy.special import beta as beta_fn

    return float(2.0 * exponent * beta_fn(exponent / 2.0 + 1.0, exponent / 2.0))


def _sample_rock_shapes(spec: SceneSpec, count: int, rng) -> list[Superellipsoid]:
    lo, hi = spec.rock_semi_axis
    hlo, hhi = spec.rock_height_axis
    elo, ehi = spec.rock_exponents
    shapes = []
    if spec.min_area_separation > 0 and count > 1:
        # ladder of true cross-section areas with exact pairwise separation;
        # the shape factor of each rock's exponent is divided out so the gap
        # survives arbitrary exponent draws
        base_area = rng.uniform(math.pi * lo * lo * 0.9, math.pi * lo * lo * 1.3)
        ratio = 1.0 + spec.min_area_separation + 0.03
        order = rng.permutation(count)
        for i in range(count):
            e1 = rng.uniform(elo, ehi)
            e2 = rng.uniform(elo, ehi)
            target = base_area * ratio ** int(order[i])
            aspect = rng.uniform(0.8, 1.25)
            ab = target / superellipse_unit_area(e2)
            ax = min(math.sqrt(ab * aspect), hi)
            ay = min(ab / ax, hi)
            shapes.append(
                Superellipsoid(ax=ax, ay=ay, az=rng.uniform(hlo, hhi), e1=e1, e2=e2)
            )
    else:
        for _ in range(count):
            shapes.append(
                Superellipsoid(
                    ax=rng.uniform(lo, hi),
                    ay=rng.uniform(lo, hi),
                    az=rng.uniform(hlo, hhi),
                    e1=rng.uniform(elo, ehi),
                    e2=rng.uniform(elo, ehi),
                )
            )
    return shapes


def _place_xy(spec: SceneSpec, rng, radius_xy: float, placed_xy: list, placed_r: list, what: str):
    """Draw xy in the spec's region until it clears every placed object by
    the larger of ``min_separation`` and the summed radii plus 2 mm."""
    (x0, x1), (y0, y1) = spec.region
    for _ in range(100):
        xy = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        if all(
            np.linalg.norm(xy - q) >= max(spec.min_separation, radius_xy + r + 2.0)
            for q, r in zip(placed_xy, placed_r)
        ):
            return xy
    raise PlacementError(
        f"could not place {what} with clearance {spec.min_separation} mm in 100 attempts"
    )


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """Deterministic scene: terrain, settled non-overlapping rocks, parts."""
    terrain = Terrain.generate(
        spec.terrain_extent[0],
        spec.terrain_extent[1],
        spec.terrain_pitch,
        spec.terrain_amplitude,
        seed=seed,
        center=spec.terrain_center,
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    count = int(rng.integers(spec.rock_count[0], spec.rock_count[1] + 1))
    shapes = _sample_rock_shapes(spec, count, rng)

    placed_xy: list[np.ndarray] = []
    placed_r: list[float] = []
    rocks: list[RockModel] = []
    for i, shape in enumerate(shapes):
        radius_xy = math.sqrt(shape.ax**2 + shape.ay**2)
        xy = _place_xy(spec, rng, radius_xy, placed_xy, placed_r, f"rock {i}")
        yaw = rng.uniform(0.0, 2.0 * math.pi)
        start_z = shape.az + 60.0
        pose = RigidTransform.rotation_z(yaw, (xy[0], xy[1], start_z))
        rock = RockModel(shape=shape, pose=pose, instance_id=i)
        _settle_rock(rock, terrain)
        rocks.append(rock)
        placed_xy.append(xy)
        placed_r.append(radius_xy)

    parts: list[RobotPartModel] = []
    next_id = count
    for part_class in spec.parts:
        if part_class == "body":
            xy = np.asarray(spec.body_position, dtype=np.float64)
            pose = RigidTransform.from_translation((xy[0], xy[1], 80.0))
        else:
            xy = _place_xy(spec, rng, 45.0, placed_xy, placed_r, f"part {part_class!r}")
            yaw = rng.uniform(0.0, 2.0 * math.pi)
            pose = RigidTransform.rotation_z(yaw, (xy[0], xy[1], 80.0))
        part = make_part(part_class, next_id, pose)
        _settle_part(part, terrain)
        parts.append(part)
        placed_xy.append(np.asarray(part.pose.translation[:2]))
        placed_r.append(part.bounding[1])
        next_id += 1

    base_cam = CameraSpec.from_json_dict(spec.base_camera or DEFAULT_BASE_CAMERA)
    hand_intr = CameraIntrinsics.from_json_dict(
        spec.hand_camera_intrinsics or DEFAULT_HAND_INTRINSICS
    )
    return Scene(
        terrain=terrain,
        rocks=rocks,
        parts=parts,
        base_camera=base_cam,
        hand_camera_intrinsics=hand_intr,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# rendering


@functools.lru_cache(maxsize=4)
def _camera_frame_dirs(intr: CameraIntrinsics) -> np.ndarray:
    """Camera-frame ray directions ``((u - cx) / fx, (v - cy) / fy, 1)`` of
    every pixel, row-major, shape ``(height * width, 3)``.

    Cached per intrinsics and shared by every render through them, so the
    array is read-only."""
    us = np.arange(intr.width, dtype=np.float64)
    vs = np.arange(intr.height, dtype=np.float64)
    uu, vv = np.meshgrid(us, vs)
    dirs_cam = np.stack(
        [(uu - intr.cx) / intr.fx, (vv - intr.cy) / intr.fy, np.ones_like(uu)], axis=-1
    ).reshape(-1, 3)
    dirs_cam.flags.writeable = False
    return dirs_cam


def _pixel_dirs(intr: CameraIntrinsics, pose: RigidTransform) -> np.ndarray:
    """World-frame ray directions with unit z-component in the camera frame,
    so the ray parameter equals depth along the optical axis.

    The transposed rotation is copied to C order first: OpenBLAS can take a
    far slower path for the Fortran-ordered view, with bit-equal results."""
    return _camera_frame_dirs(intr) @ np.ascontiguousarray(pose.rotation.T)


def _object_pixel_rows(
    obj, intr: CameraIntrinsics, pose: RigidTransform
) -> np.ndarray | None:
    """Flat pixel indices whose rays can hit the object's bounding sphere."""
    center_w, radius = obj.bounding
    inv = pose.inverse()
    c = inv.apply(center_w)
    if c[2] <= 1.0:
        return np.arange(intr.width * intr.height)
    margin = max(c[2] - radius, 1.0)
    ru = intr.fx * radius / margin + 2
    rv = intr.fy * radius / margin + 2
    u0 = int(max(0, math.floor(intr.cx + intr.fx * c[0] / c[2] - ru)))
    u1 = int(min(intr.width - 1, math.ceil(intr.cx + intr.fx * c[0] / c[2] + ru)))
    v0 = int(max(0, math.floor(intr.cy + intr.fy * c[1] / c[2] - rv)))
    v1 = int(min(intr.height - 1, math.ceil(intr.cy + intr.fy * c[1] / c[2] + rv)))
    if u1 < u0 or v1 < v0:
        return None
    vv, uu = np.meshgrid(np.arange(v0, v1 + 1), np.arange(u0, u1 + 1), indexing="ij")
    return (vv * intr.width + uu).ravel()


def object_pixels(scene: Scene, camera: CameraSpec) -> np.ndarray:
    """Sorted flat row-major indices of the pixels whose rays can hit a
    scene object: the union of the objects' bounding-sphere footprints.

    :func:`render_scene_geometry` gives every other pixel the terrain or
    miss id, so rendering just these pixels yields every object id."""
    intr = camera.intrinsics
    inside = np.zeros(intr.width * intr.height, dtype=bool)
    for obj in scene.objects():
        rows = _object_pixel_rows(obj, intr, camera.pose)
        if rows is not None:
            inside[rows] = True
    return np.flatnonzero(inside)


def render_scene_geometry(
    scene: Scene,
    camera: CameraSpec,
    extra_objects: list | None = None,
    pixels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-pixel depth (mm, float, inf = miss) and owning instance ids,
    as ``(height, width)`` images.

    ``extra_objects`` lets callers inject transient geometry such as gripper
    fingers (negative instance ids by convention).

    ``pixels``, distinct flat row-major pixel indices in any order, casts
    only those pixels and returns flat ``(depth, ids)`` in their order. Each
    value is bit-equal to the whole-image render at that pixel: the ray
    directions are those of the whole image, indexed, and every cast is
    per-ray independent (:meth:`Terrain.raycast_world`,
    :meth:`Body.raycast_world`), so an object is cast only on the pixels of
    its footprint that are asked for.
    """
    intr = camera.intrinsics
    origin = camera.pose.translation
    n = intr.width * intr.height
    dirs = _pixel_dirs(intr, camera.pose)
    slot = np.arange(n)  # output position of each pixel, -1 if not cast
    if pixels is not None:
        pixels = np.asarray(pixels, dtype=np.intp)
        if pixels.ndim != 1 or (pixels.size and not 0 <= pixels.min() <= pixels.max() < n):
            raise ValidationError(f"pixels must be a 1-d array of flat indices in [0, {n})")
        slot = np.full(n, -1)
        slot[pixels] = np.arange(pixels.size)
        if not np.array_equal(slot[pixels], np.arange(pixels.size)):
            raise ValidationError("pixels must be distinct")
    depth = scene.terrain.raycast_world(origin, dirs if pixels is None else dirs[pixels])
    ids = np.where(np.isfinite(depth), TERRAIN_ID, MISS_ID).astype(np.int32)
    objects = scene.objects() + list(extra_objects or [])
    for obj in objects:
        rows = _object_pixel_rows(obj, intr, camera.pose)
        if rows is None:
            continue
        at = slot[rows]
        cast = at >= 0
        if not np.any(cast):
            continue
        at = at[cast]
        s = obj.raycast_world(origin, dirs[rows[cast]])
        closer = s < depth[at]
        if np.any(closer):
            sub = at[closer]
            depth[sub] = s[closer]
            ids[sub] = obj.instance_id
    if pixels is not None:
        return depth, ids
    h, w = intr.height, intr.width
    return depth.reshape(h, w), ids.reshape(h, w)


def apply_depth_noise(
    depth: np.ndarray, sensor: SensorModel, seed: int | np.random.Generator
) -> np.ndarray:
    """Noise + 1 mm quantization + dropout; misses and dropouts become 0.

    ``seed`` may be a Generator, which is drawn from in place (``normal``
    then ``random``, each over ``depth.shape``), so one stream can noise
    several windows in turn.
    """
    rng = np.random.default_rng(seed)
    normal = uniform = None
    if sensor.depth_sigma > 0:
        normal = rng.normal(0.0, sensor.depth_sigma, size=depth.shape)
    if sensor.dropout_rate > 0:
        uniform = rng.random(depth.shape)
    return finish_depth_noise(depth, sensor, normal, uniform)


def finish_depth_noise(
    depth: np.ndarray,
    sensor: SensorModel,
    normal: np.ndarray | None,
    uniform: np.ndarray | None,
) -> np.ndarray:
    """The noise model of :func:`apply_depth_noise` applied to draws made
    beforehand: ``normal`` holds the ``N(0, depth_sigma)`` draws (None when
    ``depth_sigma`` is 0) and ``uniform`` the ``[0, 1)`` dropout draws (None
    when ``dropout_rate`` is 0), each of ``depth``'s shape.

    Misses (non-finite depth) and dropouts become 0, the rest is rounded
    to 1 mm and clipped to the uint16 range. Elementwise, so a stack of
    windows is finished in one call."""
    valid = np.isfinite(depth)
    noisy = np.where(valid, depth, 0.0)
    if sensor.depth_sigma > 0:
        noisy = noisy + normal
    quant = np.clip(np.rint(noisy, out=noisy), 0, 65535, out=noisy).astype(np.uint16)
    quant[~valid] = 0
    if sensor.dropout_rate > 0:
        quant[uniform < sensor.dropout_rate] = 0
    return quant


def render_depth(
    scene: Scene,
    camera: CameraSpec,
    sensor: SensorModel,
    seed: int,
    extra_objects: list | None = None,
) -> np.ndarray:
    """Synthetic uint16 depth image in mm (0 = missing), seed-deterministic."""
    depth, _ = render_scene_geometry(scene, camera, extra_objects)
    return apply_depth_noise(depth, sensor, seed)


class NoisyDepth:
    """The depth image of :func:`render_depth` and the id image of
    :func:`render_scene_geometry`, rendered only at the pixels asked for.

    The noise and dropout draws are made over the whole image when the
    object is made, in :func:`apply_depth_noise`'s order. :meth:`cast`
    renders pixels with :func:`render_scene_geometry` and finishes them with
    :func:`finish_depth_noise`; both work pixel by pixel, so each cast pixel
    of ``depth`` and ``ids`` is bit-equal to the whole image's. A pixel not
    cast reads 0 in ``depth`` and ``MISS_ID`` in ``ids``. A cast renders the
    scene as it is at the call, so a reader casts what it will read before
    anything in the scene moves.
    """

    def __init__(
        self,
        scene: Scene,
        camera: CameraSpec,
        sensor: SensorModel,
        seed: int,
        extra_objects: list | None = None,
    ):
        intr = camera.intrinsics
        shape = (intr.height, intr.width)
        self.scene, self.camera, self.sensor = scene, camera, sensor
        self.extra_objects = list(extra_objects or [])
        rng = np.random.default_rng(seed)
        self._normal = self._uniform = None
        if sensor.depth_sigma > 0:
            self._normal = rng.normal(0.0, sensor.depth_sigma, size=shape).ravel()
        if sensor.dropout_rate > 0:
            self._uniform = rng.random(shape).ravel()
        self.depth = np.zeros(shape, dtype=np.uint16)
        self.ids = np.full(shape, MISS_ID, dtype=np.int32)
        self._cast = np.zeros(self.depth.size, dtype=bool)

    def cast(self, pixels: np.ndarray) -> None:
        """Render and finish those of the flat row-major pixel indices
        ``pixels`` (any order, repeats allowed) not cast yet."""
        todo = np.zeros_like(self._cast)
        todo[pixels] = True
        new = np.flatnonzero(todo & ~self._cast)
        if new.size == 0:
            return
        depth, ids = render_scene_geometry(self.scene, self.camera, self.extra_objects, pixels=new)
        normal = None if self._normal is None else self._normal[new]
        uniform = None if self._uniform is None else self._uniform[new]
        self.depth.flat[new] = finish_depth_noise(depth, self.sensor, normal, uniform)
        self.ids.flat[new] = ids
        self._cast[new] = True

    def cloud_pixels(self, stride: int = 1) -> np.ndarray:
        """The flat pixels that :func:`~rockstack.pointcloud.cloud_from_depth`
        deprojects from the whole image at ``stride``, in its order: those of
        the stride grid whose finished depth is > 0. ``EmptyCloudError``, as
        there, when there are none.

        Most pixels are settled by their draws alone. A dropped pixel is
        invalid. A kept pixel whose ray descends always hits the terrain,
        and its depth is at least the ray's distance down to the highest hit
        the pixel can have, less 1 mm for rounding, so it is valid once that
        bound plus its noise rounds to 1 mm or more. Only the other kept
        pixels are cast.
        """
        h, w = self.depth.shape
        grid = (np.arange(0, h, stride)[:, None] * w + np.arange(0, w, stride)).ravel()
        if self._uniform is not None:
            grid = grid[~(self._uniform[grid] < self.sensor.dropout_rate)]
        top = self._height_range()[0][grid]
        dz = _pixel_dirs(self.camera.intrinsics, self.camera.pose)[grid, 2]
        with np.errstate(divide="ignore"):
            floor = np.where(dz < 0, (self.camera.pose.translation[2] - top) / -dz - 1.0, -np.inf)
        if self._normal is not None:
            floor = floor + self._normal[grid]
        settled = np.rint(floor) >= 1.0
        self.cast(grid[~settled])
        pixels = grid[settled | (self.depth.flat[grid] > 0)]
        if pixels.size == 0:
            raise EmptyCloudError("depth image has no valid pixels")
        return pixels

    def box_pixels(self, lo, hi) -> np.ndarray:
        """Sorted flat pixels, not dropped, whose deprojected point can lie
        in the box ``[lo, hi]``: a superset of those whose point from
        :func:`~rockstack.pointcloud.cloud_from_depth` of the whole image
        does.

        A descending ray hits where its z lies in the pixel's height range
        (the terrain's, or an object's on its footprint), and the finished
        depth, ``rint(depth + noise)`` clipped to the uint16 range, lies
        within half a millimetre of ``depth + noise``. A pixel is kept when
        its ray meets the box on that stretch, shifted by the pixel's noise
        draw and widened by half a millimetre plus a margin for rounding. A
        ray that does not descend is always kept.
        """
        top, bottom = self._height_range()
        origin = self.camera.pose.translation
        dirs = _pixel_dirs(self.camera.intrinsics, self.camera.pose)
        dz = dirs[:, 2]
        noise = 0.0 if self._normal is None else self._normal
        with np.errstate(divide="ignore", invalid="ignore"):
            near = np.maximum((top - origin[2]) / dz, 0.0)
            far = (bottom - origin[2]) / dz
            t0 = np.clip(near + noise - 0.5, 0.0, 65535.0) - _ROUNDING_MM
            t1 = np.clip(far + noise + 0.5, 0.0, 65535.0) + _ROUNDING_MM
            # cut the stretch to the box axis by axis (slabs); a zero
            # direction component leaves its axis uncut
            for axis in range(3):
                d = dirs[:, axis]
                a = (lo[axis] - _ROUNDING_MM - origin[axis]) / d
                b = (hi[axis] + _ROUNDING_MM - origin[axis]) / d
                np.maximum(t0, np.minimum(a, b), out=t0, where=d != 0)
                np.minimum(t1, np.maximum(a, b), out=t1, where=d != 0)
        kept = (t0 <= t1) | ~(dz < 0)
        if self._uniform is not None:
            kept &= ~(self._uniform < self.sensor.dropout_rate)
        return np.flatnonzero(kept)

    def _height_range(self) -> tuple[np.ndarray, np.ndarray]:
        """The highest and lowest z of a hit, per pixel: the terrain's
        height range, widened on each object's footprint (the only pixels
        :func:`render_scene_geometry` casts it on) to its bounding sphere."""
        heights = self.scene.terrain.heights
        top = np.full(self.depth.size, float(heights.max()))
        bottom = np.full(self.depth.size, float(heights.min()))
        for obj in self.scene.objects() + self.extra_objects:
            rows = _object_pixel_rows(obj, self.camera.intrinsics, self.camera.pose)
            if rows is not None:
                center, radius = obj.bounding
                top[rows] = np.maximum(top[rows], center[2] + radius)
                bottom[rows] = np.minimum(bottom[rows], center[2] - radius)
        return top, bottom


def render_instance_masks(scene: Scene, camera: CameraSpec) -> list[InstanceMask]:
    """Oracle masks: a pixel belongs to the object nearest along its ray.

    Masks are mutually disjoint; fully occluded objects produce no mask.
    """
    _, ids = render_scene_geometry(scene, camera)
    return instance_masks(scene, ids)


def instance_masks(scene: Scene, ids: np.ndarray) -> list[InstanceMask]:
    """Masks of the scene objects from an id image of
    :func:`render_scene_geometry`, in scene object order."""
    masks = []
    for obj in scene.objects():
        bitmap = ids == obj.instance_id
        if not np.any(bitmap):
            continue
        masks.append(
            InstanceMask(
                bitmap=bitmap,
                label=obj.label,
                confidence=1.0,
                instance_id=obj.instance_id,
            )
        )
    return masks


def _disk(radius: int) -> np.ndarray:
    if radius <= 0:
        return np.ones((1, 1), dtype=bool)
    span = np.arange(-radius, radius + 1)
    xx, yy = np.meshgrid(span, span)
    return xx * xx + yy * yy <= radius * radius


def degrade_mask(mask: InstanceMask, sensor: SensorModel, seed: int) -> InstanceMask:
    """Exposure-damage analog: erosion plus independent boundary-pixel flips.

    The result never grows beyond the original bounding box plus one pixel.
    The morphology runs on that box padded by ``radius + 2`` pixels: no
    erosion or dilation reaches further, and out-of-image pixels read as
    unset either way, so the crop changes no pixel, and the row-major
    boundary order (hence each flip's draw) is the same as on the full image.
    """
    bitmap = mask.bitmap
    if not np.any(bitmap):
        return mask
    radius = int(round(sensor.mask_erosion * 5.0))
    u0, v0, u1, v1 = mask_bbox(mask)
    pad = radius + 2
    r0, c0 = max(v0 - pad, 0), max(u0 - pad, 0)
    window = np.s_[r0 : v1 + pad + 1, c0 : u1 + pad + 1]
    crop = bitmap[window]
    eroded = ndimage.binary_erosion(crop, structure=_disk(radius)) if radius > 0 else crop.copy()
    if sensor.boundary_flip_rate > 0:
        allowed = np.zeros_like(crop)
        allowed[max(v0 - 1, 0) - r0 : v1 + 2 - r0, max(u0 - 1, 0) - c0 : u1 + 2 - c0] = True
        grown = ndimage.binary_dilation(eroded, structure=_disk(1))
        shrunk = ndimage.binary_erosion(eroded, structure=_disk(1))
        boundary = (grown & ~shrunk) & allowed
        rng = np.random.default_rng(seed)
        coords = np.argwhere(boundary)
        flips = rng.random(coords.shape[0]) < sensor.boundary_flip_rate
        fv, fu = coords[flips, 0], coords[flips, 1]
        eroded[fv, fu] = ~eroded[fv, fu]
        eroded &= allowed
    result = np.zeros_like(bitmap)
    result[window] = eroded
    return InstanceMask(
        bitmap=result,
        label=mask.label,
        confidence=mask.confidence,
        instance_id=mask.instance_id,
    )


# ---------------------------------------------------------------------------
# scene serialization (for the CLI's scene dumps)


def scene_to_json_dict(scene: Scene) -> dict:
    return {
        "seed": scene.seed,
        "terrain": {
            "pitch": scene.terrain.pitch,
            "origin": list(scene.terrain.origin),
            "heights": [[float(v) for v in row] for row in scene.terrain.heights],
        },
        "rocks": [
            {
                "instance_id": r.instance_id,
                "semi_axes": [r.shape.ax, r.shape.ay, r.shape.az],
                "exponents": [r.shape.e1, r.shape.e2],
                "true_volume": r.true_volume,
                "pose": r.pose.to_json_dict(),
            }
            for r in scene.rocks
        ],
        "parts": [
            {
                "instance_id": p.instance_id,
                "part_class": p.part_class,
                "pose": p.pose.to_json_dict(),
                "attachments": {k: v.to_json_dict() for k, v in p.attachments.items()},
            }
            for p in scene.parts
        ],
        "base_camera": scene.base_camera.to_json_dict(),
        "hand_camera_intrinsics": scene.hand_camera_intrinsics.to_json_dict(),
    }


def scene_from_json_dict(data: dict) -> Scene:
    terrain = Terrain(
        heights=np.asarray(data["terrain"]["heights"], dtype=np.float64),
        pitch=float(data["terrain"]["pitch"]),
        origin=tuple(data["terrain"]["origin"]),
    )
    rocks = [
        RockModel(
            shape=Superellipsoid(
                ax=r["semi_axes"][0],
                ay=r["semi_axes"][1],
                az=r["semi_axes"][2],
                e1=r["exponents"][0],
                e2=r["exponents"][1],
            ),
            pose=RigidTransform.from_json_dict(r["pose"]),
            instance_id=int(r["instance_id"]),
        )
        for r in data["rocks"]
    ]
    parts = [
        make_part(p["part_class"], int(p["instance_id"]), RigidTransform.from_json_dict(p["pose"]))
        for p in data["parts"]
    ]
    return Scene(
        terrain=terrain,
        rocks=rocks,
        parts=parts,
        base_camera=CameraSpec.from_json_dict(data["base_camera"]),
        hand_camera_intrinsics=CameraIntrinsics.from_json_dict(data["hand_camera_intrinsics"]),
        seed=int(data.get("seed", 0)),
    )

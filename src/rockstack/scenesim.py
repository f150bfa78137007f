"""Seeded synthetic worlds: a sand-like heightfield, superellipsoid rocks and
modular robot parts, rendered to depth images and oracle instance masks.

Every output is a pure function of (inputs, seed). Depth is measured along
the camera's optical axis (+z) and quantized to 1 mm as ``uint16``; value 0
is the missing-depth sentinel. Instance masks are exact ("oracle") and may
be degraded separately through the sensor model's erosion/flip parameters,
which stand in for segmentation damage under harsh exposure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import PlacementError, ValidationError
from .geometry import (
    CameraIntrinsics,
    InstanceMask,
    JsonFields,
    RigidTransform,
    camera_pose_from_lookat,
    mask_bbox,
)
from .shapes import (
    Box,
    Cylinder,
    Sphere,
    Superellipsoid,
    union_bounding,
    union_contains,
    union_raycast,
)

TERRAIN_ID = -1
MISS_ID = -2
_RAY_BLOCK = 8192  # terrain rays cast together: 64 KB per float temporary


@dataclass(frozen=True)
class Terrain:
    """Regular-grid heightfield, z in mm over an xy rectangle."""

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
        """Ray parameter of the first terrain hit along ``origin + s * dirs``;
        inf for rays that do not descend or whose fixed point misses."""
        s = np.full(dirs.shape[0], np.inf)
        start = np.mean(self.heights) - origin[2]
        # each ray's result depends on that ray alone; blocks keep the
        # temporaries of a full image small
        for i in range(0, dirs.shape[0], _RAY_BLOCK):
            s[i : i + _RAY_BLOCK] = self._cast_block(origin, dirs[i : i + _RAY_BLOCK], start)
        return s

    def _cast_block(self, origin: np.ndarray, dirs: np.ndarray, start: float) -> np.ndarray:
        dz = dirs[:, 2]
        descending = dz < -1e-9
        s = np.full(dirs.shape[0], np.inf)
        if not np.any(descending):
            return s
        d = dirs[descending]
        oz = origin[2]
        est = np.full(d.shape[0], start) / d[:, 2]
        # est <- (height under the ray at est - oz) / dz is a fixed map per
        # ray, so a ray whose est repeats bit for bit would only repeat it.
        live = np.arange(d.shape[0])
        for _ in range(8):
            dl = d[live]
            el = est[live]
            x = origin[0] + el * dl[:, 0]
            y = origin[1] + el * dl[:, 1]
            h = self.height_at(x, y)
            new = (h - oz) / dl[:, 2]
            est[live] = new
            live = live[new.view(np.int64) != el.view(np.int64)]
            if live.size == 0:
                break
        x = origin[0] + est * d[:, 0]
        y = origin[1] + est * d[:, 1]
        resid = np.abs(oz + est * d[:, 2] - self.height_at(x, y))
        good = (resid < 0.05) & (est > 0)
        s_sub = np.where(good, est, np.inf)
        s[descending] = s_sub
        return s


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
        intr = CameraIntrinsics.from_json_dict(data["intrinsics"])
        if "pose" in data:
            pose = RigidTransform.from_json_dict(data["pose"])
        else:
            pose = camera_pose_from_lookat(data["position"], data["look_at"])
        return cls(intr, pose)


@dataclass
class RockModel:
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

    def raycast_world(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        inv = self.pose.inverse()
        o_local = np.broadcast_to(inv.apply(origin), dirs.shape)
        d_local = dirs @ self.pose.rotation
        return self.shape.raycast(o_local, d_local)

    def contains_world(self, pts: np.ndarray) -> np.ndarray:
        return self.shape.contains(self.pose.inverse().apply(pts))

    def surface_points_world(self, n_eta: int = 24, n_omega: int = 48) -> np.ndarray:
        return self.pose.apply(self.shape.surface_points(n_eta, n_omega))

    def max_cross_section_area(self) -> float:
        """Largest horizontal cross-section area, mm^2 (yaw-only poses).

        Rocks are generated upright (yaw-only rotation), so the widest
        horizontal slice is the local z=0 superellipse.
        """
        return self.shape.ax * self.shape.ay * superellipse_unit_area(self.shape.e2)


@dataclass
class RobotPartModel:
    """Union of primitives with named attachment frames (plugs/sockets)."""

    part_class: str
    primitives: tuple
    attachments: dict
    pose: RigidTransform
    instance_id: int

    PART_CLASSES = ("head", "body", "leg", "joint", "body_joint", "foot")

    def __post_init__(self):
        if self.part_class not in self.PART_CLASSES:
            raise ValidationError(f"unknown part class {self.part_class!r}")
        if self.part_class in ("head", "leg") and not any(
            name.startswith("plug") for name in self.attachments
        ):
            raise ValidationError(f"{self.part_class} must declare a plug attachment")

    @property
    def label(self) -> str:
        return self.part_class

    @property
    def bounding(self) -> tuple[np.ndarray, float]:
        center_local, radius = union_bounding(self.primitives)
        return self.pose.apply(center_local), radius

    def raycast_world(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        inv = self.pose.inverse()
        o_local = np.broadcast_to(inv.apply(origin), dirs.shape)
        d_local = dirs @ self.pose.rotation
        return union_raycast(self.primitives, o_local, d_local)

    def contains_world(self, pts: np.ndarray) -> np.ndarray:
        return union_contains(self.primitives, self.pose.inverse().apply(pts))

    def surface_points_world(self, spacing: float = 3.0) -> np.ndarray:
        pts = np.concatenate([p.surface_points(spacing) for p in self.primitives])
        return self.pose.apply(pts)

    def attachment_world(self, name: str) -> RigidTransform:
        return self.pose.compose(self.attachments[name])


# joints are ball-ended: the plug frame origin is the ball center, so a
# camera measurement of the ball's near surface corrects to the center by
# adding this radius along the sight ray
PLUG_BALL_RADIUS = 4.5


def make_head(instance_id: int, pose: RigidTransform | None = None) -> RobotPartModel:
    """Spherical head on a neck with a downward ball-end plug (z outward).

    The ball protrudes well below the sphere so an oblique camera can sight
    it under the head.
    """
    prims = (
        Sphere(center=(0.0, 0.0, 30.0), radius=20.0),
        Cylinder(base=(0.0, 0.0, 4.0), axis=(0.0, 0.0, 1.0), length=8.0, radius=3.0),
        Sphere(center=(0.0, 0.0, PLUG_BALL_RADIUS), radius=PLUG_BALL_RADIUS),
    )
    plug = RigidTransform(
        RigidTransform.rotation_x(math.pi).rotation, (0.0, 0.0, PLUG_BALL_RADIUS)
    )
    return RobotPartModel(
        part_class="head",
        primitives=prims,
        attachments={"plug": plug},
        pose=pose if pose is not None else RigidTransform.identity(),
        instance_id=instance_id,
    )


def make_leg(instance_id: int, pose: RigidTransform | None = None) -> RobotPartModel:
    """Leg = joint peg plus foot box; ball-end plug on the peg, z outward."""
    prims = (
        Box(center=(25.0, 0.0, 8.0), half_extents=(25.0, 8.0, 8.0)),
        Cylinder(base=(0.0, 0.0, 8.0), axis=(-1.0, 0.0, 0.0), length=8.0, radius=5.0),
        Sphere(center=(-12.0, 0.0, 8.0), radius=PLUG_BALL_RADIUS),
    )
    plug = RigidTransform(
        RigidTransform.rotation_y(-math.pi / 2).rotation, (-12.0, 0.0, 8.0)
    )
    return RobotPartModel(
        part_class="leg",
        primitives=prims,
        attachments={"plug": plug},
        pose=pose if pose is not None else RigidTransform.identity(),
        instance_id=instance_id,
    )


def make_body(instance_id: int, pose: RigidTransform | None = None) -> RobotPartModel:
    """Main body box with a top head socket and two side leg sockets."""
    prims = (Box(center=(0.0, 0.0, 18.0), half_extents=(45.0, 30.0, 18.0)),)
    sockets = {
        "socket_top": RigidTransform(np.eye(3), (0.0, 0.0, 36.0)),
        "socket_left": RigidTransform(
            RigidTransform.rotation_x(-math.pi / 2).rotation, (0.0, 30.0, 18.0)
        ),
        "socket_right": RigidTransform(
            RigidTransform.rotation_x(math.pi / 2).rotation, (0.0, -30.0, 18.0)
        ),
    }
    return RobotPartModel(
        part_class="body",
        primitives=prims,
        attachments=sockets,
        pose=pose if pose is not None else RigidTransform.identity(),
        instance_id=instance_id,
    )


_PART_FACTORIES = {"head": make_head, "leg": make_leg, "body": make_body}


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
    rock.pose = RigidTransform(
        rock.pose.rotation, rock.pose.translation - np.array([0.0, 0.0, best_gap])
    )


def _settle_part(part: RobotPartModel, terrain: Terrain) -> None:
    pts = part.surface_points_world(spacing=2.0)
    gaps = pts[:, 2] - terrain.height_at(pts[:, 0], pts[:, 1])
    drop = float(np.min(gaps))
    part.pose = RigidTransform(
        part.pose.rotation, part.pose.translation - np.array([0.0, 0.0, drop])
    )


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
        factory = _PART_FACTORIES.get(part_class)
        if factory is None:
            raise ValidationError(f"unknown part class in scene spec: {part_class!r}")
        if part_class == "body":
            xy = np.asarray(spec.body_position, dtype=np.float64)
            pose = RigidTransform.from_translation((xy[0], xy[1], 80.0))
        else:
            xy = _place_xy(spec, rng, 45.0, placed_xy, placed_r, f"part {part_class!r}")
            yaw = rng.uniform(0.0, 2.0 * math.pi)
            pose = RigidTransform.rotation_z(yaw, (xy[0], xy[1], 80.0))
        part = factory(next_id, pose)
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


def _pixel_dirs(intr: CameraIntrinsics, pose: RigidTransform) -> np.ndarray:
    """World-frame ray directions with unit z-component in the camera frame,
    so the ray parameter equals depth along the optical axis."""
    us = np.arange(intr.width, dtype=np.float64)
    vs = np.arange(intr.height, dtype=np.float64)
    uu, vv = np.meshgrid(us, vs)
    dirs_cam = np.stack(
        [(uu - intr.cx) / intr.fx, (vv - intr.cy) / intr.fy, np.ones_like(uu)], axis=-1
    )
    return dirs_cam.reshape(-1, 3) @ pose.rotation.T


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


def render_scene_geometry(
    scene: Scene,
    camera: CameraSpec,
    extra_objects: list | None = None,
    exclude_ids: set | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-pixel depth (mm, float, inf = miss) and owning instance ids.

    ``extra_objects`` lets callers inject transient geometry such as gripper
    fingers (negative instance ids by convention); ``exclude_ids`` hides
    scene objects from the render.
    """
    intr = camera.intrinsics
    origin = camera.pose.translation
    dirs = _pixel_dirs(intr, camera.pose)
    depth = scene.terrain.raycast_world(origin, dirs)
    ids = np.where(np.isfinite(depth), TERRAIN_ID, MISS_ID).astype(np.int32)
    objects = scene.objects() + list(extra_objects or [])
    for obj in objects:
        if exclude_ids and obj.instance_id in exclude_ids:
            continue
        rows = _object_pixel_rows(obj, intr, camera.pose)
        if rows is None:
            continue
        s = obj.raycast_world(origin, dirs[rows])
        closer = s < depth[rows]
        if np.any(closer):
            sub = rows[closer]
            depth[sub] = s[closer]
            ids[sub] = obj.instance_id
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
    valid = np.isfinite(depth)
    noisy = np.where(valid, depth, 0.0)
    if sensor.depth_sigma > 0:
        noisy = noisy + rng.normal(0.0, sensor.depth_sigma, size=depth.shape)
    quant = np.clip(np.rint(noisy), 0, 65535).astype(np.uint16)
    quant[~valid] = 0
    if sensor.dropout_rate > 0:
        quant[rng.random(depth.shape) < sensor.dropout_rate] = 0
    return quant


def render_depth(
    scene: Scene,
    camera: CameraSpec,
    sensor: SensorModel,
    seed: int,
    extra_objects: list | None = None,
    exclude_ids: set | None = None,
) -> np.ndarray:
    """Synthetic uint16 depth image in mm (0 = missing), seed-deterministic."""
    depth, _ = render_scene_geometry(scene, camera, extra_objects, exclude_ids)
    return apply_depth_noise(depth, sensor, seed)


def render_instance_masks(
    scene: Scene,
    camera: CameraSpec,
    extra_objects: list | None = None,
    exclude_ids: set | None = None,
) -> list[InstanceMask]:
    """Oracle masks: a pixel belongs to the object nearest along its ray.

    Masks are mutually disjoint; fully occluded objects produce no mask.
    Transient geometry (negative ids) occludes but is never listed.
    """
    _, ids = render_scene_geometry(scene, camera, extra_objects, exclude_ids)
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
    """
    bitmap = mask.bitmap
    if not np.any(bitmap):
        return mask
    radius = int(round(sensor.mask_erosion * 5.0))
    eroded = ndimage.binary_erosion(bitmap, structure=_disk(radius)) if radius > 0 else bitmap.copy()
    if sensor.boundary_flip_rate > 0:
        u0, v0, u1, v1 = mask_bbox(mask)
        allowed = np.zeros_like(bitmap)
        allowed[max(v0 - 1, 0) : v1 + 2, max(u0 - 1, 0) : u1 + 2] = True
        grown = ndimage.binary_dilation(eroded, structure=_disk(1))
        shrunk = ndimage.binary_erosion(eroded, structure=_disk(1))
        boundary = (grown & ~shrunk) & allowed
        rng = np.random.default_rng(seed)
        coords = np.argwhere(boundary)
        flips = rng.random(coords.shape[0]) < sensor.boundary_flip_rate
        result = eroded.copy()
        fv, fu = coords[flips, 0], coords[flips, 1]
        result[fv, fu] = ~result[fv, fu]
        result &= allowed
    else:
        result = eroded
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
    parts = []
    for p in data["parts"]:
        part = _PART_FACTORIES[p["part_class"]](
            int(p["instance_id"]), RigidTransform.from_json_dict(p["pose"])
        )
        parts.append(part)
    return Scene(
        terrain=terrain,
        rocks=rocks,
        parts=parts,
        base_camera=CameraSpec.from_json_dict(data["base_camera"]),
        hand_camera_intrinsics=CameraIntrinsics.from_json_dict(data["hand_camera_intrinsics"]),
        seed=int(data.get("seed", 0)),
    )

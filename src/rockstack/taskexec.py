"""Kinematic arm simulation and the two manipulation tasks: size-sorted rock
stacking and modular-part assembly.

The arm is end-effector kinematic: it teleports inside a reachability box,
carries at most one rigidly attached object, and reports simulated motion
time from a nominal speed (wall clock never enters task records, keeping
reports byte-reproducible). Task runners record one entry per phase with an
outcome and failure code; expected failures (missed grasp, occluded joint,
toppled rock) are recorded and, where physically sensible, the task moves on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import combinations

import numpy as np

from .errors import (
    BehindCameraError,
    ConfigError,
    EmptyMaskError,
    GraspMissError,
    MissingDepthError,
    MultiObjectError,
    NegativeHeightError,
    NoContactError,
    NothingHeldError,
    OutOfBoundsError,
    TaskFailure,
    UnreachablePoseError,
    ValidationError,
)
from .geometry import (
    InstanceMask,
    JsonFields,
    RigidTransform,
    camera_pose_from_lookat,
    deproject_pixel,
    mask_area,
    project_point,
)
from .graspdetect import (
    GraspCandidate,
    GraspConfig,
    HandGeometry,
    detect_grasps,
    in_closing_region,
)
from .perception import (
    CENTROID_WINDOW,
    POINT_WINDOW,
    detections_from_masks,
    estimate_height,
    median_window_depth,
    object_workspace_pose,
    sort_by_mask_area,
    window_pixels,
)
from .pointcloud import (
    Plane,
    PointCloud,
    Workspace,
    cloud_from_pixels,
    crop_workspace,
    fit_plane_sample,
    ransac_sample,
)
from .scenesim import (
    PLUG_BALL_RADIUS,
    CameraSpec,
    NoisyDepth,
    RobotPartModel,
    RockModel,
    Scene,
    SensorModel,
    Terrain,
)
from .shapes import Box, Union

GRIPPER_ID = -10

# top-down gripper pose at the origin: approach -z, closing +x, hand axis -y
TOP_DOWN = RigidTransform(
    np.column_stack(
        [np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])]
    ),
    np.zeros(3),
)

# mates a plug frame (z outward from part) into a socket frame (z outward
# from body): assembled means plug z opposes socket z at the same origin
PLUG_MATE_FLIP = RigidTransform.rotation_x(math.pi)


@dataclass(frozen=True)
class ExecParams(JsonFields):
    """Task-execution constants; JSON keys mirror the field names."""

    stack_target_xy: tuple = (250.0, 500.0)
    release_clearance_factor: float = 1.05
    pregrasp_height: float = 350.0
    pregrasp_offset: float = 120.0
    transport_height: float = 300.0
    arm_speed: float = 200.0  # mm/s, simulated
    action_time: float = 0.5  # s per grasp/release/sense action, simulated
    reach_min: tuple = (-450.0, 30.0, -20.0)
    reach_max: tuple = (450.0, 830.0, 950.0)
    attach_tol_mm: float = 3.0
    attach_tol_deg: float = 5.0
    pre_assembly_position: tuple = (0.0, 430.0, 240.0)
    crop_half_xy: float = 70.0
    support_from_terrain: bool = True

    def __post_init__(self):
        for name in ("arm_speed", "crop_half_xy"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name}: must be > 0, got {getattr(self, name)!r}")
        for name in ("action_time", "attach_tol_mm", "attach_tol_deg"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name}: must be >= 0, got {getattr(self, name)!r}")
        if not all(lo < hi for lo, hi in zip(self.reach_min, self.reach_max)):
            raise ConfigError(
                f"reach_min: must be below reach_max on every axis, got "
                f"{list(self.reach_min)} and {list(self.reach_max)}"
            )

    @property
    def reach(self) -> Workspace:
        return Workspace(self.reach_min, self.reach_max)


@dataclass(frozen=True)
class ArmState:
    """End-effector pose, gripper opening and the attached object, if any."""

    pose: RigidTransform
    opening: float
    max_aperture: float
    reach: Workspace
    attached_id: int | None = None
    attached_rel: RigidTransform | None = None  # object pose in gripper frame
    grip_bottom_offset: float = 0.0  # gripper z minus support z at pick time

    @classmethod
    def home(cls, params: ExecParams, hand: HandGeometry) -> "ArmState":
        return cls(
            pose=TOP_DOWN.with_translation((0.0, 300.0, 400.0)),
            opening=hand.max_aperture,
            max_aperture=hand.max_aperture,
            reach=params.reach,
        )

    def attached_world_pose(self) -> RigidTransform:
        if self.attached_rel is None:
            raise NothingHeldError("no object attached")
        return self.pose.compose(self.attached_rel)


def move_to(arm: ArmState, pose: RigidTransform, scene: Scene | None = None) -> ArmState:
    """Teleport the arm; an attached object follows rigidly."""
    if not bool(arm.reach.contains(pose.translation)):
        raise UnreachablePoseError(
            f"target {np.round(pose.translation, 1)} outside the reachable box"
        )
    moved = replace(arm, pose=pose)
    if scene is not None and moved.attached_id is not None:
        scene.object_by_id(moved.attached_id).pose = moved.attached_world_pose()
    return moved


def gripper_geometry(arm: ArmState, hand: HandGeometry) -> RobotPartModel:
    """Palm and finger boxes at the arm pose, for occlusion ray tests.

    Built in the hand frame (x approach, y closing, z hand axis); fingers
    straddle the current opening.
    """
    half_gap = arm.opening / 2.0
    prims = (
        Box(center=(-6.0, 0.0, 0.0), half_extents=(6.0, half_gap + hand.finger_width, hand.hand_height / 2.0)),
        Box(
            center=(hand.finger_depth / 2.0, half_gap + hand.finger_width / 2.0, 0.0),
            half_extents=(hand.finger_depth / 2.0, hand.finger_width / 2.0, hand.hand_height / 2.0),
        ),
        Box(
            center=(hand.finger_depth / 2.0, -half_gap - hand.finger_width / 2.0, 0.0),
            half_extents=(hand.finger_depth / 2.0, hand.finger_width / 2.0, hand.hand_height / 2.0),
        ),
    )
    return RobotPartModel("gripper", Union(prims), {}, arm.pose, GRIPPER_ID)


def _grasp_collides(local: np.ndarray, hand: HandGeometry, tol: float = 1.5) -> bool:
    """True when the open hand overlaps the surface points ``local``, given
    in the grasp's hand frame, by more than ``tol`` (compliance/quantization
    allowance).

    Catches grasps the detector hallucinated at workspace-crop boundaries,
    where the real object continues beyond the cloud it saw.
    """
    half_ap = hand.max_aperture / 2.0
    in_slab = (
        (local[:, 0] >= 0.0)
        & (local[:, 0] <= hand.finger_depth)
        & (np.abs(local[:, 2]) <= hand.hand_height / 2.0 - tol)
    )
    fingers = in_slab & (np.abs(local[:, 1]) > half_ap + tol) & (
        np.abs(local[:, 1]) <= half_ap + hand.finger_width - tol
    )
    if np.any(fingers):
        return True
    palm = (
        (local[:, 0] >= -12.0 + tol)
        & (local[:, 0] < -tol)
        & (np.abs(local[:, 1]) <= half_ap + hand.finger_width - tol)
        & (np.abs(local[:, 2]) <= hand.hand_height / 2.0 - tol)
    )
    return bool(np.any(palm))


def execute_grasp(
    arm: ArmState,
    scene: Scene,
    grasp: GraspCandidate,
    hand: HandGeometry,
    min_closing_points: int = 10,
    pregrasp_offset: float = 120.0,
    support_z: float | None = None,
) -> tuple[ArmState, float]:
    """Approach through a pre-grasp offset, close, and attach on success.

    Success requires the closing region to intersect exactly one object with
    at least ``min_closing_points`` of its surface points caught. Returns the
    new arm state and the simulated motion distance. ``support_z`` (support
    surface under the object) is recorded so placement can aim the object's
    bottom later.
    """
    if arm.attached_id is not None:
        raise ValidationError("arm already holds an object")
    approach = grasp.pose.rotation[:, 0]
    pre_pose = grasp.pose.with_translation(grasp.pose.translation - pregrasp_offset * approach)
    travel = float(np.linalg.norm(pre_pose.translation - arm.pose.translation))
    arm = move_to(arm, pre_pose)
    arm = move_to(arm, grasp.pose)
    travel += pregrasp_offset

    to_hand = grasp.pose.inverse()
    counts: list[tuple[int, int, np.ndarray]] = []
    for obj in scene.objects():
        local = to_hand.apply(obj.surface_points_world())
        if _grasp_collides(local, hand):
            raise GraspMissError(
                f"hand would collide with object {obj.instance_id} before closing"
            )
        caught = in_closing_region(local.T, hand)
        n = int(np.count_nonzero(caught))
        if n > 0:
            counts.append((obj.instance_id, n, local[caught, 1]))
    if len(counts) == 0:
        raise GraspMissError("closing region holds no object surface")
    if len(counts) > 1:
        raise MultiObjectError(
            f"closing region intersects {len(counts)} objects: "
            + ", ".join(str(c[0]) for c in counts)
        )
    instance_id, n_pts, gamma = counts[0]
    if n_pts < min_closing_points:
        raise GraspMissError(
            f"only {n_pts} surface points in the closing region (< {min_closing_points})"
        )
    obj = scene.object_by_id(instance_id)
    # closing fingers squeeze the object onto the hand's centerline; gamma
    # is each caught point's offset along the closing axis
    closing_axis = grasp.pose.rotation[:, 1]
    squeeze = 0.5 * (float(gamma.max()) + float(gamma.min()))
    obj.pose = obj.pose.with_translation(obj.pose.translation - squeeze * closing_axis)
    rel = arm.pose.inverse().compose(obj.pose)
    offset = 0.0
    if support_z is not None:
        offset = float(arm.pose.translation[2] - support_z)
    return (
        replace(
            arm,
            opening=grasp.grasp_width,
            attached_id=instance_id,
            attached_rel=rel,
            grip_bottom_offset=offset,
        ),
        travel,
    )


@dataclass
class StackState:
    """Built-stack bookkeeping; top z never decreases while rocks stack."""

    target_xy: tuple
    base_z: float
    placed: list = field(default_factory=list)
    top_z: float = 0.0

    def __post_init__(self):
        if not self.placed:
            self.top_z = self.base_z


def _vertical_surface_z(obj, xys: np.ndarray, from_above: bool) -> np.ndarray:
    """z of the object's upper (``from_above``) or lower surface on the
    vertical lines through ``xys``; NaN where a line misses it.

    For a rock whose rotation is exactly a yaw (third row and column
    ``(0, 0, 1)``) the surface is the superellipsoid's closed form
    (:meth:`Superellipsoid.half_height`) in the rock's local xy. Any other
    pose, and every robot part, is ray cast.
    """
    r = obj.pose.rotation
    if isinstance(obj, RockModel) and r[2, 2] == 1.0 and not (r[2, :2].any() or r[:2, 2].any()):
        local = (xys - obj.pose.translation[:2]) @ r[:2, :2]
        half = obj.shape.half_height(local[:, 0], local[:, 1])
        return obj.pose.translation[2] + (half if from_above else -half)
    return _cast_vertical(obj, xys, from_above)


def _cast_vertical(obj, xys: np.ndarray, from_above: bool) -> np.ndarray:
    """:func:`_vertical_surface_z` by ray casting along the vertical lines."""
    center, radius = obj.bounding
    n = xys.shape[0]
    if from_above:
        origins = np.column_stack([xys, np.full(n, center[2] + radius + 1.0)])
        dirs = np.tile([0.0, 0.0, -1.0], (n, 1))
    else:
        origins = np.column_stack([xys, np.full(n, center[2] - radius - 1.0)])
        dirs = np.tile([0.0, 0.0, 1.0], (n, 1))
    s = obj.raycast_world(origins, dirs)
    z = origins[:, 2] + s * dirs[:, 2]
    return np.where(np.isfinite(s), z, np.nan)


def settle_object(obj, terrain: Terrain, supports: list | None = None) -> None:
    """Drop the object along -z to first contact with terrain or supports."""
    pts = obj.surface_points_world()
    support_z = terrain.height_at(pts[:, 0], pts[:, 1])
    for sup in supports or []:
        top = _vertical_surface_z(sup, pts[:, :2], from_above=True)
        support_z = np.fmax(support_z, np.where(np.isnan(top), -np.inf, top))
    gaps = pts[:, 2] - support_z
    drop = float(np.min(gaps))
    obj.pose = obj.pose.with_translation(obj.pose.translation - np.array([0.0, 0.0, drop]))


def check_stack_stability(top: RockModel, support: RockModel) -> str:
    """"stable" iff the top rock's center of mass projects into the convex
    hull of the contact region.

    The contact region is the xy set where the vertical gap between the top
    rock's lower surface and the support's upper surface is within 1 mm of
    the minimum, sampled on a 1 mm grid. A region without a 2-D hull (one
    or two points, or points on a line) holds the center of mass when it
    lies within 1 mm of one of them. Raises NoContactError when the bodies
    are more than 1 mm apart everywhere.
    """
    c_top, r_top = top.bounding
    c_sup, r_sup = support.bounding
    lo = np.maximum(c_top[:2] - r_top, c_sup[:2] - r_sup)
    hi = np.minimum(c_top[:2] + r_top, c_sup[:2] + r_sup)
    if np.any(hi <= lo):
        raise NoContactError("xy footprints do not overlap")
    xs = np.arange(lo[0], hi[0] + 0.5, 1.0)
    ys = np.arange(lo[1], hi[1] + 0.5, 1.0)
    xx, yy = np.meshgrid(xs, ys)
    xys = np.column_stack([xx.ravel(), yy.ravel()])
    bottom = _vertical_surface_z(top, xys, from_above=False)
    upper = _vertical_surface_z(support, xys, from_above=True)
    gap = bottom - upper
    ok = ~np.isnan(gap)
    if not np.any(ok):
        raise NoContactError("no vertical line meets both bodies")
    min_gap = float(np.nanmin(gap))
    if min_gap > 1.0:
        raise NoContactError(f"bodies are {min_gap:.2f} mm apart")
    region = xys[ok & (gap <= min_gap + 1.0)]
    com = top.center_of_mass[:2]
    # imported on first use: scipy.spatial takes about 0.4 s to load, and only stacking checks a hull
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(region)
    except QhullError:
        inside = bool(np.min(np.linalg.norm(region - com, axis=1)) <= 1.0)
        return "stable" if inside else "toppled"
    eqs = hull.equations
    inside = bool(np.all(eqs[:, :2] @ com + eqs[:, 2] <= 1e-9))
    return "stable" if inside else "toppled"


def place_on_stack(
    arm: ArmState,
    scene: Scene,
    stack: StackState,
    rock_height: float,
    params: ExecParams,
) -> tuple[ArmState, StackState, dict]:
    """Carry the held rock over the target, release, settle and judge.

    The gripper centers itself on the target; any offset between the grasp
    point and the rock's center of mass therefore lands on the stack as
    alignment error. Returns the freed arm, the updated stack, and a
    placement record (outcome, alignment error, travel).
    """
    if arm.attached_id is None:
        raise NothingHeldError("place_on_stack requires a held rock")
    rock = scene.object_by_id(arm.attached_id)
    target = np.asarray(stack.target_xy, dtype=np.float64)
    bottom_target = stack.top_z + (params.release_clearance_factor - 1.0) * rock_height
    gripper_z = bottom_target + arm.grip_bottom_offset
    release_pose = arm.pose.with_translation((target[0], target[1], gripper_z))
    travel = float(np.linalg.norm(release_pose.translation - arm.pose.translation))
    arm = move_to(arm, release_pose, scene)

    support_rock = scene.object_by_id(stack.placed[-1]) if stack.placed else None
    arm = replace(arm, attached_id=None, attached_rel=None, opening=arm.max_aperture)
    settle_object(rock, scene.terrain, [support_rock] if support_rock else [])

    # a 2-vector norm in Python floats: np.linalg.norm rounds per BLAS kernel
    com = rock.center_of_mass
    if support_rock is None:
        outcome = "stable"  # sand conforms under the first rock
        alignment = math.hypot(com[0] - target[0], com[1] - target[1])
    else:
        support_com = support_rock.center_of_mass
        alignment = math.hypot(com[0] - support_com[0], com[1] - support_com[1])
        try:
            outcome = check_stack_stability(rock, support_rock)
        except NoContactError:
            outcome = "toppled"  # landed beside the stack entirely
    if outcome == "stable":
        stack.placed.append(rock.instance_id)
        top_pts = rock.surface_points_world()
        stack.top_z = float(np.max(top_pts[:, 2]))
    else:
        # topple removes only the top rock: park it beside the stack
        park_xy = target + np.array([stack.top_z - stack.base_z + 120.0, 0.0])
        rock.pose = rock.pose.with_translation(
            (park_xy[0], park_xy[1], rock.pose.translation[2] + 50.0)
        )
        settle_object(rock, scene.terrain, [])
    record = {
        "outcome": outcome,
        "alignment_error_mm": alignment,
        "travel_mm": travel,
    }
    return arm, stack, record


# ---------------------------------------------------------------------------
# trial reports


@dataclass
class TrialReport(JsonFields):
    """Structured per-trial record; everything in it is seed-deterministic.
    JSON keys are the field names."""

    task: str
    trial_seed: int
    success: bool
    phases: list
    rocks: list = field(default_factory=list)
    parts: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrialReport":
        """The shared reader over the record's fields (``trial_seed`` an
        integer, ``success`` true or false; ``ConfigError`` names a bad
        one). A key that is not a field is dropped, so a record that carried
        one reads back without it; :func:`~rockstack.harness.
        recompute_summary_from_files` rejects such a key in a trial file."""
        if isinstance(data, dict):
            names = {f.name for f in fields(cls)}
            data = {k: v for k, v in data.items() if k in names}
        return super().from_json_dict(data)

    @property
    def sim_time_s(self) -> float:  # 0 for a record written without it
        return float(self.metrics.get("sim_time_s", 0.0))


def derive_seed(seed: int, k: int) -> int:
    """Seed of the trial's ``k``-th random stream (render, noise, RANSAC,
    grasp, ...), so each stream is independent of how many draws others make."""
    return (seed * 1_000_003 + k) % (2**63)


class TrialLog:
    """A trial's phases and deterministic simulated time: arm travel at the
    nominal speed plus a fixed cost per action (``params`` may be ``None``
    for a trial that neither moves nor acts). Each phase runs from the
    previous :meth:`phase` call, or from the trial start, to its own."""

    def __init__(self, task: str, seed: int, params: ExecParams | None = None):
        self.task, self.seed, self.params = task, seed, params
        self.phases: list = []
        self._time = self._phase_start = 0.0

    def move(self, dist_mm: float) -> None:
        self._time += dist_mm / self.params.arm_speed

    def action(self) -> None:
        self._time += self.params.action_time

    def phase(self, name: str, error_code: str | None = None, error_message: str | None = None) -> None:
        """Close phase ``name``: failed with ``error_code``, else ok. An
        ``error_message`` is recorded under its own key."""
        outcome = "ok" if error_code is None else "failed"
        sim_time = round(self._time - self._phase_start, 6)
        entry = {"phase": name, "outcome": outcome, "error_code": error_code, "sim_time_s": sim_time}
        if error_message is not None:
            entry["error_message"] = error_message
        self.phases.append(entry)
        self._phase_start = self._time

    def report(self, success: bool, metrics: dict | None = None, **records) -> TrialReport:
        """The trial's report; ``metrics`` gains the total ``sim_time_s``, and
        ``records`` are its ``rocks`` or ``parts``."""
        metrics = dict(metrics or {}, sim_time_s=round(self._time, 6))
        return TrialReport(self.task, self.seed, success, self.phases, metrics=metrics, **records)


def _fail(trial: TrialLog, entry: dict, phase: str, code: str, phase_code: str | None = None) -> None:
    """Mark ``entry`` failed with ``code``; close ``phase`` with ``phase_code`` or ``code``."""
    entry["outcome"] = "failed"
    entry["failure_code"] = code
    trial.phase(phase, phase_code or code)


@dataclass(frozen=True)
class WristView:
    """What the wrist sweep of :func:`observe_object` saw: the points of its
    merged two-view cloud that lie in the crop box, in the cloud's order;
    the merged cloud's size; its support-plane fit; the crop box; and the
    viewpoint for orienting normals.

    :func:`~rockstack.graspdetect.detect_grasps` crops the merged cloud to
    these points first, so it finds the same grasps from ``cloud``; an empty
    crop finds none."""

    cloud: PointCloud
    points: int
    plane: Plane
    workspace: Workspace
    viewpoint: tuple


def observe_object(
    scene: Scene,
    xy: np.ndarray,
    sensor: SensorModel,
    params: ExecParams,
    seed: int,
) -> WristView:
    """Eye-in-hand observation of the object at ``xy`` from two oblique wrist
    poses.

    A single straight-down view contains almost no side-wall points on squat
    objects, which starves the antipodal score; sweeping the wrist camera
    across the object (as an angled wrist mount does) fills the walls in.
    The merged cloud is :func:`~rockstack.pointcloud.cloud_from_depth` of
    view 0, then of view 1, and its plane is fit by :func:`_cloud_plane`.

    Each view is a :class:`~rockstack.scenesim.NoisyDepth`, cast only where
    the observation reads it: the pixels whose point can land in the crop
    box (``box_pixels``) and those behind the plane fit's sample. Every
    point, the plane and so the grasps are bit-equal to those of whole
    images.
    """
    cx, cy = float(xy[0]), float(xy[1])
    height = params.pregrasp_height - 20.0
    half = params.crop_half_xy
    ws = Workspace((cx - half, cy - half, -60.0), (cx + half, cy + half, 400.0))
    views = [
        NoisyDepth(
            scene,
            CameraSpec(
                scene.hand_camera_intrinsics,
                camera_pose_from_lookat((cx + dx, cy, height), (cx, cy, 0.0)),
            ),
            sensor,
            derive_seed(seed, 200 + i),
        )
        for i, dx in enumerate((-120.0, 120.0))
    ]
    boxes = [view.box_pixels(ws.min_corner, ws.max_corner) for view in views]
    plane, n_points = _cloud_plane(views, 1, derive_seed(seed, 210), boxes)
    points = np.concatenate(
        [_view_points(view, box[view.depth.flat[box] > 0]) for view, box in zip(views, boxes)]
    )
    cloud = crop_workspace(PointCloud(points, frame="robot"), ws)
    return WristView(cloud, n_points, plane, ws, (cx, cy, params.pregrasp_height))


def _cloud_plane(
    views: list[NoisyDepth], stride: int, seed: int, reads: list | None = None
) -> tuple[Plane, int]:
    """The plane that ``fit_plane_ransac(cloud, iters=200, tol=4.0,
    seed=seed, max_points=2500)`` fits to the cloud
    :func:`~rockstack.pointcloud.cloud_from_depth` makes of the views' whole
    images at ``stride``, concatenated in order, and that cloud's size.

    The fit's sample depends only on the size, which the views count
    without casting most pixels (``cloud_pixels``), so only the pixels
    behind the sample are cast and deprojected. ``reads`` holds more pixels
    of each view to cast in the same render.
    """
    pixels = [view.cloud_pixels(stride) for view in views]
    n = sum(p.size for p in pixels)
    rows, rng = ransac_sample(n, seed, max_points=2500)
    points, start = [], 0
    for i, (view, pix) in enumerate(zip(views, pixels)):
        sample = pix[rows[(rows >= start) & (rows < start + pix.size)] - start]
        start += pix.size
        view.cast(sample if reads is None else np.concatenate([sample, reads[i]]))
        points.append(_view_points(view, sample))
    return fit_plane_sample(np.concatenate(points), rng, iters=200, tol=4.0), n


def _view_points(view: NoisyDepth, pixels: np.ndarray) -> np.ndarray:
    """Robot-frame points of cast pixels with depth > 0, bit-equal to their
    points in the view's whole cloud."""
    cam = view.camera
    return cloud_from_pixels(view.depth, cam.intrinsics, cam.pose, pixels).points


def _approach_and_detect(
    trial: TrialLog,
    arm: ArmState,
    scene: Scene,
    xy: np.ndarray,
    hand: HandGeometry,
    grasp_cfg: GraspConfig,
    sensor: SensorModel,
    params: ExecParams,
    observe_seed: int,
    grasp_seed: int,
) -> tuple[ArmState, list[GraspCandidate], Plane]:
    """Move to the pre-grasp pose above ``xy``, sweep the wrist camera
    (:func:`observe_object`) and detect grasps in its crop box. Returns the
    moved arm, the grasps and the local support-plane fit.
    """
    pre = TOP_DOWN.with_translation((xy[0], xy[1], params.pregrasp_height))
    trial.move(float(np.linalg.norm(pre.translation - arm.pose.translation)))
    arm = move_to(arm, pre, scene)
    trial.move(240.0)  # observation sweep
    seen = observe_object(scene, xy, sensor, params, observe_seed)
    cfg = replace(grasp_cfg, seed=grasp_seed)
    grasps = detect_grasps(seen.cloud, hand, cfg, seen.plane, seen.workspace, seen.viewpoint)
    trial.action()
    return arm, grasps, seen.plane


def _rock_true_height(rock: RockModel, terrain: Terrain) -> float:
    pts = rock.surface_points_world()
    top = float(np.max(pts[:, 2]))
    return top - float(terrain.height_at(rock.center_of_mass[0], rock.center_of_mass[1]))


def run_stacking_task(
    scene: Scene,
    hand: HandGeometry,
    grasp_cfg: GraspConfig,
    sensor: SensorModel,
    params: ExecParams,
    seed: int,
) -> TrialReport:
    """Detect rocks, sort by mask area, then pick and stack each in order.

    Per-rock failures are recorded and the task moves to the next rock;
    success requires every rock in the scene stacked and stable.
    """
    if len(scene.rocks) < 2:
        raise ValidationError("stacking needs at least 2 rocks in the scene")
    trial = TrialLog("stack", seed, params)
    rocks_report: list = []
    arm = ArmState.home(params, hand)

    # -- detect (eye on base)
    base, dets = _observe_base(scene, sensor, seed, ("rock",))
    depth_base = base.depth
    trial.action()
    if not dets:
        trial.phase("detect", "no-detections")
        return trial.report(False)
    trial.phase("detect")

    # -- support plane from the base cloud
    plane, _ = _cloud_plane([base], 2, derive_seed(seed, 3))
    target = params.stack_target_xy
    stack = StackState(target_xy=target, base_z=plane.z_at(target[0], target[1]))

    # -- sort by mask area, largest first
    ordered = sort_by_mask_area(dets)
    trial.phase("sort")

    id_to_rock = {r.instance_id: r for r in scene.rocks}
    true_sections = {
        r.instance_id: r.max_cross_section_area() for r in scene.rocks
    }
    true_volumes = {r.instance_id: r.true_volume for r in scene.rocks}
    det_ids = [d.instance_id for d in ordered]
    pairs = list(combinations(det_ids, 2))
    pairs_correct = sum(true_sections[a] >= true_sections[b] for a, b in pairs)
    volume_rank = sorted(det_ids, key=lambda k: -true_volumes[k])

    all_scene_detected = len(det_ids) == len(scene.rocks)

    for sorted_index, det in enumerate(ordered):
        rock = id_to_rock[det.instance_id]
        entry = {
            "instance_id": det.instance_id,
            "sorted_index": sorted_index,
            "volume_order_correct": volume_rank[sorted_index] == det.instance_id,
            "mask_area_px": mask_area(det),
            "outcome": "pending",
            "failure_code": None,
            "grasp_score": None,
            "grasp_width_mm": None,
            "height_est_mm": None,
            "height_true_mm": _rock_true_height(rock, scene.terrain),
            "alignment_error_mm": None,
            "stable": None,
        }
        rocks_report.append(entry)
        try:
            position = object_workspace_pose(
                det, depth_base, scene.base_camera.intrinsics, scene.base_camera.pose
            )
            x, y = position[:2]
            if params.support_from_terrain:
                support_z = float(scene.terrain.height_at(x, y))
            else:
                support_z = plane.z_at(x, y)
            height_est = estimate_height(
                det, depth_base, scene.base_camera.intrinsics, scene.base_camera.pose, support_z
            )
        except (EmptyMaskError, MissingDepthError, NegativeHeightError):
            trial.action()
            _fail(trial, entry, f"pose_rock_{sorted_index}", "pose-detect-fail")
            continue
        entry["height_est_mm"] = height_est
        trial.action()
        trial.phase(f"pose_rock_{sorted_index}")

        try:
            seeds = derive_seed(seed, 10 + sorted_index), derive_seed(seed, 30 + sorted_index)
            arm, grasps, local_plane = _approach_and_detect(
                trial, arm, scene, position, hand, grasp_cfg, sensor, params, *seeds
            )
            if not grasps:
                _fail(trial, entry, f"grasp_rock_{sorted_index}", "grasp-fail", "empty-grasp-list")
                continue
            best = grasps[0]
            entry["grasp_score"] = float(best.score)
            entry["grasp_width_mm"] = float(best.grasp_width)
            pick_support = local_plane.z_at(
                float(best.pose.translation[0]), float(best.pose.translation[1])
            )
            arm, travel = execute_grasp(
                arm,
                scene,
                best,
                hand,
                min_closing_points=grasp_cfg.min_closing_points,
                pregrasp_offset=params.pregrasp_offset,
                support_z=pick_support,
            )
            trial.move(travel)
            trial.action()
            entry["grasped_instance_id"] = arm.attached_id
            wrong_object = arm.attached_id != det.instance_id
            trial.phase(f"grasp_rock_{sorted_index}")

            # lift and place
            lift = arm.pose.with_translation(
                (arm.pose.translation[0], arm.pose.translation[1], params.transport_height)
            )
            trial.move(float(np.linalg.norm(lift.translation - arm.pose.translation)))
            arm = move_to(arm, lift, scene)
            arm, stack, placement = place_on_stack(arm, scene, stack, height_est, params)
            trial.move(placement["travel_mm"])
            trial.action()
            entry["alignment_error_mm"] = placement["alignment_error_mm"]
            entry["stable"] = placement["outcome"] == "stable"
            if wrong_object:
                _fail(trial, entry, f"place_rock_{sorted_index}", "wrong-object")
            elif placement["outcome"] == "stable":
                entry["outcome"] = "placed"
                trial.phase(f"place_rock_{sorted_index}")
            else:
                _fail(trial, entry, f"place_rock_{sorted_index}", "toppled")
        except TaskFailure as exc:
            _fail(trial, entry, f"abort_rock_{sorted_index}", exc.code)
            # free the arm for the next rock
            arm = replace(arm, attached_id=None, attached_rel=None, opening=arm.max_aperture)

    # every entry ends as "placed" or "failed"
    rocks_ok = all(r["outcome"] == "placed" for r in rocks_report)
    success = rocks_ok and all_scene_detected and len(stack.placed) == len(scene.rocks)
    metrics = {
        "stacked_count": len(stack.placed),
        "rock_count": len(scene.rocks),
        "sort_pairs_total": len(pairs),
        "sort_pairs_correct": pairs_correct,
    }
    return trial.report(success, metrics, rocks=rocks_report)


def _observe_base(
    scene: Scene, sensor: SensorModel, seed: int, labels: tuple
) -> tuple[NoisyDepth, list[InstanceMask]]:
    """The base camera's noisy depth image and detections, with the seeds of
    ``render_depth`` and ``detect_objects``.

    The image is cast where the task runners read it. First come the
    objects' footprints, for the masks
    (:meth:`~rockstack.scenesim.NoisyDepth.masks`), which equal those of a
    whole-image render. They already hold every pixel of each detection's
    mask, which ``estimate_height`` reads: a rendered mask is the pixels
    given its object's id, all on the object's footprint, and degradation
    grows it by at most one pixel, within the footprint's 2-pixel margin.
    Then comes the window at each centroid, which ``object_workspace_pose``
    reads. Later reads cast their own pixels
    (:func:`_measure_point_via_depth`, :func:`_cloud_plane`).
    """
    view = NoisyDepth(scene, scene.base_camera, sensor, derive_seed(seed, 1))
    dets = detections_from_masks(view.masks(), sensor, derive_seed(seed, 2), labels=labels)
    shape = view.depth.shape
    reads = [window_pixels(*det.centroid, CENTROID_WINDOW, shape) for det in dets]
    view.cast(np.concatenate(reads or [np.empty(0, dtype=np.intp)]))
    return view, dets


def _measure_point_via_depth(
    point_world: np.ndarray,
    view: NoisyDepth,
    surface_offset: float = 0.0,
):
    """Project a known point into the view's camera and read it back through
    the noisy depth image, casting the ``POINT_WINDOW`` read: the
    measurement path every detection shares.

    ``surface_offset`` pushes the deprojected surface point forward along
    the sight ray, correcting a ball-shaped feature's near surface to its
    center.
    """
    camera = view.camera
    cam_pt = camera.pose.inverse().apply(point_world)
    u, v, _ = project_point(camera.intrinsics, cam_pt)
    u, v = float(u), float(v)
    view.cast(window_pixels(u, v, POINT_WINDOW, view.depth.shape))
    d = median_window_depth(view.depth, u, v, size=POINT_WINDOW)
    measured = camera.pose.apply(deproject_pixel(camera.intrinsics, u, v, d))
    if surface_offset != 0.0:
        ray = measured - camera.pose.translation
        measured = measured + surface_offset * ray / np.linalg.norm(ray)
    return measured


def _point_visible(
    scene: Scene,
    camera: CameraSpec,
    point_world: np.ndarray,
    extra_objects: list,
    tol_mm: float = 6.0,
) -> bool:
    """True when nothing blocks the camera's line of sight to the point by
    more than ``tol_mm`` in front of it (the tolerance absorbs the plug
    ball's own near surface)."""
    origin = camera.pose.translation
    ray = (point_world - origin).reshape(1, 3)
    s_min = min(
        float(obj.raycast_world(origin, ray)[0])
        for obj in [scene.terrain, *scene.objects(), *extra_objects]
    )
    return s_min >= 1.0 - tol_mm / float(np.linalg.norm(ray))


def run_assembly_task(
    scene: Scene,
    hand: HandGeometry,
    grasp_cfg: GraspConfig,
    sensor: SensorModel,
    params: ExecParams,
    seed: int,
) -> TrialReport:
    """Assemble one detachable part onto the body: get pose, grasp, move to
    the pre-assembly pose, detect the grasped plug, displace and attach."""
    bodies = [p for p in scene.parts if p.part_class == "body"]
    loose = [p for p in scene.parts if p.part_class in ("head", "leg")]
    if not bodies or not loose:
        raise ValidationError("assembly needs a body and one attachable part")
    body = bodies[0]
    part = loose[0]
    # legs mate the camera-facing side socket; heads mate the top socket
    socket_name = "socket_top" if part.part_class == "head" else "socket_right"

    trial = TrialLog("assemble", seed, params)
    arm = ArmState.home(params, hand)
    entry = {
        "part_class": part.part_class,
        "instance_id": part.instance_id,
        "outcome": "pending",
        "failure_code": None,
        "grasp_score": None,
        "attach_pos_error_mm": None,
        "attach_rot_error_deg": None,
    }

    def failed(phase: str, code: str) -> TrialReport:
        _fail(trial, entry, phase, code)
        return trial.report(False, parts=[entry])

    # -- get_pose
    base, dets = _observe_base(scene, sensor, seed, (part.part_class,))
    trial.action()
    if not dets:
        return failed("get_pose", "pose-detect-fail")
    det = dets[0]
    try:
        part_pos_meas = object_workspace_pose(
            det, base.depth, scene.base_camera.intrinsics, scene.base_camera.pose
        )
        socket_true = body.attachment_world(socket_name)
        socket_pos_meas = _measure_point_via_depth(socket_true.translation, base)
    except (EmptyMaskError, MissingDepthError, OutOfBoundsError, BehindCameraError):
        return failed("get_pose", "pose-detect-fail")
    socket_meas = socket_true.with_translation(socket_pos_meas)
    trial.phase("get_pose")

    # -- grasp
    try:
        seeds = derive_seed(seed, 10), derive_seed(seed, 12)
        arm, grasps, _ = _approach_and_detect(
            trial, arm, scene, part_pos_meas, hand, grasp_cfg, sensor, params, *seeds
        )
        if not grasps:
            return failed("grasp", "grasp-fail")
        best = grasps[0]
        entry["grasp_score"] = float(best.score)
        arm, travel = execute_grasp(
            arm,
            scene,
            best,
            hand,
            min_closing_points=grasp_cfg.min_closing_points,
            pregrasp_offset=params.pregrasp_offset,
        )
        if arm.attached_id != part.instance_id:
            return failed("grasp", "grasp-fail")
        trial.move(travel)
        trial.action()
    except TaskFailure as exc:
        return failed("grasp", exc.code)
    trial.phase("grasp")

    # -- pre_assembly
    pre_asm = arm.pose.with_translation(params.pre_assembly_position)
    trial.move(float(np.linalg.norm(pre_asm.translation - arm.pose.translation)))
    try:
        lift = arm.pose.with_translation(
            (arm.pose.translation[0], arm.pose.translation[1], params.transport_height)
        )
        arm = move_to(arm, lift, scene)
        arm = move_to(arm, pre_asm, scene)
    except TaskFailure as exc:
        return failed("pre_assembly", exc.code)
    trial.phase("pre_assembly")

    # -- detect_joint (plug visibility + measurement through the base camera)
    gripper = gripper_geometry(arm, hand)
    plug_true = part.attachment_world("plug")
    visible = _point_visible(scene, scene.base_camera, plug_true.translation, [gripper])
    trial.action()
    if not visible:
        return failed("detect_joint", "joint-not-visible")
    joint = NoisyDepth(
        scene, scene.base_camera, sensor, derive_seed(seed, 20), extra_objects=[gripper]
    )
    try:
        plug_pos_meas = _measure_point_via_depth(
            plug_true.translation, joint, surface_offset=PLUG_BALL_RADIUS
        )
    except (MissingDepthError, OutOfBoundsError, BehindCameraError):
        return failed("detect_joint", "joint-not-visible")
    plug_meas = plug_true.with_translation(plug_pos_meas)
    trial.phase("detect_joint")

    # -- displace: move so the measured plug mates the measured socket
    target_plug = socket_meas.compose(PLUG_MATE_FLIP)
    displacement = target_plug.compose(plug_meas.inverse())
    new_arm_pose = displacement.compose(arm.pose)
    trial.move(float(np.linalg.norm(new_arm_pose.translation - arm.pose.translation)))
    try:
        arm = move_to(arm, new_arm_pose, scene)
    except TaskFailure as exc:
        return failed("displace", exc.code)
    trial.phase("displace")

    # -- attach: true plug frame must meet the true socket frame
    plug_final = part.attachment_world("plug")
    socket_mate = body.attachment_world(socket_name).compose(PLUG_MATE_FLIP)
    pos_error = float(np.linalg.norm(plug_final.translation - socket_mate.translation))
    axis_cos = float(np.clip(plug_final.rotation[:, 2] @ socket_mate.rotation[:, 2], -1, 1))
    rot_error_deg = math.degrees(math.acos(axis_cos))
    entry["attach_pos_error_mm"] = pos_error
    entry["attach_rot_error_deg"] = rot_error_deg
    # raw frames let an external reader re-verify the check independently
    entry["plug_frame"] = plug_final.to_json_dict()
    entry["socket_frame"] = body.attachment_world(socket_name).to_json_dict()
    trial.action()
    if not (pos_error <= params.attach_tol_mm and rot_error_deg <= params.attach_tol_deg):
        return failed("attach", "attach-misaligned")
    part.pose = socket_mate.compose(part.attachments["plug"].inverse())
    entry["outcome"] = "attached"
    trial.phase("attach")
    return trial.report(True, parts=[entry])

"""6-DOF grasp candidate generation, scoring and selection for a parallel
gripper working on point clouds.

Candidate poses are rigid transforms whose rotation columns are the approach
axis ``a``, the closing axis ``c`` and the hand axis ``h``. Candidates are
generated top-down: the approach opposes the configured hand axis (vertical
by default) and the closing direction sweeps 180 degrees about it (a
parallel gripper is symmetric under a half turn). Each candidate descends
along its approach in fixed steps to the deepest pose at which neither
finger volume nor the palm face would collide with the cloud, then keeps the
points caught between the fingers as its closing region.

Ranking uses a geometric antipodal score instead of a learned classifier:
the fraction of closing-region points whose normals oppose the closing axis
within a friction cone, weighted by how well filled the closing region is.
Everything is deterministic given the config seed.

Candidates are evaluated in array passes, not one at a time. For each
chunk of seeds and each orientation, the closing and finger bands, the push
depth, the caught points, the insertion and the extent are computed for all
seeds at once as rows of ``(seeds, points)`` arrays, and the survivors are
scored in the same pass. Candidates stay arrays (:class:`CandidateSet`); the
hand frames are built and validated once per (hand axis, orientation count),
and a :class:`RigidTransform` is built only for a grasp that is returned or
read out.

The batched pass gives the same bits as evaluating one candidate at a time
(:func:`score_candidate`), because every point and normal enters a hand
frame by :class:`RigidTransform`'s one rounding rule: the cloud is rotated
once per orientation, and a candidate's points are that rotated cloud plus
its own translation, coordinate by coordinate, as ``pose.inverse().apply``
computes them. The masked reductions over a row are exact rewrites:

* a masked ``min`` or ``max`` is the plain reduction of the row with the
  masked-out values replaced by ``inf`` or ``-inf``, since ``min`` and
  ``max`` do not round (an empty row gives the infinity). Only the sign of
  a zero result can depend on the reduction order, and no output reads it:
  a grasp width adds ``width_clearance``, stored as +0.0 or more;
* rounding is monotone, so a masked minimum of ``u + back`` is
  ``min(u) + back`` and one of ``palm - finger_depth`` is
  ``min(palm) - finger_depth``;
* the finger band is the corridor between the fingers' outer faces XOR the
  closing band, which it contains.

Row counts are popcounts of packed bits (:func:`row_counts`). Seeds are
chunked, points never are, and a chunk keeps ``seeds * points`` to 128 KB
of floats whatever the cloud size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCloudError, ValidationError
from .geometry import JsonFields, RigidTransform
from .pointcloud import (
    Plane,
    PointCloud,
    Workspace,
    crop_workspace,
    estimate_normals,
    filter_above_plane,
    row_counts,
    voxel_downsample,
)

_EPS = 1e-9


@dataclass(frozen=True)
class HandGeometry(JsonFields):
    """Parallel-gripper dimensions, mm.

    Defaults are deliberately smaller than the physical gripper; small hands
    both grasp small objects more reliably and cost less to evaluate.
    """

    finger_width: float = 12.0
    max_aperture: float = 80.0
    finger_depth: float = 50.0
    hand_height: float = 25.0

    def __post_init__(self):
        for name in ("finger_width", "max_aperture", "finger_depth", "hand_height"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"hand geometry field {name} must be > 0")


@dataclass(frozen=True)
class GraspConfig(JsonFields):
    """Detector configuration; JSON keys mirror the field names."""

    num_samples: int = 100
    num_orientations: int = 5
    num_selected: int = 20
    hand_axis: tuple = (0.0, 0.0, 1.0)
    approach_filter: bool = True
    cone_half_angle_deg: float = 45.0
    min_closing_points: int = 10
    seed: int = 0
    friction_half_angle_deg: float = 45.0
    expected_closing_points: float = 40.0
    push_step: float = 2.0
    width_clearance: float = 4.0
    min_insertion: float = 10.0  # object must reach this far past the fingertips
    plane_margin: float = 6.0
    normals_k: int = 15
    voxel_leaf: float = 0.0  # 0 disables downsampling in the pipeline

    def __post_init__(self):
        if self.num_samples < 1 or self.num_orientations < 1 or self.num_selected < 1:
            raise ValidationError("num_samples, num_orientations, num_selected must be >= 1")
        if not (0.0 < self.cone_half_angle_deg <= 90.0):
            raise ValidationError("cone_half_angle_deg must be in (0, 90]")
        if self.min_closing_points < 1:
            raise ValidationError("min_closing_points must be >= 1")
        axis = np.asarray(self.hand_axis, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(axis)
        if norm < _EPS:
            raise ValidationError("hand_axis must be a nonzero vector")
        object.__setattr__(self, "hand_axis", tuple(axis / norm))
        if self.push_step <= 0:
            raise ValidationError("push_step must be > 0")
        # a score divides by expected_closing_points; normals need 3 neighbours;
        # a negative clearance would report grasp widths below zero; a -0.0 one is stored as +0.0
        rules = (
            ("expected_closing_points", self.expected_closing_points > 0, "> 0"),
            ("friction_half_angle_deg", 0.0 < self.friction_half_angle_deg <= 90.0, "in (0, 90]"),
            ("normals_k", self.normals_k >= 3, ">= 3"),
            ("voxel_leaf", self.voxel_leaf >= 0, ">= 0"),
            ("width_clearance", self.width_clearance >= 0, ">= 0"),
        )
        for name, ok, bound in rules:
            if not ok:
                raise ValidationError(f"{name}: must be {bound}, got {getattr(self, name)!r}")
        object.__setattr__(self, "width_clearance", self.width_clearance + 0.0)


@dataclass(frozen=True)
class GraspCandidate:
    """One 6-DOF grasp hypothesis.

    ``pose`` maps hand coordinates to the robot frame; its rotation columns
    are approach, closing and hand axes, and its translation is the palm
    center. ``seed_index``/``orientation_index`` identify the generating
    sample and are the deterministic tie-break key during selection.
    """

    pose: RigidTransform
    grasp_width: float
    score: float
    closing_point_count: int
    seed_index: int = 0
    orientation_index: int = 0

    @property
    def approach(self) -> np.ndarray:
        return self.pose.rotation[:, 0]

    @property
    def closing_axis(self) -> np.ndarray:
        return self.pose.rotation[:, 1]

    @property
    def hand_axis(self) -> np.ndarray:
        return self.pose.rotation[:, 2]

    def to_json_dict(self) -> dict:
        return {
            **self.pose.to_json_dict(),
            "grasp_width": float(self.grasp_width),
            "score": float(self.score),
            "closing_point_count": int(self.closing_point_count),
            "seed_index": int(self.seed_index),
            "orientation_index": int(self.orientation_index),
        }


def sample_seeds(cloud: PointCloud, cfg: GraspConfig) -> np.ndarray:
    """Uniform sample of distinct point indices, without replacement.

    The sample for a smaller ``num_samples`` is a prefix of the sample for a
    larger one under the same seed, so enlarging the budget only adds seeds.
    """
    n = len(cloud)
    if n == 0:
        raise EmptyCloudError("cannot sample seeds from an empty cloud")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    return perm[: min(cfg.num_samples, n)]


def _tangent_fallback(normal: np.ndarray) -> np.ndarray:
    ref = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t = ref - np.dot(ref, normal) * normal
    return t / np.linalg.norm(t)


def _closing_frame_axes(
    hand_axis, num_orientations: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Approach axis plus (closing, hand) axis pairs for each orientation."""
    h_cfg = np.asarray(hand_axis, dtype=np.float64)
    approach = -h_cfg
    c0 = _tangent_fallback(h_cfg)
    axes = []
    for k in range(num_orientations):
        theta = math.pi * k / num_orientations  # 180-degree sweep
        # Rodrigues rotation of c0 about h_cfg
        c = (
            c0 * math.cos(theta)
            + np.cross(h_cfg, c0) * math.sin(theta)
            + h_cfg * np.dot(h_cfg, c0) * (1.0 - math.cos(theta))
        )
        c /= np.linalg.norm(c)
        h = np.cross(approach, c)
        axes.append((c, h))
    return approach, axes


def _hand_frames(cfg: GraspConfig) -> tuple[np.ndarray, tuple[RigidTransform, ...]]:
    """The approach axis and each orientation's validated hand frame, built
    once per (hand axis, orientation count) and shared read-only."""
    # keyed on the axis's bits: -0.0 == 0.0, yet the frames built from them
    # differ in the signs of their zeros
    return _frames_for(np.asarray(cfg.hand_axis, dtype=np.float64).tobytes(), cfg.num_orientations)


@functools.lru_cache(maxsize=8)
def _frames_for(axis_bits: bytes, num_orientations: int):
    approach, axes = _closing_frame_axes(np.frombuffer(axis_bits), num_orientations)
    frames = tuple(
        RigidTransform(np.column_stack([approach, c, h]), np.zeros(3)) for c, h in axes
    )
    for array in (approach, *(a for f in frames for a in (f.rotation, f.translation))):
        array.flags.writeable = False
    return approach, frames


# seeds x points per chunk of the batched pass: 128 KB per float array, so
# the temporaries of a chunk stay near 1 MB
_CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Grasp candidates as a struct of arrays, one row per candidate, in
    (seed_index, orientation_index) order.

    ``len()`` is the candidate count. Indexing or iterating builds
    :class:`GraspCandidate` values, so only the rows read out pay for a
    :class:`RigidTransform`.
    """

    rotations: np.ndarray  # (orientations, 3, 3), validated; columns approach, closing, hand
    origin: np.ndarray  # (n, 3) palm centers
    grasp_width: np.ndarray
    score: np.ndarray
    closing_point_count: np.ndarray
    seed_index: np.ndarray
    orientation_index: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i: int) -> GraspCandidate:
        o = int(self.orientation_index[i])
        return GraspCandidate(
            pose=RigidTransform._unchecked(self.rotations[o].copy(), self.origin[i].copy()),
            grasp_width=float(self.grasp_width[i]),
            score=float(self.score[i]),
            closing_point_count=int(self.closing_point_count[i]),
            seed_index=int(self.seed_index[i]),
            orientation_index=o,
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def select(self, cfg: GraspConfig) -> list[GraspCandidate]:
        """The grasps whose approach lies within ``cfg.cone_half_angle_deg``
        of world -z (all of them when ``cfg.approach_filter`` is off), the
        top ``cfg.num_selected`` by descending score, ties broken by
        (seed, orientation) index. Only the grasps returned are built."""
        # every candidate shares the approach axis, so the cone keeps all or none
        if cfg.approach_filter:
            cos_thresh = math.cos(math.radians(cfg.cone_half_angle_deg))
            # the approach's projection on world -z; exact, the other terms are +-0
            if -float(self.rotations[0, 2, 0]) < cos_thresh - _EPS:
                return []
        order = np.lexsort((self.orientation_index, self.seed_index, -self.score))
        return [self[i] for i in order[: cfg.num_selected]]


def _masked_min(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, a, np.inf).min(axis=1)


def _masked_max(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, a, -np.inf).max(axis=1)


def _bands(gamma: np.ndarray, eta: np.ndarray, hand: HandGeometry):
    """Masks of the closing band (between the fingers) and the finger band
    (in the fingers' path) within the hand's height, from the closing and
    hand-axis offsets."""
    abs_gamma = np.abs(gamma)
    corridor = np.abs(eta) <= hand.hand_height / 2.0
    corridor &= abs_gamma <= hand.max_aperture / 2.0 + hand.finger_width
    closing = corridor & (abs_gamma <= hand.max_aperture / 2.0)
    return closing, corridor ^ closing


def _push_and_catch(
    u: np.ndarray,
    gamma: np.ndarray,
    eta: np.ndarray,
    seed_points: np.ndarray,
    approach: np.ndarray,
    hand: HandGeometry,
    cfg: GraspConfig,
):
    """Candidates of one orientation for a chunk of seeds, one row per seed.

    ``u``, ``gamma`` and ``eta`` are every point's offset from the row's seed
    along the approach, closing and hand axes. Returns the surviving rows
    with their palm centers, grasp widths and caught-point counts.
    """
    fd = hand.finger_depth
    step = cfg.push_step

    closing_band, finger_band = _bands(gamma, eta, hand)
    u_closing = _masked_min(u, closing_band)
    u_finger = _masked_min(u, finger_band)
    # rows with an empty closing band turn to inf/nan here and are dropped below
    with np.errstate(invalid="ignore"):
        back = fd - np.minimum(u_closing, u_finger) + step
        # push depth at which each point would pass behind the palm face
        palm = u + back[:, None]
        bad_finger = u_finger + back - fd
        bad_palm = u_closing + back
        depth_limit = np.minimum(bad_finger - _EPS, bad_palm + _EPS)
        max_steps = np.floor(depth_limit / step)
        delta = max_steps * step
        # the fingertip plane reaches a point at palm - fd; one buffer holds
        # that, then palm + _EPS
        buf = np.subtract(palm, fd)
        caught = closing_band & (buf <= (delta + _EPS)[:, None])
        caught &= delta[:, None] <= np.add(palm, _EPS, out=buf)
        count = row_counts(caught)
        # material must actually reach between the fingers, not graze the tips
        insertion = delta - (_masked_min(palm, caught) - fd)
        width = _masked_max(gamma, caught) - _masked_min(gamma, caught) + cfg.width_clearance
        keep = (
            (u_closing < np.inf)
            & (max_steps >= 1)
            & (count >= cfg.min_closing_points)
            & (insertion >= cfg.min_insertion)
            # fingers must have room to actually close on the material
            & (width <= hand.max_aperture)
        )
    rows = np.flatnonzero(keep)
    origin = seed_points[rows] + approach * (delta - back)[rows, None]
    return rows, origin, width[rows], count[rows]


def _score_rows(
    local: np.ndarray,
    shift: np.ndarray,
    aligned: np.ndarray,
    hand: HandGeometry,
    expected_closing_points: float,
) -> np.ndarray:
    """:func:`score_candidate` for candidates sharing one rotation.
    ``local`` is the cloud rotated into their hand frame, one row per
    coordinate, ``shift`` each candidate's translation in that frame and
    ``aligned`` flags the normals inside the friction cone."""
    # one coordinate of every candidate's points at a time, in one buffer
    buf = np.empty((len(shift), local.shape[1]))
    inside = in_closing_region(
        (np.add(axis, s[:, None], out=buf) for axis, s in zip(local, shift.T)), hand
    )
    count = row_counts(inside)
    inside &= aligned
    antipodal = row_counts(inside)
    with np.errstate(invalid="ignore"):
        score = antipodal / count * (count / expected_closing_points)
    return np.where(count == 0, 0.0, score)


def generate_candidates(cloud: PointCloud, hand: HandGeometry, cfg: GraspConfig) -> CandidateSet:
    """Scored candidates for sampled seeds and swept closing directions.

    The cloud must be cropped, above-plane filtered and carry normals. Each
    candidate is pushed along its approach to the deepest collision-free
    depth; candidates whose closing region holds fewer than
    ``cfg.min_closing_points`` points are dropped. Survivors carry the score
    :func:`score_candidate` gives them.
    """
    if cloud.normals is None:
        raise ValidationError("scoring requires a cloud with normals")
    seeds = sample_seeds(cloud, cfg)
    seed_points = cloud.points[seeds]
    approach, frames = _hand_frames(cfg)
    cos_thresh = math.cos(math.radians(cfg.friction_half_angle_deg))

    # per orientation: the map into its hand frame, the cloud in that frame
    # (one row per coordinate) and the normals inside the friction cone about
    # the closing axis
    hand_frames = []
    for frame in frames:
        to_hand = frame.inverse()
        aligned = np.abs(to_hand.rotate(cloud.normals)[:, 1]) >= cos_thresh
        hand_frames.append((to_hand, to_hand.rotate(cloud.points).T.copy(), aligned))
    # every orientation shares the approach axis, so the first one's
    # approach coordinate is every one's
    pa = hand_frames[0][1][0]
    chunk = max(1, _CHUNK_ELEMENTS // len(cloud))
    parts = []
    for lo in range(0, len(seeds), chunk):
        part = slice(lo, lo + chunk)
        # each seed reads its own row of the rotated cloud
        u = pa - pa[seeds[part], None]
        for orient_index, (to_hand, local, aligned) in enumerate(hand_frames):
            gamma, eta = (axis - axis[seeds[part], None] for axis in local[1:])
            rows, origin, width, count = _push_and_catch(
                u, gamma, eta, seed_points[part], approach, hand, cfg
            )
            score = _score_rows(
                local, -to_hand.rotate(origin), aligned, hand, cfg.expected_closing_points
            )
            parts.append((lo + rows, np.full(len(rows), orient_index), origin, width, score, count))

    seed_index, orient, origin, width, score, count = (
        np.concatenate(column) for column in zip(*parts)
    )
    order = np.lexsort((orient, seed_index))
    return CandidateSet(
        rotations=np.stack([frame.rotation for frame in frames]),
        origin=origin[order],
        grasp_width=width[order],
        score=score[order],
        closing_point_count=count[order],
        seed_index=seed_index[order],
        orientation_index=orient[order],
    )


def in_closing_region(local, hand: HandGeometry) -> np.ndarray:
    """Boolean mask of hand-frame points inside the closing region; ``local``
    yields their x, y and z coordinates in turn (``points.T``). Each is read
    before the next is taken, so a generator may reuse one buffer."""
    coords = iter(local)
    x = next(coords)
    inside = x >= -_EPS
    inside &= x <= hand.finger_depth + _EPS
    inside &= np.abs(next(coords)) <= hand.max_aperture / 2.0 + _EPS
    inside &= np.abs(next(coords)) <= hand.hand_height / 2.0 + _EPS
    return inside


def closing_region_mask(
    points: np.ndarray, pose: RigidTransform, hand: HandGeometry
) -> np.ndarray:
    """Boolean mask of points inside the closing region of a grasp pose."""
    return in_closing_region(pose.inverse().apply(points).T, hand)


def score_candidate(
    cloud: PointCloud,
    grasp: GraspCandidate,
    hand: HandGeometry,
    friction_half_angle_deg: float = 30.0,
    expected_closing_points: float = 40.0,
) -> float:
    """Antipodal fraction times closing-region fill ratio, >= 0.

    A closing-region point supports the grasp when its normal lies within
    the friction half-angle of either closing direction.
    """
    if cloud.normals is None:
        raise ValidationError("scoring requires a cloud with normals")
    mask = closing_region_mask(cloud.points, grasp.pose, hand)
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0.0
    cos_thresh = math.cos(math.radians(friction_half_angle_deg))
    alignment = np.abs(grasp.pose.inverse().rotate(cloud.normals[mask])[:, 1])
    antipodal = float(np.count_nonzero(alignment >= cos_thresh)) / count
    return antipodal * (count / expected_closing_points)


def detect_grasps(
    cloud: PointCloud,
    hand: HandGeometry,
    cfg: GraspConfig,
    plane: Plane,
    workspace: Workspace | None = None,
    viewpoint=(0.0, 0.0, 0.0),
) -> list[GraspCandidate]:
    """Full pipeline: crop, above-plane filter, normals, generate and score,
    approach-filter, select. Returns [] when nothing survives the filters,
    an empty cloud included."""
    work = crop_workspace(cloud, workspace) if workspace is not None else cloud
    work = filter_above_plane(work, plane, cfg.plane_margin)
    if cfg.voxel_leaf > 0:
        work = voxel_downsample(work, cfg.voxel_leaf)
    if len(work) < max(cfg.normals_k, cfg.min_closing_points):
        return []
    work = estimate_normals(work, k=cfg.normals_k, viewpoint=viewpoint)
    return generate_candidates(work, hand, cfg).select(cfg)

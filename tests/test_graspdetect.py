"""Grasp candidate generation, scoring, filtering and selection.

Soundness is the load-bearing property: every returned grasp is re-checked
here by brute force (finger volumes point-free, enough closing points,
approach inside the cone, width within aperture) against independent
implementations of the box tests.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from rockstack import graspdetect
from rockstack.errors import EmptyCloudError
from rockstack.geometry import RigidTransform
from rockstack.graspdetect import (
    CandidateSet,
    GraspCandidate,
    GraspConfig,
    HandGeometry,
    closing_region_mask,
    detect_grasps,
    generate_candidates,
    sample_seeds,
    score_candidate,
)
from rockstack.pointcloud import Plane, PointCloud, estimate_normals, row_counts
from rockstack.shapes import Superellipsoid

from conftest import box_cloud
from grasp_oracle import (
    filter_by_approach,
    finger_volumes_mask,
    preprocess,
    reference_candidates,
    reference_detect,
    rock_scene_cloud,
    select_grasps,
)


def brute_force_sound(grasp: GraspCandidate, cloud: PointCloud, hand: HandGeometry, cfg: GraspConfig) -> bool:
    """Independent loop-based soundness oracle for one grasp."""
    rot = grasp.pose.rotation
    t = grasp.pose.translation
    half_ap = hand.max_aperture / 2.0
    closing = 0
    for p in cloud.points:
        local = rot.T @ (p - t)
        in_slab = 0 <= local[0] <= hand.finger_depth and abs(local[2]) <= hand.hand_height / 2
        if in_slab and half_ap < abs(local[1]) < half_ap + hand.finger_width - 1e-6:
            return False  # finger collision
        if in_slab and abs(local[1]) <= half_ap:
            closing += 1
    if closing < cfg.min_closing_points:
        return False
    if cfg.approach_filter:
        cos_angle = float(grasp.approach @ np.array([0.0, 0.0, -1.0]))
        if cos_angle < math.cos(math.radians(cfg.cone_half_angle_deg)) - 1e-9:
            return False
    return grasp.grasp_width <= hand.max_aperture + 1e-9


class TestSampleSeeds:
    def test_small_cloud_returns_everything(self):
        cloud = PointCloud(np.random.default_rng(0).uniform(0, 1, (50, 3)))
        cfg = GraspConfig(num_samples=100, seed=1)
        seeds = sample_seeds(cloud, cfg)
        assert sorted(seeds.tolist()) == list(range(50))

    def test_deterministic(self):
        cloud = PointCloud(np.random.default_rng(1).uniform(0, 1, (500, 3)))
        cfg = GraspConfig(num_samples=100, seed=7)
        np.testing.assert_array_equal(sample_seeds(cloud, cfg), sample_seeds(cloud, cfg))

    def test_prefix_stability(self):
        cloud = PointCloud(np.random.default_rng(2).uniform(0, 1, (1000, 3)))
        small = sample_seeds(cloud, GraspConfig(num_samples=40, seed=3))
        large = sample_seeds(cloud, GraspConfig(num_samples=200, seed=3))
        np.testing.assert_array_equal(large[:40], small)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloudError):
            sample_seeds(PointCloud(np.zeros((0, 3))), GraspConfig())

    def test_uniformity_chi_square(self):
        # aggregate over 100 seeds: counts per index-decile should be uniform
        n = 10_000
        cloud = PointCloud(np.random.default_rng(3).uniform(0, 1, (n, 3)))
        counts = np.zeros(10)
        for seed in range(100):
            idx = sample_seeds(cloud, GraspConfig(num_samples=100, seed=seed))
            counts += np.histogram(idx, bins=10, range=(0, n))[0]
        _, p = chisquare(counts)
        assert p > 0.01


def _with_normals(cloud: PointCloud, viewpoint=(0.0, 0.0, 400.0)) -> PointCloud:
    return estimate_normals(cloud, k=10, viewpoint=viewpoint)


def _dome_cloud() -> PointCloud:
    """Smooth dome wider than the aperture: every cap chord at the minimum
    insertion depth already exceeds it, so nothing is pinchable anywhere."""
    shape = Superellipsoid(ax=95.0, ay=95.0, az=40.0, e1=1.0, e2=1.0)
    pts = shape.surface_points(72, 144)  # ~3 mm pitch, sensor-like density
    pts = pts[pts[:, 2] > 0.0] + np.array([0.0, 0.0, 40.0])
    return _with_normals(PointCloud(pts))


class TestGenerateCandidates:
    def test_graspable_box_width(self):
        cloud = _with_normals(box_cloud(width=40.0))
        hand = HandGeometry()
        cfg = GraspConfig(seed=0)
        cands = generate_candidates(cloud, hand, cfg)
        assert cands
        # candidates whose closing axis crosses the 40 mm dimension
        across = [
            g for g in cands if abs(g.closing_axis[0]) > 0.95 and g.closing_point_count > 40
        ]
        assert across
        widths = [g.grasp_width for g in across]
        assert min(widths) >= 40.0
        assert max(widths) <= 48.0

    def test_object_wider_than_aperture_yields_nothing(self):
        cands = generate_candidates(_dome_cloud(), HandGeometry(), GraspConfig(seed=0))
        assert len(cands) == 0

    def test_wide_box_only_narrow_pinches_survive(self):
        # a 90 mm box still admits diagonal corner pinches, but every survivor
        # must leave the fingers room to close
        cloud = _with_normals(box_cloud(width=90.0, depth=90.0))
        hand = HandGeometry()
        cfg = GraspConfig(seed=0)
        for g in generate_candidates(cloud, hand, cfg):
            assert g.grasp_width <= hand.max_aperture
            caught = closing_region_mask(cloud.points, g.pose, hand)
            gamma = (cloud.points[caught] - g.pose.translation) @ g.closing_axis
            assert gamma.max() - gamma.min() + cfg.width_clearance <= hand.max_aperture + 1e-9

    def test_single_point_cannot_reach_min_closing(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]))
        cands = generate_candidates(cloud, HandGeometry(), GraspConfig(seed=0, num_samples=1))
        assert len(cands) == 0

    def test_candidates_collision_free_by_construction(self):
        cloud = _with_normals(box_cloud(width=40.0, depth=55.0, height=35.0))
        hand = HandGeometry()
        cands = generate_candidates(cloud, hand, GraspConfig(seed=1))
        for g in cands:
            assert not np.any(finger_volumes_mask(cloud.points, g.pose, hand))
            caught = closing_region_mask(cloud.points, g.pose, hand)
            assert int(np.count_nonzero(caught)) == g.closing_point_count

    def test_pose_orthonormal_and_axes_consistent(self):
        cloud = _with_normals(box_cloud())
        for g in generate_candidates(cloud, HandGeometry(), GraspConfig(seed=2)):
            r = g.pose.rotation
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.cross(g.approach, g.closing_axis), g.hand_axis, atol=1e-12)


class TestScoreCandidate:
    @staticmethod
    def _grasp_at(origin, hand_angle=0.0) -> GraspCandidate:
        approach = np.array([0.0, 0.0, -1.0])
        closing = np.array([math.cos(hand_angle), math.sin(hand_angle), 0.0])
        pose = RigidTransform(
            np.column_stack([approach, closing, np.cross(approach, closing)]), origin
        )
        return GraspCandidate(pose=pose, grasp_width=40.0, score=0.0, closing_point_count=0)

    def test_opposing_patches_fraction_one(self):
        ys, zs = np.meshgrid(np.arange(-10, 11, 2.0), np.arange(-10, 11, 2.0))
        left = np.column_stack([np.full(ys.size, -15.0), ys.ravel(), zs.ravel()])
        right = np.column_stack([np.full(ys.size, 15.0), ys.ravel(), zs.ravel()])
        pts = np.concatenate([left, right])
        normals = np.concatenate(
            [np.tile([-1.0, 0, 0], (ys.size, 1)), np.tile([1.0, 0, 0], (ys.size, 1))]
        )
        cloud = PointCloud(pts, normals)
        g = self._grasp_at(np.array([0.0, 0.0, 25.0]))  # closing along x
        count = int(np.count_nonzero(closing_region_mask(pts, g.pose, HandGeometry())))
        score = score_candidate(cloud, g, HandGeometry(), 45.0, expected_closing_points=40.0)
        assert score == pytest.approx(1.0 * count / 40.0)

    def test_orthogonal_normals_score_zero(self):
        ys, zs = np.meshgrid(np.arange(-10, 11, 2.0), np.arange(-10, 11, 2.0))
        pts = np.column_stack([np.zeros(ys.size), ys.ravel(), zs.ravel()])
        normals = np.tile([0.0, 0.0, 1.0], (ys.size, 1))
        cloud = PointCloud(pts, normals)
        g = self._grasp_at(np.array([0.0, 0.0, 25.0]))
        assert score_candidate(cloud, g, HandGeometry(), 45.0) == 0.0

    def test_hemisphere_matches_per_point_cone_oracle(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(800, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = dirs[dirs[:, 2] > 0]  # upper hemisphere
        pts = dirs * 25.0
        cloud = PointCloud(pts, dirs)  # radial normals
        hand = HandGeometry()
        g = self._grasp_at(np.array([0.0, 0.0, 20.0]))
        fha = 30.0
        score = score_candidate(cloud, g, hand, fha, expected_closing_points=40.0)
        caught = closing_region_mask(pts, g.pose, hand)
        qualified = 0
        for n in dirs[caught]:
            angle_pos = math.degrees(math.acos(np.clip(n @ g.closing_axis, -1, 1)))
            angle_neg = math.degrees(math.acos(np.clip(-n @ g.closing_axis, -1, 1)))
            if min(angle_pos, angle_neg) <= fha:
                qualified += 1
        count = int(np.count_nonzero(caught))
        expected = (qualified / count) * (count / 40.0)
        assert score == pytest.approx(expected)


def _candidate_set(scores, seed_index, orientation_index, approach=(0.0, 0.0, -1.0)) -> CandidateSet:
    """Candidates at the origin; every orientation shares ``approach``."""
    a = np.asarray(approach, dtype=float)
    a /= np.linalg.norm(a)
    ref = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    c = np.cross(a, ref)
    c /= np.linalg.norm(c)
    rotation = RigidTransform(np.column_stack([a, c, np.cross(a, c)]), np.zeros(3)).rotation
    n = len(scores)
    return CandidateSet(
        rotations=np.repeat(rotation[None], max(orientation_index) + 1, axis=0),
        origin=np.zeros((n, 3)),
        grasp_width=np.full(n, 10.0),
        score=np.asarray(scores, dtype=float),
        closing_point_count=np.full(n, 20),
        seed_index=np.asarray(seed_index),
        orientation_index=np.asarray(orientation_index),
    )


def _keys(grasps) -> list[tuple]:
    return [(g.score, g.seed_index, g.orientation_index) for g in grasps]


class TestFilters:
    def test_straight_down_retained(self):
        assert len(_candidate_set([1.0], [0], [0]).select(GraspConfig())) == 1

    def test_straight_up_removed(self):
        up = _candidate_set([1.0], [0], [0], approach=(0.0, 0.0, 1.0))
        assert up.select(GraspConfig(cone_half_angle_deg=45.0)) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        cfg = GraspConfig(cone_half_angle_deg=30.0)
        for _ in range(200):
            cands = _candidate_set([1.0], [0], [0], approach=rng.normal(size=3))
            (g,) = list(cands)
            angle = math.degrees(math.acos(np.clip(g.approach @ [0, 0, -1], -1, 1)))
            assert len(cands.select(cfg)) == int(angle <= 30.0 + 1e-9)
            assert _keys(cands.select(cfg)) == _keys(filter_by_approach([g], cfg))

    def test_disabled_filter_passes_all(self):
        up = _candidate_set([1.0], [0], [0], approach=(0.0, 0.0, 1.0))
        assert len(up.select(GraspConfig(approach_filter=False))) == 1


class TestSelection:
    def test_fewer_than_limit_all_returned_sorted(self):
        cands = _candidate_set([0.2, 0.9, 0.5, 0.1, 0.7], range(5), [0] * 5)
        out = cands.select(GraspConfig(num_selected=20))
        assert [g.score for g in out] == [0.9, 0.7, 0.5, 0.2, 0.1]

    def test_tie_break_deterministic(self):
        cands = _candidate_set([0.5, 0.5, 0.5], [2, 1, 1], [1, 3, 0])
        out = cands.select(GraspConfig(num_selected=2))
        assert [(g.seed_index, g.orientation_index) for g in out] == [(1, 0), (1, 3)]

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(7)
        cands = _candidate_set(
            rng.random(200), rng.integers(0, 50, 200), rng.integers(0, 5, 200)
        )
        cfg = GraspConfig(num_selected=20)
        out = cands.select(cfg)
        brute = sorted(_keys(cands), key=lambda k: (-k[0], k[1], k[2]))[:20]
        assert _keys(out) == brute
        assert _keys(out) == _keys(select_grasps(filter_by_approach(list(cands), cfg), cfg))
        assert len(out) == 20


class TestDetectGrasps:
    def test_bare_plane_yields_empty(self):
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(-150, 150, (2000, 2)), rng.normal(0, 0.5, 2000)])
        cloud = PointCloud(pts)
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        out = detect_grasps(cloud, HandGeometry(), GraspConfig(seed=0), plane)
        assert out == []

    def test_box_on_plane_grasped(self):
        cloud = box_cloud(width=40.0, with_floor=True)
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        out = detect_grasps(
            cloud, HandGeometry(), GraspConfig(seed=0), plane, viewpoint=(0, 0, 400)
        )
        assert out
        assert len(out) <= 20
        best = out[0]
        assert float(best.approach @ [0, 0, -1]) > math.cos(math.radians(45.0))
        across = [g for g in out if abs(g.closing_axis[0]) > 0.95]
        assert across and min(g.grasp_width for g in across) >= 40.0

    def test_deterministic_repeat(self):
        cloud = box_cloud(width=36.0, with_floor=True)
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        cfg = GraspConfig(seed=9)
        a = detect_grasps(cloud, HandGeometry(), cfg, plane, viewpoint=(0, 0, 400))
        b = detect_grasps(cloud, HandGeometry(), cfg, plane, viewpoint=(0, 0, 400))
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert ga.score == gb.score
            np.testing.assert_array_equal(ga.pose.translation, gb.pose.translation)

    def test_empty_cloud_finds_none(self):
        empty = PointCloud(np.zeros((0, 3)))
        assert detect_grasps(empty, HandGeometry(), GraspConfig(), Plane((0, 0, 1.0), 0.0)) == []

    def test_scores_non_increasing_and_sound(self):
        cloud = box_cloud(width=44.0, depth=52.0, with_floor=True)
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        hand = HandGeometry()
        cfg = GraspConfig(seed=10)
        out = detect_grasps(cloud, hand, cfg, plane, viewpoint=(0, 0, 400))
        assert out
        scores = [g.score for g in out]
        assert scores == sorted(scores, reverse=True)
        above = PointCloud(cloud.points[cloud.points[:, 2] > cfg.plane_margin])
        for g in out:
            assert brute_force_sound(g, above, hand, cfg)

    def test_translation_equivariance(self):
        cloud = box_cloud(width=40.0, with_floor=True)
        shift = np.array([128.0, -64.0, 32.0])  # exactly representable
        moved = PointCloud(cloud.points + shift)
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        plane_moved = Plane((0.0, 0.0, 1.0), float(shift[2]))
        cfg = GraspConfig(seed=11)
        hand = HandGeometry()
        a = detect_grasps(cloud, hand, cfg, plane, viewpoint=(0, 0, 400))
        b = detect_grasps(
            moved, hand, cfg, plane_moved, viewpoint=(shift[0], shift[1], 400 + shift[2])
        )
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            np.testing.assert_allclose(gb.pose.translation, ga.pose.translation + shift, atol=1e-6)
            np.testing.assert_allclose(gb.pose.rotation, ga.pose.rotation, atol=1e-12)

    def test_monotonic_sample_growth_keeps_top_candidates(self):
        cloud = box_cloud(width=40.0, depth=60.0, with_floor=True)
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        hand = HandGeometry()
        small = detect_grasps(
            cloud, hand, GraspConfig(seed=12, num_samples=50), plane, viewpoint=(0, 0, 400)
        )
        large = detect_grasps(
            cloud, hand, GraspConfig(seed=12, num_samples=150), plane, viewpoint=(0, 0, 400)
        )
        if large:
            cutoff = min(g.score for g in large)
            large_keys = {
                (tuple(np.round(g.pose.translation, 9)), g.orientation_index) for g in large
            }
            for g in small:
                if g.score > cutoff:
                    key = (tuple(np.round(g.pose.translation, 9)), g.orientation_index)
                    assert key in large_keys


class TestSerialization:
    def test_config_round_trip(self):
        cfg = GraspConfig(num_samples=64, cone_half_angle_deg=30.0, seed=5)
        back = GraspConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    def test_hand_round_trip(self):
        hand = HandGeometry(finger_width=10.0, max_aperture=70.0)
        assert HandGeometry.from_json_dict(hand.to_json_dict()) == hand


def _grasps_json(grasps) -> list[str]:
    # one string per grasp, so a failure names the first grasp that differs
    return [json.dumps(g.to_json_dict(), sort_keys=True) for g in grasps]


ORACLE_SEEDS = range(40)
ORACLE_VARIANTS = {
    "default": {},
    "cone_90": {"cone_half_angle_deg": 90.0},
    "voxel_2": {"voxel_leaf": 2.0},
    "orientations_8_samples_150": {"num_orientations": 8, "num_samples": 150},
    "tilted_hand_axis": {"hand_axis": (0.2, 0.0, 1.0)},
    "no_approach_filter": {"approach_filter": False, "hand_axis": (0.0, 0.6, 0.8)},
}


@pytest.fixture(scope="module")
def scene_clouds() -> list:
    """Criterion 3's observation clouds, rendered once for the module."""
    return [rock_scene_cloud(seed) for seed in ORACLE_SEEDS]


class TestOracleAgreement:
    """The batched detector gives the bytes of the one-at-a-time reference."""

    hand = HandGeometry()

    @pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
    def test_rock_scenes(self, scene_clouds, variant):
        returned = 0
        for seed in ORACLE_SEEDS:
            cloud, plane, ws, viewpoint = scene_clouds[seed]
            cfg = GraspConfig(seed=seed, **ORACLE_VARIANTS[variant])
            got = detect_grasps(cloud, self.hand, cfg, plane, ws, viewpoint)
            expected = reference_detect(cloud, self.hand, cfg, plane, ws, viewpoint)
            assert _grasps_json(got) == _grasps_json(expected), f"scene seed {seed}"
            returned += len(got)
        assert returned > 0

    @pytest.mark.parametrize("chunk_elements", [graspdetect._CHUNK_ELEMENTS, 1000])
    def test_every_candidate(self, scene_clouds, monkeypatch, chunk_elements):
        # 1000 elements holds one to four seeds, so a cloud takes many chunks
        monkeypatch.setattr(graspdetect, "_CHUNK_ELEMENTS", chunk_elements)
        for seed in range(10):
            cloud, plane, ws, viewpoint = scene_clouds[seed]
            cfg = GraspConfig(seed=seed)
            work = preprocess(cloud, cfg, plane, ws, viewpoint)
            got = generate_candidates(work, self.hand, cfg)
            expected = reference_candidates(work, self.hand, cfg)
            assert len(got) == len(expected) > 0
            assert _grasps_json(got) == _grasps_json(expected), f"scene seed {seed}"

    @pytest.mark.parametrize("size", [(40.0, 60.0, 30.0), (90.0, 90.0, 30.0), (40.0, 55.0, 35.0)])
    def test_lattice_boxes(self, size):
        # 2 mm lattices with a 2 mm push step put points exactly on push
        # depths, where the epsilon conventions of the push and catch decide
        cloud = _with_normals(box_cloud(*size))
        for seed in range(3):
            cfg = GraspConfig(seed=seed)
            got = generate_candidates(cloud, self.hand, cfg)
            expected = reference_candidates(cloud, self.hand, cfg)
            assert _grasps_json(got) == _grasps_json(expected), f"seed {seed}"

    def test_uncropped_two_view_cloud_spans_seed_chunks(self, scene_clouds):
        # no workspace, and a plane 50 mm below the fitted floor keeps the
        # floor too: the whole cloud reaches the batched pass
        cloud, fitted, _, viewpoint = scene_clouds[0]
        plane = Plane(fitted.normal, fitted.offset - 50.0)
        cfg = GraspConfig(seed=0)
        work = preprocess(cloud, cfg, plane, None, viewpoint)
        assert len(work) == len(cloud) > 30_000
        assert len(work) * cfg.num_samples > 10 * graspdetect._CHUNK_ELEMENTS
        got = detect_grasps(cloud, self.hand, cfg, plane, None, viewpoint)
        assert got
        assert _grasps_json(got) == _grasps_json(
            reference_detect(cloud, self.hand, cfg, plane, None, viewpoint)
        )

    @pytest.mark.parametrize("min_closing_points", [1, 10])
    def test_single_point(self, min_closing_points):
        # with one closing point allowed, every orientation yields a candidate
        # whose closing region holds that single point
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]))
        cfg = GraspConfig(seed=0, num_samples=1, min_closing_points=min_closing_points)
        got = generate_candidates(cloud, self.hand, cfg)
        expected = reference_candidates(cloud, self.hand, cfg)
        assert len(got) == len(expected) == (cfg.num_orientations if min_closing_points == 1 else 0)
        assert _grasps_json(got) == _grasps_json(expected)
        plane = Plane((0.0, 0.0, 1.0), -10.0)
        assert detect_grasps(cloud, self.hand, cfg, plane) == []
        assert reference_detect(cloud, self.hand, cfg, plane) == []

    def test_dome_wider_than_aperture(self):
        cloud = _dome_cloud()
        cfg = GraspConfig(seed=0)
        assert len(generate_candidates(cloud, self.hand, cfg)) == 0
        assert reference_candidates(cloud, self.hand, cfg) == []
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        viewpoint = (0.0, 0.0, 400.0)
        assert detect_grasps(cloud, self.hand, cfg, plane, viewpoint=viewpoint) == []
        assert reference_detect(cloud, self.hand, cfg, plane, viewpoint=viewpoint) == []


def _edge_block(rng, shape, bounds) -> np.ndarray:
    """Random values around ``bounds``; about a third of them are +-0, a
    bound, its negation or a neighbouring float of either."""
    specials = [0.0, -0.0]
    for b in bounds:
        for v in (b, -b):
            specials += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    top = 2.0 * max(bounds)
    block = rng.uniform(-top, top, shape)
    pick = rng.random(shape) < 0.35
    block[pick] = rng.choice(specials, int(pick.sum()))
    return block


def _edge_mask(rng, shape) -> np.ndarray:
    """Random row masks of random density; row 0 is empty and row 1 full."""
    mask = rng.random(shape) < rng.random((shape[0], 1))
    mask[0] = False
    mask[1] = True
    return mask


class TestExactRewrites:
    """The batched pass's reductions are exact rewrites of the plain forms,
    on random blocks with empty rows, signed zeros and values on bounds."""

    SHAPES = [(2, 1), (3, 7), (30, 540), (20, 792), (5, 1001)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_masked_min_max(self, shape):
        rng = np.random.default_rng(shape[1])
        for _ in range(40):
            a = _edge_block(rng, shape, (1.0, 40.0))
            mask = _edge_mask(rng, shape)
            for got, want, empty in (
                (graspdetect._masked_min(a, mask), a.min(axis=1, initial=np.inf, where=mask), np.inf),
                (graspdetect._masked_max(a, mask), a.max(axis=1, initial=-np.inf, where=mask), -np.inf),
            ):
                # bit for bit, up to the sign of a zero result (adding +0
                # maps -0 to +0 and keeps every other value)
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
                assert got[0] == empty and np.all(got[1:] == want[1:])

    @pytest.mark.parametrize("shape", SHAPES + [(1, 8), (4, 16), (0, 9)])
    def test_row_counts(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            mask = _edge_mask(rng, shape) if shape[0] >= 2 else rng.random(shape) < 0.5
            got = row_counts(mask)
            assert got.dtype == np.intp
            assert np.array_equal(got, np.count_nonzero(mask, axis=1))

    @pytest.mark.parametrize(
        "hand", [HandGeometry(), HandGeometry(finger_width=0.1, max_aperture=0.3, hand_height=0.7)]
    )
    def test_finger_band_is_corridor_xor_closing(self, hand):
        rng = np.random.default_rng(7)
        half_ap = hand.max_aperture / 2.0
        corridor_half = half_ap + hand.finger_width
        half_h = hand.hand_height / 2.0
        for _ in range(40):
            gamma = _edge_block(rng, (30, 540), (half_ap, corridor_half))
            eta = _edge_block(rng, (30, 540), (half_h,))
            closing, finger = graspdetect._bands(gamma, eta, hand)
            in_band = np.abs(eta) <= half_h
            abs_gamma = np.abs(gamma)
            assert np.array_equal(closing, in_band & (abs_gamma <= half_ap))
            assert np.array_equal(
                finger, in_band & (abs_gamma > half_ap) & (abs_gamma <= corridor_half)
            )

    @pytest.mark.parametrize("fd", [50.0, 0.1, 3.0e-7])
    def test_min_palm_minus_finger_depth(self, fd):
        # 1e17 and 1e-17 around fd make the subtraction round
        rng = np.random.default_rng(int(fd * 10))
        for _ in range(40):
            palm = _edge_block(rng, (30, 540), (fd, 1e17, 1e-17))
            caught = _edge_mask(rng, palm.shape)
            got = graspdetect._masked_min(palm, caught) - fd
            want = (palm - fd).min(axis=1, initial=np.inf, where=caught)
            assert got.tobytes() == want.tobytes()


class TestHandFrameCache:
    AXES = [(0.0, 0.0, 1.0), (0.2, 0.0, 1.0), (0.0, 0.6, 0.8)]

    @pytest.mark.parametrize("orientations", [1, 5, 8])
    @pytest.mark.parametrize("axis", AXES)
    def test_cached_frames_equal_a_fresh_build(self, axis, orientations):
        cfg = GraspConfig(hand_axis=axis, num_orientations=orientations)
        cached = graspdetect._hand_frames(cfg)
        assert graspdetect._hand_frames(cfg) is cached
        approach, frames = cached
        fresh_approach, axes = graspdetect._closing_frame_axes(cfg.hand_axis, orientations)
        assert approach.tobytes() == fresh_approach.tobytes()
        assert len(frames) == orientations
        for frame, (c, h) in zip(frames, axes):
            fresh = RigidTransform(np.column_stack([fresh_approach, c, h]), np.zeros(3))
            assert frame.rotation.tobytes() == fresh.rotation.tobytes()
            assert frame.translation.tobytes() == fresh.translation.tobytes()
        for array in (approach, frames[-1].rotation, frames[-1].translation):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_configs_share_an_entry_by_axis_and_orientations(self):
        shared = graspdetect._hand_frames(GraspConfig(seed=1))
        assert graspdetect._hand_frames(GraspConfig(seed=2, num_samples=7)) is shared
        assert graspdetect._hand_frames(GraspConfig(hand_axis=(0.2, 0.0, 1.0))) is not shared
        assert graspdetect._hand_frames(GraspConfig(num_orientations=4)) is not shared

    def test_signed_zero_axis_has_its_own_entry(self):
        # -0.0 == 0.0, but the approach -h_cfg differs in the sign of a zero
        plus = graspdetect._hand_frames(GraspConfig(hand_axis=(0.0, 0.0, 1.0)))
        minus = graspdetect._hand_frames(GraspConfig(hand_axis=(-0.0, 0.0, 1.0)))
        fresh, _ = graspdetect._closing_frame_axes((-0.0, 0.0, 1.0), 5)
        assert minus[0].tobytes() == fresh.tobytes() != plus[0].tobytes()

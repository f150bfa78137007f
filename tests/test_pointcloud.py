"""Cloud construction, preprocessing and plane fitting.

Derived values come from independent oracles computed in the tests: brute
force membership filters, distinct-voxel counting, analytic sphere normals,
and noise generators that know the ground-truth plane.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from rockstack.errors import (
    DegenerateInputError,
    EmptyCloudError,
    TooFewPointsError,
    ValidationError,
)
from rockstack import pointcloud
from rockstack.geometry import CameraIntrinsics, RigidTransform, camera_pose_from_lookat
from rockstack.pointcloud import (
    Plane,
    PointCloud,
    Workspace,
    _ransac_triples,
    cloud_from_depth,
    cloud_from_pixels,
    crop_workspace,
    estimate_normals,
    filter_above_plane,
    fit_plane_ransac,
    fit_plane_sample,
    load_cloud_xyz,
    ransac_sample,
    voxel_downsample,
)

import ransac_oracle
from conftest import write_cloud_xyz


class TestCloudFromDepth:
    def test_constant_depth_plane(self, intr):
        depth = np.full((4, 4), 500, dtype=np.uint16)
        small = CameraIntrinsics(fx=600, fy=600, cx=2, cy=2, width=4, height=4)
        cloud = cloud_from_depth(depth, small, RigidTransform.identity(), stride=1)
        assert len(cloud) == 16
        np.testing.assert_allclose(cloud.points[:, 2], 500.0)

    def test_all_zero_depth_raises(self, intr):
        with pytest.raises(EmptyCloudError):
            cloud_from_depth(np.zeros((8, 8), dtype=np.uint16), intr, RigidTransform.identity())

    def test_point_count_matches_valid_strided_pixels(self, intr):
        rng = np.random.default_rng(0)
        depth = rng.integers(0, 800, size=(480, 640)).astype(np.uint16)
        for stride in (1, 2, 3, 5):
            cloud = cloud_from_depth(depth, intr, RigidTransform.identity(), stride=stride)
            expected = int(np.count_nonzero(depth[::stride, ::stride]))
            assert len(cloud) == expected

    def test_row_major_order(self, intr):
        depth = np.zeros((480, 640), dtype=np.uint16)
        depth[0, 10] = 100
        depth[0, 20] = 100
        depth[100, 5] = 100
        cloud = cloud_from_depth(depth, intr, RigidTransform.identity())
        # row-major: (v=0,u=10), (v=0,u=20), (v=100,u=5)
        assert cloud.points[0, 0] < cloud.points[1, 0]
        assert cloud.points[2, 1] > cloud.points[0, 1]

    def test_tilted_plane_recovered_within_quantization(self, intr):
        # render a 45-degree plane analytically: depth quantized to 1 mm
        plane_n = np.array([0.0, -math.sin(math.pi / 4), math.cos(math.pi / 4)])
        plane_d = 283.0  # n . p = d in camera frame; plane crosses the axis at z=400
        us, vs = np.meshgrid(np.arange(0, 640, 8), np.arange(0, 480, 8))
        dirs = np.stack(
            [(us - intr.cx) / intr.fx, (vs - intr.cy) / intr.fy, np.ones_like(us, dtype=float)],
            axis=-1,
        )
        denom = dirs @ plane_n
        s = plane_d / denom
        depth = np.zeros((480, 640), dtype=np.uint16)
        good = s > 0
        depth[vs[good], us[good]] = np.rint(s[good]).astype(np.uint16)
        cloud = cloud_from_depth(depth, intr, RigidTransform.identity(), stride=8)
        resid = np.abs(cloud.points @ plane_n - plane_d)
        assert np.max(resid) < 1.0  # depth quantization bound

    def test_pixel_subsets_match_the_whole_cloud(self):
        # a rotation without zero entries, applied to one point or many
        small = CameraIntrinsics(fx=130.0, fy=130.0, cx=80.0, cy=60.0, width=160, height=120)
        pose = camera_pose_from_lookat((-140.0, 380.0, 330.0), (-20.0, 500.0, 0.0))
        rng = np.random.default_rng(4)
        depth = rng.integers(250, 450, size=(120, 160)).astype(np.uint16)
        depth[rng.random(depth.shape) < 0.2] = 0
        whole = cloud_from_depth(depth, small, pose)
        valid = np.flatnonzero(depth > 0)
        for rows in [[k] for k in range(0, valid.size, 97)] + [valid[[3, 1]], rng.permutation(valid.size)[:500], []]:
            rows = np.asarray(rows, dtype=np.intp)
            got = cloud_from_pixels(depth, small, pose, valid[rows])
            np.testing.assert_array_equal(got.points.view(np.int64), whole.points[rows].view(np.int64))

    def test_stride_validation(self, intr):
        with pytest.raises(ValidationError):
            cloud_from_depth(np.ones((4, 4), dtype=np.uint16), intr, RigidTransform.identity(), 0)


class TestCropWorkspace:
    def test_all_inside_is_identity(self):
        pts = np.random.default_rng(1).uniform(-10, 10, (100, 3))
        cloud = PointCloud(pts)
        ws = Workspace((-20, -20, -20), (20, 20, 20))
        np.testing.assert_array_equal(crop_workspace(cloud, ws).points, pts)

    def test_disjoint_box_empties(self):
        cloud = PointCloud(np.random.default_rng(2).uniform(0, 1, (50, 3)))
        ws = Workspace((100, 100, 100), (200, 200, 200))
        assert len(crop_workspace(cloud, ws)) == 0

    def test_matches_brute_force_on_half_split(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-500, 500, (1000, 3))
        cloud = PointCloud(pts)
        ws = Workspace((-500, -500, -500), (0, 500, 500))
        got = crop_workspace(cloud, ws)
        brute = [
            p
            for p in pts
            if -500 <= p[0] <= 0 and -500 <= p[1] <= 500 and -500 <= p[2] <= 500
        ]
        assert len(got) == len(brute)
        np.testing.assert_allclose(got.points, np.array(brute))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.uniform(-100, 100, (200, 3)))
        ws = Workspace((-50, -50, -50), (50, 50, 50))
        once = crop_workspace(cloud, ws)
        twice = crop_workspace(once, ws)
        np.testing.assert_array_equal(once.points, twice.points)

    def test_contains_matches_the_whole_array_test(self):
        # points on, just inside and just outside each face, NaN rows, and
        # a single point: the per-column test equals np.all over (n, 3)
        lo, hi = np.array([-30.0, 5.0, -60.0]), np.array([40.0, 25.5, 400.0])
        ws = Workspace(lo, hi)
        center = (lo + hi) / 2
        pts = [center]
        for axis in range(3):
            for face in (lo[axis], hi[axis]):
                for offset in (0.0, -1e-9, 1e-9, -3.0, 3.0):
                    p = center.copy()
                    p[axis] = face + offset
                    pts.append(p)
        nan_rows = np.tile(center, (7, 1))
        nan_rows[[0, 1, 2, 3, 4, 5], [0, 1, 2, 0, 1, 2]] = np.nan
        nan_rows[6] = np.nan
        rng = np.random.default_rng(5)
        pts = np.vstack([pts, nan_rows, rng.uniform(-100, 450, (500, 3))])
        expected = np.all((pts >= lo) & (pts <= hi), axis=-1)
        got = ws.contains(pts)
        assert got.dtype == bool and got.shape == (len(pts),)
        np.testing.assert_array_equal(got, expected)
        assert not ws.contains(nan_rows).any()
        assert 0 < expected.sum() < len(pts)
        for p in pts[:40]:
            assert ws.contains(p) == np.all((p >= lo) & (p <= hi))

    def test_normals_follow_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        cloud = PointCloud(pts, normals)
        ws = Workspace((50, -1, -1), (150, 1, 1))
        out = crop_workspace(cloud, ws)
        np.testing.assert_array_equal(out.normals, normals[1:])

    def test_workspace_validation(self):
        with pytest.raises(ValidationError):
            Workspace((0, 0, 0), (0, 1, 1))


class TestVoxelDownsample:
    def test_duplicates_collapse(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
        assert len(voxel_downsample(cloud, 5.0)) == 1

    def test_distant_points_retained(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]))
        assert len(voxel_downsample(cloud, 10.0)) == 2

    def test_count_equals_distinct_voxels(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 100, (3000, 3))
        leaf = 10.0
        out = voxel_downsample(PointCloud(pts), leaf)
        distinct = {tuple(k) for k in np.floor(pts / leaf).astype(int)}
        assert len(out) == len(distinct)

    def test_centroids_stay_inside_their_voxel(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-50, 50, (500, 3))
        leaf = 7.0
        out = voxel_downsample(PointCloud(pts), leaf)
        assert len(out) <= len(pts)
        keys_in = {tuple(k) for k in np.floor(pts / leaf).astype(int)}
        keys_out = [tuple(k) for k in np.floor(out.points / leaf).astype(int)]
        assert set(keys_out) <= keys_in
        assert len(keys_out) == len(set(keys_out))

    def test_order_is_input_independent(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 40, (200, 3))
        a = voxel_downsample(PointCloud(pts), 5.0)
        b = voxel_downsample(PointCloud(pts[::-1]), 5.0)
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)

    def test_leaf_validation(self):
        with pytest.raises(ValidationError):
            voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)


class TestEstimateNormals:
    def test_planar_patch_normal_vertical(self):
        xs, ys = np.meshgrid(np.arange(10, dtype=float), np.arange(10, dtype=float))
        pts = np.column_stack([xs.ravel() * 5, ys.ravel() * 5, np.zeros(100)])
        cloud = estimate_normals(PointCloud(pts), k=8, viewpoint=(25.0, 25.0, 100.0))
        interior = (pts[:, 0] > 5) & (pts[:, 0] < 40) & (pts[:, 1] > 5) & (pts[:, 1] < 40)
        angles = np.degrees(np.arccos(np.clip(np.abs(cloud.normals[interior, 2]), -1, 1)))
        assert np.max(angles) < 1.0
        # oriented toward the sensor above
        assert np.all(cloud.normals[interior, 2] > 0)

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(8)
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radius = 100.0
        pts = dirs * radius
        cloud = estimate_normals(PointCloud(pts), k=12, viewpoint=(0.0, 0.0, 0.0))
        # viewpoint at the center orients normals inward = -radial
        cosines = np.sum(cloud.normals * -dirs, axis=1)
        angles = np.degrees(np.arccos(np.clip(cosines, -1, 1)))
        assert np.percentile(angles, 99) < 5.0

    def test_unit_length_and_orientation_invariants(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-100, 100, (300, 3))
        viewpoint = np.array([0.0, 0.0, 500.0])
        cloud = estimate_normals(PointCloud(pts), k=10, viewpoint=viewpoint)
        np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-6)
        dots = np.sum(cloud.normals * (viewpoint - pts), axis=1)
        assert np.all(dots >= -1e-9)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            estimate_normals(PointCloud(np.zeros((2, 3))), k=3)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            estimate_normals(PointCloud(np.zeros((10, 3))), k=2)


class TestRansacPlane:
    def test_exact_plane_all_inliers(self):
        rng = np.random.default_rng(10)
        pts = np.column_stack([rng.uniform(-200, 200, (300, 2)), np.zeros(300)])
        for seed in (0, 1, 99):
            plane, inliers = fit_plane_ransac(PointCloud(pts), seed=seed)
            np.testing.assert_allclose(np.abs(plane.normal[2]), 1.0, atol=1e-9)
            assert abs(plane.offset) < 1e-9
            assert len(inliers) == 300

    def test_noisy_plane_with_outliers_recovered(self):
        rng = np.random.default_rng(11)
        inl = np.column_stack(
            [rng.uniform(-250, 250, (1000, 2)), rng.normal(0, 1.0, 1000)]
        )
        out = rng.uniform(-250, 250, (300, 3))
        out[:, 2] = rng.uniform(-250, 250, 300)
        cloud = PointCloud(np.concatenate([inl, out]))
        plane, inliers = fit_plane_ransac(cloud, iters=200, tol=5.0, seed=3)
        angle = math.degrees(math.acos(min(1.0, abs(plane.normal[2]))))
        assert angle < 1.0
        assert abs(plane.offset) < 1.0
        true_inlier_found = np.intersect1d(inliers, np.arange(1000)).size
        assert true_inlier_found >= 950

    def test_collinear_points_degenerate(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        with pytest.raises(DegenerateInputError):
            fit_plane_ransac(PointCloud(pts), seed=0)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_plane_ransac(PointCloud(np.zeros((2, 3))), seed=0)

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-100, 100, (500, 3))
        pts[:400, 2] = rng.normal(0, 2, 400)
        cloud = PointCloud(pts)
        p1, i1 = fit_plane_ransac(cloud, seed=42)
        p2, i2 = fit_plane_ransac(cloud, seed=42)
        assert p1.offset == p2.offset
        np.testing.assert_array_equal(p1.normal, p2.normal)
        np.testing.assert_array_equal(i1, i2)

    def test_inliers_sorted(self):
        rng = np.random.default_rng(13)
        pts = np.column_stack([rng.uniform(-100, 100, (200, 2)), rng.normal(0, 1, 200)])
        _, inliers = fit_plane_ransac(PointCloud(pts), seed=1)
        assert np.all(np.diff(inliers) > 0)

    def test_max_points_cap_keeps_full_cloud_indices(self):
        rng = np.random.default_rng(14)
        pts = np.column_stack([rng.uniform(-100, 100, (2000, 2)), rng.normal(0, 1, 2000)])
        plane, inliers = fit_plane_ransac(PointCloud(pts), seed=2, max_points=300)
        assert inliers.max() >= 300  # indices refer to the full cloud
        assert len(inliers) > 1800


class TestRansacSample:
    @pytest.mark.parametrize("n, max_points", [(3, None), (40, 2500), (3000, 2500), (9000, 500)])
    def test_fit_from_the_sample_alone(self, n, max_points):
        # the sample's points and generator give fit_plane_ransac's plane
        rng = np.random.default_rng(n)
        pts = np.column_stack([rng.uniform(-100, 100, (n, 2)), rng.normal(0, 1.0, n)])
        pts[: n // 5] = rng.uniform(-100, 100, (n // 5, 3))
        plane, _ = fit_plane_ransac(PointCloud(pts), iters=50, tol=3.0, seed=8, max_points=max_points)
        rows, gen = ransac_sample(n, 8, max_points)
        assert rows.size == min(n, max_points or n) and np.all(np.diff(rows) > 0)
        got = fit_plane_sample(pts[rows], gen, iters=50, tol=3.0)
        np.testing.assert_array_equal(got.normal.view(np.int64), plane.normal.view(np.int64))
        assert got.offset == plane.offset

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            ransac_sample(2, 0)


def generator(seed: int, buffered: bool) -> np.random.Generator:
    """A seeded generator, optionally holding a buffered odd uint32 as a
    generator does after an odd number of 32-bit draws."""
    rng = np.random.default_rng(seed)
    if buffered:
        state = rng.bit_generator.state
        state.update(has_uint32=1, uinteger=0x9E3779B9)
        rng.bit_generator.state = state
    return rng


def fit_outcome(fit, pts, rng, iters, tol):
    """The plane's raw bytes, or the error's message, and the generator's
    state after the fit."""
    try:
        plane = fit(pts, rng, iters, tol)
    except DegenerateInputError as err:
        result = ("DegenerateInputError", str(err))
    else:
        result = (plane.normal.tobytes(), np.float64(plane.offset).tobytes())
    return result, rng.bit_generator.state


def assert_fit_matches_reference(pts, iters, tol, seed=0, buffered=False):
    """The library's fit equals the hypothesis-at-a-time reference: the same
    plane, bit for bit, or the same error, and the same generator state."""
    got = fit_outcome(fit_plane_sample, pts, generator(seed, buffered), iters, tol)
    want = fit_outcome(ransac_oracle.fit_plane_sample, pts, generator(seed, buffered), iters, tol)
    assert got == want
    return got[0]


ALL_DEGENERATE = ("DegenerateInputError", "all sampled triples were collinear; no plane model")


class TestChoiceReplay:
    """The one-call draw replays ``rng.choice(m, 3, replace=False)``; if a
    numpy release changes how ``choice`` draws, this fails before the
    golden hashes move."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("m", [3, 4, 5, 7, 100, 2500, 9999, 10000, 10001, 50000, 2**31])
    def test_triples_and_state(self, m, buffered):
        for seed in range(2000):
            got_rng, want_rng = generator(seed, buffered), generator(seed, buffered)
            want = [want_rng.choice(m, 3, replace=False) for _ in range(3)]
            assert np.array_equal(_ransac_triples(got_rng, m, 3), want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBatchedHypotheses:
    """``fit_plane_sample`` against the reference loop in
    ``ransac_oracle.py`` on the fits where batching could go wrong."""

    def test_random_fits(self):
        rng = np.random.default_rng(31)
        for k in range(60):
            m = int(rng.integers(3, 2500))
            pts = np.column_stack([rng.uniform(-100, 100, (m, 2)), rng.normal(0, 2, m)])
            pts[: m // 4] = rng.uniform(-100, 100, (m // 4, 3))
            iters, tol = int(rng.integers(1, 250)), float(rng.uniform(0.5, 5.0))
            assert_fit_matches_reference(pts, iters, tol, seed=k, buffered=k % 2 == 1)

    def test_integer_mm_ties(self, monkeypatch):
        # many distances equal tol exactly, so the margin leaves counts
        # unsure and the fit must recount them one plane at a time
        calls = []
        original = pointcloud._plane_from_three
        monkeypatch.setattr(pointcloud, "_plane_from_three", lambda p: calls.append(1) or original(p))
        rng = np.random.default_rng(37)
        for k in range(12):
            m = int(rng.integers(50, 2500))
            pts = np.column_stack([rng.integers(-200, 200, (m, 2)), rng.integers(-4, 5, m)]).astype(float)
            assert_fit_matches_reference(pts, 200, 4.0, seed=k, buffered=k % 3 == 0)
        assert len(calls) > 12  # more than the winners were rebuilt

    @pytest.mark.parametrize("m", [3, 4])
    def test_smallest_clouds(self, m):
        rng = np.random.default_rng(m)
        for seed in range(20):
            pts = rng.uniform(-50, 50, (m, 3))
            assert_fit_matches_reference(pts, 30, 2.0, seed=seed, buffered=seed % 2 == 1)

    def test_every_triple_degenerate(self):
        line = np.outer(np.arange(40.0), [1.0, 2.0, -0.5])
        same = np.tile([3.0, -1.0, 7.0], (40, 1))
        for pts in (line, same):
            assert assert_fit_matches_reference(pts, 50, 1.0) == ALL_DEGENERATE

    def test_collinear_and_duplicate_points_among_others(self):
        rng = np.random.default_rng(41)
        line = np.outer(np.arange(300.0), [0.5, 0.25, 0.0])
        pts = np.concatenate([line, line[:100], rng.uniform(-20, 20, (8, 3))])
        for seed in range(10):
            assert assert_fit_matches_reference(pts, 100, 1.0, seed=seed) != ALL_DEGENERATE

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_points(self):
        # a cloud file may hold nan or inf; the margin comes from the finite
        # coordinates, and those points lie within tol of no plane
        rng = np.random.default_rng(53)
        pts = np.column_stack([rng.uniform(-100, 100, (400, 2)), rng.normal(0, 1, 400)])
        pts[::50, 0] = np.nan
        pts[7::50, 2] = np.inf
        for seed in range(5):
            assert assert_fit_matches_reference(pts, 100, 2.0, seed=seed) != ALL_DEGENERATE

    @pytest.mark.parametrize("iters, tol", [(0, 4.0), (50, -1.0)], ids=["no-hypotheses", "no-inliers"])
    def test_no_winner(self, iters, tol):
        pts = np.random.default_rng(43).uniform(-50, 50, (100, 3))
        assert assert_fit_matches_reference(pts, iters, tol) == ALL_DEGENERATE

    @pytest.mark.parametrize("side", [1 + 1e-10, 1 - 1e-10])
    def test_cross_product_at_the_degeneracy_threshold(self, side):
        # |u x v| = 1e-3 * 1e-6 * side, within rounding of the 1e-9 bound
        pts = np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [0.0, 1e-6 * side, 0.0]])
        result = assert_fit_matches_reference(pts, 20, 1.0)
        assert (result == ALL_DEGENERATE) == (side < 1)

    def test_long_cloud_in_bounded_memory(self):
        # no max_points: a 200 x m distance matrix would take 80 MB
        m = 50_000
        rng = np.random.default_rng(47)
        pts = np.column_stack([rng.uniform(-500, 500, (m, 2)), rng.normal(0, 2, m)])
        pts[: m // 5] = rng.uniform(-500, 500, (m // 5, 3))
        tracemalloc.start()
        try:
            fit_plane_sample(pts, np.random.default_rng(5), 200, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert_fit_matches_reference(pts, 200, 4.0, seed=5)


class TestFilterAbovePlane:
    def test_margin_zero_keeps_strictly_above(self):
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        pts = np.array([[0, 0, -5.0], [0, 0, 0.0], [0, 0, 5.0]])
        out = filter_above_plane(PointCloud(pts), plane, 0.0)
        assert len(out) == 1
        assert out.points[0, 2] == 5.0

    def test_margin_three(self):
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        pts = np.array([[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0], [0, 0, 4.0]])
        out = filter_above_plane(PointCloud(pts), plane, 3.0)
        assert len(out) == 1
        assert out.points[0, 2] == 4.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-100, 100, (500, 3))
        n = np.array([0.1, -0.2, 0.97])
        n /= np.linalg.norm(n)
        plane = Plane(n, 5.0)
        out = filter_above_plane(PointCloud(pts), plane, 2.0)
        brute = pts[np.array([p @ n - 5.0 > 2.0 for p in pts])]
        np.testing.assert_allclose(out.points, brute)

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        cloud = PointCloud(rng.uniform(-50, 50, (300, 3)))
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        once = filter_above_plane(cloud, plane, 1.0)
        twice = filter_above_plane(once, plane, 1.0)
        np.testing.assert_array_equal(once.points, twice.points)


class TestCloudFile:
    def test_round_trip_with_normals(self, tmp_path):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-100, 100, (40, 3))
        normals = rng.normal(size=(40, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(pts, normals)
        path = tmp_path / "cloud.xyz"
        write_cloud_xyz(path, cloud)
        back = load_cloud_xyz(path)
        np.testing.assert_allclose(back.points, pts, rtol=1e-5, atol=1e-3)
        np.testing.assert_allclose(back.normals, normals, atol=1e-4)
        assert path.read_text().startswith("#")

    def test_round_trip_without_normals(self, tmp_path):
        cloud = PointCloud(np.array([[1.5, -2.25, 3.125]]))
        path = tmp_path / "c.xyz"
        write_cloud_xyz(path, cloud)
        back = load_cloud_xyz(path)
        np.testing.assert_allclose(back.points, cloud.points)
        assert back.normals is None

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2\n")
        with pytest.raises(ValidationError):
            load_cloud_xyz(path)


class TestPointCloudType:
    def test_normal_count_must_match(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((3, 3)), np.array([[0.0, 0.0, 1.0]]))

    def test_normals_must_be_unit(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 2.0]]))

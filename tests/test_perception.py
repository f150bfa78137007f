"""Mask sorting, workspace-pose deprojection and height estimation.

Scene-truth cases get their expectations from the simulator's ground truth
via an independent path (direct geometric render + manual deprojection), not
from the functions under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from rockstack.errors import (
    EmptyMaskError,
    InsufficientSamplesError,
    MissingDepthError,
    NegativeHeightError,
    ValidationError,
)
from rockstack.geometry import (
    CameraIntrinsics,
    InstanceMask,
    RigidTransform,
    camera_pose_from_lookat,
    deproject_pixel,
    mask_area,
)
from rockstack.perception import (
    detect_objects,
    estimate_height,
    median_window_depth,
    median_window_depths,
    object_workspace_pose,
    pose_stability_stats,
    sort_by_mask_area,
    window_bounds,
    window_pixels,
)
from rockstack.scenesim import (
    CameraSpec,
    RockModel,
    Scene,
    SensorModel,
    Terrain,
    render_depth,
    render_scene_geometry,
)
from rockstack.shapes import Superellipsoid


def make_detection(area: int, offset=(0, 0), size=(96, 96), label="rock") -> InstanceMask:
    """Roughly square mask of the requested area at the given offset."""
    side = int(math.sqrt(area))
    bm = np.zeros(size, dtype=bool)
    v0, u0 = 10 + offset[1], 10 + offset[0]
    bm[v0 : v0 + side, u0 : u0 + side] = True
    extra = area - side * side
    if extra:
        bm[v0 + side, u0 : u0 + extra] = True
    return InstanceMask(bm, label=label)


def overhead_scene(rock: RockModel, terrain_z: float = 0.0) -> Scene:
    cam = CameraSpec(
        CameraIntrinsics(fx=270, fy=270, cx=160, cy=120, width=320, height=240),
        camera_pose_from_lookat((0.0, 500.0, 1000.0), (0.0, 500.0, 0.0)),
    )
    return Scene(
        terrain=Terrain(np.full((48, 64), terrain_z), pitch=10.0, origin=(-320.0, 290.0)),
        rocks=[rock],
        parts=[],
        base_camera=cam,
        hand_camera_intrinsics=CameraIntrinsics(fx=130, fy=130, cx=80, cy=60, width=160, height=120),
        seed=0,
    )


class TestSortByMaskArea:
    def test_example_order(self):
        dets = [make_detection(a) for a in (1200, 800, 2000)]
        out = sort_by_mask_area(dets)
        assert [mask_area(d) for d in out] == [2000, 1200, 800]
        assert out[0] is dets[2] and out[1] is dets[0] and out[2] is dets[1]

    def test_equal_areas_tie_break_by_centroid(self):
        a = make_detection(400, offset=(0, 20))  # lower in the image (larger v)
        b = make_detection(400, offset=(0, 0))
        out = sort_by_mask_area([a, b])
        assert out[0] is b and out[1] is a  # smaller centroid v first

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(0)
        dets = [
            make_detection(int(rng.integers(50, 900)), offset=(int(rng.integers(0, 20)), int(rng.integers(0, 20))))
            for _ in range(20)
        ]
        out = sort_by_mask_area(dets)
        areas = [mask_area(d) for d in out]
        assert areas == sorted(areas, reverse=True)
        assert sorted(id(d) for d in out) == sorted(id(d) for d in dets)

    def test_empty_mask_raises(self):
        empty = InstanceMask(np.zeros((96, 96), dtype=bool), label="rock")
        with pytest.raises(EmptyMaskError):
            sort_by_mask_area([make_detection(100), empty])
        intr = CameraIntrinsics(fx=100, fy=100, cx=48, cy=48, width=96, height=96)
        depth = np.full((96, 96), 500, dtype=np.uint16)
        with pytest.raises(EmptyMaskError):
            object_workspace_pose(empty, depth, intr, RigidTransform.identity())


class TestMedianWindowDepth:
    def test_median_robust_to_holes(self):
        depth = np.zeros((10, 10), dtype=np.uint16)
        depth[4:7, 4:7] = [[500, 0, 504], [502, 0, 0], [498, 506, 510]]
        assert median_window_depth(depth, 5.0, 5.0, size=3) == 503.0

    def test_all_missing_raises(self):
        with pytest.raises(MissingDepthError):
            median_window_depth(np.zeros((10, 10), dtype=np.uint16), 5, 5)

    def test_batched_matches_numpy_median_of_valid_pixels(self):
        rng = np.random.default_rng(7)
        for shape in ((5, 5), (3, 3), (2, 5), (1, 3)):
            windows = rng.integers(1, 65536, size=(400,) + shape).astype(np.uint16)
            windows[rng.random(windows.shape) < rng.random((400, 1, 1))] = 0
            windows[:5] = 0
            got = median_window_depths(windows)
            flat = windows.reshape(400, -1)
            counts = np.count_nonzero(flat, axis=1)
            assert np.all(np.isnan(got[counts == 0]))
            # both parities of the valid count occur for every window size
            assert {0, 1} <= set((counts[counts > 0] % 2).tolist())
            for row, d in zip(flat, got):
                valid = row[row > 0]
                if valid.size:
                    assert d == float(np.median(valid.astype(np.float64)))

    def test_windows_clipped_at_the_border(self):
        rng = np.random.default_rng(3)
        depth = rng.integers(0, 900, size=(12, 16)).astype(np.uint16)
        for u, v in ((0.0, 0.0), (15.4, 11.0), (0.4, 6.0), (7.0, 11.6), (15.0, 0.2)):
            iu, iv = int(round(u)), int(round(v))
            for size in (3, 5):
                half = size // 2
                window = depth[max(iv - half, 0) : iv + half + 1, max(iu - half, 0) : iu + half + 1]
                assert window.shape != (size, size)
                valid = window[window > 0].astype(np.float64)
                assert median_window_depth(depth, u, v, size) == float(np.median(valid))

    def test_window_with_only_missing_pixels_raises_at_the_border(self):
        depth = np.full((10, 10), 700, dtype=np.uint16)
        depth[:2, :2] = 0
        with pytest.raises(MissingDepthError):
            median_window_depth(depth, 0.0, 0.0, size=3)
        assert median_window_depth(depth, 0.0, 0.0, size=5) == 700.0

    @pytest.mark.parametrize(
        "u, v",
        [(-10.0, 50.0), (330.0, 50.0), (50.0, -10.0), (50.0, 250.0)],
        ids=["left", "right", "above", "below"],
    )
    def test_window_wholly_outside_the_image_is_empty(self, u, v):
        depth = np.full((240, 320), 500, dtype=np.uint16)
        v0, v1, u0, u1 = window_bounds(u, v, 5, depth.shape)
        assert 0 <= v0 <= v1 <= 240 and 0 <= u0 <= u1 <= 320
        assert (v1 - v0) * (u1 - u0) == 0
        assert window_pixels(u, v, 5, depth.shape).size == 0
        with pytest.raises(MissingDepthError):
            median_window_depth(depth, u, v, 5)

    @pytest.mark.parametrize(
        "u, v", [(0.4, 6.0), (318.6, 120.0), (50.0, 0.0), (200.0, 239.2), (0.0, 0.0), (319.0, 238.6)]
    )
    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_window_pixels_are_the_clipped_window(self, u, v, size):
        shape = (240, 320)
        v0, v1, u0, u1 = window_bounds(u, v, size, shape)
        assert (v1 - v0) * (u1 - u0) < size * size  # clipped at the border
        inside = np.zeros(shape, dtype=bool)
        inside[v0:v1, u0:u1] = True
        np.testing.assert_array_equal(window_pixels(u, v, size, shape), np.flatnonzero(inside))


class TestObjectWorkspacePose:
    def test_identity_extrinsic_principal_point(self):
        intr = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=640, height=480)
        depth = np.full((480, 640), 500, dtype=np.uint16)
        bm = np.zeros((480, 640), dtype=bool)
        bm[238:243, 318:323] = True  # centroid exactly at the principal point
        det = InstanceMask(bm)
        position = object_workspace_pose(det, depth, intr, RigidTransform.identity())
        np.testing.assert_allclose(position, [0.0, 0.0, 500.0])

    def test_scene_truth_within_3mm(self):
        rock = RockModel(
            shape=Superellipsoid(20.0, 16.0, 14.0, 0.9, 1.1),
            pose=RigidTransform.rotation_z(0.4, (100.0, 480.0, 14.0)),
            instance_id=0,
        )
        scene = overhead_scene(rock)
        depth = render_depth(scene, scene.base_camera, SensorModel(), seed=0)
        det = detect_objects(scene, scene.base_camera)[0]
        position = object_workspace_pose(
            det, depth, scene.base_camera.intrinsics, scene.base_camera.pose
        )
        # oracle: centroid of the visible surface from the exact geometric render
        geo_depth, ids = render_scene_geometry(scene, scene.base_camera)
        vs, us = np.nonzero(ids == 0)
        cam_pts = deproject_pixel(
            scene.base_camera.intrinsics, us.astype(float), vs.astype(float), geo_depth[vs, us]
        )
        visible = scene.base_camera.pose.apply(cam_pts)
        top_centroid = visible.mean(axis=0)
        assert np.linalg.norm(position[:2] - top_centroid[:2]) < 3.0

    def test_all_dropout_under_mask_raises(self):
        intr = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=640, height=480)
        depth = np.zeros((480, 640), dtype=np.uint16)
        bm = np.zeros((480, 640), dtype=bool)
        bm[100:110, 100:110] = True
        det = InstanceMask(bm)
        with pytest.raises(MissingDepthError):
            object_workspace_pose(det, depth, intr, RigidTransform.identity())


class TestEstimateHeight:
    @staticmethod
    def _overhead_setup(depth_value: int, cam_height: float = 500.0):
        intr = CameraIntrinsics(fx=300, fy=300, cx=160, cy=120, width=320, height=240)
        pose = camera_pose_from_lookat((0.0, 0.0, cam_height), (0.0, 0.0, 0.0))
        depth = np.full((240, 320), int(cam_height), dtype=np.uint16)
        bm = np.zeros((240, 320), dtype=bool)
        bm[100:140, 140:180] = True
        depth[bm] = depth_value
        return intr, pose, depth, InstanceMask(bm)

    def test_flat_topped_object_on_plane(self):
        # object top 50 mm above the z=0 floor seen from 500 mm overhead
        intr, pose, depth, det = self._overhead_setup(450)
        h = estimate_height(det, depth, intr, pose, support_z=0.0)
        assert h == pytest.approx(50.0, abs=2.0)

    def test_object_below_reference_raises(self):
        intr, pose, depth, det = self._overhead_setup(450)
        with pytest.raises(NegativeHeightError):
            estimate_height(det, depth, intr, pose, support_z=100.0)

    def test_sphere_on_raised_terrain(self):
        # sphere r=30 resting on terrain z=10: top-minus-support = 60
        rock = RockModel(
            shape=Superellipsoid(30.0, 30.0, 30.0, 1.0, 1.0),
            pose=RigidTransform.from_translation((0.0, 500.0, 40.0)),
            instance_id=0,
        )
        scene = overhead_scene(rock, terrain_z=10.0)
        depth = render_depth(scene, scene.base_camera, SensorModel(), seed=0)
        det = detect_objects(scene, scene.base_camera)[0]
        intr, pose = scene.base_camera.intrinsics, scene.base_camera.pose
        x, y, _ = object_workspace_pose(det, depth, intr, pose)
        h = estimate_height(det, depth, intr, pose, float(scene.terrain.height_at(x, y)))
        assert h == pytest.approx(60.0, abs=2.0)


def _stats_of_poses(samples: list[np.ndarray]) -> tuple[float, float, float]:
    """Reference: the statistics over a list of positions, stacked one by one."""
    arr = np.stack(samples)
    sigma = arr.std(axis=0, ddof=1)
    sigma[np.all(arr == arr[0], axis=0)] = 0.0
    return float(sigma[0]), float(sigma[1]), float(sigma[2])


class TestPoseStabilityStats:
    def test_identical_samples_zero(self):
        assert pose_stability_stats(np.tile((1.0, 2.0, 3.0), (10, 1))) == (0.0, 0.0, 0.0)

    def test_alternating_closed_form(self):
        positions = np.zeros((1000, 3))
        positions[:, 0] = (-1.0) ** np.arange(1000)
        sx, sy, sz = pose_stability_stats(positions)
        assert sx == pytest.approx(math.sqrt(1000.0 / 999.0), rel=1e-9)  # ~1.0005
        assert sy == 0.0 and sz == 0.0

    @pytest.mark.parametrize("n", [2, 3, 401, 2000])
    def test_array_matches_the_pose_list(self, n):
        rng = np.random.default_rng(n)
        positions = rng.normal((100.0, -40.0, 250.0), 2.0, size=(n, 3))
        positions[:, 1] = 0.1  # constant; float std leaves ~1e-17 for some n
        got = pose_stability_stats(positions)
        assert got == _stats_of_poses(list(positions))
        assert got[1] == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            pose_stability_stats(np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (2, 3, 1)])
    def test_rejects_a_non_n_by_3_array(self, shape):
        with pytest.raises(ValidationError):
            pose_stability_stats(np.zeros(shape))


class TestDetectionSerialization:
    def test_oracle_detection_is_the_rendered_mask(self):
        rock = RockModel(
            shape=Superellipsoid(22.0, 18.0, 15.0),
            pose=RigidTransform.from_translation((0.0, 500.0, 15.0)),
            instance_id=0,
        )
        scene = overhead_scene(rock)
        (det,) = detect_objects(scene, scene.base_camera)
        _, ids = render_scene_geometry(scene, scene.base_camera)
        np.testing.assert_array_equal(det.bitmap, ids == 0)
        assert (det.label, det.instance_id, det.confidence) == ("rock", 0, 1.0)

"""Scene generation, depth/mask rendering and sensor degradation.

The simulator's own claims are checked against ground truth it exposes:
settled rocks against the terrain, rendered depth against analytic surfaces,
masks against per-pixel nearest-object recomputation, and mask erosion
against a brute-force morphology oracle.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from scipy import ndimage

from rockstack.errors import PlacementError, ValidationError
from rockstack.geometry import CameraIntrinsics, InstanceMask, RigidTransform, camera_pose_from_lookat, mask_area
from rockstack.pointcloud import Workspace, cloud_from_depth
from rockstack.scenesim import (
    CameraSpec,
    RockModel,
    Scene,
    SceneSpec,
    SensorModel,
    Terrain,
    apply_depth_noise,
    degrade_mask,
    generate_scene,
    instance_masks,
    make_part,
    render_depth,
    render_instance_masks,
    render_scene_geometry,
    scene_from_json_dict,
    scene_to_json_dict,
    superellipse_unit_area,
)
from rockstack.graspdetect import HandGeometry
from rockstack.harness import ExperimentConfig
from rockstack.scenesim import (
    DEFAULT_BASE_CAMERA,
    DEFAULT_HAND_INTRINSICS,
    MISS_ID,
    NoisyDepth,
    _camera_frame_dirs,
    _disk,
    _object_pixel_rows,
    _pixel_dirs,
    finish_depth_noise,
    object_pixels,
)
from rockstack.shapes import Superellipsoid
from rockstack.taskexec import GRIPPER_ID, ArmState, ExecParams, gripper_geometry

from test_golden import CONFIGS as GOLDEN_CONFIGS


def flat_terrain(z: float = 0.0) -> Terrain:
    return Terrain(np.full((48, 64), z), pitch=10.0, origin=(-320.0, 290.0))


def single_rock_scene(shape: Superellipsoid, position, yaw=0.0, camera=None) -> Scene:
    rock = RockModel(
        shape=shape,
        pose=RigidTransform.rotation_z(yaw, position),
        instance_id=0,
    )
    cam = camera or CameraSpec(
        CameraIntrinsics(fx=270, fy=270, cx=160, cy=120, width=320, height=240),
        camera_pose_from_lookat((0.0, 500.0, 1000.0), (0.0, 500.0, 0.0)),
    )
    return Scene(
        terrain=flat_terrain(),
        rocks=[rock],
        parts=[],
        base_camera=cam,
        hand_camera_intrinsics=CameraIntrinsics(fx=130, fy=130, cx=80, cy=60, width=160, height=120),
        seed=0,
    )


class TestTerrain:
    def test_generation_deterministic(self):
        a = Terrain.generate(250, 200, 10.0, 6.0, seed=5)
        b = Terrain.generate(250, 200, 10.0, 6.0, seed=5)
        np.testing.assert_array_equal(a.heights, b.heights)
        c = Terrain.generate(250, 200, 10.0, 6.0, seed=6)
        assert not np.array_equal(a.heights, c.heights)

    def test_amplitude_bound(self):
        t = Terrain.generate(250, 200, 10.0, 6.0, seed=1)
        assert np.max(np.abs(t.heights)) <= 6.0 + 1e-9

    def test_bilinear_interpolation_hand_case(self):
        heights = np.array([[0.0, 10.0], [20.0, 30.0]])
        t = Terrain(heights, pitch=10.0, origin=(0.0, 0.0))
        assert float(t.height_at(0.0, 0.0)) == pytest.approx(0.0)
        assert float(t.height_at(10.0, 0.0)) == pytest.approx(10.0)
        assert float(t.height_at(5.0, 0.0)) == pytest.approx(5.0)
        assert float(t.height_at(5.0, 5.0)) == pytest.approx(15.0)  # mean of 4 corners

    def test_edge_clamping(self):
        t = Terrain(np.array([[1.0, 2.0], [3.0, 4.0]]), pitch=1.0, origin=(0.0, 0.0))
        assert float(t.height_at(-100.0, -100.0)) == pytest.approx(1.0)
        assert float(t.height_at(100.0, 100.0)) == pytest.approx(4.0)


class TestGenerateScene:
    def test_same_seed_identical(self):
        spec = SceneSpec()
        a = generate_scene(spec, seed=9)
        b = generate_scene(spec, seed=9)
        assert len(a.rocks) == len(b.rocks)
        for ra, rb in zip(a.rocks, b.rocks):
            np.testing.assert_array_equal(ra.pose.translation, rb.pose.translation)
            np.testing.assert_array_equal(ra.pose.rotation, rb.pose.rotation)
            assert ra.shape == rb.shape

    def test_min_separation_brute_force(self):
        spec = SceneSpec(
            rock_count=(5, 5),
            rock_semi_axis=(6.0, 10.0),
            min_separation=30.0,
            region=((-100.0, 100.0), (420.0, 580.0)),
        )
        scene = generate_scene(spec, seed=2)
        assert len(scene.rocks) == 5
        for i, a in enumerate(scene.rocks):
            for b in scene.rocks[i + 1 :]:
                d = np.linalg.norm(a.pose.translation[:2] - b.pose.translation[:2])
                assert d >= 30.0

    def test_settle_touches_flat_terrain(self):
        spec = SceneSpec(terrain_amplitude=0.0)
        scene = generate_scene(spec, seed=3)
        for rock in scene.rocks:
            pts = rock.surface_points_world(48, 96)
            lowest = float(np.min(pts[:, 2]))
            assert abs(lowest) < 0.5

    def test_settle_penetration_invariant(self):
        spec = SceneSpec()
        for seed in range(6):
            scene = generate_scene(spec, seed=seed)
            for rock in scene.rocks:
                pts = rock.surface_points_world(48, 96)
                gaps = pts[:, 2] - scene.terrain.height_at(pts[:, 0], pts[:, 1])
                assert float(np.min(gaps)) > -0.1

    def test_no_interpenetration_after_settling(self):
        spec = SceneSpec()
        for seed in range(4):
            scene = generate_scene(spec, seed=seed)
            for i, a in enumerate(scene.rocks):
                for b in scene.rocks[i + 1 :]:
                    pts = a.surface_points_world(24, 48)
                    assert not np.any(b.contains_world(pts))

    def test_placement_failure(self):
        spec = SceneSpec(
            rock_count=(8, 8),
            region=((-30.0, 30.0), (480.0, 520.0)),
            min_separation=120.0,
        )
        with pytest.raises(PlacementError):
            generate_scene(spec, seed=0)

    def test_area_ladder_separation(self):
        spec = SceneSpec(rock_count=(4, 4), min_area_separation=0.10, min_separation=85.0)
        for seed in range(5):
            scene = generate_scene(spec, seed=seed)
            areas = sorted(r.max_cross_section_area() for r in scene.rocks)
            for small, big in zip(areas, areas[1:]):
                assert big / small >= 1.10

    def test_unit_superellipse_area_reference(self):
        assert superellipse_unit_area(1.0) == pytest.approx(math.pi, rel=1e-9)
        # square limit from below: boxier exponents grow toward 4
        assert 3.6 < superellipse_unit_area(0.3) < 4.0

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SceneSpec(rock_count=(0, 0))
        with pytest.raises(ValidationError):
            SceneSpec(rock_count=(3, 2))


class TestRenderDepth:
    def test_flat_terrain_center_pixel(self):
        scene = single_rock_scene(
            Superellipsoid(20, 20, 15), (200.0, 400.0, 15.0),
            camera=CameraSpec(
                CameraIntrinsics(fx=270, fy=270, cx=160, cy=120, width=320, height=240),
                camera_pose_from_lookat((0.0, 500.0, 800.0), (0.0, 500.0, 0.0)),
            ),
        )
        depth = render_depth(scene, scene.base_camera, SensorModel(), seed=0)
        assert depth[120, 160] == 800

    def test_zero_noise_sphere_matches_analytic_surface(self):
        shape = Superellipsoid(30.0, 30.0, 30.0, 1.0, 1.0)
        center = np.array([0.0, 500.0, 30.0])
        scene = single_rock_scene(shape, center)
        depth = render_depth(scene, scene.base_camera, SensorModel(), seed=0)
        _, ids = render_scene_geometry(scene, scene.base_camera)
        cloud = cloud_from_depth(depth, scene.base_camera.intrinsics, scene.base_camera.pose)
        _, ids_flat = render_scene_geometry(scene, scene.base_camera)
        mask_rock = (ids_flat == 0).ravel()[depth.ravel() > 0]
        rock_pts = cloud.points[mask_rock]
        radial = np.abs(np.linalg.norm(rock_pts - center, axis=1) - 30.0)
        assert np.max(radial) < 1.5  # quantization + ray tolerance

    def test_full_dropout_blanks_image(self):
        scene = single_rock_scene(Superellipsoid(20, 20, 15), (0.0, 500.0, 15.0))
        depth = render_depth(scene, scene.base_camera, SensorModel(dropout_rate=1.0), seed=3)
        assert np.all(depth == 0)

    def test_seed_determinism(self):
        scene = single_rock_scene(Superellipsoid(20, 20, 15), (0.0, 500.0, 15.0))
        sensor = SensorModel(depth_sigma=2.0, dropout_rate=0.05)
        a = render_depth(scene, scene.base_camera, sensor, seed=11)
        b = render_depth(scene, scene.base_camera, sensor, seed=11)
        np.testing.assert_array_equal(a, b)
        c = render_depth(scene, scene.base_camera, sensor, seed=12)
        assert not np.array_equal(a, c)

    def test_generator_is_drawn_in_place(self):
        depth = np.full((6, 7), 500.0)
        depth[0, :3] = np.inf
        sensor = SensorModel(depth_sigma=2.0, dropout_rate=0.2)
        np.testing.assert_array_equal(
            apply_depth_noise(depth, sensor, np.random.default_rng(9)),
            apply_depth_noise(depth, sensor, 9),
        )
        # two windows noised in turn from one stream: normal then random each
        rng = np.random.default_rng(9)
        first = apply_depth_noise(depth[:3], sensor, rng)
        second = apply_depth_noise(depth[3:], sensor, rng)
        ref = np.random.default_rng(9)
        for window, got in ((depth[:3], first), (depth[3:], second)):
            noisy = np.rint(np.where(np.isfinite(window), window, 0.0) + ref.normal(0.0, 2.0, window.shape))
            expect = np.where(np.isfinite(window), noisy, 0).astype(np.uint16)
            expect[ref.random(window.shape) < 0.2] = 0
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("sigma", [0.0, 3.0])
    @pytest.mark.parametrize("dropout", [0.0, 0.3, 1.0])
    def test_batched_finish_matches_per_window_noise(self, sigma, dropout):
        # the pose-bench layout: per sample, each window's draws from one
        # stream side by side in a row, then one finishing pass over all rows
        rng = np.random.default_rng(17)
        windows = []
        for h, w in ((5, 5), (7, 7), (3, 4), (0, 7), (1, 1), (7, 6)):
            window = rng.uniform(-20.0, 70_000.0, (h, w))
            specials = rng.random((h, w))
            window[specials < 0.1] = np.inf
            window[(specials >= 0.1) & (specials < 0.15)] = np.nan
            window[(specials >= 0.15) & (specials < 0.2)] = -np.inf
            window[(specials >= 0.2) & (specials < 0.3)] = rng.uniform(-4.0, 0.4)  # clips to 0
            window[(specials >= 0.3) & (specials < 0.4)] = rng.uniform(65_534.6, 65_540.0)
            windows.append(window)
        sensor = SensorModel(depth_sigma=sigma, dropout_rate=dropout)
        n_samples = 9
        sizes = np.cumsum([0] + [win.size for win in windows])
        normal = np.empty((n_samples, sizes[-1])) if sigma > 0 else None
        uniform = np.empty((n_samples, sizes[-1])) if dropout > 0 else None
        expected = []
        for k in range(n_samples):
            ref = np.random.default_rng(1000 + k)
            expected.append(
                np.concatenate([apply_depth_noise(win, sensor, ref).ravel() for win in windows])
            )
            draw = np.random.default_rng(1000 + k)
            for a, b in zip(sizes[:-1], sizes[1:]):
                if normal is not None:
                    normal[k, a:b] = draw.normal(0.0, sigma, b - a)
                if uniform is not None:
                    uniform[k, a:b] = draw.random(b - a)
        flat = np.concatenate([win.ravel() for win in windows])
        clean = np.broadcast_to(flat, (n_samples, sizes[-1]))
        got = finish_depth_noise(clean, sensor, normal, uniform)
        assert got.dtype == np.uint16
        np.testing.assert_array_equal(got, np.stack(expected))
        if dropout == 1.0:
            assert not got.any()
        else:
            assert got.max() == 65535 and (got == 0).any()

    def test_pixel_grid_is_cached_and_read_only(self):
        pose = camera_pose_from_lookat((40.0, 300.0, 600.0), (0.0, 520.0, 0.0))
        rng = np.random.default_rng(11)
        for intr in (
            CameraIntrinsics(fx=270, fy=280, cx=150.5, cy=101, width=300, height=200),
            CameraIntrinsics.from_json_dict(DEFAULT_BASE_CAMERA["intrinsics"]),
            CameraIntrinsics.from_json_dict(DEFAULT_HAND_INTRINSICS),
        ):
            first, second = _pixel_dirs(intr, pose), _pixel_dirs(intr, pose)
            assert first.tobytes() == second.tobytes()
            uu, vv = np.meshgrid(np.arange(float(intr.width)), np.arange(float(intr.height)))
            grid = np.stack(
                [(uu - intr.cx) / intr.fx, (vv - intr.cy) / intr.fy, np.ones_like(uu)], axis=-1
            ).reshape(-1, 3)
            assert first.tobytes() == (grid @ pose.rotation.T).tobytes()
            # the product with the C-ordered rotation is bit-equal to the one
            # with the Fortran-ordered transpose, on rotations without zero
            # entries too
            for _ in range(8):
                q, r = np.linalg.qr(rng.normal(size=(3, 3)))
                q = q * np.sign(np.diag(r))
                q *= np.sign(np.linalg.det(q))
                generic = RigidTransform(q, (5.0, 480.0, 700.0))
                assert np.all(generic.rotation != 0.0)
                assert not generic.rotation.T.flags.c_contiguous
                assert _pixel_dirs(intr, generic).tobytes() == (grid @ generic.rotation.T).tobytes()
            cached = _camera_frame_dirs(intr)
            assert cached is _camera_frame_dirs(intr)
            assert cached.tobytes() == grid.tobytes()
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0

    def test_noise_model_validation(self):
        with pytest.raises(ValidationError):
            SensorModel(depth_sigma=-1.0)
        with pytest.raises(ValidationError):
            SensorModel(dropout_rate=1.5)


def _golden_scenes():
    """(scene, extra objects) for scenes of the golden stack, pose and
    assembly configs, each also with the gripper in view."""
    hand = HandGeometry()
    gripper = gripper_geometry(ArmState.home(ExecParams(), hand), hand)
    gripper.pose = gripper.pose.with_translation((30.0, 470.0, 160.0))
    cases = []
    for name, seed in (("stack_nominal_0", 0), ("stack_nominal_12", 12), ("pose_stability", 0),
                       ("assemble_head", 0), ("assemble_leg", 1)):
        scene = generate_scene(ExperimentConfig.from_json_dict(GOLDEN_CONFIGS[name]).scene, seed)
        cases += [
            pytest.param(scene, None, id=f"{name}-{seed}"),
            pytest.param(scene, [gripper], id=f"{name}-{seed}-gripper"),
        ]
    return cases


def _assert_subsets_match(scene, cam, extra):
    """Render pixel subsets of ``cam``, among them subsets that cut every
    object's footprint down to one ray, two rays and every other ray, and
    check each against the whole image bit for bit; return the whole image."""
    depth, ids = render_scene_geometry(scene, cam, extra)
    n = depth.size
    footprints = object_pixels(scene, cam)
    rng = np.random.default_rng(3)
    subsets = [
        np.empty(0, dtype=np.intp),
        footprints,
        rng.choice(n, size=1, replace=False),
        rng.choice(n, size=997, replace=False),
        rng.choice(footprints, size=footprints.size // 3, replace=False),
        rng.permutation(n),
    ]
    for obj in scene.objects() + list(extra or []):
        rows = _object_pixel_rows(obj, cam.intrinsics, cam.pose)
        if rows is not None:
            subsets += [rows[rows.size // 2 : rows.size // 2 + 1], rows[[0, -1]], rows[::2]]
    for pixels in subsets:
        d, i = render_scene_geometry(scene, cam, extra, pixels=pixels)
        assert d.shape == i.shape == pixels.shape
        np.testing.assert_array_equal(d.view(np.int64), depth.ravel()[pixels].view(np.int64))
        np.testing.assert_array_equal(i, ids.ravel()[pixels])
    return depth, ids


class TestPixelSubsetRender:
    """A render of a pixel subset equals the whole-image render at those
    pixels, bit for bit."""

    @pytest.mark.parametrize("scene, extra", _golden_scenes())
    def test_subsets_match_the_whole_image(self, scene, extra):
        cam = scene.base_camera
        _, ids = _assert_subsets_match(scene, cam, extra)
        if extra is not None:
            assert GRIPPER_ID in ids
        # no scene object's id outside the footprints
        footprints = object_pixels(scene, cam)
        outside = np.ones(ids.size, dtype=bool)
        outside[footprints] = False
        scene_ids = [obj.instance_id for obj in scene.objects()]
        assert footprints.size < ids.size
        assert not np.isin(ids.ravel()[outside], scene_ids).any()
        assert np.isin(ids.ravel()[footprints], scene_ids).any()

    @pytest.mark.parametrize("scene, extra", _golden_scenes())
    def test_wrist_subsets_match_the_whole_image(self, scene, extra):
        # both poses of the wrist sweep over the scene's first object
        x, y = scene.objects()[0].pose.translation[:2]
        for dx in (-120.0, 120.0):
            pose = camera_pose_from_lookat((x + dx, y, 330.0), (x, y, 0.0))
            _, ids = _assert_subsets_match(scene, CameraSpec(scene.hand_camera_intrinsics, pose), extra)
            assert np.isin(ids, [obj.instance_id for obj in scene.objects()]).any()

    def test_footprints_are_sorted_and_distinct(self):
        scene = generate_scene(SceneSpec(rock_count=(4, 4)), seed=2)
        footprints = object_pixels(scene, scene.base_camera)
        assert footprints.size and np.all(np.diff(footprints) > 0)

    @pytest.mark.parametrize(
        "pixels",
        [[3, 5, 3], [-1, 4], [0, 320 * 240], [[0, 1], [2, 3]]],
        ids=["repeated", "negative", "past-the-end", "2-d"],
    )
    def test_bad_pixel_sets_rejected(self, pixels):
        scene = single_rock_scene(Superellipsoid(20, 20, 15), (0.0, 500.0, 15.0))
        with pytest.raises(ValidationError, match="pixels"):
            render_scene_geometry(scene, scene.base_camera, pixels=np.array(pixels))


def _bodies():
    """Rocks, robot parts and the gripper, each as placed and tilted: its
    rotation then has no zero entry and is stored column-major, as a
    transposed rotation is."""
    hand = HandGeometry()
    gripper = gripper_geometry(ArmState.home(ExecParams(), hand), hand)
    gripper.pose = gripper.pose.with_translation((30.0, 470.0, 160.0))
    bodies = [("gripper", gripper)]
    for name, seed in (("stack_nominal_0", 0), ("assemble_head", 0), ("assemble_leg", 1)):
        scene = generate_scene(ExperimentConfig.from_json_dict(GOLDEN_CONFIGS[name]).scene, seed)
        bodies += [(f"{name}-{obj.label}-{obj.instance_id}", obj) for obj in scene.objects()]
    cases = []
    tilt = RigidTransform.rotation_x(0.4).compose(RigidTransform.rotation_y(-0.3))
    for name, body in bodies:
        tilted = copy.copy(body)
        tilted_pose = body.pose.compose(tilt)
        tilted.pose = RigidTransform(np.asfortranarray(tilted_pose.rotation), tilted_pose.translation)
        cases += [pytest.param(body, id=name), pytest.param(tilted, id=f"{name}-tilted")]
    return cases


class TestBodyRaycast:
    @pytest.mark.parametrize("body", _bodies())
    def test_row_subsets_match_the_whole_cast(self, body):
        # the rays of a wrist camera's footprint of the body
        center, _ = body.bounding
        pose = camera_pose_from_lookat(center + np.array([-140.0, -90.0, 250.0]), center)
        intr = CameraIntrinsics.from_json_dict(DEFAULT_HAND_INTRINSICS)
        dirs = _pixel_dirs(intr, pose)[_object_pixel_rows(body, intr, pose)]
        one_origin = pose.translation
        per_ray = np.repeat(one_origin[None, :], len(dirs), axis=0)
        for origin in (one_origin, per_ray):
            whole = body.raycast_world(origin, dirs)
            hits = np.flatnonzero(np.isfinite(whole))
            assert 0 < hits.size < whole.size
            rng = np.random.default_rng(7)
            subsets = [[k] for k in hits[:: max(1, hits.size // 150)]]
            subsets += [hits[:2], hits[::-1], rng.permutation(len(dirs))[: len(dirs) // 2]]
            for rows in subsets:
                rows = np.asarray(rows)
                ray_origin = origin if origin.ndim == 1 else origin[rows]
                got = body.raycast_world(ray_origin, dirs[rows])
                np.testing.assert_array_equal(got.view(np.int64), whole[rows].view(np.int64))


def _wrist_camera(scene: Scene, x: float, y: float, height: float = 330.0) -> CameraSpec:
    pose = camera_pose_from_lookat((x - 120.0, y, height), (x, y, 0.0))
    return CameraSpec(scene.hand_camera_intrinsics, pose)


class TestNoisyDepth:
    """A NoisyDepth image equals render_depth's at every pixel it casts,
    and its pixel sets are those of the whole image."""

    @pytest.mark.parametrize("sensor", [SensorModel(), SensorModel(depth_sigma=2.0, dropout_rate=0.3)])
    def test_cast_pixels_match_render_depth(self, sensor):
        scene = generate_scene(SceneSpec(rock_count=(3, 3)), seed=6)
        cam = scene.base_camera
        whole = render_depth(scene, cam, sensor, seed=9)
        _, ids = render_scene_geometry(scene, cam)
        view = NoisyDepth(scene, cam, sensor, 9)
        pixels = np.random.default_rng(1).choice(whole.size, size=4000, replace=False)
        view.cast(pixels[:3000])
        view.cast(pixels[1000:])  # repeats are cast once
        cast = np.zeros(whole.size, dtype=bool)
        cast[pixels] = True
        np.testing.assert_array_equal(view.depth.ravel(), np.where(cast, whole.ravel(), 0))
        np.testing.assert_array_equal(view.ids.ravel(), np.where(cast, ids.ravel(), MISS_ID))

    @pytest.mark.parametrize(
        "sensor, height",
        [
            (SensorModel(), 330.0),
            (SensorModel(depth_sigma=2.0, dropout_rate=0.01), 330.0),
            # noise so wide that the depth bound settles few pixels
            (SensorModel(depth_sigma=150.0, dropout_rate=0.5), 330.0),
            # a camera in the rocks' height range, low enough that its top rows rise
            (SensorModel(depth_sigma=2.0), 25.0),
        ],
    )
    @pytest.mark.parametrize("stride", [1, 2])
    def test_cloud_pixels_are_the_whole_cloud_pixels(self, sensor, height, stride):
        scene = generate_scene(SceneSpec(rock_count=(3, 3)), seed=6)
        x, y = scene.rocks[0].pose.translation[:2]
        cam = _wrist_camera(scene, x, y, height)
        whole = render_depth(scene, cam, sensor, seed=4)
        grid = np.arange(whole.size).reshape(whole.shape)[::stride, ::stride].ravel()
        view = NoisyDepth(scene, cam, sensor, 4)
        np.testing.assert_array_equal(view.cloud_pixels(stride), grid[whole.flat[grid] > 0])
        if sensor.depth_sigma < 10 and height > 100:
            assert not view.depth.any()  # settled without a cast

    @pytest.mark.parametrize("sigma", [0.0, 2.0, 20.0])
    def test_box_pixels_hold_every_point_in_the_box(self, sigma):
        # On flat terrain each ray's hit stretch is a single point, so only
        # the noise and rounding allowances keep the points near the box's
        # faces inside the set.
        scene = single_rock_scene(Superellipsoid(22, 18, 15), (40.0, 520.0, 15.0))
        sensor = SensorModel(depth_sigma=sigma, dropout_rate=0.2)
        cam = _wrist_camera(scene, 0.0, 500.0)
        whole = render_depth(scene, cam, sensor, seed=2)
        valid = np.flatnonzero(whole > 0)
        points = cloud_from_depth(whole, cam.intrinsics, cam.pose).points
        view = NoisyDepth(scene, cam, sensor, 2)
        for lo, hi in [((-70, 430, -60), (70, 570, 400)), ((-25, 470, -1), (33, 529, 1)), ((10, 480, 0), (60, 560, 40))]:
            got = view.box_pixels(np.array(lo, dtype=float), np.array(hi, dtype=float))
            inside = valid[Workspace(lo, hi).contains(points)]
            assert inside.size and np.isin(inside, got).all()
            assert got.size < 2 * inside.size + 400


class TestInstanceMasks:
    def test_single_rock_one_mask(self):
        scene = single_rock_scene(Superellipsoid(25, 25, 18), (0.0, 500.0, 18.0))
        masks = render_instance_masks(scene, scene.base_camera)
        assert len(masks) == 1
        assert mask_area(masks[0]) > 0
        assert masks[0].label == "rock"
        assert masks[0].confidence == 1.0

    def test_fully_occluded_object_has_no_mask(self):
        small = RockModel(
            shape=Superellipsoid(8, 8, 6), pose=RigidTransform.from_translation((0, 500, 6)),
            instance_id=0,
        )
        big = RockModel(
            shape=Superellipsoid(30, 30, 10),
            pose=RigidTransform.from_translation((0, 500, 40)),
            instance_id=1,
        )
        scene = single_rock_scene(Superellipsoid(10, 10, 10), (0, 500, 10))
        scene.rocks = [small, big]  # big sits directly above small, overhead camera
        masks = render_instance_masks(scene, scene.base_camera)
        ids = [m.instance_id for m in masks]
        assert 1 in ids and 0 not in ids

    def test_masks_disjoint_and_match_nearest_surface(self):
        scene = generate_scene(SceneSpec(rock_count=(2, 2)), seed=4)
        masks = render_instance_masks(scene, scene.base_camera)
        total = np.zeros_like(masks[0].bitmap, dtype=int)
        for m in masks:
            total += m.bitmap.astype(int)
        assert np.max(total) <= 1  # mutually disjoint
        # brute-force nearest-object oracle from the geometric render
        _, ids = render_scene_geometry(scene, scene.base_camera)
        for m in masks:
            np.testing.assert_array_equal(m.bitmap, ids == m.instance_id)

    def test_masks_from_an_id_image(self):
        scene = generate_scene(SceneSpec(rock_count=(3, 3)), seed=4)
        _, ids = render_scene_geometry(scene, scene.base_camera)
        masks = instance_masks(scene, ids)
        assert [m.instance_id for m in masks] == [r.instance_id for r in scene.rocks]
        for m, r in zip(masks, render_instance_masks(scene, scene.base_camera)):
            assert (m.instance_id, m.label) == (r.instance_id, r.label)
            np.testing.assert_array_equal(m.bitmap, r.bitmap)

    def test_mask_depth_coherence_reintersection(self):
        scene = single_rock_scene(Superellipsoid(22, 18, 14, 0.9, 1.1), (10.0, 490.0, 14.0))
        rock = scene.rocks[0]
        depth = render_depth(scene, scene.base_camera, SensorModel(), seed=0)
        masks = render_instance_masks(scene, scene.base_camera)
        cloud = cloud_from_depth(depth, scene.base_camera.intrinsics, scene.base_camera.pose)
        flat_mask = masks[0].bitmap.ravel()[depth.ravel() > 0]
        pts = cloud.points[flat_mask]
        g = rock.shape.implicit(rock.pose.inverse().apply(pts))
        # every mask pixel's point lies on the rock surface (1 mm quantization)
        assert np.percentile(np.abs(g - 1.0), 99) < 0.2


def full_image_degrade_mask(mask: InstanceMask, sensor: SensorModel, seed: int) -> InstanceMask:
    """``degrade_mask`` as it was before it cropped: every morphology pass
    over the whole image."""
    bitmap = mask.bitmap
    if not np.any(bitmap):
        return mask
    radius = int(round(sensor.mask_erosion * 5.0))
    eroded = ndimage.binary_erosion(bitmap, structure=_disk(radius)) if radius > 0 else bitmap.copy()
    if sensor.boundary_flip_rate > 0:
        vs, us = np.nonzero(bitmap)
        u0, v0, u1, v1 = us.min(), vs.min(), us.max(), vs.max()
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
    return InstanceMask(bitmap=result, label=mask.label, confidence=mask.confidence,
                        instance_id=mask.instance_id)


def edge_masks(h: int = 60, w: int = 80) -> list[InstanceMask]:
    """Blobs centred on every image corner and edge and inside it, thin
    lines along the borders, a single pixel and the whole image."""
    rng = np.random.default_rng(41)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    bitmaps = []
    for cv in (0, h // 2, h - 1):
        for cu in (0, w // 2, w - 1):
            for r in (2, 9):
                noise = rng.uniform(0.7, 1.3, size=(h, w))
                bitmaps.append((xx - cu) ** 2 + (yy - cv) ** 2 <= (r * noise) ** 2)
    for line in (np.s_[0, 5:70], np.s_[h - 1, :], np.s_[3:50, 0], np.s_[:, w - 1], np.s_[20, 30]):
        bm = np.zeros((h, w), dtype=bool)
        bm[line] = True
        bitmaps.append(bm)
    bitmaps.append(np.ones((h, w), dtype=bool))
    return [InstanceMask(bm) for bm in bitmaps]


class TestDegradeMask:
    @staticmethod
    def disk_mask(radius_px: int, size: int = 64) -> InstanceMask:
        yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        bm = (xx - size // 2) ** 2 + (yy - size // 2) ** 2 <= radius_px**2
        return InstanceMask(bm)

    def test_identity_when_disabled(self):
        m = self.disk_mask(10)
        out = degrade_mask(m, SensorModel(), seed=0)
        np.testing.assert_array_equal(out.bitmap, m.bitmap)

    def test_full_erosion_kills_thin_mask(self):
        bm = np.zeros((32, 32), dtype=bool)
        bm[10:13, 5:25] = True  # 3 px wide strip
        out = degrade_mask(InstanceMask(bm), SensorModel(mask_erosion=1.0), seed=0)
        assert mask_area(out) == 0

    def test_quarter_erosion_matches_morphology_oracle(self):
        m = self.disk_mask(25)
        out = degrade_mask(m, SensorModel(mask_erosion=0.25), seed=0)
        # brute-force erosion with a radius-1 disk: keep pixels whose 4+diag
        # neighborhood within distance 1 is fully set
        bm = m.bitmap
        brute = np.zeros_like(bm)
        h, w = bm.shape
        for v in range(1, h - 1):
            for u in range(1, w - 1):
                if bm[v, u] and bm[v - 1, u] and bm[v + 1, u] and bm[v, u - 1] and bm[v, u + 1]:
                    brute[v, u] = True
        np.testing.assert_array_equal(out.bitmap, brute)
        ring = mask_area(m) - mask_area(out)
        assert ring == pytest.approx(2 * math.pi * 25, rel=0.2)

    def test_flips_bounded_by_bbox_plus_one(self):
        m = self.disk_mask(12)
        sensor = SensorModel(mask_erosion=0.2, boundary_flip_rate=0.5)
        out = degrade_mask(m, sensor, seed=5)
        u0, v0, u1, v1 = 32 - 12, 32 - 12, 32 + 12, 32 + 12
        vs, us = np.nonzero(out.bitmap)
        assert us.min() >= u0 - 1 and us.max() <= u1 + 1
        assert vs.min() >= v0 - 1 and vs.max() <= v1 + 1

    @pytest.mark.parametrize("erosion", [0.0, 0.1, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("flip_rate", [0.0, 0.02, 0.3])
    def test_crop_matches_full_image_oracle(self, erosion, flip_rate):
        sensor = SensorModel(mask_erosion=erosion, boundary_flip_rate=flip_rate)
        masks = edge_masks()
        for seed in (2, 9):
            scene = generate_scene(SceneSpec(rock_count=(3, 3)), seed)
            _, ids = render_scene_geometry(scene, scene.base_camera)
            masks += instance_masks(scene, ids)
        for k, mask in enumerate(masks):
            got = degrade_mask(mask, sensor, seed=k)
            want = full_image_degrade_mask(mask, sensor, seed=k)
            assert got.bitmap.dtype == want.bitmap.dtype
            np.testing.assert_array_equal(got.bitmap, want.bitmap)

    def test_flip_determinism(self):
        m = self.disk_mask(15)
        sensor = SensorModel(mask_erosion=0.1, boundary_flip_rate=0.3)
        a = degrade_mask(m, sensor, seed=9)
        b = degrade_mask(m, sensor, seed=9)
        np.testing.assert_array_equal(a.bitmap, b.bitmap)


class TestParts:
    def test_head_has_plug_below_sphere(self):
        head = make_part("head", 0)
        plug = head.attachments["plug"]
        np.testing.assert_allclose(plug.rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-12)
        assert plug.translation[2] < 10.0

    def test_leg_plug_points_outward(self):
        leg = make_part("leg", 0)
        plug = leg.attachments["plug"]
        np.testing.assert_allclose(plug.rotation[:, 2], [-1.0, 0.0, 0.0], atol=1e-12)

    def test_body_socket_frames(self):
        body = make_part("body", 0)
        assert set(body.attachments) == {"socket_top", "socket_left", "socket_right"}
        np.testing.assert_allclose(
            body.attachments["socket_top"].rotation[:, 2], [0.0, 0.0, 1.0], atol=1e-12
        )
        np.testing.assert_allclose(
            body.attachments["socket_right"].rotation[:, 2], [0.0, -1.0, 0.0], atol=1e-12
        )

    def test_part_class_validation(self):
        with pytest.raises(ValidationError, match="unknown part class 'wheel'"):
            make_part("wheel", 0)

    def test_attachment_world_follows_pose(self):
        head = make_part("head", 0, RigidTransform.rotation_z(math.pi / 2, (10.0, 20.0, 30.0)))
        plug = head.attachment_world("plug")
        expected = head.pose.apply(head.attachments["plug"].translation)
        np.testing.assert_allclose(plug.translation, expected)


class TestSceneSerialization:
    def test_round_trip(self):
        scene = generate_scene(SceneSpec(parts=("body", "head")), seed=6)
        data = scene_to_json_dict(scene)
        back = scene_from_json_dict(data)
        assert len(back.rocks) == len(scene.rocks)
        assert len(back.parts) == len(scene.parts)
        for a, b in zip(scene.rocks, back.rocks):
            np.testing.assert_allclose(a.pose.translation, b.pose.translation)
            assert a.true_volume == pytest.approx(b.true_volume)
        for a, b in zip(scene.parts, back.parts):
            assert a.part_class == b.part_class
            np.testing.assert_allclose(a.pose.rotation, b.pose.rotation)

"""The superellipsoid march, the terrain cast and the RANSAC hypothesis
against the reference kernels in ``render_oracle.py``, bit for bit.

The library kernels skip work whose outcome is known: march samples
outside the superellipsoid's bounding box, fixed-point iterations after a
ray's estimate repeats, and the ``np.cross`` call overhead. Every case
here compares raw float64 bytes, so a single rounding difference fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from render_oracle import (
    plane_from_three,
    record_calls,
    superellipsoid_raycast,
    terrain_height_at,
    terrain_raycast,
)
from rockstack import pointcloud
from rockstack.geometry import CameraIntrinsics, RigidTransform, camera_pose_from_lookat
from rockstack.harness import ExperimentConfig, run_trial
from rockstack.pointcloud import PointCloud, _plane_from_three, fit_plane_ransac
from rockstack.scenesim import Terrain, _pixel_dirs
from rockstack.shapes import Superellipsoid

NOMINAL_STACK = {
    "task": "stack",
    "sensor": {"depth_sigma": 2.0, "dropout_rate": 0.01, "mask_erosion": 0.1, "boundary_flip_rate": 0.02},
}

SHAPES = [
    Superellipsoid(30.0, 22.0, 15.0, 1.0, 1.0),
    Superellipsoid(25.0, 18.0, 12.0, 0.3, 0.3),
    Superellipsoid(25.0, 18.0, 12.0, 2.0, 2.0),
    Superellipsoid(20.0, 28.0, 10.0, 0.3, 2.0),
    Superellipsoid(20.0, 28.0, 10.0, 2.0, 0.3),
]


def same_bits(got, want) -> bool:
    got = np.asarray(got)
    want = np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def widened_half(shape: Superellipsoid) -> np.ndarray:
    return np.array([shape.ax, shape.ay, shape.az]) * (1.0 + 1e-9) + 1e-6


def random_unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestRecordedStackTrials:
    """Every call the three kernels receive in two seeded nominal stack
    trials, replayed through the library and the reference."""

    @pytest.fixture(scope="class")
    def calls(self):
        cfg = ExperimentConfig.from_json_dict(NOMINAL_STACK)
        march, terrain, planes = [], [], []
        with (
            record_calls(Superellipsoid, "raycast", march),
            record_calls(Terrain, "raycast_world", terrain),
            record_calls(pointcloud, "_plane_from_three", planes),
        ):
            for index in (3, 8):
                run_trial(cfg, index)
        return march, terrain, planes

    def test_march(self, calls):
        march = calls[0]
        assert len(march) > 20
        rays = 0
        for shape, o, d in march:
            rays += o.shape[0]
            assert same_bits(shape.raycast(o, d), superellipsoid_raycast(shape, o, d))
        assert rays > 20_000

    def test_terrain(self, calls):
        terrain = calls[1]
        assert len(terrain) > 5
        for t, origin, dirs in terrain:
            assert same_bits(t.raycast_world(origin, dirs), terrain_raycast(t, origin, dirs))

    def test_planes(self, calls):
        planes = calls[2]
        assert len(planes) > 500
        for (points,) in planes:
            got, want = _plane_from_three(points), plane_from_three(points)
            assert (got is None) == (want is None)
            if got is not None:
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


class TestMarch:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_camera_rays_on_posed_shape(self, shape):
        intr = CameraIntrinsics(fx=120.0, fy=120.0, cx=40.0, cy=30.0, width=80, height=60)
        rng = np.random.default_rng(7)
        eyes = [(0.0, 0.0, 220.0), (70.0, -20.0, 190.0), (-40.0, 60.0, 230.0), (15.0, 90.0, 150.0)]
        for k, eye in enumerate(eyes):
            cam = camera_pose_from_lookat(eye, (0.0, 0.0, 0.0))
            pose = RigidTransform.rotation_z(rng.uniform(-3, 3)).compose(
                RigidTransform.rotation_x(0.3 * k)
            )
            o = np.broadcast_to(pose.inverse().apply(cam.translation), (intr.width * intr.height, 3))
            d = _pixel_dirs(intr, cam) @ pose.rotation
            got = shape.raycast(o, d)
            assert np.isfinite(got).sum() > 100
            assert same_bits(got, superellipsoid_raycast(shape, o, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_axis_parallel_rays(self, shape):
        """Directions with exact zeros, both signs, through and beside the
        body, including lines along the box faces."""
        half = widened_half(shape)
        o_list, d_list = [], []
        for axis in range(3):
            for sign in (1.0, -1.0):
                d = np.zeros(3)
                d[axis] = sign
                if sign < 0:
                    d[(axis + 1) % 3] = -0.0
                u, v = [i for i in range(3) if i != axis]
                for a in np.append(np.linspace(-1.2, 1.2, 25) * half[u], [half[u], -half[u]]):
                    for b in np.append(np.linspace(-1.2, 1.2, 25) * half[v], [half[v], 0.0]):
                        o = np.zeros(3)
                        o[axis] = -sign * 3.0 * half[axis]
                        o[u] = a
                        o[v] = b
                        o_list.append(o)
                        d_list.append(d)
        o = np.array(o_list)
        d = np.array(d_list)
        got = shape.raycast(o, d)
        assert np.isfinite(got).sum() > 100
        assert same_bits(got, superellipsoid_raycast(shape, o, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_rays_grazing_the_widened_box(self, shape):
        """Rays whose box interval is a point or a sliver: lines on each
        face plane of the widened box, one ulp either side of it, and lines
        through its edges and corners."""
        half = widened_half(shape)
        rng = np.random.default_rng(11)
        o_list, d_list = [], []
        for axis in range(3):
            for face in (half[axis], -half[axis]):
                below, above = np.nextafter(face, -np.inf), np.nextafter(face, np.inf)
                for offset in (below, face, above, face * (1 - 1e-9)):
                    d = random_unit(rng, 40)
                    d[:, axis] = 0.0
                    p = rng.uniform(-half, half, size=(40, 3))
                    p[:, axis] = offset
                    o_list.append(p - 150.0 * d)
                    d_list.append(d)
        corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]) * half
        for corner in corners:
            d = random_unit(rng, 40)
            o_list.append(corner - 150.0 * d)
            d_list.append(d)
        o = np.concatenate(o_list)
        d = np.concatenate(d_list)
        assert same_bits(shape.raycast(o, d), superellipsoid_raycast(shape, o, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_origins_inside_the_box(self, shape):
        half = widened_half(shape)
        rng = np.random.default_rng(13)
        o = rng.uniform(-half, half, size=(3000, 3))
        d = random_unit(rng, 3000) * rng.uniform(0.2, 3.0, size=(3000, 1))
        assert shape.contains(o).any() and not shape.contains(o).all()
        got = shape.raycast(o, d)
        assert np.isfinite(got).sum() > 100
        assert same_bits(got, superellipsoid_raycast(shape, o, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_one_ray_per_call(self, shape):
        """A lone ray skips its leading samples with no other ray evaluated
        beside it; on the boxy shapes its first evaluated sample is already
        inside, so the bracket must start at the skipped sample before."""
        rng = np.random.default_rng(19)
        half = widened_half(shape)
        for axis in range(3):
            for sign in (1.0, -1.0):
                for _ in range(6):
                    d = np.zeros((1, 3))
                    d[0, axis] = sign
                    o = rng.uniform(-0.05, 0.05, size=(1, 3)) * half
                    o[0, axis] = -sign * 2.0 * half[axis]
                    assert same_bits(shape.raycast(o, d), superellipsoid_raycast(shape, o, d))

    def test_vertical_lines_under_yaw_only_poses(self):
        """The settling probe: straight down in the world, so the local
        direction has exact zeros under a yaw-only rotation."""
        shape = SHAPES[0]
        rng = np.random.default_rng(17)
        for yaw in (0.0, 0.7, np.pi / 2, -2.5):
            pose = RigidTransform.rotation_z(yaw, (10.0, -5.0, 3.0))
            xy = rng.uniform(-40, 40, size=(500, 2))
            origins = np.column_stack([xy, np.full(500, 100.0)])
            dirs = np.tile([0.0, 0.0, -1.0], (500, 1))
            o = pose.inverse().apply(origins)
            d = dirs @ pose.rotation
            assert same_bits(shape.raycast(o, d), superellipsoid_raycast(shape, o, d))


class TestTerrain:
    def test_height_at(self):
        t = Terrain.generate(120.0, 90.0, 2.0, 5.0, seed=4)
        rng = np.random.default_rng(19)
        x = np.concatenate([rng.uniform(-300, 300, 4000), [np.nan, -np.inf, np.inf, -120.0, 120.0]])
        y = np.concatenate([rng.uniform(200, 800, 4000), [500.0, np.nan, 500.0, 410.0, 590.0]])
        with np.errstate(invalid="ignore"):
            assert same_bits(t.height_at(x, y), terrain_height_at(t, x, y))
            for k in range(x.size):
                assert same_bits(t.height_at(x[k], y[k]), terrain_height_at(t, x[k], y[k]))

    @pytest.mark.parametrize("amplitude", [5.0, 40.0, 80.0])
    def test_camera_rays(self, amplitude):
        t = Terrain.generate(150.0, 150.0, 2.0, amplitude, seed=9)
        intr = CameraIntrinsics(fx=150.0, fy=150.0, cx=60.0, cy=45.0, width=120, height=90)
        cam = camera_pose_from_lookat((20.0, 480.0, 400.0), (0.0, 500.0, 0.0))
        dirs = _pixel_dirs(intr, cam)
        got = t.raycast_world(cam.translation, dirs)
        assert same_bits(got, terrain_raycast(t, cam.translation, dirs))
        if amplitude == 80.0:
            assert np.isinf(got).sum() > 100  # the fixed point misses

    def test_off_grid_rays_clamp(self):
        """A tilted camera far outside the grid: most rays land off it and
        read the clamped edge heights; some never descend."""
        t = Terrain.generate(60.0, 60.0, 2.0, 20.0, seed=2)
        intr = CameraIntrinsics(fx=80.0, fy=80.0, cx=40.0, cy=30.0, width=80, height=60)
        cam = camera_pose_from_lookat((-400.0, 100.0, 150.0), (0.0, 500.0, -50.0))
        dirs = _pixel_dirs(intr, cam)
        dirs = np.concatenate([dirs, [[0.3, 0.2, 0.0], [0.0, 0.0, 1.0], [1e-12, 0.0, -1e-10]]])
        got = t.raycast_world(cam.translation, dirs)
        assert np.isinf(got[-3:]).all()
        assert same_bits(got, terrain_raycast(t, cam.translation, dirs))


class TestPlaneHypothesis:
    def test_random_and_collinear_triples(self):
        rng = np.random.default_rng(23)
        triples = list(rng.uniform(-500, 500, size=(2000, 3, 3)))
        a = rng.uniform(-100, 100, size=(200, 3))
        step = rng.uniform(-50, 50, size=(200, 3))
        triples += [np.stack([p, p + s, p + 2.5 * s]) for p, s in zip(a, step)]
        triples += [np.stack([p, p + s, p + s * (1 + 1e-13)]) for p, s in zip(a, step)]
        triples += [np.stack([p, p, p + s]) for p, s in zip(a, step)]
        triples += [np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]])]
        nones = 0
        for points in triples:
            got, want = _plane_from_three(points), plane_from_three(points)
            assert (got is None) == (want is None)
            if got is None:
                nones += 1
            else:
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert nones >= 200

    def test_whole_fit_matches(self, monkeypatch):
        rng = np.random.default_rng(29)
        floor = np.column_stack([rng.uniform(-100, 100, (3000, 2)), rng.normal(0, 1.0, 3000)])
        clutter = rng.uniform(-100, 100, (800, 3))
        cloud = PointCloud(np.concatenate([floor, clutter]), frame="robot")
        got = fit_plane_ransac(cloud, seed=5, max_points=2000)
        monkeypatch.setattr(pointcloud, "_plane_from_three", plane_from_three)
        want = fit_plane_ransac(cloud, seed=5, max_points=2000)
        assert same_bits(got[0].normal, want[0].normal)
        assert got[0].offset == want[0].offset
        assert same_bits(got[1], want[1])

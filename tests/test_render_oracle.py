"""The superellipsoid march, the terrain height lookup and the RANSAC
hypothesis against the reference kernels in ``render_oracle.py``, bit for
bit, and the exact terrain cast against the dense march of
``terrain_oracle.py``.

The library kernels skip work whose outcome is known: march samples
outside the superellipsoid's bounding box and the ``np.cross`` call
overhead. Those cases compare raw float64 bytes, so a single rounding
difference fails. The terrain cast solves each grid cell's quadratic where
the oracle samples and bisects, so their hits agree to 1e-6 mm and their
misses exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from render_oracle import (
    first_crossing,
    plane_from_three,
    record_calls,
    superellipsoid_raycast,
    terrain_height_at,
)
import ransac_oracle
from rockstack import pointcloud, shapes, taskexec
from rockstack.geometry import CameraIntrinsics, RigidTransform, camera_pose_from_lookat
from rockstack.harness import ExperimentConfig, run_trial
from rockstack.pointcloud import PointCloud, _plane_from_three, fit_plane_ransac
from rockstack.scenesim import Terrain, _pixel_dirs
from rockstack.shapes import Superellipsoid
from terrain_oracle import terrain_cast

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


def cast_matches_oracle(terrain: Terrain, origin, dirs) -> np.ndarray:
    """The terrain cast, after checking it against the dense march: the
    same misses, and hit points within 1e-6 mm."""
    got = terrain.raycast_world(origin, dirs)
    want = terrain_cast(terrain, origin, dirs)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    hit = np.isfinite(got)
    err = np.abs(got[hit] - want[hit]) * np.linalg.norm(dirs[hit], axis=1)
    assert err.max(initial=0.0) <= 1e-6
    return got


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
        march, terrain, planes, fits = [], [], [], []
        with (
            record_calls(Superellipsoid, "raycast", march),
            record_calls(Terrain, "raycast_world", terrain),
            record_calls(pointcloud, "_plane_from_three", planes),
            ransac_oracle.record_fits(pointcloud, fits),
            ransac_oracle.record_fits(taskexec, fits),
        ):
            for index in (3, 8):
                run_trial(cfg, index)
        return march, terrain, planes, fits

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
            got = cast_matches_oracle(t, origin, dirs)
            assert np.isfinite(got[dirs[:, 2] < 0]).all()

    def test_planes(self, calls):
        planes, fits = calls[2], calls[3]
        assert len(fits) >= 8
        for pts, rng, iters, tol, plane, rng_after in fits:
            want = ransac_oracle.fit_plane_sample(pts, rng, iters, tol)
            assert same_bits(plane.normal, want.normal) and same_bits(plane.offset, want.offset)
            assert rng_after.bit_generator.state == rng.bit_generator.state
        # each fit rebuilds its winner, and recounts its unsure hypotheses
        assert len(planes) >= len(fits)
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

    @pytest.mark.parametrize("k", [1, 2, 12, 13, 24, 25, 36, 37, 47, 48])
    def test_crossing_at_each_block_edge(self, k):
        """A half-space x >= k - 0.5 on the bracket [0, 48], where sample i
        sits at s = i exactly: the first inside sample of the ray from x = 0
        is k, whichever block it falls in; rays from further back cross
        later or not at all."""
        n = 9
        o = np.zeros((n, 3))
        o[:, 0] = -np.arange(n, dtype=float)  # ray j reaches the plane j samples later
        d = np.tile([1.0, 0.0, 0.0], (n, 1))
        lo, hi = np.zeros(n), np.full(n, 48.0)
        threshold = k - 0.5

        def inside(oc, dc, s):
            return oc[0] + s * dc[0] >= threshold

        def gap(s, rows):
            return threshold - (o[rows, 0] + s * d[rows, 0])

        window = np.full(n, -np.inf), np.full(n, np.inf)
        got = shapes._first_crossing(inside, o.T, d.T, lo, hi, *window)
        want = first_crossing(gap, lo, hi, np.ones(n, dtype=bool))
        # ray j first meets the plane at sample k + j; past 48 it misses
        reach = k + np.arange(n) <= 48
        assert np.array_equal(np.isfinite(got), reach)
        np.testing.assert_allclose(got[reach], threshold + np.arange(n)[reach], atol=1e-6)
        assert same_bits(got, want)

    def test_window_inside_the_bracket(self):
        """A slab body 20.2 <= x <= 30.7 whose window is the slab: samples
        before and after it are skipped, and the bracket of a ray whose first
        in-window sample is inside starts at the skipped sample before."""
        o = np.zeros((5, 3))
        o[:, 0] = [0.0, -3.0, 0.5, 5.0, 60.0]
        d = np.tile([1.0, 0.0, 0.0], (5, 1))
        lo, hi = np.zeros(5), np.full(5, 48.0)
        body = (20.2, 30.7)

        def inside(oc, dc, s):
            x = oc[0] + s * dc[0]
            return (x >= body[0]) & (x <= body[1])

        def gap(s, rows):
            x = o[rows, 0] + s * d[rows, 0]
            return np.where((x >= body[0]) & (x <= body[1]), -1.0, 1.0)

        w_lo, w_hi = body[0] - o[:, 0], body[1] - o[:, 0]
        got = shapes._first_crossing(inside, o.T, d.T, lo, hi, w_lo, w_hi)
        assert np.isfinite(got[:4]).all() and np.isinf(got[4])
        assert same_bits(got, first_crossing(gap, lo, hi, np.ones(5, dtype=bool)))

    def test_empty_window(self):
        """Rays that cross the bounding sphere but miss the widened box, and
        an explicitly empty window: nothing is evaluated, every ray misses."""
        calls = []

        def inside(oc, dc, s):
            calls.append(s.size)
            return np.ones(s.size, dtype=bool)

        o = np.zeros((3, 3))
        d = np.tile([1.0, 0.0, 0.0], (3, 1))
        lo, hi = np.zeros(3), np.full(3, 48.0)
        w_lo, w_hi = np.array([5.0, 49.0, -9.0]), np.array([4.0, 60.0, -1.0])
        got = shapes._first_crossing(inside, o.T, d.T, lo, hi, w_lo, w_hi)
        assert np.isinf(got).all() and calls == []

        # lines in planes p . u = rho with the widened box's support
        # h(u) < rho < r: they cross the sphere and miss the box
        shape = SHAPES[0]
        r = shape.bounding_radius
        rng = np.random.default_rng(43)
        u = random_unit(rng, 2000)
        support = np.abs(u) @ widened_half(shape)
        u, support = u[support < 0.95 * r][:200], support[support < 0.95 * r][:200]
        rho = 0.5 * (support + r)
        t = random_unit(rng, u.shape[0])
        t -= np.sum(t * u, axis=1, keepdims=True) * u
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        o = rho[:, None] * u - 100.0 * t
        assert u.shape[0] > 50
        got = shape.raycast(o, t)
        assert np.isinf(got).all()
        assert same_bits(got, superellipsoid_raycast(shape, o, t))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_first_inside_sample_at_block_edges(self, shape):
        """Random rays into the bounding sphere, binned by the index of
        their first inside sample on the sphere bracket: lines whose first
        hit is at either side of each block edge agree with the reference,
        alone and all together. A body centred in its sphere is rarely
        first met past the middle of a chord; the later block edges are
        covered by ``test_crossing_at_each_block_edge``."""
        rng = np.random.default_rng(47)
        r = shape.bounding_radius
        d = random_unit(rng, 20000)
        o = rng.uniform(-r, r, size=(20000, 3)) - rng.uniform(0.0, 2.5 * r, size=(20000, 1)) * d
        b = 2.0 * np.sum(o * d, axis=1)
        c = np.sum(o * o, axis=1) - r * r
        disc = b * b - 4.0 * c
        keep = disc > 0
        o, d, b, disc = o[keep], d[keep], b[keep], disc[keep]
        lo = np.maximum((-b - np.sqrt(disc)) / 2.0, 0.0)
        hi = (-b + np.sqrt(disc)) / 2.0
        s = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, 49) / 48)
        inside = shape.contains(o[:, None, :] + s[..., None] * d[:, None, :])
        first = np.where(inside.any(axis=1), inside.argmax(axis=1) + 1, 0)
        picked = []
        for k in (1, 12, 13, 24, 25):
            rows = np.flatnonzero(first == k)[:5]
            assert rows.size > 0, k
            assert same_bits(shape.raycast(o[rows], d[rows]), superellipsoid_raycast(shape, o[rows], d[rows]))
            picked.append(rows)
        picked = np.concatenate(picked + [np.flatnonzero(first == 0)[:20]])
        assert same_bits(shape.raycast(o[picked], d[picked]), superellipsoid_raycast(shape, o[picked], d[picked]))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_origins_inside_the_sphere(self, shape):
        """Origins between the box and the bounding sphere and at the centre,
        where the bracket starts at s = 0."""
        rng = np.random.default_rng(53)
        r = shape.bounding_radius
        o = random_unit(rng, 3000) * r * rng.uniform(0.0, 1.0, size=(3000, 1)) ** (1 / 3)
        o[:10] = 0.0
        d = random_unit(rng, 3000)
        assert (~(np.abs(o) <= widened_half(shape)).all(axis=1)).sum() > 500
        got = shape.raycast(o, d)
        assert np.isfinite(got).sum() > 100
        assert same_bits(got, superellipsoid_raycast(shape, o, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_one_zero_direction_component(self, shape):
        """Oblique lines with exactly one zero (or negative zero) direction
        component, through and beside the body."""
        rng = np.random.default_rng(59)
        half = widened_half(shape)
        o_list, d_list = [], []
        for axis in range(3):
            for zero in (0.0, -0.0):
                d = random_unit(rng, 300)
                d[:, axis] = zero
                d /= np.linalg.norm(d, axis=1, keepdims=True)
                p = rng.uniform(-1.1, 1.1, size=(300, 3)) * half
                o_list.append(p - 3.0 * np.linalg.norm(half) * d)
                d_list.append(d)
        o, d = np.concatenate(o_list), np.concatenate(d_list)
        got = shape.raycast(o, d)
        assert np.isfinite(got).sum() > 100
        assert same_bits(got, superellipsoid_raycast(shape, o, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"e{s.e1}-{s.e2}")
    def test_array_passes_per_cast(self, shape, monkeypatch):
        # A count of gap evaluations, not a timing: at most one per march
        # block and one per bisection step, whatever the number of samples
        # each ray needs.
        real = shapes._first_crossing
        passes = []

        def counted(inside, *args, **kwargs):
            def counted_inside(o, d, s):
                passes[-1] += 1
                return inside(o, d, s)

            passes.append(0)
            return real(counted_inside, *args, **kwargs)

        monkeypatch.setattr(shapes, "_first_crossing", counted)
        intr = CameraIntrinsics(fx=120.0, fy=120.0, cx=40.0, cy=30.0, width=80, height=60)
        cam = camera_pose_from_lookat((70.0, -20.0, 190.0), (0.0, 0.0, 0.0))
        o = np.broadcast_to(cam.translation, (intr.width * intr.height, 3))
        got = shape.raycast(o, _pixel_dirs(intr, cam))
        assert np.isfinite(got).sum() > 100
        assert passes == [passes[0]] and 24 < passes[0] <= 4 + 24


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

    @pytest.mark.parametrize("amplitude", [0.0, 5.0, 40.0, 80.0])
    def test_camera_rays(self, amplitude):
        t = Terrain.generate(150.0, 150.0, 2.0, amplitude, seed=9)
        intr = CameraIntrinsics(fx=150.0, fy=150.0, cx=60.0, cy=45.0, width=120, height=90)
        cam = camera_pose_from_lookat((20.0, 480.0, 400.0), (0.0, 500.0, 0.0))
        dirs = _pixel_dirs(intr, cam)
        got = cast_matches_oracle(t, cam.translation, dirs)
        assert np.isfinite(got).all()  # every ray descends onto the grid

    @pytest.mark.parametrize("amplitude", [5.0, 40.0, 80.0])
    def test_grazing_and_non_descending_rays(self, amplitude):
        """Rays skimming the surface at shallow angles from just above its
        highest point, level or rising rays from inside its height range,
        which can still meet a slope ahead, and rays from below the surface,
        which are under it at s = 0."""
        t = Terrain.generate(100.0, 80.0, 5.0, amplitude, seed=5)
        rng = np.random.default_rng(31)
        z_hi = t.heights.max()
        heading = rng.uniform(-np.pi, np.pi, 600)
        slope = np.concatenate(
            [-np.geomspace(1e-4, 0.3, 300), np.zeros(100), np.geomspace(1e-4, 0.2, 200)]
        )
        dirs = np.column_stack([np.cos(heading), np.sin(heading), slope])
        rising = []
        for above in (None, 0.2, 0.6):
            x, y = rng.uniform(-60, 60), rng.uniform(450, 550)
            h = float(t.height_at(x, y))
            z = z_hi + 0.5 if above is None else h + above * (z_hi - h)
            got = cast_matches_oracle(t, np.array([x, y, z]), dirs)
            assert np.isfinite(got[slope < 0]).all()
            rising.append(got[slope >= 0])
        rising = np.concatenate(rising)
        assert np.isfinite(rising).any() and np.isinf(rising).any()
        below = np.array([x, y, h - 0.5])
        assert (cast_matches_oracle(t, below, dirs) == 0.0).all()

    def test_saddle_cell(self):
        """One twisted cell, h = 10 fx fy, in which the height along a
        diagonal ray is quadratic: level, rising and falling rays meet it
        where the surface curves up into them, or pass over it."""
        t = Terrain(np.array([[0.0, 0.0], [0.0, 10.0]]), pitch=10.0, origin=(0.0, 0.0))
        rng = np.random.default_rng(37)
        heading = rng.uniform(0.1, 1.5, 400)
        slope = rng.uniform(-0.3, 0.3, 400)
        dirs = np.column_stack([np.cos(heading), np.sin(heading), slope])
        for z in (2.0, 5.0, 8.0):
            got = cast_matches_oracle(t, np.array([-5.0, -5.0, z]), dirs)
            assert np.isfinite(got).sum() > 100 and np.isinf(got).sum() > 10

    def test_off_grid_rays_clamp(self):
        """A tilted camera far outside the grid: most rays land off it and
        read the clamped edge heights; some never descend."""
        t = Terrain.generate(60.0, 60.0, 2.0, 20.0, seed=2)
        intr = CameraIntrinsics(fx=80.0, fy=80.0, cx=40.0, cy=30.0, width=80, height=60)
        cam = camera_pose_from_lookat((-400.0, 100.0, 150.0), (0.0, 500.0, -50.0))
        dirs = _pixel_dirs(intr, cam)
        dirs = np.concatenate([dirs, [[0.3, 0.2, 0.0], [0.0, 0.0, 1.0], [1e-12, 0.0, -1e-10]]])
        got = cast_matches_oracle(t, cam.translation, dirs)
        assert np.isinf(got[-3:-1]).all()
        # the barely descending ray meets the clamped corner height far off
        assert got[-1] == pytest.approx((t.heights[0, 0] - cam.translation[2]) / -1e-10)
        assert np.isfinite(got[dirs[:, 2] < 0]).all()


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

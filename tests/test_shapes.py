"""Implicit-surface geometry: superellipsoids and part primitives.

The closed-form volume is validated against a grid-occupancy integration
oracle; ray casts are checked against analytic sphere intersections and
implicit-function membership at the returned hit points.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from rockstack.errors import ValidationError
from rockstack.shapes import (
    Box,
    Cylinder,
    Sphere,
    Superellipsoid,
    Union,
)


def grid_volume(shape: Superellipsoid, n: int = 120) -> float:
    """Occupancy-grid volume oracle, accurate to O(1/n)."""
    xs = np.linspace(-shape.ax, shape.ax, n)
    ys = np.linspace(-shape.ay, shape.ay, n)
    zs = np.linspace(-shape.az, shape.az, n)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0]) * (zs[1] - zs[0])
    count = 0
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    for z in zs:
        pts = np.stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)], axis=-1)
        count += int(np.count_nonzero(shape.contains(pts)))
    return count * cell


class TestSuperellipsoid:
    def test_sphere_volume_closed_form(self):
        s = Superellipsoid(ax=10.0, ay=10.0, az=10.0, e1=1.0, e2=1.0)
        assert s.volume == pytest.approx(4.0 / 3.0 * math.pi * 1000.0, rel=1e-9)

    def test_ellipsoid_volume(self):
        s = Superellipsoid(ax=10.0, ay=20.0, az=5.0, e1=1.0, e2=1.0)
        assert s.volume == pytest.approx(4.0 / 3.0 * math.pi * 1000.0, rel=1e-9)

    @pytest.mark.parametrize("e1,e2", [(0.5, 0.5), (0.8, 1.3), (1.5, 0.7), (2.0, 2.0)])
    def test_volume_matches_grid_oracle(self, e1, e2):
        s = Superellipsoid(ax=12.0, ay=9.0, az=15.0, e1=e1, e2=e2)
        assert s.volume == pytest.approx(grid_volume(s), rel=0.03)

    def test_parametric_points_lie_on_surface(self):
        s = Superellipsoid(ax=20.0, ay=15.0, az=10.0, e1=0.8, e2=1.2)
        pts = s.surface_points(16, 32)
        values = s.implicit(pts)
        # poles are parameter-degenerate; everything else sits on G=1
        good = np.abs(np.abs(pts[:, 2]) - s.az) > 1e-6
        np.testing.assert_allclose(values[good], 1.0, atol=1e-6)

    def test_contains_inside_outside(self):
        s = Superellipsoid(ax=10.0, ay=10.0, az=10.0, e1=1.0, e2=1.0)
        assert bool(s.contains(np.array([0.0, 0.0, 0.0])))
        assert bool(s.contains(np.array([9.9, 0.0, 0.0])))
        assert not bool(s.contains(np.array([10.1, 0.0, 0.0])))

    def test_raycast_matches_analytic_sphere(self):
        s = Superellipsoid(ax=30.0, ay=30.0, az=30.0, e1=1.0, e2=1.0)
        rng = np.random.default_rng(1)
        origins = np.tile([0.0, 0.0, 100.0], (200, 1))
        targets = rng.uniform(-20, 20, (200, 3))
        dirs = targets - origins
        got = s.raycast(origins, dirs)
        # analytic: |o + s d|^2 = r^2
        a = np.sum(dirs * dirs, axis=1)
        b = 2 * np.sum(origins * dirs, axis=1)
        c = np.sum(origins * origins, axis=1) - 900.0
        disc = b * b - 4 * a * c
        hit = disc >= 0
        s_true = np.where(hit, (-b - np.sqrt(np.abs(disc))) / (2 * a), np.inf)
        np.testing.assert_allclose(got[hit], s_true[hit], atol=1e-4)
        assert np.all(np.isinf(got[~hit]))

    def test_raycast_hits_lie_on_surface(self):
        s = Superellipsoid(ax=25.0, ay=14.0, az=9.0, e1=0.6, e2=1.4)
        rng = np.random.default_rng(2)
        origins = rng.uniform(-10, 10, (300, 3))
        origins[:, 2] = 80.0
        targets = rng.uniform(-1, 1, (300, 3)) * np.array([20.0, 11.0, 6.0])
        dirs = targets - origins
        got = s.raycast(origins, dirs)
        hit = np.isfinite(got)
        assert np.count_nonzero(hit) > 50
        pts = origins[hit] + got[hit, None] * dirs[hit]
        np.testing.assert_allclose(s.implicit(pts), 1.0, atol=1e-5)

    def test_exponent_validation(self):
        with pytest.raises(ValidationError):
            Superellipsoid(ax=1, ay=1, az=1, e1=0.1, e2=1.0)
        with pytest.raises(ValidationError):
            Superellipsoid(ax=-1, ay=1, az=1)

    def test_bounding_radius_contains_surface(self):
        s = Superellipsoid(ax=10.0, ay=20.0, az=7.0, e1=0.5, e2=1.8)
        pts = s.surface_points(24, 48)
        assert np.max(np.linalg.norm(pts, axis=1)) <= s.bounding_radius + 1e-9


class TestBox:
    def test_raycast_slab_oracle(self):
        box = Box(center=(0.0, 0.0, 0.0), half_extents=(10.0, 20.0, 5.0))
        # straight-on hit
        s = box.raycast(np.array([[0.0, 0.0, 50.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert s[0] == pytest.approx(45.0)
        # angled hit on a side face: enters at x=10 after 10 units of x travel
        s = box.raycast(np.array([[30.0, 0.0, 0.0]]), np.array([[-1.0, 0.0, 0.0]]))
        assert s[0] == pytest.approx(20.0)
        # miss
        s = box.raycast(np.array([[30.0, 30.0, 0.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert np.isinf(s[0])

    def test_raycast_matches_marching_oracle(self):
        box = Box(center=(2.0, -3.0, 1.0), half_extents=(6.0, 4.0, 9.0))
        rng = np.random.default_rng(3)
        origins = rng.uniform(-30, 30, (100, 3))
        origins[:, 2] = 40.0
        dirs = rng.uniform(-0.5, 0.5, (100, 3))
        dirs[:, 2] = -1.0
        got = box.raycast(origins, dirs)
        for i in range(100):
            ss = np.linspace(0, 80, 16001)
            pts = origins[i] + ss[:, None] * dirs[i]
            inside = box.contains(pts)
            if np.any(inside):
                first = ss[np.argmax(inside)]
                assert got[i] == pytest.approx(first, abs=0.02)
            else:
                assert np.isinf(got[i]) or got[i] > 80

    def test_surface_points_on_faces(self):
        box = Box(center=(0.0, 0.0, 0.0), half_extents=(5.0, 6.0, 7.0))
        pts = box.surface_points(2.0)
        on_face = (
            np.isclose(np.abs(pts[:, 0]), 5.0)
            | np.isclose(np.abs(pts[:, 1]), 6.0)
            | np.isclose(np.abs(pts[:, 2]), 7.0)
        )
        assert np.all(on_face)
        assert np.all(box.contains(pts))


class TestSphere:
    def test_raycast_analytic(self):
        sph = Sphere(center=(0.0, 0.0, 0.0), radius=10.0)
        s = sph.raycast(np.array([[0.0, 0.0, 50.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert s[0] == pytest.approx(40.0)

    def test_surface_points_on_surface(self):
        sph = Sphere(center=(1.0, 2.0, 3.0), radius=8.0)
        pts = sph.surface_points(2.0)
        np.testing.assert_allclose(np.linalg.norm(pts - sph.center, axis=1), 8.0, atol=1e-9)


class TestCylinder:
    def test_side_hit(self):
        cyl = Cylinder(base=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0), length=20.0, radius=5.0)
        s = cyl.raycast(np.array([[30.0, 0.0, 10.0]]), np.array([[-1.0, 0.0, 0.0]]))
        assert s[0] == pytest.approx(25.0)

    def test_cap_hit(self):
        cyl = Cylinder(base=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0), length=20.0, radius=5.0)
        s = cyl.raycast(np.array([[2.0, 0.0, 50.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert s[0] == pytest.approx(30.0)  # hits the top cap at z=20

    def test_miss_beyond_length(self):
        cyl = Cylinder(base=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0), length=20.0, radius=5.0)
        s = cyl.raycast(np.array([[30.0, 0.0, 40.0]]), np.array([[-1.0, 0.0, 0.0]]))
        assert np.isinf(s[0])

    def test_contains(self):
        cyl = Cylinder(base=(0.0, 0.0, 0.0), axis=(1.0, 0.0, 0.0), length=10.0, radius=2.0)
        assert bool(cyl.contains(np.array([5.0, 1.0, 0.0])))
        assert not bool(cyl.contains(np.array([5.0, 3.0, 0.0])))
        assert not bool(cyl.contains(np.array([11.0, 0.0, 0.0])))

    def test_surface_points_on_surface(self):
        cyl = Cylinder(base=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0), length=12.0, radius=4.0)
        pts = cyl.surface_points(2.0)
        radial = np.linalg.norm(pts[:, :2], axis=1)
        on_side = np.isclose(radial, 4.0, atol=1e-9)
        on_cap = np.isclose(pts[:, 2], 0.0) | np.isclose(pts[:, 2], 12.0)
        assert np.all(on_side | on_cap)


class TestKeptSamples:
    """Oracle for the samples a shape keeps: a fresh build of the same
    grid or samples, bit for bit, and no way to write to the kept array."""

    @pytest.mark.parametrize("size", [(), (16, 32), (7, 5)])
    def test_rock_grid_equals_a_fresh_build(self, size):
        s = Superellipsoid(ax=21.0, ay=14.5, az=11.0, e1=0.73, e2=1.31)
        n_eta, n_omega = size or (32, 64)
        eta = np.linspace(-math.pi / 2, math.pi / 2, n_eta)
        omega = np.linspace(-math.pi, math.pi, n_omega, endpoint=False)
        ee, ww = np.meshgrid(eta, omega, indexing="ij")
        fresh = s._param_points(ee.ravel(), ww.ravel())
        kept = s.surface_points(*size)
        assert kept.tobytes() == fresh.tobytes()
        assert s.surface_points(*size) is kept
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1.0

    def test_union_samples_and_bounding_equal_a_fresh_build(self):
        prims = (
            Box(center=(10.0, 0.0, 0.0), half_extents=(2.0, 2.0, 2.0)),
            Sphere(center=(-10.0, 0.0, 0.0), radius=3.0),
            Cylinder(base=(0.0, 5.0, 0.0), axis=(0.0, 0.0, 1.0), length=6.0, radius=1.5),
        )
        union = Union(prims)
        for spacing in (2.0, 2.5, 2.0):
            kept = union.surface_points(spacing)
            fresh = np.concatenate([prim.surface_points(spacing) for prim in prims])
            assert kept.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 1.0
        center, radius = union.bounding
        fresh_center, fresh_radius = Union(prims).bounding
        assert union.bounding is union.bounding
        assert center.tobytes() == fresh_center.tobytes() and radius == fresh_radius
        with pytest.raises(ValueError, match="read-only"):
            center[0] = 1.0


class TestUnions:
    def test_union_raycast_takes_nearest(self):
        prims = [
            Sphere(center=(0.0, 0.0, 0.0), radius=5.0),
            Sphere(center=(0.0, 0.0, 30.0), radius=5.0),
        ]
        s = Union(prims).raycast(np.array([[0.0, 0.0, 100.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert s[0] == pytest.approx(65.0)  # upper sphere first

    def test_union_contains(self):
        prims = [
            Box(center=(0.0, 0.0, 0.0), half_extents=(1.0, 1.0, 1.0)),
            Sphere(center=(10.0, 0.0, 0.0), radius=1.0),
        ]
        assert bool(Union(prims).contains(np.array([0.5, 0.0, 0.0])))
        assert bool(Union(prims).contains(np.array([10.0, 0.5, 0.0])))
        assert not bool(Union(prims).contains(np.array([5.0, 0.0, 0.0])))

    def test_union_bounding_encloses_everything(self):
        prims = [
            Box(center=(10.0, 0.0, 0.0), half_extents=(2.0, 2.0, 2.0)),
            Sphere(center=(-10.0, 0.0, 0.0), radius=3.0),
        ]
        center, radius = Union(prims).bounding
        for prim in prims:
            pts = prim.surface_points(1.0)
            assert np.max(np.linalg.norm(pts - center, axis=1)) <= radius + 1e-6

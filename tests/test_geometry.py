"""Pinhole deprojection/projection, rigid transforms, masks and file I/O.

Derived expectations are verified through independent oracles: projection
round trips for deprojection, the rounding rule written out in Python
floats for transforms, and pixel enumeration for mask statistics.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np
import pytest

from rockstack.errors import (
    BehindCameraError,
    ConfigError,
    EmptyMaskError,
    MissingDepthError,
    OutOfBoundsError,
    ValidationError,
)
from rockstack.geometry import (
    CameraIntrinsics,
    InstanceMask,
    RigidTransform,
    camera_pose_from_lookat,
    deproject_pixel,
    mask_area,
    mask_bbox,
    mask_centroid,
    open_atomic,
    project_point,
    write_depth_pgm,
    write_mask_pbm,
    _rotated,
)

from conftest import rotated_by_hand


class TestDeprojection:
    def test_principal_point_ray(self, intr):
        p = deproject_pixel(intr, 320, 240, 500)
        np.testing.assert_allclose(p, [0.0, 0.0, 500.0])

    def test_off_axis_pixel_round_trips(self, intr):
        # (u=620, v=240, d=600) -> x = (620-320)*600/600 = 300
        p = deproject_pixel(intr, 620, 240, 600)
        np.testing.assert_allclose(p, [300.0, 0.0, 600.0])
        u, v, d = project_point(intr, p)
        assert (u, v, d) == pytest.approx((620.0, 240.0, 600.0))

    def test_missing_depth_rejected(self, intr):
        with pytest.raises(MissingDepthError):
            deproject_pixel(intr, 320, 240, 0)

    def test_out_of_bounds_rejected(self, intr):
        with pytest.raises(OutOfBoundsError):
            deproject_pixel(intr, 640, 240, 100)
        with pytest.raises(OutOfBoundsError):
            deproject_pixel(intr, -1, 240, 100)

    def test_projection_examples(self, intr):
        u, v, d = project_point(intr, [0.0, 0.0, 500.0])
        assert (u, v, d) == pytest.approx((320.0, 240.0, 500.0))
        u, v, d = project_point(intr, [300.0, 0.0, 600.0])
        assert (u, v, d) == pytest.approx((620.0, 240.0, 600.0))

    def test_behind_camera_rejected(self, intr):
        with pytest.raises(BehindCameraError):
            project_point(intr, [0.0, 0.0, -10.0])

    def test_round_trip_batch(self, intr):
        rng = np.random.default_rng(7)
        n = 10_000
        u = rng.uniform(0, intr.width - 1e-6, n)
        v = rng.uniform(0, intr.height - 1e-6, n)
        d = rng.uniform(1.0, 4000.0, n)
        pts = deproject_pixel(intr, u, v, d)
        u2, v2, d2 = project_point(intr, pts)
        np.testing.assert_allclose(u2, u, atol=1e-6)
        np.testing.assert_allclose(v2, v, atol=1e-6)
        np.testing.assert_allclose(d2, d, atol=1e-6)

    def test_intrinsics_validation(self):
        with pytest.raises(ValidationError):
            CameraIntrinsics(fx=-1, fy=600, cx=320, cy=240, width=640, height=480)
        with pytest.raises(ValidationError):
            CameraIntrinsics(fx=600, fy=600, cx=700, cy=240, width=640, height=480)


class TestRigidTransform:
    def test_identity(self):
        t = RigidTransform.identity()
        np.testing.assert_allclose(t.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_pure_translation(self):
        t = RigidTransform.from_translation([0.0, 0.0, 100.0])
        np.testing.assert_allclose(t.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 103.0])

    def test_rotation_z_quarter_turn_matches_matrix_oracle(self):
        t = RigidTransform.rotation_z(math.pi / 2)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float) @ np.array(
            [100.0, 0.0, 0.0]
        )
        np.testing.assert_allclose(t.apply([100.0, 0.0, 0.0]), expected, atol=1e-12)
        np.testing.assert_allclose(t.apply([100.0, 0.0, 0.0]), [0.0, 100.0, 0.0], atol=1e-9)

    def test_compose_identity_is_identity(self):
        t = RigidTransform.rotation_z(0.3, (1.0, 2.0, 3.0))
        out = RigidTransform.identity().compose(t)
        np.testing.assert_allclose(out.rotation, t.rotation)
        np.testing.assert_allclose(out.translation, t.translation)

    def test_invert_translation(self):
        t = RigidTransform.from_translation([0.0, 0.0, 100.0]).inverse()
        np.testing.assert_allclose(t.translation, [0.0, 0.0, -100.0])

    def test_compose_rotations_adds_angles(self):
        t = RigidTransform.rotation_z(math.radians(30)).compose(
            RigidTransform.rotation_z(math.radians(60))
        )
        expected = RigidTransform.rotation_z(math.radians(90))
        np.testing.assert_allclose(t.rotation, expected.rotation, atol=1e-12)

    def test_group_laws(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            angles = rng.uniform(-math.pi, math.pi, 3)
            t = (
                RigidTransform.rotation_z(angles[0])
                .compose(RigidTransform.rotation_x(angles[1]))
                .compose(RigidTransform.rotation_y(angles[2], rng.uniform(-100, 100, 3)))
            )
            ident = t.compose(t.inverse())
            np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(ident.translation, 0.0, atol=1e-9)

    def test_associativity(self):
        rng = np.random.default_rng(4)
        a = RigidTransform.rotation_x(0.4, rng.uniform(-50, 50, 3))
        b = RigidTransform.rotation_y(-1.1, rng.uniform(-50, 50, 3))
        c = RigidTransform.rotation_z(2.2, rng.uniform(-50, 50, 3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)

    def test_isometry(self):
        rng = np.random.default_rng(5)
        t = RigidTransform.rotation_z(0.7).compose(
            RigidTransform.rotation_x(-0.2, (10.0, -20.0, 5.0))
        )
        p = rng.uniform(-500, 500, (50, 3))
        q = rng.uniform(-500, 500, (50, 3))
        before = np.linalg.norm(p - q, axis=1)
        after = np.linalg.norm(t.apply(p) - t.apply(q), axis=1)
        np.testing.assert_allclose(after, before, rtol=1e-9)

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValidationError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1

    def test_the_check_bound_is_1e_9(self):
        """The check is |a - b| <= 1e-9 on each entry of RᵀR and on the
        determinant: a uniform scaling by 1 + s puts RᵀR's diagonal 2s off
        and the determinant 3s off."""
        RigidTransform(np.eye(3) * (1 + 2e-10), np.zeros(3))
        with pytest.raises(ValidationError, match="orthonormal"):
            RigidTransform(np.eye(3) * (1 + 6e-10), np.zeros(3))
        with pytest.raises(ValidationError, match="determinant"):
            RigidTransform(np.eye(3) * (1 + 4e-10), np.zeros(3))
        with pytest.raises(ValidationError, match="orthonormal"):
            RigidTransform(np.eye(3) * (1 + 2e-6), np.zeros(3))

    def test_the_check_decides_as_numpy_does(self):
        """Oracle: np.allclose and np.isclose with atol 1e-9 and rtol 0, on
        random rotations and reflections perturbed elementwise by 1e-13 to
        1e-7 and on scalings that straddle both bounds."""
        rng = np.random.default_rng(29)
        cases = []
        for k in range(3000):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if k % 4 == 0:
                q[:, 0] = -q[:, 0]
            if np.linalg.det(q) < 0 and k % 4:
                q[:, 0] = -q[:, 0]
            scale = 10.0 ** rng.uniform(-13, -7)
            cases.append(q + rng.choice([-scale, scale], size=(3, 3)) * rng.uniform(0, 1, (3, 3)))
            band = rng.choice([5e-10, 1e-9 / 3]) * (1 + rng.uniform(-0.02, 0.02))
            cases.append(q * (1 + band))
        outcomes = {"orthonormal": 0, "determinant": 0, None: 0}
        for r in cases:
            if not np.allclose(_rotated(r.T, r.T), np.eye(3), rtol=0.0, atol=1e-9):
                expected = "orthonormal"
            elif not np.isclose(np.linalg.det(r), 1.0, rtol=0.0, atol=1e-9):
                expected = "determinant"
            else:
                expected = None
            try:
                RigidTransform(r, np.zeros(3))
                got = None
            except ValidationError as exc:
                got = "orthonormal" if "orthonormal" in str(exc) else "determinant"
            assert got == expected, r
            outcomes[got] += 1
        assert min(outcomes.values()) > 500, outcomes

    def test_public_entry_points_still_validate(self):
        bad = np.array([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match="orthonormal"):
            RigidTransform(bad, np.zeros(3))
        with pytest.raises(ValidationError, match="orthonormal"):
            RigidTransform.from_json_dict({"rotation": bad.ravel().tolist(), "translation": [0, 0, 0]})
        with pytest.raises(ValidationError, match="finite"):
            RigidTransform.from_translation([0.0, np.nan, 0.0])
        with pytest.raises(ValidationError, match="finite"):
            RigidTransform.identity().with_translation([0.0, 0.0, np.inf])

    def test_compose_and_inverse_match_the_checked_constructor(self):
        """compose, inverse and with_translation skip re-validating the
        rotation; their arrays are the ones the checked constructor stores
        for the products worked by hand, bit for bit."""
        rng = np.random.default_rng(6)
        for _ in range(50):
            angles = rng.uniform(-math.pi, math.pi, 3)
            a = RigidTransform.rotation_z(angles[0], rng.uniform(-500, 500, 3)).compose(
                RigidTransform.rotation_x(angles[1])
            )
            b = RigidTransform.rotation_y(angles[2], rng.uniform(-500, 500, 3))
            columns = [rotated_by_hand(a.rotation, b.rotation[:, j]) for j in range(3)]
            moved = rotated_by_hand(a.rotation, b.translation)
            back = rotated_by_hand(a.rotation.T, a.translation)
            pairs = [
                (
                    a.compose(b),
                    RigidTransform(
                        np.array(columns).T, [m + float(t) for m, t in zip(moved, a.translation)]
                    ),
                ),
                (a.inverse(), RigidTransform(a.rotation.T, [-x for x in back])),
                (a.with_translation(b.translation), RigidTransform(a.rotation, b.translation)),
                (a.with_translation((1.0, -2, 3.5)), RigidTransform(a.rotation, (1.0, -2, 3.5))),
            ]
            for got, want in pairs:
                for x, y in ((got.rotation, want.rotation), (got.translation, want.translation)):
                    assert x.dtype == y.dtype and x.shape == y.shape
                    assert x.tobytes() == y.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.inverse().translation = np.zeros(3)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_every_point_rounds_as_it_does_alone(self, order):
        """Rotations without a zero entry, stored and given in either memory
        order: each point of a batch of any shape transforms to the bits of
        the point transformed alone, which are the rule's by hand."""
        rng = np.random.default_rng(8)
        for _ in range(6):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
            q *= np.sign(np.linalg.det(q))
            pose = RigidTransform(np.asarray(q, order=order), rng.uniform(-500, 500, 3))
            assert np.all(pose.rotation != 0.0)
            pts = np.asarray(rng.uniform(-800, 800, (4, 5, 3)), order=order)
            for shape in [(3,), (1, 3), (1, 1, 3), (2, 3), (3, 3), (20, 3), (4, 5, 3)]:
                batch = pts.reshape(-1, 3)[: math.prod(shape[:-1])].reshape(shape)
                rows = batch.reshape(-1, 3)
                for method in (pose.apply, pose.rotate):
                    got = method(batch)
                    assert got.shape == batch.shape and got.dtype == np.float64
                    for row, point in zip(got.reshape(-1, 3), rows):
                        alone = method(point.copy())
                        hand = rotated_by_hand(pose.rotation, point)
                        if method == pose.apply:
                            hand = [h + float(t) for h, t in zip(hand, pose.translation)]
                        assert row.tobytes() == alone.tobytes() == np.array(hand).tobytes()
        with pytest.raises(ValidationError):
            pose.apply(np.zeros((4, 2)))


class TestLookAt:
    def test_overhead_camera_conventions(self):
        pose = camera_pose_from_lookat((0.0, 500.0, 1000.0), (0.0, 500.0, 0.0))
        # optical axis points straight down, image x stays world x
        np.testing.assert_allclose(pose.rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(pose.rotation[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e-4, 10.0, 20.0])
    def test_near_vertical_views(self, offset):
        """A view tilted about world y from straight down keeps image +x in
        the xz plane, next to world +x; straight down keeps the exact axes."""
        eye = np.array([offset, 0.0, 300.0])
        r = camera_pose_from_lookat(eye, (0.0, 0.0, 0.0)).rotation
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(r[:, 2], -eye / np.linalg.norm(eye), atol=1e-15)
        assert r[0, 0] > 0.99 and r[1, 0] == 0.0
        if offset == 0.0:
            straight_down = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
            assert r.tobytes() == straight_down.tobytes()

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_level_views_along_y(self, direction):
        """A level view along +-y is straight down turned a quarter turn
        about world x: image +x stays world +x and image +y is world -z for
        +y, +z for -y. A view 3 degrees lower is close to it."""
        eye = np.array([0.0, 500.0, 600.0])
        ahead = np.array([0.0, 4500.0 * direction, 0.0])
        level = camera_pose_from_lookat(eye, eye + ahead).rotation
        want = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, direction], [0.0, -direction, 0.0]])
        np.testing.assert_array_equal(level, want)
        drop = np.array([0.0, 0.0, -4500.0 * math.tan(math.radians(3.0))])
        tilted = camera_pose_from_lookat(eye, eye + ahead + drop).rotation
        np.testing.assert_allclose(level, tilted, rtol=0.0, atol=0.06)

    def test_the_straight_down_camera_turned_along_the_shortest_arc(self):
        """Oracle: Rodrigues' rotation taking (0, 0, -1) onto the optical
        axis f about their common normal, I + V + V²/(1 + c) with V the
        cross-product matrix of (0, 0, -1) x f and c their dot product,
        applied to the straight-down camera. Over 1200 seeded views of the
        lower hemisphere, level views and the upper one up to the guard, the
        image axes agree within 1e-12, f is the unit view direction within
        1e-15, and RᵀR is within 1e-10 of the identity."""
        rng = np.random.default_rng(33)
        polar = np.concatenate(
            [
                rng.uniform(math.pi / 2, math.pi, 600),  # below the horizon
                np.full(200, math.pi / 2),  # level
                rng.uniform(math.acos(1 - 1e-5) * (1 + 1e-9), math.pi / 2, 300),
                math.acos(1 - 1e-5) * (1 + rng.uniform(1e-9, 1e-3, 100)),  # up to the guard
            ]
        )
        azimuth = rng.uniform(-math.pi, math.pi, polar.size)
        view = np.column_stack(
            [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
        ) * rng.uniform(1.0, 2000.0, (polar.size, 1))
        down = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        e = np.array([0.0, 0.0, -1.0])
        for d, eye in zip(view, rng.uniform(-800.0, 800.0, (polar.size, 3))):
            r = camera_pose_from_lookat(eye, eye + d).rotation
            f = r[:, 2]
            true_d = (eye + d) - eye
            np.testing.assert_allclose(f, true_d / np.linalg.norm(true_d), rtol=0.0, atol=1e-15)
            vx, vy, vz = np.cross(e, f)
            v = np.array([[0.0, -vz, vy], [vz, 0.0, -vx], [-vy, vx, 0.0]])
            arc = np.eye(3) + v + v @ v / (1.0 + e @ f)
            np.testing.assert_allclose(r[:, :2], (arc @ down)[:, :2], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(r.T @ r, np.eye(3), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("heading", [0.0, 0.5, math.pi / 2, 2.0, math.pi, -1.2])
    def test_the_image_turns_continuously(self, heading):
        """Tilting the view from straight down to 60 degrees, a quarter
        degree at a time, toward one horizontal heading turns image +x by no
        more than each step, and every rotation is within 1e-10 of
        orthonormal."""
        step = math.radians(0.25)
        tilts = np.arange(0.0, math.radians(60.0) + step / 2, step)
        eye = np.array([30.0, 480.0, 400.0])
        toward = np.array([math.cos(heading), math.sin(heading)])
        previous = None
        for tilt in tilts:
            offset = 400.0 * math.tan(tilt) * toward
            r = camera_pose_from_lookat(eye, eye + (offset[0], offset[1], -400.0)).rotation
            np.testing.assert_allclose(r.T @ r, np.eye(3), rtol=0.0, atol=1e-10)
            if previous is not None:
                turn = math.acos(min(1.0, float(previous @ r[:, 0])))
                assert turn <= step * (1 + 1e-9), (tilt, turn)
            previous = r[:, 0]

    def test_degenerate_lookat_rejected(self):
        with pytest.raises(ValidationError):
            camera_pose_from_lookat((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "target",
        [
            (0.0, 0.0, 500.0),
            (500.0 * math.sin(math.acos(1 - 0.99e-5)), 0.0, 500.0 * (1 - 0.99e-5)),
            (np.nan, 0.0, -1.0),
        ],
        ids=["straight-up", "inside-the-guard", "nan"],
    )
    def test_views_near_straight_up_rejected(self, target):
        """The guard: 1 - f_z below 1e-5, or not a number."""
        with pytest.raises(ValidationError, match="straight up"):
            camera_pose_from_lookat((0.0, 0.0, 0.0), target)


class TestMasks:
    def test_full_mask(self):
        m = InstanceMask(np.ones((3, 3), dtype=bool))
        assert mask_area(m) == 9
        assert mask_centroid(m) == (1.0, 1.0)

    def test_single_pixel(self):
        bm = np.zeros((10, 10), dtype=bool)
        bm[7, 5] = True  # (u=5, v=7)
        m = InstanceMask(bm)
        assert mask_area(m) == 1
        assert mask_centroid(m) == (5.0, 7.0)

    def test_two_pixels_mean(self):
        bm = np.zeros((5, 12), dtype=bool)
        bm[0, 0] = True
        bm[0, 10] = True
        m = InstanceMask(bm)
        assert mask_area(m) == 2
        assert mask_centroid(m) == (5.0, 0.0)

    def test_centroid_matches_nonzero_mean(self):
        def nonzero_mean(bitmap):
            vs, us = np.nonzero(bitmap)
            return float(us.mean()), float(vs.mean())

        bitmaps = []
        for v, u in [(0, 0), (239, 319), (7, 5), (0, 319)]:
            bm = np.zeros((240, 320), dtype=bool)
            bm[v, u] = True
            bitmaps.append(bm)
        for edge in (0, -1):
            bm = np.zeros((240, 320), dtype=bool)
            bm[edge] = True
            bitmaps += [bm, bm.T.copy()]
        bitmaps.append(np.ones((240, 320), dtype=bool))
        rng = np.random.default_rng(12)
        for _ in range(300):
            h, w = rng.integers(1, 200, size=2)
            bm = rng.random((h, w)) < rng.random() ** 3
            if bm.any():
                bitmaps.append(bm)
        for bm in bitmaps:
            got = mask_centroid(InstanceMask(bm))
            want = nonzero_mean(bm)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_centroid_is_kept_on_the_mask(self):
        bitmap = np.zeros((12, 9), dtype=bool)
        bitmap[2:7, 3:5] = True
        bitmap[9, 8] = True
        mask = InstanceMask(bitmap=bitmap)
        assert mask.centroid == mask_centroid(mask)
        assert mask.centroid is mask.centroid
        with pytest.raises(ValueError, match="read-only"):
            mask.bitmap[0, 0] = True

    def test_empty_centroid_raises(self):
        with pytest.raises(EmptyMaskError):
            mask_centroid(InstanceMask(np.zeros((4, 4), dtype=bool)))

    def test_area_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bm = rng.random((24, 31)) < 0.3
            m = InstanceMask(bm)
            brute = sum(1 for v in range(24) for u in range(31) if bm[v, u])
            assert mask_area(m) == brute

    def test_bbox_tight(self):
        bm = np.zeros((8, 8), dtype=bool)
        bm[2, 3] = True
        bm[5, 6] = True
        assert mask_bbox(InstanceMask(bm)) == (3, 2, 6, 5)

    def test_confidence_validated(self):
        with pytest.raises(ValidationError):
            InstanceMask(np.ones((2, 2), dtype=bool), confidence=1.5)


class TestFileFormats:
    def test_depth_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        depth = rng.integers(0, 65535, size=(17, 23), dtype=np.uint16)
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, depth)
        header = b"P5\n23 17\n65535\n"
        data = path.read_bytes()
        assert data[: len(header)] == header
        # row-major, big-endian 16-bit samples
        assert data[len(header) :] == bytes(b for x in depth.ravel().tolist() for b in (x >> 8, x & 0xFF))

    def test_pgm_requires_uint16(self, tmp_path):
        with pytest.raises(ValidationError):
            write_depth_pgm(tmp_path / "x.pgm", np.zeros((4, 4), dtype=np.float64))

    def test_mask_pbm_header(self, tmp_path):
        bm = np.zeros((5, 9), dtype=bool)
        bm[1, 2] = True
        path = tmp_path / "m.pbm"
        write_mask_pbm(path, InstanceMask(bm))
        data = path.read_bytes()
        assert data.startswith(b"P4\n9 5\n")
        assert len(data) == len(b"P4\n9 5\n") + 2 * 5  # two packed bytes per row

    def test_open_atomic_leaves_no_file_when_the_block_raises(self, tmp_path):
        path = tmp_path / "d.pgm"
        with pytest.raises(RuntimeError):
            with open_atomic(path) as f:
                f.write(b"P5\n23 17\n")
                raise RuntimeError("write failed partway")
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with open_atomic(path, "w", encoding="utf-8") as f:
                f.write("new")
                raise RuntimeError("write failed partway")
        assert [p.name for p in tmp_path.iterdir()] == ["d.pgm"]
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_depth_pgm(path, np.zeros((4, 5), dtype=np.uint16)),
            lambda path: write_mask_pbm(path, InstanceMask(np.ones((4, 5), dtype=bool))),
        ],
        ids=["pgm", "pbm"],
    )
    def test_failed_image_write_leaves_no_file(self, tmp_path, monkeypatch, write):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write(tmp_path / "image")
        assert list(tmp_path.iterdir()) == []

    def test_intrinsics_extrinsic_json(self, intr):
        import json

        assert CameraIntrinsics.from_json_dict(json.loads(json.dumps(intr.to_json_dict()))) == intr

        t = RigidTransform.rotation_z(0.3, (1.0, 2.0, 3.0))
        back = RigidTransform.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
        np.testing.assert_allclose(back.rotation, t.rotation)
        np.testing.assert_allclose(back.translation, t.translation)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"width": 320.5}, "width: expected an integer, got 320.5"),
            ({"height": 240.0}, "height: expected an integer, got 240.0"),
            ({"width": True}, "width: expected an integer, got True"),
            ({"fx": "600"}, "fx: expected a number, got '600'"),
            ({"cy": None}, "cy: expected a number, got None"),
            ({"skew": 0.0}, "skew: unknown key"),
        ],
    )
    def test_intrinsics_json_errors_name_the_key(self, intr, change, message):
        with pytest.raises(ConfigError) as info:
            CameraIntrinsics.from_json_dict(dict(intr.to_json_dict(), **change))
        assert str(info.value) == message

    def test_json_errors_name_the_missing_key(self, intr):
        data = intr.to_json_dict()
        del data["cx"]
        with pytest.raises(ConfigError, match="missing key 'cx'"):
            CameraIntrinsics.from_json_dict(data)
        with pytest.raises(ConfigError, match="expected a JSON object, got list"):
            CameraIntrinsics.from_json_dict([600.0])

"""Pinhole camera model, rigid-frame algebra and instance masks.

Conventions used throughout the library:

* camera frame: +x right, +y down, +z along the optical axis into the scene
* robot (world) frame: +z up
* units: millimeters everywhere; angles in radians
* depth images are 2-D ``uint16`` arrays in mm; the value 0 encodes a missing
  sample and must never be treated as contact

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    BehindCameraError,
    ConfigError,
    EmptyMaskError,
    MissingDepthError,
    OutOfBoundsError,
    ValidationError,
)


def _json_value(value):
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


def _tuple_value(value):
    return tuple(_tuple_value(v) for v in value) if isinstance(value, (list, tuple)) else value


class JsonFields:
    """JSON codec for config dataclasses whose JSON keys are the field names.

    Tuple fields are written as (nested) lists and read back as tuples;
    fields with a float default are read through ``float``; a field with an
    int default takes only an int (not a bool), else ``ConfigError`` names
    the field; other values pass through. An unknown key raises
    ``TypeError`` from the constructor, and ``__post_init__`` validates the
    result.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict):
        defaults = {f.name: f.default for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            default = defaults.get(key)
            if isinstance(default, tuple):
                value = _tuple_value(value)
            elif isinstance(default, float):
                value = float(value)
            elif isinstance(default, int) and not isinstance(default, bool):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(f"{key}: expected an integer, got {value!r}")
            kwargs[key] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ValidationError(
                f"principal point ({self.cx}, {self.cy}) outside {self.width}x{self.height} image"
            )

    def to_json_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CameraIntrinsics":
        return cls(
            fx=float(data["fx"]),
            fy=float(data["fy"]),
            cx=float(data["cx"]),
            cy=float(data["cy"]),
            width=int(data["width"]),
            height=int(data["height"]),
        )


def deproject_pixel(intr: CameraIntrinsics, u, v, d):
    """Map pixel coordinates plus depth to a camera-frame 3-D point (mm).

    Accepts scalars or equally shaped arrays; returns an array of shape
    ``(..., 3)``. Depth 0 is the missing-depth sentinel and is rejected.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise MissingDepthError("depth must be > 0 for deprojection (0 encodes missing)")
    if np.any((u < 0) | (u >= intr.width) | (v < 0) | (v >= intr.height)):
        raise OutOfBoundsError(f"pixel outside {intr.width}x{intr.height} image")
    x = (u - intr.cx) * d / intr.fx
    y = (v - intr.cy) * d / intr.fy
    return np.stack(np.broadcast_arrays(x, y, d), axis=-1)


def project_point(intr: CameraIntrinsics, p):
    """Project camera-frame points (mm) to (u, v, depth) pixel coordinates.

    Inverse of :func:`deproject_pixel`. ``p`` is an array of shape
    ``(..., 3)``; points with z <= 0 are behind the camera and rejected.
    """
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("cannot project points with z <= 0")
    u = intr.cx + intr.fx * x / z
    v = intr.cy + intr.fy * y / z
    return u, v, z


@dataclass(frozen=True)
class RigidTransform:
    """Rigid motion: p -> rotation @ p + translation, translation in mm."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise ValidationError("rotation is not orthonormal within 1e-9")
        if not np.isclose(np.linalg.det(r), 1.0, atol=1e-9):
            raise ValidationError("rotation determinant is not +1 within 1e-9")
        if not np.all(np.isfinite(t)):
            raise ValidationError("translation must be finite")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_translation(cls, t) -> "RigidTransform":
        return cls(np.eye(3), np.asarray(t, dtype=np.float64))

    @classmethod
    def rotation_x(cls, angle: float, t=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64), t)

    @classmethod
    def rotation_y(cls, angle: float, t=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64), t)

    @classmethod
    def rotation_z(cls, angle: float, t=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64), t)

    def apply(self, points):
        """Transform one point ``(3,)`` or a batch ``(..., 3)``."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    @classmethod
    def _unchecked(cls, rotation: np.ndarray, translation: np.ndarray) -> "RigidTransform":
        """Build from float64 ``(3, 3)`` and ``(3,)`` arrays derived from
        validated transforms, skipping ``__post_init__``."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "rotation", rotation)
        object.__setattr__(obj, "translation", translation)
        return obj

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying ``other`` first, then ``self``."""
        return RigidTransform._unchecked(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform._unchecked(rt, -rt @ self.translation)

    def to_json_dict(self) -> dict:
        return {
            "rotation": [float(x) for x in self.rotation.reshape(-1)],
            "translation": [float(x) for x in self.translation],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RigidTransform":
        r = np.asarray(data["rotation"], dtype=np.float64).reshape(3, 3)
        t = np.asarray(data["translation"], dtype=np.float64)
        return cls(r, t)


def rotation_angle(r: np.ndarray) -> float:
    """Magnitude of the rotation encoded by a 3x3 rotation matrix, radians."""
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def camera_pose_from_lookat(eye, target, up_hint=(0.0, 1.0, 0.0)) -> RigidTransform:
    """Camera-to-world pose for a camera at ``eye`` looking at ``target``.

    Camera +z points at the target. For straight-down views (the common case
    here) the image +x axis aligns with world +x.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    fwd = target - eye
    n = np.linalg.norm(fwd)
    if n == 0:
        raise ValidationError("look-at target must differ from the eye position")
    fwd = fwd / n
    up = np.asarray(up_hint, dtype=np.float64)
    if abs(np.dot(fwd, (0.0, 0.0, 1.0))) > 0.999:
        right = np.array([1.0, 0.0, 0.0])
    else:
        right = np.cross(up, fwd)
        right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.column_stack([right, down, fwd])
    return RigidTransform(rot, eye)


@dataclass(frozen=True)
class InstanceMask:
    """Per-object pixel set from (oracle or real) instance segmentation."""

    bitmap: np.ndarray  # bool, shape (height, width)
    label: str = "object"
    confidence: float = 1.0
    instance_id: int = -1

    def __post_init__(self):
        bm = np.asarray(self.bitmap, dtype=bool)
        object.__setattr__(self, "bitmap", bm)
        if bm.ndim != 2:
            raise ValidationError("mask bitmap must be 2-D")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")

    @property
    def width(self) -> int:
        return self.bitmap.shape[1]

    @property
    def height(self) -> int:
        return self.bitmap.shape[0]


def mask_area(mask: InstanceMask) -> int:
    """Number of set pixels."""
    return int(np.count_nonzero(mask.bitmap))


def mask_centroid(mask: InstanceMask) -> tuple[float, float]:
    """Arithmetic mean (u, v) of the set pixels; sub-pixel, not rounded."""
    vs, us = np.nonzero(mask.bitmap)
    if us.size == 0:
        raise EmptyMaskError("centroid of an empty mask")
    return float(us.mean()), float(vs.mean())


def mask_bbox(mask: InstanceMask) -> tuple[int, int, int, int]:
    """Tight inclusive bounding box (u0, v0, u1, v1) of the set pixels."""
    vs, us = np.nonzero(mask.bitmap)
    if us.size == 0:
        raise EmptyMaskError("bounding box of an empty mask")
    return int(us.min()), int(vs.min()), int(us.max()), int(vs.max())


# ---------------------------------------------------------------------------
# file formats


def write_depth_pgm(path, depth: np.ndarray) -> None:
    """Write a depth image as 16-bit binary PGM (P5, maxval 65535, mm)."""
    depth = np.asarray(depth)
    if depth.dtype != np.uint16 or depth.ndim != 2:
        raise ValidationError("depth image must be a 2-D uint16 array (mm)")
    h, w = depth.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(depth.astype(">u2").tobytes())


def read_depth_pgm(path) -> np.ndarray:
    """Read a 16-bit binary PGM depth image written by :func:`write_depth_pgm`."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line
            pos = data.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise ValidationError(f"not a binary PGM file: magic {fields[0]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 65535:
        raise ValidationError(f"expected 16-bit PGM (maxval 65535), got {maxval}")
    img = np.frombuffer(data[pos : pos + 2 * w * h], dtype=">u2")
    if img.size != w * h:
        raise ValidationError("truncated PGM payload")
    return img.reshape(h, w).astype(np.uint16)


def write_mask_pbm(path, mask: InstanceMask) -> None:
    """Write a mask as binary PBM (P4) for offline inspection."""
    bm = mask.bitmap
    h, w = bm.shape
    padded_w = (w + 7) // 8 * 8
    padded = np.zeros((h, padded_w), dtype=bool)
    padded[:, :w] = bm
    packed = np.packbits(padded, axis=1)
    with open(path, "wb") as f:
        f.write(f"P4\n{w} {h}\n".encode("ascii"))
        f.write(packed.tobytes())


def load_intrinsics_json(path) -> CameraIntrinsics:
    with open(path, "r", encoding="utf-8") as f:
        return CameraIntrinsics.from_json_dict(json.load(f))


def load_extrinsic_json(path) -> RigidTransform:
    with open(path, "r", encoding="utf-8") as f:
        return RigidTransform.from_json_dict(json.load(f))

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

import contextlib
import functools
import math
import os
import sys
import typing
from dataclasses import MISSING, dataclass, fields

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
    if isinstance(value, JsonFields):
        return value.to_json_dict()
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


def json_bool(key: str, value) -> bool:
    """``value`` if it is JSON ``true`` or ``false``; else ConfigError names ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def json_int(key: str, value) -> int:
    """``value`` if it is a JSON integer (not a bool); else ConfigError names ``key``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def json_float(key: str, value) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool, a
    string, NaN or an infinity); else ConfigError names ``key``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def json_array(key: str, value, like: tuple) -> tuple:
    """``value`` as a tuple if it is a JSON array nested like ``like``, with
    the same lengths, whose leaves are numbers of ``like``'s kinds (an
    integer where ``like`` has one); else ConfigError names ``key``. An
    empty ``like`` takes an array of any length and leaves it unchecked."""

    def shaped(v, d):
        if not isinstance(d, tuple):
            return json_int(key, v) if isinstance(d, int) else json_float(key, v)
        if not isinstance(v, (list, tuple)) or (d and len(v) != len(d)):
            shape = f" shaped like {_json_value(like)}" if like else ""
            raise ConfigError(f"{key}: expected an array{shape}, got {value!r}")
        return tuple(shaped(vi, di) for vi, di in zip(v, d)) if d else tuple(v)

    return shaped(value, like)


def json_keys(data, keys: tuple, allowed=()) -> None:
    """ConfigError unless ``data`` is a JSON object with every one of
    ``keys`` and no key outside ``keys`` and ``allowed``; it names the
    first missing, else the first unknown, key."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a JSON object, got {type(data).__name__}")
    missing = [k for k in keys if k not in data]
    unknown = [k for k in data if k not in keys and k not in allowed]
    if missing or unknown:
        raise ConfigError(f"missing key {missing[0]!r}" if missing else f"{unknown[0]}: unknown key")


def json_nested(key: str, parse, value):
    """``parse(value)``; its error on a bad value is raised again as a
    ConfigError prefixed with ``key``, so nested errors read as a path."""
    try:
        return parse(value)
    except (ValueError, TypeError, LookupError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _field_reader(kind, default):
    """``read(key, value)`` for a field declared as ``kind`` with
    ``default``, or None for a type the codec passes through unchecked."""
    if isinstance(kind, type) and issubclass(kind, JsonFields):
        return lambda key, value: json_nested(key, kind.from_json_dict, value)
    if kind is tuple:
        like = default if isinstance(default, tuple) else ()
        return lambda key, value: json_array(key, value, like)
    return {bool: json_bool, int: json_int, float: json_float}.get(kind)


@functools.cache
def _json_fields(cls) -> tuple[dict, tuple]:
    """``(readers, required)`` for a :class:`JsonFields` class: the reader
    of each field by name (None passes the value through), and the names
    of the fields without a default. Worked out once per class."""
    hints = typing.get_type_hints(cls)
    readers = {f.name: _field_reader(hints[f.name], f.default) for f in fields(cls)}
    required = tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return readers, required


class JsonFields:
    """JSON codec for dataclasses whose JSON keys are the field names: the
    config classes, and the trial and summary records (``TrialReport``
    reads its own fields back).

    Each field is read by the rule for its declared type: a ``JsonFields``
    class by that class's reader, its errors prefixed with the key; a
    ``bool`` only from ``true`` or ``false``; a ``float`` only from a
    finite number and an ``int`` only from an integer; a ``tuple`` only
    from an array, shaped like the default when that is non-empty
    (:func:`json_array`). Other types pass through. A field without a
    default is required, and :func:`json_keys` rejects a missing or an
    unknown key. Else ``ConfigError`` names the field, and
    ``__post_init__`` validates the result.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict):
        readers, required = _json_fields(cls)
        json_keys(data, required, readers)
        return cls(**{k: v if readers[k] is None else readers[k](k, v) for k, v in data.items()})


@dataclass(frozen=True)
class CameraIntrinsics(JsonFields):
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


def _rotated(r: np.ndarray, p: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """The rotation ``r`` of each point of ``p``, shape ``(3,)`` or
    ``(..., 3)``, plus ``t`` if given: coordinate i is ``x * r[i, 0] +
    y * r[i, 1] + z * r[i, 2]`` (then ``+ t[i]``), left to right, elementwise.

    This is the one rounding rule for rigid transforms: a point rounds to
    the same bits alone or in any batch, in any memory order and on any
    BLAS kernel, which ``@`` does not promise. Up to three points (one, or
    a rotation's columns) are worked in Python floats: the same IEEE
    operations, at less call overhead.
    """
    if p.shape[-1:] != (3,):
        raise ValidationError(f"points must have shape (..., 3), got {p.shape}")
    rows = r.tolist()
    if p.size <= 9:
        out = [[x * a + y * b + z * c for a, b, c in rows] for x, y, z in p.reshape(-1, 3).tolist()]
        if t is not None:
            shift = t.tolist()
            out = [[v + s for v, s in zip(row, shift)] for row in out]
        return np.array(out).reshape(p.shape)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    out = np.empty(p.shape)
    for i, (a, b, c) in enumerate(rows):
        col = x * a
        col += y * b
        col += z * c
        out[..., i] = col
    if t is not None:
        out += t
    return out


def _close(a: float, b: float) -> bool:
    """``|a - b| <= 1e-9``, in float64."""
    return abs(a - b) <= 1e-9


def _check_rotation(r: list) -> None:
    """ValidationError unless the 3x3 rows ``r`` are a rotation by
    :func:`_close`'s rule: each entry of RᵀR within 1e-9 of the identity's,
    and the determinant within 1e-9 of +1.

    RᵀR is formed in Python floats as :func:`_rotated` forms it, so that
    decision is ``np.allclose``'s with ``rtol=0`` on ``_rotated(r.T, r.T)``.
    The determinant is expanded by cofactors; it can differ from LU's in its
    last bits, so only a determinant within a few ulps of the bound may be
    decided otherwise than by ``np.linalg.det``."""
    cols = list(zip(*r))
    for i, (x, y, z) in enumerate(cols):
        for j, (a, b, c) in enumerate(cols):
            if not _close(x * a + y * b + z * c, 1.0 if i == j else 0.0):
                raise ValidationError(
                    "rotation is not orthonormal: an entry of R^T R is off the identity's by more than 1e-9"
                )
    (a, b, c), (d, e, f), (g, h, k) = r
    if not _close(a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g), 1.0):
        raise ValidationError("rotation determinant is not +1 within 1e-9")


def _check_finite(t: np.ndarray) -> None:
    if not all(math.isfinite(v) for v in t.tolist()):
        raise ValidationError("translation must be finite")


@dataclass(frozen=True)
class RigidTransform:
    """Rigid motion: p -> R p + t, with rotation R and translation t in mm.
    Every product with R rounds one way, :func:`_rotated`'s. The constructor
    checks the rotation (:func:`_check_rotation`) and that t is finite."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        _check_rotation(r.tolist())
        _check_finite(t)

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
        return _rotated(self.rotation, np.asarray(points, dtype=np.float64), self.translation)

    def rotate(self, vectors):
        """Rotate one direction ``(3,)`` or a batch ``(..., 3)``; the
        translation is not applied."""
        return _rotated(self.rotation, np.asarray(vectors, dtype=np.float64))

    @classmethod
    def _unchecked(cls, rotation: np.ndarray, translation: np.ndarray) -> "RigidTransform":
        """Build from float64 ``(3, 3)`` and ``(3,)`` arrays derived from
        validated transforms, skipping ``__post_init__``."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "rotation", rotation)
        object.__setattr__(obj, "translation", translation)
        return obj

    def with_translation(self, t) -> "RigidTransform":
        """This rotation with translation ``t``; only ``t`` is checked, since
        the rotation already was."""
        t = np.asarray(t, dtype=np.float64).reshape(3)
        _check_finite(t)
        return RigidTransform._unchecked(self.rotation, t)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying ``other`` first, then ``self``."""
        return RigidTransform._unchecked(
            _rotated(self.rotation, other.rotation.T).T, self.apply(other.translation)
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform._unchecked(rt, -_rotated(rt, self.translation))

    def to_json_dict(self) -> dict:
        return {
            "rotation": [float(x) for x in self.rotation.reshape(-1)],
            "translation": [float(x) for x in self.translation],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RigidTransform":
        json_keys(data, ("rotation", "translation"))
        r = np.asarray(data["rotation"], dtype=np.float64).reshape(3, 3)
        t = np.asarray(data["translation"], dtype=np.float64)
        return cls(r, t)


def camera_pose_from_lookat(eye, target) -> RigidTransform:
    """Camera-to-world pose for a camera at ``eye`` looking at ``target``:
    the straight-down camera (image +x along world +x, image +y along world
    -y) turned along the shortest arc onto the view direction f.

    The rotation's columns are (1 - f_x²a, -b, f_x), (b, f_y²a - 1, -f_y)
    and f, with a = 1 / (1 - f_z) and b = f_x f_y a, in Python floats: Duff
    et al.'s branch-free orthonormal basis ("Building an Orthonormal Basis,
    Revisited", JCGT 6(1), 2017) with its sign fixed at -1, so the image
    never flips. RᵀR is off the identity by up to 2(|f|² - 1)/(1 - f_z),
    and the rounded f's |f|² - 1 is a few ulps: views with 1 - f_z below
    1e-5 (within 0.26 degrees of straight up) are rejected, which keeps
    every rotation within 1e-10 of orthonormal.
    """
    eye, target = (np.asarray(p, dtype=np.float64).reshape(3).tolist() for p in (eye, target))
    n = math.dist(eye, target)
    if n == 0:
        raise ValidationError("look-at target must differ from the eye position")
    fx, fy, fz = ((t - e) / n for t, e in zip(target, eye))
    if not 1.0 - fz >= 1e-5:
        raise ValidationError(f"look-at view not finite or too close to straight up: 1 - f_z = {1.0 - fz!r}")
    a = 1.0 / (1.0 - fz)
    b = fx * fy * a
    # 0.0 - x, not -x: a zero entry stays +0.0, as in the straight-down rotation
    rot = [[1.0 - fx * fx * a, b, fx], [0.0 - b, fy * fy * a - 1.0, fy], [fx, 0.0 - fy, fz]]
    return RigidTransform(rot, eye)


@dataclass(frozen=True)
class InstanceMask:
    """Per-object pixel set from (oracle or real) instance segmentation."""

    bitmap: np.ndarray  # bool, shape (height, width), stored as a read-only view
    label: str = "object"
    confidence: float = 1.0
    instance_id: int = -1  # oracle provenance; a live detector leaves -1

    def __post_init__(self):
        bm = np.asarray(self.bitmap, dtype=bool).view()
        bm.flags.writeable = False
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

    @functools.cached_property
    def centroid(self) -> tuple[float, float]:
        """:func:`mask_centroid`, computed once per mask. The mask holds a
        read-only view of its bitmap, so the value cannot go stale through
        it."""
        return mask_centroid(self)


def mask_area(mask: InstanceMask) -> int:
    """Number of set pixels."""
    return int(np.count_nonzero(mask.bitmap))


def mask_centroid(mask: InstanceMask) -> tuple[float, float]:
    """Arithmetic mean (u, v) of the set pixels; sub-pixel, not rounded.

    Formed from the set pixels per column and per row: the coordinate sums
    are exact integers and each mean one correctly rounded division, so it
    equals the mean of ``np.nonzero``'s coordinates without listing them.
    """
    per_column = np.count_nonzero(mask.bitmap, axis=0)
    count = int(per_column.sum())
    if count == 0:
        raise EmptyMaskError("centroid of an empty mask")
    per_row = np.count_nonzero(mask.bitmap, axis=1)
    return (
        int(per_column @ np.arange(per_column.size)) / count,
        int(per_row @ np.arange(per_row.size)) / count,
    )


def mask_bbox(mask: InstanceMask) -> tuple[int, int, int, int]:
    """Tight inclusive bounding box (u0, v0, u1, v1) of the set pixels."""
    vs, us = np.nonzero(mask.bitmap)
    if us.size == 0:
        raise EmptyMaskError("bounding box of an empty mask")
    return int(us.min()), int(vs.min()), int(us.max()), int(vs.max())


# ---------------------------------------------------------------------------
# file formats


@contextlib.contextmanager
def open_atomic(path, mode: str = "wb", encoding: str | None = None):
    """Open a temporary file beside ``path`` for writing and, when the block
    exits cleanly, move it onto ``path`` with ``os.replace``, so ``path``
    holds either its old bytes or the whole new file, never a partial one.
    When the block raises, the temporary file is removed."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_depth_pgm(path, depth: np.ndarray) -> None:
    """Write a depth image as 16-bit binary PGM (P5, maxval 65535, mm)."""
    depth = np.asarray(depth)
    if depth.dtype != np.uint16 or depth.ndim != 2:
        raise ValidationError("depth image must be a 2-D uint16 array (mm)")
    h, w = depth.shape
    with open_atomic(path) as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(depth.astype(">u2").tobytes())


def write_mask_pbm(path, mask: InstanceMask) -> None:
    """Write a mask as binary PBM (P4) for offline inspection."""
    bm = mask.bitmap
    h, w = bm.shape
    padded_w = (w + 7) // 8 * 8
    padded = np.zeros((h, padded_w), dtype=bool)
    padded[:, :w] = bm
    packed = np.packbits(padded, axis=1)
    with open_atomic(path) as f:
        f.write(f"P4\n{w} {h}\n".encode("ascii"))
        f.write(packed.tobytes())


"""Pinhole camera model: projection, unprojection, frustum tests, the
frustum rays and depth ladder of position encoding, and camera intrinsic
standardization.

A camera is intrinsics (fu, fv, cu, cv), a rigid camera-to-world extrinsic
matrix, and an image size. Pixel coordinates are continuous with integer
values addressing pixel centers; camera-frame depth is distance along the
optical (+z) axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Reference standardized intrinsics (fu, fv, cu, cv) used when no explicit
# target is given; the principal point assumes a 512x512 canvas.
DEFAULT_STD_INTRINSICS = (432.579, 539.857, 256.0, 256.0)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics (fu, fv, cu, cv), 4x4 camera-to-world
    extrinsics, image size (width, height) in pixels."""

    intrinsics: np.ndarray
    extrinsics: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self):
        intr = np.asarray(self.intrinsics, dtype=float).reshape(-1)
        if intr.shape != (4,):
            raise ValueError("intrinsics must be (fu, fv, cu, cv)")
        ext = np.asarray(self.extrinsics, dtype=float)
        if ext.shape != (4, 4):
            raise ValueError("extrinsics must be a 4x4 matrix")
        if not (np.isfinite(intr).all() and np.isfinite(ext).all()):
            raise ValueError("camera intrinsics and extrinsics must be finite")
        if intr[0] <= 0 or intr[1] <= 0:
            raise ValueError("focal lengths must be strictly positive")
        if np.max(np.abs(ext[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
            raise ValueError("extrinsics bottom row must be [0, 0, 0, 1]")
        rot = ext[:3, :3]
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-6 or np.linalg.det(rot) < 0:
            raise ValueError("extrinsics rotation block must be orthogonal with det +1")
        width, height = self.image_size
        if width < 1 or height < 1:
            raise ValueError("image size must be at least 1x1")
        intr.setflags(write=False)
        ext.setflags(write=False)
        object.__setattr__(self, "intrinsics", intr)
        object.__setattr__(self, "extrinsics", ext)
        object.__setattr__(self, "image_size", (int(width), int(height)))


@dataclass(frozen=True)
class PixelDepth:
    """Continuous pixel coordinates (u, v) plus camera-frame depth in meters."""

    u: float
    v: float
    depth: float


class SingularProjectionError(ValueError):
    """Raised when projecting a point that lies exactly on the camera plane."""


def unproject(cam: CameraModel, pd: PixelDepth) -> np.ndarray:
    """World point for pixel (u, v) at camera-frame depth d > 0."""
    if not pd.depth > 0:
        raise ValueError(f"depth must be positive, got {pd.depth}")
    fu, fv, cu, cv = cam.intrinsics
    x = (pd.u - cu) / fu * pd.depth
    y = (pd.v - cv) / fv * pd.depth
    cam_pt = np.array([x, y, pd.depth])
    return cam.extrinsics[:3, :3] @ cam_pt + cam.extrinsics[:3, 3]


def project(cam: CameraModel, world) -> PixelDepth:
    """Pixel coordinates and depth of one world point, the one-point view of
    ``project_points``; inverse of unproject. A point behind the camera gets
    NaN u and v."""
    p = np.asarray(world, dtype=float).reshape(3)
    if not np.isfinite(p).all():
        raise ValueError("world point must be finite")
    (u,), (v,), (d,) = project_points(cam, p)
    if d == 0.0:
        raise SingularProjectionError("point lies on the camera plane (depth 0)")
    return PixelDepth(float(u), float(v), float(d))


def project_points(cam: CameraModel, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel coordinates and depth (u, v, depth) of an (N, 3) point array; the
    package's one projection.

    Entries with depth <= 0 get NaN pixel coordinates; callers are expected
    to mask on depth before using them.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    cam_pts = (pts - cam.extrinsics[:3, 3]) @ cam.extrinsics[:3, :3]
    d = cam_pts[:, 2:]
    uv = np.divide(cam.intrinsics[:2] * cam_pts[:, :2], d, out=np.full((len(d), 2), np.nan),
                   where=d > 0)
    uv += cam.intrinsics[2:]
    return uv[:, 0], uv[:, 1], d[:, 0]


def frustum_mask(cam: CameraModel, u, v, depth, max_depth: float) -> np.ndarray:
    """The frustum test on projected points: 0 < depth <= max_depth and the
    pixel inside the image, 0 <= u <= W-1 and 0 <= v <= H-1."""
    width, height = cam.image_size
    return ((depth > 0) & (depth <= max_depth) & (u >= 0.0) & (u <= width - 1)
            & (v >= 0.0) & (v <= height - 1))


def in_frustum(cam: CameraModel, world, max_depth: float) -> bool | np.ndarray:
    """True iff the point projects inside the image with 0 < depth <= max_depth;
    a (3,) point gives a bool and (N, 3) points a bool array."""
    if not max_depth > 0:
        raise ValueError("max_depth must be positive")
    pts = np.asarray(world, dtype=float)
    if not np.isfinite(pts).all():
        raise ValueError("world point must be finite")
    if pts.shape == (3,):  # numpy scalars test faster than (1,) arrays
        return bool(frustum_mask(cam, *(x[0] for x in project_points(cam, pts)), max_depth))
    return frustum_mask(cam, *project_points(cam, pts), max_depth)


def frustum_rays(cam: CameraModel, grid_hw: tuple[int, int], max_depth: float, num_depths: int):
    """The sampled view frustum: cell centers us (w,) and vs (h,), their
    camera-frame rays r = ((u - cu) / fu, (v - cv) / fv, 1) (h, w, 3) and the
    depth ladder (K,).

    Pixels are the h x w cell centers of the image; depths are the uniform
    ladder k * max_depth / num_depths, k = 0 .. num_depths-1, except that the
    unprojectable k = 0 plane is replaced by the mid-bin max_depth / (2 K).
    The frustum point of cell (i, j) at depth d_k is t + d_k R r, so a
    depth-weighted mean point needs only the mean depth, not the (h, w, K, 3)
    grid of points.
    """
    if num_depths < 1:
        raise ValueError("num_depths must be >= 1")
    if not max_depth > 0:
        raise ValueError("max_depth must be positive")
    depths = np.arange(num_depths) * (max_depth / num_depths)
    depths[0] = max_depth / (2 * num_depths)
    (h, w), (width, height) = grid_hw, cam.image_size
    # cell centers in continuous pixel coordinates (pixels span [-0.5, extent - 0.5])
    us = -0.5 + (np.arange(w) + 0.5) * (width / w)
    vs = -0.5 + (np.arange(h) + 0.5) * (height / h)
    fu, fv, cu, cv = cam.intrinsics
    rays = np.ones((h, w, 3))
    rays[..., 0] = (us - cu) / fu
    rays[..., 1] = ((vs - cv) / fv)[:, None]
    return us, vs, rays, depths


# ---------------------------------------------------------------------------
# Camera intrinsic standardization (image warp to a fixed virtual camera).
# ---------------------------------------------------------------------------


def bilinear_warp(image: np.ndarray, src_u: np.ndarray, src_v: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) ``image`` at continuous (src_u, src_v)
    with zero fill outside; the package's one bilinear sampler.

    ``src_u`` and ``src_v`` broadcast against each other, so a separable warp
    passes a (1, W) row and an (H, 1) column, and scattered points pass two
    (N,) arrays. The result has their broadcast shape (plus C for a
    multi-channel image) and is float64, while the four neighbours are
    gathered from ``image`` in its own dtype. A sample is valid when
    0 <= u <= W-1 and 0 <= v <= H-1; the four-neighbor footprint is clamped
    at the border, everything else is zero-padded. Every sample is summed as
    ((a (1-fu)) (1-fv) + (b fu) (1-fv)) + (c (1-fu)) fv + (d fu) fv.
    For a (1, W) row and an (H, 1) column the neighbours are gathered as the
    source rows first and then their columns; otherwise as flat pixels. The
    samples are written to ``out`` when it is given, a float64 array (or view)
    of the result's shape.
    """
    img = np.asarray(image)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[..., None]
    height, width, channels = img.shape
    valid = (src_u >= 0) & (src_u <= width - 1) & (src_v >= 0) & (src_v <= height - 1)
    u = np.clip(src_u, 0, width - 1)
    v = np.clip(src_v, 0, height - 1)
    u0 = np.floor(u).astype(int)
    v0 = np.floor(v).astype(int)
    u1 = np.minimum(u0 + 1, width - 1)
    v1 = np.minimum(v0 + 1, height - 1)
    # The u weights get the channel axis, so that in a separable warp the
    # products with a (1, W) row run over whole (W, C) rows of the output.
    fu = np.repeat((u - u0)[..., None], channels, axis=-1)
    fv = (v - v0)[..., None]
    gu = 1 - fu
    gv = 1 - fv
    if np.ndim(src_u) == np.ndim(src_v) == 2 and np.shape(src_u)[0] == np.shape(src_v)[1] == 1:
        top, bottom = img.take(v0[:, 0], axis=0), img.take(v1[:, 0], axis=0)
        corners = (rows.take(cols[0], axis=1) for rows in (top, bottom) for cols in (u0, u1))
    else:
        pixels = img.reshape(height * width, channels)
        corners = (pixels.take(rows * width + cols, axis=0)
                   for rows in (v0, v1) for cols in (u0, u1))
    if out is not None and squeeze:
        out = out[..., None]
    out = np.multiply(next(corners), gu, out=out)
    out *= gv
    term = np.empty_like(out)
    for corner, weight_u, weight_v in zip(corners, (fu, gu, fu), (gv, fv, fv)):
        np.multiply(corner, weight_u, out=term)
        term *= weight_v
        out += term
    out[~valid] = 0.0
    return out[..., 0] if squeeze else out


def standardize_intrinsics(image, cam: CameraModel, std_intrinsics=None):
    """Warp an image so it looks as if taken with the standardized intrinsics.

    Output pixel (i, j) is bilinearly sampled from the source image at the
    location the original camera would have imaged the same ray, which for a
    pinhole pair is the affine map
        u_src = fu_src * (j - cu_std) / fu_std + cu_src   (and likewise for v).
    Coordinates falling outside the source are zero-padded. The returned
    camera carries the standardized intrinsics and untouched extrinsics. The
    map is separable, so the sampler gets one (1, W) row of u and one (H, 1)
    column of v; and it is monotone, so the valid samples form one rectangle,
    the only part that is sampled.

    Returns:
        (warped image as float array, standardized CameraModel)
    """
    if std_intrinsics is None:
        std_intrinsics = DEFAULT_STD_INTRINSICS
    std = np.asarray(std_intrinsics, dtype=float).reshape(4)
    if not (np.isfinite(std).all() and std[0] > 0 and std[1] > 0):
        raise ValueError(f"target intrinsics must be finite and fu, fv > 0, got {std.tolist()}")
    img = np.asarray(image)
    height, width = img.shape[:2]
    fu_s, fv_s, cu_s, cv_s = cam.intrinsics
    fu_t, fv_t, cu_t, cv_t = std
    src_u = fu_s * (np.arange(width, dtype=float)[None, :] - cu_t) / fu_t + cu_s
    src_v = fv_s * (np.arange(height, dtype=float)[:, None] - cv_t) / fv_t + cv_s
    cols = np.flatnonzero((src_u[0] >= 0) & (src_u[0] <= width - 1))
    rows = np.flatnonzero((src_v[:, 0] >= 0) & (src_v[:, 0] <= height - 1))
    rows, cols = (slice(i[0], i[-1] + 1) if len(i) else slice(0) for i in (rows, cols))
    warped = np.zeros(img.shape)
    bilinear_warp(img, src_u[:, cols], src_v[rows], out=warped[rows, cols])
    new_cam = CameraModel(std, cam.extrinsics.copy(), cam.image_size)
    return warped, new_cam


# ---------------------------------------------------------------------------
# Camera JSON schema: {intrinsics: [fu, fv, cu, cv],
#                      extrinsics: 16 row-major floats, width, height}
# ---------------------------------------------------------------------------


def camera_to_dict(cam: CameraModel) -> dict:
    return {
        "intrinsics": [float(x) for x in cam.intrinsics],
        "extrinsics": [float(x) for x in cam.extrinsics.ravel()],
        "width": cam.image_size[0],
        "height": cam.image_size[1],
    }


def _finite_number(value) -> bool:
    """True for a JSON integer or a finite JSON float; Python's ``json`` also
    parses NaN and Infinity, and a bool or a string is not a number here."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _json_numbers(name: str, value) -> list:
    if isinstance(value, list) and all(map(_finite_number, value)):
        return value
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    raise ValueError(f"{name} must be a list of numbers, got {value!r}")


def _json_number(name: str, value):
    if _finite_number(value):
        return value
    if type(value) is float:
        raise ValueError(f"{name} must be finite, got {value!r}")
    raise ValueError(f"{name} must be a number, got {value!r}")


def _json_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def camera_from_dict(data: dict) -> CameraModel:
    """The camera of a JSON record: lists of JSON numbers and JSON integers
    (a bool is neither), so "500", 64.9 and true are rejected, not coerced."""
    try:
        intr = _json_numbers("intrinsics", data["intrinsics"])
        ext = np.asarray(_json_numbers("extrinsics", data["extrinsics"]), dtype=float).reshape(4, 4)
        size = (_json_int("width", data["width"]), _json_int("height", data["height"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed camera record: {exc}") from exc
    return CameraModel(intr, ext, size)


def save_camera_json(path, cam: CameraModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(camera_to_dict(cam), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_camera_json(path) -> CameraModel:
    with open(path, "r", encoding="utf-8") as fh:
        return camera_from_dict(json.load(fh))

"""Binary PPM (P6) and PGM (P5) image I/O for the warp and heatmap demos."""

from __future__ import annotations

import numpy as np


def _read(path, magic: bytes, channels: int) -> np.ndarray:
    """The (H, W, channels) uint8 raster of a maxval-255 PGM or PPM file."""
    with open(path, "rb") as fh:
        if fh.read(2) != magic:
            raise ValueError(f"not a {magic.decode()} file")
        fields = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise ValueError("truncated raster header")
            fields.extend(line.split(b"#", 1)[0].split())
        width, height, maxval = (int(x) for x in fields[:3])
        if maxval != 255:
            raise ValueError("only maxval 255 rasters are supported")
        data = fh.read(width * height * channels)
    if len(data) != width * height * channels:
        raise ValueError(f"truncated {'PGM' if channels == 1 else 'PPM'} payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, channels).copy()


def _write(path, magic: bytes, img: np.ndarray) -> None:
    img = np.rint(img)  # a new array, clipped in place
    img = np.clip(img, 0, 255, out=img).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{magic.decode()}\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a (H, W) uint8 array."""
    return _read(path, b"P5", 1)[..., 0]


def write_pgm(path, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    _write(path, b"P5", img)


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a (H, W, 3) uint8 array."""
    return _read(path, b"P6", 3)


def write_ppm(path, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM image must be (H, W, 3)")
    _write(path, b"P6", img)

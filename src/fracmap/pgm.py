"""Minimal binary PGM (P5, maxval 255) reading and writing.

Grayscale images travel as 8-bit PGM on disk and as float64 arrays in
[0, 1] in memory (value / 255). Writing is byte-deterministic.
"""

from __future__ import annotations

import numpy as np

from .atomic import atomic_open

__all__ = ["write_pgm", "read_pgm", "to_unit", "to_bytes_gray"]


def to_bytes_gray(unit_values: np.ndarray) -> np.ndarray:
    """Quantize float values in [0, 1] to uint8 by round-half-away scaling."""
    v = np.asarray(unit_values, dtype=np.float64)
    return np.clip(np.floor(v * 255.0 + 0.5), 0, 255).astype(np.uint8)


def to_unit(gray: np.ndarray) -> np.ndarray:
    return np.asarray(gray, dtype=np.float64) / 255.0


def write_pgm(path, gray: np.ndarray, comment: str | None = None) -> None:
    gray = np.asarray(gray)
    if gray.dtype != np.uint8:
        raise ValueError("write_pgm expects uint8 data; quantize with to_bytes_gray first")
    if gray.ndim != 2:
        raise ValueError(f"write_pgm expects a 2-D image, got shape {gray.shape}")
    if comment is not None and "\n" in comment:
        raise ValueError("PGM comments must be single-line")
    h, w = gray.shape
    with atomic_open(path, "wb") as fh:
        fh.write(b"P5\n")
        if comment is not None:
            fh.write(f"# {comment}\n".encode("ascii"))
        fh.write(f"{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes(order="C"))


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a uint8 array of shape (height, width).

    A file that is not a P5 PGM with maxval 255, or whose header or pixel
    payload is cut short, raises ``ValueError`` naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    # Header: magic, width, height, maxval, each separated by whitespace,
    # with optional '#' comment lines.
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise ValueError(f"{path}: header is truncated")
        if not token.isdigit() or int(token) == 0:
            raise ValueError(f"{path}: header field {token!r} is not a positive integer")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (expected 255)")
    if len(data) - pos < h * w:
        raise ValueError(f"{path}: pixel payload is truncated (expected {h * w} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).copy()

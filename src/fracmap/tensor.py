"""Immutable dense float64 tensors used throughout the toolkit.

A ``Tensor`` wraps a C-contiguous float64 numpy array whose write flag is
cleared, so values constructed once can be shared freely across threads and
function boundaries. All public constructors reject non-finite values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "TensorError"]


class TensorError(ValueError):
    """Raised for malformed tensor construction (bad shape, NaN/Inf values)."""


class Tensor:
    """An n-dimensional array of finite 64-bit reals with fixed shape."""

    __slots__ = ("_array",)

    def __init__(self, values, shape=None):
        arr = np.asarray(values, dtype=np.float64)
        if shape is not None:
            arr = arr.reshape(shape)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if any(dim <= 0 for dim in arr.shape):
            raise TensorError(f"tensor dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise TensorError("tensor values must be finite (no NaN/Inf)")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._array = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the values (read-only)."""
        return self._array.reshape(-1)

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._array

    def __len__(self) -> int:
        return self._array.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._array, other._array)

    __hash__ = None  # unhashable, like ndarray

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

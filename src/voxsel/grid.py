"""Dense voxel occupancy grids and the metrics defined over them.

A grid holds one scalar per voxel in [0, 1]. Values are addressed as
``values[x, y, z]``; the canonical flat layout (used by the ``.vxg`` file
format and by anything that serializes a grid) is row-major with x varying
fastest, i.e. ``flat[(z * dims_y + y) * dims_x + x]``, which is exactly
``values.ravel(order="F")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VoxelGrid",
    "OccupancySet",
    "DEFAULT_THRESHOLD",
    "threshold_grid",
    "error_grid",
    "iou",
    "f_score",
]

# Occupancy decision boundary used throughout when none is given explicitly.
DEFAULT_THRESHOLD = 0.4


def _validated_values(values: np.ndarray) -> np.ndarray:
    src = np.asarray(values)
    arr = np.array(src, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"voxel grid must be 3-D, got shape {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise ValueError(f"voxel grid dims must be positive, got {arr.shape}")
    if src.dtype != np.bool_:  # bools are 0.0 or 1.0: nothing to check
        if not np.all(np.isfinite(arr)):
            raise ValueError("voxel grid values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("voxel grid values must lie in [0, 1]")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class VoxelGrid:
    """Dense grid of scalar occupancy values in [0, 1].

    ``values`` has shape ``(dims_x, dims_y, dims_z)`` and is stored read-only;
    all operations on grids are pure functions returning new grids.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validated_values(self.values))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape  # type: ignore[return-value]

    @property
    def is_cubic(self) -> bool:
        dx, dy, dz = self.dims
        return dx == dy == dz

    @classmethod
    def zeros(cls, dims: tuple[int, int, int]) -> "VoxelGrid":
        return cls(np.zeros(dims, dtype=np.float64))

    @classmethod
    def from_flat(cls, dims: tuple[int, int, int], flat: np.ndarray) -> "VoxelGrid":
        """Build a grid from the canonical x-fastest flat layout."""
        flat = np.asarray(flat, dtype=np.float64)
        expected = int(np.prod(dims))
        if flat.shape != (expected,):
            raise ValueError(f"expected {expected} flat values, got {flat.shape}")
        return cls(flat.reshape(dims, order="F"))

    def to_flat(self) -> np.ndarray:
        """Return values in the canonical x-fastest flat layout."""
        return self.values.ravel(order="F")


@dataclass(frozen=True)
class OccupancySet:
    """Binary occupancy decisions for a grid, one bit per voxel."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.dtype != np.bool_:
            raise ValueError(f"occupancy bits must be boolean, got {bits.dtype}")
        if bits.ndim != 3 or any(d < 1 for d in bits.shape):
            raise ValueError(f"occupancy bits must be 3-D with positive dims, got {bits.shape}")
        bits = bits.copy()
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.bits.shape  # type: ignore[return-value]

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def to_grid(self) -> VoxelGrid:
        """Binary 0.0/1.0 grid carrying these decisions as values."""
        return VoxelGrid(self.bits)

    @classmethod
    def from_flat(cls, dims: tuple[int, int, int], flat: np.ndarray) -> "OccupancySet":
        flat = np.asarray(flat, dtype=np.bool_)
        expected = int(np.prod(dims))
        if flat.shape != (expected,):
            raise ValueError(f"expected {expected} flat bits, got {flat.shape}")
        return cls(flat.reshape(dims, order="F"))

    def to_flat(self) -> np.ndarray:
        return self.bits.ravel(order="F")


def _check_tau(tau: float) -> float:
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {tau}")
    return float(tau)


def _check_same_dims(a, b) -> None:
    if a.dims != b.dims:
        raise ValueError(f"grid dims mismatch: {a.dims} vs {b.dims}")


def threshold_grid(grid: VoxelGrid, tau: float = DEFAULT_THRESHOLD) -> OccupancySet:
    """Mark voxels with value >= tau as occupied (the boundary is inclusive)."""
    tau = _check_tau(tau)
    return OccupancySet(grid.values >= tau)


def error_grid(pred: VoxelGrid, gt: VoxelGrid) -> VoxelGrid:
    """Per-voxel absolute reconstruction error ``|pred - gt|``.

    Symmetric in its arguments and zero exactly where the two grids agree.
    """
    _check_same_dims(pred, gt)
    return VoxelGrid(np.abs(pred.values - gt.values))


def _count_scores(n_pred: int, n_gt: int, inter: int) -> tuple[float, float]:
    """IoU and F1 of two occupancy sets from their sizes and their intersection's size."""
    union = n_pred + n_gt - inter
    if union == 0:
        return 1.0, 1.0
    if inter == 0:  # disjoint, or exactly one side empty
        return 0.0, 0.0
    precision = inter / n_pred
    recall = inter / n_gt
    return inter / union, 2.0 * precision * recall / (precision + recall)


def iou(pred: OccupancySet, gt: OccupancySet) -> float:
    """Intersection over union of two occupancy sets.

    Two empty sets agree perfectly, so the empty/empty case is 1.0.
    """
    _check_same_dims(pred, gt)
    return _count_scores(pred.count, gt.count, int(np.count_nonzero(pred.bits & gt.bits)))[0]


def f_score(pred: OccupancySet, gt: OccupancySet) -> float:
    """Voxelwise F1 score: harmonic mean of precision and recall.

    Both sets empty scores 1.0; if exactly one side is empty the score is 0.0.
    """
    _check_same_dims(pred, gt)
    return _count_scores(pred.count, gt.count, int(np.count_nonzero(pred.bits & gt.bits)))[1]

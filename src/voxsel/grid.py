"""Dense voxel occupancy grids and the metrics defined over them.

A grid holds one scalar per voxel in [0, 1]. Values are addressed as
``values[x, y, z]``; the canonical flat layout (used by the ``.vxg`` file
format and by anything that serializes a grid) is row-major with x varying
fastest, i.e. ``flat[(z * dims_y + y) * dims_x + x]``, which is exactly
``values.ravel(order="F")``.

One private step, ``_frozen``, validates and freezes the array of every frozen
container: ``VoxelGrid``, ``OccupancySet``, ``SilhouetteImage`` and
``ErrorProjectionMap`` each store a read-only copy it checks.
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


def _frozen(arr, what: str, ndim: int, bits: bool) -> np.ndarray:
    """A read-only copy of ``arr`` with ``ndim`` positive dims: bool bits, or float64 values finite and in [0, 1]."""
    src = np.asarray(arr)
    if bits and src.dtype != np.bool_:
        raise ValueError(f"{what} must be boolean, got {src.dtype}")
    if src.ndim != ndim or 0 in src.shape:
        raise ValueError(f"{what} must be {ndim}-D with positive dims, got shape {src.shape}")
    out = src.copy() if bits else np.array(src, dtype=np.float64)  # bits in C order, values in the source's
    if src.dtype != np.bool_:  # a bool source holds 0 and 1 only
        if not np.isfinite(out).all():
            raise ValueError(f"{what} must be finite")
        if out.min() < 0.0 or out.max() > 1.0:
            raise ValueError(f"{what} must lie in [0, 1]")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class VoxelGrid:
    """Dense grid of scalar occupancy values in [0, 1].

    ``values`` has shape ``(dims_x, dims_y, dims_z)`` and is stored read-only;
    all operations on grids are pure functions returning new grids.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values, "VoxelGrid values", 3, bits=False))

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
        object.__setattr__(self, "bits", _frozen(self.bits, "OccupancySet bits", 3, bits=True))

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

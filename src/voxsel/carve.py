"""Visual-hull reconstruction by silhouette intersection (space carving).

A voxel survives carving only if every observation sees it inside the
silhouette: the voxel's pixel id under the observation's viewpoint comes from
the pixel-id kernel rendering uses (:func:`~voxsel.geometry.pixel_ids`), and
that pixel is looked up in the silhouette image. Because rendering and carving
share that kernel, every ground-truth voxel projects onto a set pixel of every
rendered silhouette, so the carve of exact silhouettes always contains the
ground truth. Carving drops a voxel only when its (y, z) pixel falls off the
image, which counts as outside; a rotated depth off the cube does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Viewpoint, pixel_ids
from .grid import VoxelGrid
from .synthesis import SilhouetteImage

__all__ = ["ViewObservation", "carve", "project_voxel"]


@dataclass(frozen=True)
class ViewObservation:
    """One silhouette together with the viewpoint it was rendered from."""

    viewpoint: Viewpoint
    silhouette: SilhouetteImage


def project_voxel(index: tuple[int, int, int], v: Viewpoint, dim: int) -> tuple[int, int] | None:
    """Image cell a voxel center lands on under the viewpoint rotation.

    Returns the (y, z) pixel of the cell nearest the rotated center, or None
    when that pixel falls outside the (dim, dim) image frame. The map is the
    one silhouette rendering uses, per-voxel.
    """
    x, y, z = index
    if not (0 <= x < dim and 0 <= y < dim and 0 <= z < dim):
        raise ValueError(f"voxel index {index} outside grid of dim {dim}")
    pixel = int(pixel_ids(dim, v, clip_depth=False)[(x * dim + y) * dim + z])
    if pixel == dim * dim:
        return None
    return divmod(pixel, dim)


def carve(observations: Sequence[ViewObservation], dim: int) -> VoxelGrid:
    """Intersect silhouette constraints into a binary occupancy grid.

    Every observation must carry a (dim, dim) silhouette. The result is a
    0/1-valued grid; it shrinks (voxelwise) as observations are added, does
    not depend on their order, and is idempotent under duplicates. Each
    observation gathers its silhouette bits through the pose's pixel ids.
    """
    if len(observations) == 0:
        raise ValueError("carving requires at least one observation")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    for obs in observations:
        if obs.silhouette.dims != (dim, dim):
            raise ValueError(
                f"silhouette dims {obs.silhouette.dims} do not match grid dim {dim}"
            )
    keep = np.ones(dim * dim * dim, dtype=bool)
    for obs in observations:
        # The trailing False is the pixel of voxels that project off the image.
        lookup = np.append(obs.silhouette.pixels.reshape(-1), False)
        keep &= lookup[pixel_ids(dim, obs.viewpoint, clip_depth=False)]
    return VoxelGrid(keep.reshape((dim, dim, dim)).astype(np.float64))

"""Visual-hull reconstruction by silhouette intersection (space carving).

A voxel survives carving only if every observation sees it inside the
silhouette: the voxel's pixel id under the observation's viewpoint comes from
the pixel-id kernel rendering uses (:func:`~voxsel.geometry.pixel_ids`), and
that pixel is looked up in the silhouette image. Carving drops a voxel only
when its (y, z) pixel falls off the image, which counts as outside; a rotated
depth off the cube does not matter. Rendering also drops a voxel whose
rotated cell leaves the cube along x, so the carve of exact silhouettes keeps
only the ground-truth voxels whose rotated cell stays inside the cube under
every view. That holds for every voxel within
:func:`~voxsel.synthesis.safe_radius` of the grid center, as in every
generated shape; a ground-truth voxel near a corner can rotate off the cube,
miss its silhouette and be carved away.

Each observation keeps the voxels whose pixel is set in its silhouette, and
the hull is the AND of those sets. The AND is order-independent and
idempotent, so a caller that gains views a few at a time (the reconstruction
loop) can keep a running mask and pass it to :func:`carve` as ``keep``: each
new view is carved once instead of all views again. A view reads the pixel
ids of the voxels still kept only, so a voxel an earlier view dropped is
never mapped under a later one.

The loop renders and carves views of its own ground truth in one pass,
``_render_and_carve``: it maps each voxel kept or occupied once under the
view's pose, then renders and carves through the steps
:func:`~voxsel.synthesis.render_silhouette` and :func:`carve` use. One pass
serves every object seen from the same pose: the loop carves each object's
first initial view, cut from the full cube, for all objects sharing that pose
in one call, so the pose maps the cube once, not once per object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Viewpoint, _pixel_rule, _pose_pixel_codes, pixel_ids
from .grid import VoxelGrid
from .synthesis import SilhouetteImage, _silhouette

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
    one silhouette rendering uses, for this voxel alone.
    """
    x, y, z = index
    if not (0 <= x < dim and 0 <= y < dim and 0 <= z < dim):
        raise ValueError(f"voxel index {index} outside grid of dim {dim}")
    pixel = int(pixel_ids(dim, v, clip_depth=False, voxels=np.array([(x * dim + y) * dim + z]))[0])
    if pixel == dim * dim:
        return None
    return divmod(pixel, dim)


def carve(
    observations: Sequence[ViewObservation], dim: int, *, keep: np.ndarray | None = None
) -> VoxelGrid:
    """Intersect silhouette constraints into a binary occupancy grid.

    Every observation must carry a (dim, dim) silhouette. The result is a
    0/1-valued grid; it shrinks (voxelwise) as observations are added, does
    not depend on their order, and is idempotent under duplicates. It is the
    AND of the one-observation carves.

    ``keep`` carves incrementally: a flat bool array of ``dim ** 3`` entries,
    the running mask of earlier observations (``carve(earlier, dim)`` as a
    flat mask). The new observations are ANDed into it in place, and the
    result is the hull of the earlier and the new observations together. On
    a ValueError ``keep`` is left unchanged.
    """
    if len(observations) == 0:
        raise ValueError("carving requires at least one observation")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    for obs in observations:
        if obs.silhouette.dims != (dim, dim):
            raise ValueError(f"silhouette dims {obs.silhouette.dims} do not match grid dim {dim}")
    if keep is None:
        keep = np.ones(dim**3, dtype=bool)
    elif keep.dtype != np.bool_ or keep.shape != (dim**3,):
        raise ValueError(f"keep must be a flat bool array of {dim ** 3} entries, got {keep.dtype} {keep.shape}")
    for obs in observations:
        alive = np.flatnonzero(keep)  # only the voxels still kept are mapped
        _carve_into(keep, alive, obs.silhouette, pixel_ids(dim, obs.viewpoint, clip_depth=False, voxels=alive))
    return VoxelGrid(keep.reshape((dim, dim, dim)))


def _carve_into(keep: np.ndarray, alive: np.ndarray, silhouette: SilhouetteImage, pixels: np.ndarray) -> None:
    """AND ``silhouette``, read at the image-rule ids ``pixels`` of the voxels ``alive``, into ``keep`` in place."""
    kept = np.append(silhouette.pixels.reshape(-1), False)[pixels]  # the off id reads False
    if alive.size == keep.size:  # a plain AND over the whole cube
        np.logical_and(keep, kept, out=keep)
    else:
        keep[alive] &= kept


def _render_and_carve(
    occs: Sequence[np.ndarray], dim: int, v: Viewpoint, keeps: Sequence[np.ndarray]
) -> list[SilhouetteImage]:
    """``render_silhouette`` of each flat occupancy mask in ``occs`` from ``v``, carved into its ``keeps`` entry in place.

    Maps each voxel of the union of every ``keep | occ`` once, renders each
    silhouette through ``render_silhouette``'s step and carves it through
    :func:`carve`'s; the silhouettes returned are the ones carved with. An
    occupied voxel outside its hull still sets its pixel, as it does in
    ``render_silhouette``. Each object's silhouette and carve equal those of
    a call with that object alone.
    """
    union = keeps[0] | occs[0]
    for keep, occ in zip(keeps[1:], occs[1:]):
        union |= keep
        union |= occ
    alive = np.flatnonzero(union)
    codes = _pose_pixel_codes(dim, v, alive)
    silhouettes = [_silhouette(dim, _pixel_rule(codes[occ[alive]], dim, clip_depth=True)) for occ in occs]
    pixels = _pixel_rule(codes, dim, clip_depth=False)
    for keep, silhouette in zip(keeps, silhouettes):
        _carve_into(keep, alive, silhouette, pixels)
    return silhouettes

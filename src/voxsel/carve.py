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
idempotent, so :func:`carve` cuts a list of voxel ids down view by view, one
compress each, and builds the grid once, at the end. A caller that gains
views a few at a time (the reconstruction loop) passes the ids of its hull
as ``voxels``: each new view is carved once instead of all views again. A
view maps the surviving ids only, so a voxel an earlier view dropped is
never mapped under a later one.

The loop renders and carves views of its own ground truth in one pass,
``_render_and_carve``: it maps a list of voxel ids once under each pose of
a round of views, the hull's ids first, all poses in one product, then
renders and carves through the steps
:func:`~voxsel.synthesis.render_silhouette` and :func:`carve` use, and
returns the silhouettes with the hull voxels all of them keep. One pass
serves every object that maps the same ids: the loop carves each object's
first initial view, cut from the full cube, for all objects sharing that
pose in one call, so the pose maps the cube once, not once per object, and
each object's round of new views (up to 12 a pass) maps its hull plus its
occupied voxels outside it once per view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Viewpoint, _grid_dim, _pixel_rule, _pose_pixel_codes, _voxel_index, pixel_ids
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
    observations: Sequence[ViewObservation], dim: int, *, voxels: np.ndarray | None = None
) -> VoxelGrid:
    """Intersect silhouette constraints into a binary occupancy grid.

    Every observation must carry a (dim, dim) silhouette. The result is a
    0/1-valued grid; it shrinks (voxelwise) as observations are added, does
    not depend on their order, and is idempotent under duplicates. It is the
    AND of the one-observation carves.

    ``voxels`` carves incrementally: the flat ids of the voxels still in
    play, by default the whole cube. Only they can survive, so with the ids
    of ``carve(earlier, dim)`` the result is the hull of the earlier and the
    new observations together, and the new ones alone are mapped.
    """
    if len(observations) == 0:
        raise ValueError("carving requires at least one observation")
    dim = _grid_dim(dim)
    for obs in observations:
        if obs.silhouette.dims != (dim, dim):
            raise ValueError(f"silhouette dims {obs.silhouette.dims} do not match grid dim {dim}")
    alive = np.arange(dim**3) if voxels is None else _voxel_index(voxels, dim)
    for obs in observations:  # only the voxels still alive are mapped
        alive = alive[_kept(obs.silhouette, pixel_ids(dim, obs.viewpoint, clip_depth=False, voxels=alive))]
    hull = np.zeros(dim**3, dtype=bool)
    hull[alive] = True
    return VoxelGrid(hull.reshape((dim, dim, dim)))


def _kept(silhouette: SilhouetteImage, pixels: np.ndarray) -> np.ndarray:
    """Whether ``silhouette`` keeps each voxel, read at its image-rule id in ``pixels``; the off id reads False."""
    return np.take(np.append(silhouette.pixels.reshape(-1), False), pixels)  # np.take gathers faster than indexing


def _render_and_carve(
    dim: int, views: Sequence[Viewpoint], voxels: np.ndarray, occupied: Sequence[np.ndarray], n_hull: int
) -> list[tuple[list[SilhouetteImage], np.ndarray]]:
    """Per bool array of ``occupied``, the ``render_silhouette`` of the flagged ``voxels`` from each of ``views``.

    ``voxels`` are flat ids, a hull's ``n_hull`` ids first, each mapped once
    under every view in one product; each ``occupied`` entry flags the
    occupied ones among them, hull or not, which set their pixels as in
    ``render_silhouette``. Each silhouette is rendered through
    ``render_silhouette``'s step and carved through :func:`carve`'s: the
    bool array returned with them, the AND of the views' keep masks, says
    which of ``voxels[:n_hull]`` every view keeps, so the carved hull is
    their compress.
    """
    codes = _pose_pixel_codes(dim, views, voxels)
    silhouettes = [[_silhouette(dim, _pixel_rule(row[occ], dim, clip_depth=True)) for row in codes] for occ in occupied]
    pixels = _pixel_rule(codes[:, :n_hull], dim, clip_depth=False)
    return [(images, np.logical_and.reduce([_kept(s, p) for s, p in zip(images, pixels)])) for images in silhouettes]

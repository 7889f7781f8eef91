"""First-hit error projection and reconstruction-error guided view scoring.

A rotated error grid is projected onto the (y, z) image plane by sweeping x
ascending per pixel ray and keeping the first nonzero value, i.e. the error
on the surface nearest the camera. Summing a projection gives the score of
the viewpoint that produced it; the highest-scoring lattice centers are the
views most worth re-observing, and Gaussian jitter around them turns interval
centers into concrete camera poses.

One private kernel, ``_lattice_totals``, scores every lattice center into
one float64 totals array from the ids of the hot voxels, those above
``FIRST_HIT_EPS``, and their values, None when every one is 1.
:func:`score_all` finds the hot voxels of a grid (``_hot_voxels``) and wraps
the kernel's totals into :class:`ViewScore` objects; the loop passes the ids
of its hull's mismatch voxels to the kernel directly and takes the best
centers from the totals, so a selection builds no grid and no scores. One
stable ``np.lexsort`` (``_ranking``) holds the ranking rule, descending
score, then yaw index, then pitch index, for the loop and for
:func:`rank_scores` and :func:`select_top_n` alike.

The kernel reads the rotated cell keys (:func:`~voxsel.geometry.cell_keys`)
of the hot voxels only. It gathers them from the lattice's cached table
(:func:`~voxsel.geometry.lattice_cell_keys`), which computes the keys of a
voxel no earlier call asked for, for every center at once, the first time it
is asked. When that table would exceed ``MAX_LATTICE_TABLE_BYTES`` it
computes them one center at a time and keeps none: the 16,200 cells of a
2-degree lattice at dim 32 would need a 2.1 GB table. When every hot voxel
is 1.0 a view's score is the number of distinct pixels they project to: the
gathered keys become ray ids ``view * (dim * dim + 1) + pixel`` in place and
are scattered into one bool array in bounded chunks. At an even dim that
counts the base half of the lattice only: an antipode (yaw + 180) sees the
mirror image, so the same count. Otherwise ``np.minimum.at`` picks each
ray's nearest cell and ``np.maximum.at`` the largest value deposited there.
Each view's total is one row of a single axis reduction. The dense
:func:`score_view` path (``rotate_grid`` then :func:`project_first_hit`)
stays as public API and as the reference both reductions are tested against;
no scoring path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    ViewpointLattice,
    Viewpoint,
    _base_half,
    _lattice_cell_keys,
    cell_keys,
    discretize_viewpoints,
    lattice_cell_keys,
    rotate_grid,
    sample_gaussian_view,
)
from .grid import VoxelGrid, _frozen, error_grid

__all__ = [
    "FIRST_HIT_EPS",
    "MAX_LATTICE_TABLE_BYTES",
    "ErrorProjectionMap",
    "ViewScore",
    "project_first_hit",
    "score_view",
    "score_all",
    "rank_scores",
    "select_top_n",
    "sample_around",
    "select_and_sample",
]

# Values at or below this cutoff count as empty space during the ray sweep.
# Binary error grids hold exact 0.0/1.0 values, so for them the cutoff is
# equivalent to testing != 0; it only matters for soft-valued grids.
FIRST_HIT_EPS = 1e-9

# Largest int32 cell-key table the scoring kernel keeps; a finer lattice's
# key rows are computed one center at a time, so its memory does not grow
# with the number of cells. The table holds the keys of the voxels scored
# (a seed-0 loop's 30-degree half table: 0.5 MiB at dim 32, 3.4 MiB at dim
# 64), but the budget counts every voxel's under every center (9 MB and
# 75 MB), so it bounds a table mapped whole, half or full.
MAX_LATTICE_TABLE_BYTES = 512 * 2**20


@dataclass(frozen=True)
class ErrorProjectionMap:
    """Orthographic first-hit image of a grid, one pixel per (y, z) ray.

    ``pixels`` has shape ``(dims_y, dims_z)``; the canonical flat layout is
    y-fastest, ``flat[z * dims_y + y]``, which is ``pixels.ravel(order="F")``.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", _frozen(self.pixels, "ErrorProjectionMap pixels", 2, bits=False))

    @property
    def dims(self) -> tuple[int, int]:
        return self.pixels.shape  # type: ignore[return-value]

    @property
    def total(self) -> float:
        return float(self.pixels.sum())

    def to_flat(self) -> np.ndarray:
        return self.pixels.ravel(order="F")


@dataclass(frozen=True)
class ViewScore:
    """Score of one lattice center: the summed first-hit projection.

    ``lattice_index`` is the (yaw index, pitch index) pair; ties between
    equal scores are broken by this pair in ascending lexicographic order.
    """

    viewpoint: Viewpoint
    score: float
    lattice_index: tuple[int, int]


def project_first_hit(grid: VoxelGrid) -> ErrorProjectionMap:
    """Project a grid along +x, keeping each ray's first nonzero value.

    For every (y, z) the sweep visits x ascending; the first voxel whose
    value exceeds ``FIRST_HIT_EPS`` supplies the pixel, and rays that never
    hit yield 0.
    """
    vals = grid.values
    hits = vals > FIRST_HIT_EPS
    first_x = hits.argmax(axis=0)
    any_hit = hits.any(axis=0)
    front = np.take_along_axis(vals, first_x[np.newaxis, :, :], axis=0)[0]
    return ErrorProjectionMap(np.where(any_hit, front, 0.0))


def score_view(error: VoxelGrid, v: Viewpoint, lattice_index: tuple[int, int] = (0, 0)) -> ViewScore:
    """Score one viewpoint: rotate the error grid to it and sum the first hits.

    ``lattice_index`` is ordering metadata supplied by the caller; standalone
    calls can leave the default.
    """
    if not error.is_cubic:
        raise ValueError(f"view scoring requires a cubic grid, got dims {error.dims}")
    projection = project_first_hit(rotate_grid(error, v))
    return ViewScore(viewpoint=v, score=projection.total, lattice_index=tuple(lattice_index))


def score_all(error: VoxelGrid, lattice: ViewpointLattice) -> list[ViewScore]:
    """Score every lattice center, returned in lattice order (yaw fastest).

    Equal to :func:`score_view` per center: validates the grid and wraps the
    totals of ``_lattice_totals`` over its hot voxels, which reads only their
    keys.
    """
    if not error.is_cubic:
        raise ValueError(f"view scoring requires a cubic grid, got dims {error.dims}")
    totals = _lattice_totals(error.dims[0], *_hot_voxels(error.values.reshape(-1)), lattice).tolist()
    return [
        ViewScore(viewpoint=center, score=totals[k], lattice_index=lattice.lattice_index(k))
        for k, center in enumerate(lattice.centers)
    ]


# Ray ids scattered per fancy-index call: numpy casts an int32 index to a
# fresh intp array, so casting chunk by chunk bounds that copy at 512 KiB.
_SCATTER_CHUNK = 2**16


def _hot_voxels(error: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The ids of a flat error array's voxels above ``FIRST_HIT_EPS``, and their values, None when every one is 1.0."""
    hot = np.flatnonzero(error > FIRST_HIT_EPS)
    vals = error[hot]
    return hot, None if np.all(vals == 1.0) else vals


def _lattice_totals(dim: int, hot: np.ndarray, vals: np.ndarray | None, lattice: ViewpointLattice) -> np.ndarray:
    """float64 first-hit totals of every lattice center, in lattice order, of an error held by its hot voxels.

    ``hot`` lists the distinct flat ids of the ``dim**3`` voxels above
    ``FIRST_HIT_EPS`` and ``vals`` their values, or None when every one is
    1.0 (the loop's mismatch voxels). Their keys come from the lattice's
    cached table, or one center at a time when a table of every center would
    exceed :data:`MAX_LATTICE_TABLE_BYTES`. A binary error at an even dim is
    scored over the base half only (``geometry._base_half``, from the half
    table): an antipode (yaw + 180) sends each voxel to its base center's
    cell mirrored in x and y, so it hits as many pixels and takes that
    total. At odd dims some .5 ties round apart, so every center is scored.
    """
    half = vals is None and dim % 2 == 0
    if len(lattice.centers) * dim**3 * 4 <= MAX_LATTICE_TABLE_BYTES:
        keys = _lattice_cell_keys(dim, lattice, half=True).lookup(hot) if half else lattice_cell_keys(dim, lattice, hot)
        totals = _first_hit_totals(dim, keys, vals)
    else:
        rows = (cell_keys(dim, c, hot)[:, np.newaxis] for c in (_base_half(lattice) if half else lattice.centers))
        totals = np.concatenate([_first_hit_totals(dim, keys, vals) for keys in rows])
    return np.tile(totals.reshape(lattice.n_pitch, -1), 2).ravel() if half else totals


def _first_hit_totals(dim: int, keys: np.ndarray, vals: np.ndarray | None) -> np.ndarray:
    """Per column of cell keys, the summed first-hit image of the hot voxels, built without rotating the grid.

    Row ``i`` of ``keys``, a fresh array this call may overwrite, holds the
    :func:`~voxsel.geometry.cell_keys` entry of hot voxel ``i`` under each
    view, one column per view, and ``vals[i]`` is its value. Only voxels
    above ``FIRST_HIT_EPS`` can be a ray's first hit, and a rotated cell is
    above it exactly when one of its deposits is, so the caller passes only
    theirs. With ``vals`` None every hot voxel is 1.0, every first hit is 1
    and a view's total is the number of its pixels they reach, marked in one
    bool array: the keys become ray ids in place. Mirrored keys give the same
    count, unlike a soft total, which reads the nearest surface. Otherwise
    each (view, pixel) ray's first hit is its smallest cell key, and its
    pixel reads the largest value deposited there. Either way this is the image
    :func:`project_first_hit` makes of :func:`rotate_grid`, summed the same
    way, one view per row.
    """
    n_views = keys.shape[1]
    stride = dim * dim + 1  # pixel ids plus the off sentinel
    offsets = np.arange(0, n_views * stride, stride, dtype=np.int32)
    if vals is None:
        keys //= dim
        keys += offsets
        rays = keys.reshape(-1)
        seen = np.zeros(n_views * stride, dtype=bool)
        for start in range(0, rays.size, _SCATTER_CHUNK):
            seen[rays[start : start + _SCATTER_CHUNK].astype(np.intp)] = True
        return np.count_nonzero(seen.reshape(n_views, stride)[:, :-1], axis=1).astype(np.float64)
    rays = keys // dim
    rays += offsets
    first = np.full(n_views * stride, dim**3, dtype=np.int32)
    np.minimum.at(first, rays.ravel(), keys.ravel())
    front = keys == first[rays]
    image = np.zeros(n_views * stride)
    np.maximum.at(image, rays[front], np.broadcast_to(vals[:, np.newaxis], keys.shape)[front])
    return image.reshape(n_views, stride)[:, :-1].sum(axis=1)


def _ranking(scores: np.ndarray, yaw_index: np.ndarray, pitch_index: np.ndarray) -> np.ndarray:
    """Positions of ``scores`` best first: descending score, ties by ascending yaw index, then pitch index.

    The one ranking rule, which the loop and :func:`rank_scores` share.
    ``np.lexsort`` is stable, so entries equal in all three keep their input
    order.
    """
    return np.lexsort((pitch_index, yaw_index, -np.asarray(scores, dtype=np.float64)))


def _top_centers(totals: np.ndarray, lattice: ViewpointLattice, n: int) -> list[Viewpoint]:
    """The ``n`` best-ranked centers of per-center ``totals`` in lattice order."""
    order = _ranking(totals, *lattice.lattice_index(np.arange(len(totals))))
    return [lattice.centers[k] for k in order[:n]]


def rank_scores(scores: Iterable[ViewScore]) -> list[ViewScore]:
    """Scores sorted by descending score, ties by ascending lattice index.

    The tie-break compares the yaw index first, then the pitch index, so the
    ranking is a deterministic function of the score multiset: permuting the
    input cannot change the output.
    """
    scores = list(scores)
    index = np.array([s.lattice_index for s in scores], dtype=np.int64).reshape(-1, 2)
    return [scores[k] for k in _ranking([s.score for s in scores], index[:, 0], index[:, 1])]


def select_top_n(scores: Sequence[ViewScore], n: int) -> list[Viewpoint]:
    """Viewpoints of the n highest-scoring entries, deterministically ordered.

    ``n`` must be between 1 and the number of scores; ``n`` equal to the
    input size returns every viewpoint sorted by descending score.
    """
    if not (1 <= n <= len(scores)):
        raise ValueError(f"n must lie in [1, {len(scores)}], got {n}")
    return [s.viewpoint for s in rank_scores(scores)[:n]]


def sample_around(centers: Sequence[Viewpoint], interval_deg: float, rng: np.random.Generator) -> list[Viewpoint]:
    """One Gaussian pose per center, in order, with sigma ``interval_deg / 6``."""
    sigma = interval_deg / 6.0
    return [sample_gaussian_view(v, sigma, rng) for v in centers]


def select_and_sample(
    pred: VoxelGrid,
    gt: VoxelGrid,
    interval_deg: float,
    n: int,
    rng: np.random.Generator,
) -> list[Viewpoint]:
    """Pick the n most error-visible lattice views and jitter each into a pose.

    Builds the error grid ``|pred - gt|``, scores every center of the
    ``interval_deg`` lattice, takes the top n, and draws one Gaussian sample
    per winner with sigma ``interval_deg / 6`` (yaw wrapped, pitch clamped).
    Samples are returned in ranking order.
    """
    lattice = discretize_viewpoints(interval_deg)
    top = select_top_n(score_all(error_grid(pred, gt), lattice), n)
    return sample_around(top, interval_deg, rng)

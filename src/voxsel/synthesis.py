"""Silhouette rendering, dataset view distributions, and synthetic shapes.

The renderer stands in for a real multi-view image pipeline: a view of an
object is the binary silhouette of its ground-truth occupancy seen from a
viewpoint. One step sets every silhouette from the ids of the pixel-id kernel
carving shares (:func:`~voxsel.geometry.pixel_ids`), here and in the loop's
one-pass render and carve. Carving against them is exactly conservative for
the ground-truth voxels whose rotated cell stays inside the cube, which every
voxel within :func:`safe_radius` of the center does: a voxel whose cell leaves
the cube along x is missing from the silhouette (rendering uses the cube rule)
but still looked up by carving (the image rule), so it is carved away unless
another voxel sets that pixel. Synthetic test shapes lie inside that safe ball
(the inscribed ball with one voxel of margin), so no rotation ever clips them.
Every shape is a union of two primitives, each built by one rule: a box from
its center and half-extents, and a ball; random boxes and balls take their
offset from the center from one placement rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Viewpoint, _centered_coords, pixel_ids
from .grid import DEFAULT_THRESHOLD, VoxelGrid, _check_tau, _frozen

__all__ = [
    "SilhouetteImage",
    "ViewDistribution",
    "ALIGNED_PITCH_DEG",
    "ALIGNED_VIEW_COUNT",
    "sample_dataset_viewpoints",
    "render_silhouette",
    "SHAPE_KINDS",
    "ShapeSpec",
    "generate_shape",
    "safe_radius",
]

# The aligned rendering pattern: a fixed ring of 24 yaws at constant pitch.
ALIGNED_PITCH_DEG = 60.0
ALIGNED_YAW_STEP_DEG = 15.0
ALIGNED_VIEW_COUNT = 24
_ALIGNED_RING = tuple(
    Viewpoint(yaw=-180.0 + k * ALIGNED_YAW_STEP_DEG, pitch=ALIGNED_PITCH_DEG) for k in range(ALIGNED_VIEW_COUNT)
)


@dataclass(frozen=True)
class SilhouetteImage:
    """Binary view of an object, one pixel per (y, z) ray.

    ``pixels`` has shape ``(dims_y, dims_z)``; the canonical flat layout is
    y-fastest, matching :class:`~voxsel.selection.ErrorProjectionMap`.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", _frozen(self.pixels, "SilhouetteImage pixels", 2, bits=True))

    @property
    def dims(self) -> tuple[int, int]:
        return self.pixels.shape  # type: ignore[return-value]

    @property
    def count(self) -> int:
        return int(self.pixels.sum())

    def to_flat(self) -> np.ndarray:
        return self.pixels.ravel(order="F")


@dataclass(frozen=True)
class ViewDistribution:
    """How dataset viewpoints are spread over the view sphere.

    ``aligned`` is the fixed 24-view ring (pitch 60, yaw every 15 degrees)
    and takes no other view count; ``hemispherical`` draws pitch uniformly
    from [0, 90] and ``spherical`` from [-90, 90], both with yaw uniform over
    [-180, 180).
    """

    kind: str
    views_per_object: int = ALIGNED_VIEW_COUNT

    def __post_init__(self) -> None:
        if self.kind not in ("aligned", "hemispherical", "spherical"):
            raise ValueError(f"unknown view distribution kind {self.kind!r}")
        if isinstance(self.views_per_object, bool) or not isinstance(self.views_per_object, int):
            raise ValueError(f"views_per_object must be an integer, got {self.views_per_object!r}")
        if self.views_per_object < 1:
            raise ValueError(f"views_per_object must be positive, got {self.views_per_object}")
        if self.kind == "aligned" and self.views_per_object != ALIGNED_VIEW_COUNT:
            raise ValueError(
                f"aligned distribution is a fixed {ALIGNED_VIEW_COUNT}-view pattern, "
                f"got views_per_object={self.views_per_object}"
            )


def sample_dataset_viewpoints(dist: ViewDistribution, rng: np.random.Generator) -> list[Viewpoint]:
    """Draw one object's worth of dataset viewpoints.

    The aligned pattern is fixed, built once, and consumes no randomness;
    each call returns a fresh list of it. Random patterns draw yaw then pitch
    for each view in order.
    """
    if dist.kind == "aligned":
        return list(_ALIGNED_RING)
    pitch_lo, pitch_hi = (0.0, 90.0) if dist.kind == "hemispherical" else (-90.0, 90.0)
    views = []
    for _ in range(dist.views_per_object):
        yaw = rng.uniform(-180.0, 180.0)
        pitch = rng.uniform(pitch_lo, pitch_hi)
        views.append(Viewpoint(yaw=yaw, pitch=pitch))
    return views


def render_silhouette(gt: VoxelGrid, v: Viewpoint, tau: float = DEFAULT_THRESHOLD) -> SilhouetteImage:
    """Binary silhouette of the thresholded grid seen from ``v``.

    Thresholds ``gt`` at ``tau`` and marks the pixel id of every occupied
    voxel whose rotated cell stays inside the cube; only the occupied voxels
    are mapped. This is exactly the nonzero mask of
    ``project_first_hit(rotate_grid(...))`` on the 0/1 grid.
    """
    tau = _check_tau(tau)
    if not gt.is_cubic:
        raise ValueError(f"rendering requires a cubic grid, got dims {gt.dims}")
    dim = gt.dims[0]
    return _silhouette(dim, pixel_ids(dim, v, voxels=np.flatnonzero(gt.values >= tau)))


def _silhouette(dim: int, pixels: np.ndarray) -> SilhouetteImage:
    """The (dim, dim) silhouette with the image pixel ids ``pixels`` set; the off id ``dim * dim`` sets nothing."""
    image = np.zeros(dim * dim + 1, dtype=bool)  # the last entry takes off voxels
    image[pixels] = True
    return SilhouetteImage(image[:-1].reshape(dim, dim))


SHAPE_KINDS = ("box", "sphere", "ell", "cross", "union-of-boxes", "random-blob")

MIN_SHAPE_DIM = 8
MIN_OCCUPANCY = 0.01
MAX_OCCUPANCY = 0.60


@dataclass(frozen=True)
class ShapeSpec:
    """Descriptor for one synthetic shape.

    ``size`` (box only, a tuple of three positive ints) and ``radius``
    (sphere only, a positive finite number) pin the primitive exactly and
    center it, and :func:`generate_shape` rejects one that leaves the safe
    ball; left unset, the generator randomizes extent and placement.
    """

    kind: str
    size: tuple[int, int, int] | None = None
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}, expected one of {SHAPE_KINDS}")
        if self.size is not None:
            if self.kind != "box":
                raise ValueError(f"size applies only to a box, got kind {self.kind!r}")
            size = self.size if isinstance(self.size, tuple) else ()
            positive_ints = all(isinstance(s, numbers.Integral) and not isinstance(s, bool) and s > 0 for s in size)
            if len(size) != 3 or not positive_ints:
                raise ValueError(f"box size must be a tuple of three positive ints, got {self.size!r}")
        if self.radius is not None:
            if self.kind != "sphere":
                raise ValueError(f"radius applies only to a sphere, got kind {self.kind!r}")
            r = self.radius
            if not (isinstance(r, numbers.Real) and not isinstance(r, bool) and math.isfinite(r) and r > 0):
                raise ValueError(f"sphere radius must be a positive finite number, got {r!r}")


def safe_radius(dim: int) -> float:
    """Radius of the centered ball whose content never clips under rotation.

    A voxel within this radius of the grid center stays at that distance when
    rotated, and the one voxel of margin absorbs nearest-cell rounding.
    """
    return (dim - 1) / 2.0 - 1.0


def _ball_mask(dim: int, center: np.ndarray, radius: float) -> np.ndarray:
    coords = _centered_coords(dim).reshape(3, dim, dim, dim)
    dist2 = sum((coords[a] - center[a]) ** 2 for a in range(3))
    return dist2 <= radius * radius


@lru_cache(maxsize=8)
def _safe_ball(dim: int) -> np.ndarray:
    # The read-only mask of the safe ball, built once per dim.
    safe = _ball_mask(dim, np.zeros(3), safe_radius(dim))
    safe.flags.writeable = False
    return safe


def _box(dim: int, center: np.ndarray, ext: np.ndarray) -> np.ndarray:
    # The voxels within ``ext`` of ``center`` (centered coordinates) on every axis.
    half = (dim - 1) / 2.0
    lo = np.maximum(np.ceil(half + center - ext).astype(int), 0)
    hi = np.minimum(np.floor(half + center + ext).astype(int), dim - 1)
    mask = np.zeros((dim, dim, dim), dtype=bool)
    mask[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1] = True
    return mask


def _place(rng: np.random.Generator, slack: float) -> np.ndarray:
    # A random offset from the grid center, at most ``slack`` long.
    offset = rng.uniform(-1.0, 1.0, size=3)
    offset *= slack / max(np.linalg.norm(offset), 1e-12) * rng.uniform(0.0, 1.0)
    return offset


def _random_box(dim: int, rng: np.random.Generator, max_half: float) -> np.ndarray:
    # A box is safe when its farthest corner stays inside the safe ball.
    budget = safe_radius(dim)
    extents = np.maximum(rng.uniform(dim / 8.0, max_half, size=3), 1.5)
    scale = budget / np.linalg.norm(extents)
    if scale < 1.0:
        extents = extents * scale
    return _box(dim, _place(rng, budget - np.linalg.norm(extents)), extents)


def _random_ball(dim: int, rng: np.random.Generator, min_radius: float, max_radius: float) -> np.ndarray:
    radius = rng.uniform(min_radius, max_radius)
    return _ball_mask(dim, _place(rng, safe_radius(dim) - radius), radius)


def _arm(dim: int, axis: int, center: np.ndarray, half_len: float, half_thick: float) -> np.ndarray:
    ext = np.full(3, half_thick)
    ext[axis] = half_len
    return _box(dim, center, ext)


def generate_shape(spec: ShapeSpec, dim: int, rng: np.random.Generator) -> VoxelGrid:
    """Generate one binary shape grid, deterministic given the generator state.

    Every random shape is the union of boxes and balls clipped to the safe
    ball (:func:`safe_radius`); an exact box or sphere that leaves the safe
    ball raises ``ValueError``. The occupied fraction always lands in
    [1%, 60%] of the grid. Floors keep the smallest dims from rounding a
    shape to a sliver and bind only below dim 12: random box half-extents
    are at least 1.5 voxels, arm half-thicknesses (``ell``, ``cross``) at
    least 1, and ``ell``'s arm half-lengths at least 2 and 1.5.
    """
    if dim < MIN_SHAPE_DIM:
        raise ValueError(f"shape dim must be at least {MIN_SHAPE_DIM}, got {dim}")
    budget = safe_radius(dim)
    safe = _safe_ball(dim)

    if spec.size is not None:  # an exact box, its low corner at (dim - size) // 2
        size = np.array(spec.size)
        ext = (size - 1) / 2.0
        parts = [_box(dim, (dim - size) // 2 + ext - (dim - 1) / 2.0, ext)]
    elif spec.radius is not None:  # an exact sphere
        parts = [_ball_mask(dim, np.zeros(3), float(spec.radius))]
    elif spec.kind == "box":
        parts = [_random_box(dim, rng, dim / 4.0)]
    elif spec.kind == "union-of-boxes":
        parts = [_random_box(dim, rng, dim / 5.0) for _ in range(int(rng.integers(3, 6)))]
    elif spec.kind == "sphere":
        parts = [_random_ball(dim, rng, dim / 6.0, dim / 3.5)]
    elif spec.kind == "random-blob":
        parts = [_random_ball(dim, rng, dim / 10.0, dim / 5.0) for _ in range(int(rng.integers(4, 9)))]
    elif spec.kind == "ell":
        # Two orthogonal arms joined at a shared end: deliberately asymmetric.
        # Lengths scale with the safe ball so the ranges stay valid down to
        # the minimum dim.
        axes = rng.permutation(3)[:2]
        thick = max(rng.uniform(dim / 12.0, dim / 8.0), 1.0)
        long_a = max(rng.uniform(budget * 0.55, budget * 0.62), 2.0)
        long_b = max(rng.uniform(budget * 0.44, budget * 0.50), 1.5)
        b_center = np.zeros(3)
        b_center[axes] = thick - long_a, long_b - thick
        parts = [_arm(dim, axes[0], np.zeros(3), long_a, thick), _arm(dim, axes[1], b_center, long_b, thick)]
    else:  # cross
        thick = max(rng.uniform(dim / 12.0, dim / 9.0), 1.0)
        max_len = np.sqrt(budget**2 - 2 * thick**2)
        parts = [_arm(dim, axis, np.zeros(3), rng.uniform(dim / 4.0, max_len), thick) for axis in range(3)]

    if (spec.size is not None or spec.radius is not None) and np.any(parts[0] & ~safe):
        raise ValueError(f"{spec} does not fit the safe ball of dim {dim} (radius {budget})")
    mask = np.logical_or.reduce(parts) & safe
    fraction = mask.sum() / mask.size
    if not (MIN_OCCUPANCY <= fraction <= MAX_OCCUPANCY):
        raise ValueError(f"shape occupancy {fraction:.3%} outside [1%, 60%] for {spec}")
    return VoxelGrid(mask)

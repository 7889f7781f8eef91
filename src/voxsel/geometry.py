"""Viewpoints, the discrete viewpoint lattice, and voxel-grid rotation.

Angle and axis conventions
--------------------------
A viewpoint is a (yaw, pitch) pair in degrees with roll fixed at zero. Yaw
rotates about the world z axis, pitch about the world y axis, and the full
rotation composes Tait-Bryan style as ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``
with right-handed axes. Yaw lives on the half-open circle [-180, 180) and
pitch is clamped to [-90, 90].

Rotating a grid by a viewpoint moves grid content so that the line of sight
of that viewpoint becomes the +x sweep direction of the rotated frame: the
camera sits on the -x side and an x-ascending scan visits voxels nearest the
camera first. Concretely a voxel at centered position ``p`` lands at
``R @ p``, and ``view_direction`` returns the world-frame unit vector that
points from the grid toward that camera.

Resampling is nearest-neighbor in the forward direction: each source voxel
deposits its value into the output cell nearest its rotated center, targets
off the cube are dropped, and collisions keep the maximum value. Forward
mapping keeps the rotated occupied count bounded by the number of source
voxels that land inside the cube, and it makes silhouette consistency exact:
a voxel's projected pixel (used by carving) is by construction covered by any
silhouette rendered through the same kernel. Rotation centers on the
continuous point ``(dim - 1) / 2`` for every grid parity.

Forward maps
------------
Every forward map comes from one rounded matmul per pose. Its sparse form,
:func:`pixel_ids`, gives each voxel the int32 id ``y * dim + z`` of the image
pixel it lands on, or the sentinel ``dim * dim`` when it lands nowhere. It is
the kernel that silhouette rendering and carving share, and it builds no
rotated grid. Error scoring reads :func:`cell_keys`: each voxel's rotated
cell as ``(y * dim + z) * dim + x``, whose quotient by ``dim`` is the
depth-clipped pixel id and whose order along a ray is its depth.
:func:`lattice_cell_keys` stacks it for every center of a lattice into one
cached table. The dense form, :func:`rotated_cells` and :func:`rotate_grid`,
stays as public API and as the reference the sparse forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import VoxelGrid

__all__ = [
    "Viewpoint",
    "ViewpointLattice",
    "discretize_viewpoints",
    "rotation_matrix",
    "rotate_grid",
    "rotated_cells",
    "pixel_ids",
    "cell_keys",
    "lattice_cell_keys",
    "view_direction",
    "viewpoint_from_direction",
    "sample_gaussian_view",
    "wrap_yaw",
    "clamp_pitch",
]


def wrap_yaw(yaw_deg: float) -> float:
    """Wrap an angle into the half-open range [-180, 180)."""
    return float((yaw_deg + 180.0) % 360.0 - 180.0)


def clamp_pitch(pitch_deg: float) -> float:
    """Clamp an angle into the closed range [-90, 90]."""
    return float(min(90.0, max(-90.0, pitch_deg)))


@dataclass(frozen=True)
class Viewpoint:
    """A camera orientation: yaw and pitch in degrees, roll pinned to 0.

    The constructor normalizes yaw into [-180, 180) and clamps pitch into
    [-90, 90], so two viewpoints describing the same orientation compare
    equal.
    """

    yaw: float
    pitch: float
    roll: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.yaw) and math.isfinite(self.pitch)):
            raise ValueError(f"viewpoint angles must be finite, got ({self.yaw}, {self.pitch})")
        if self.roll != 0.0:
            raise ValueError(f"roll is fixed at 0, got {self.roll}")
        object.__setattr__(self, "yaw", wrap_yaw(self.yaw))
        object.__setattr__(self, "pitch", clamp_pitch(self.pitch))
        object.__setattr__(self, "roll", 0.0)


def rotation_matrix(v: Viewpoint) -> np.ndarray:
    """Right-handed rotation ``Rz(yaw) @ Ry(pitch) @ Rx(roll)`` as a 3x3 array."""
    cy, sy = math.cos(math.radians(v.yaw)), math.sin(math.radians(v.yaw))
    cp, sp = math.cos(math.radians(v.pitch)), math.sin(math.radians(v.pitch))
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    # Roll is identically zero, so Rx drops out of the product.
    return rz @ ry


def view_direction(v: Viewpoint) -> np.ndarray:
    """Unit vector pointing from the grid toward the camera, world frame.

    The rotation for ``v`` carries this direction onto the -x axis of the
    rotated frame, where the projection sweep starts.
    """
    return -rotation_matrix(v)[0, :].copy()


def viewpoint_from_direction(direction: np.ndarray) -> Viewpoint:
    """Inverse of :func:`view_direction`, up to yaw at the gimbal poles.

    ``direction`` need not be normalized. For directions along +-y (where
    pitch is unconstrained) pitch 0 is returned.
    """
    d = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(d))
    if d.shape != (3,) or norm == 0.0 or not np.all(np.isfinite(d)):
        raise ValueError(f"direction must be a nonzero finite 3-vector, got {direction!r}")
    rx, ry_, rz = (-d / norm).tolist()
    planar = math.hypot(rx, rz)
    if planar == 0.0:
        return Viewpoint(yaw=math.degrees(math.atan2(-ry_, 0.0)), pitch=0.0)
    if rx >= 0.0:
        yaw = math.atan2(-ry_, planar)
        pitch = math.atan2(rz, rx)
    else:
        # Mirror branch: cos(yaw) < 0 keeps pitch inside [-90, 90].
        yaw = math.atan2(-ry_, -planar)
        pitch = math.atan2(-rz, -rx)
    return Viewpoint(yaw=math.degrees(yaw), pitch=math.degrees(pitch))


@dataclass(frozen=True)
class ViewpointLattice:
    """Regular grid of viewpoint interval centers covering the view sphere.

    ``centers`` is ordered with the yaw index varying fastest, so entry ``k``
    covers yaw cell ``k % n_yaw`` and pitch cell ``k // n_yaw``.
    """

    interval_deg: float
    n_yaw: int
    n_pitch: int
    centers: tuple[Viewpoint, ...]

    def lattice_index(self, k: int) -> tuple[int, int]:
        """(yaw index, pitch index) of the k-th center."""
        return (k % self.n_yaw, k // self.n_yaw)

    def center_at(self, yaw_index: int, pitch_index: int) -> Viewpoint:
        if not (0 <= yaw_index < self.n_yaw and 0 <= pitch_index < self.n_pitch):
            raise IndexError(f"lattice index ({yaw_index}, {pitch_index}) out of range")
        return self.centers[pitch_index * self.n_yaw + yaw_index]

    def cell_of(self, v: Viewpoint) -> tuple[int, int]:
        """Indices of the unique interval cell containing ``v``.

        Yaw cells are half-open; the last pitch cell is closed at +90 so the
        cells partition the full (yaw, pitch) rectangle.
        """
        i = int((v.yaw + 180.0) // self.interval_deg)
        j = int((v.pitch + 90.0) // self.interval_deg)
        return (min(i, self.n_yaw - 1), min(j, self.n_pitch - 1))


@lru_cache(maxsize=8)
def discretize_viewpoints(interval_deg: float) -> ViewpointLattice:
    """Split yaw [-180, 180) and pitch [-90, 90] into interval_deg cells.

    The interval must divide both 360 and 180 (so 22.5 is fine, 50 is not).
    Each cell is represented by its median angle, e.g. a 30 degree lattice
    starts at (-165, -75). The lattice is immutable and cached for the eight
    most recent intervals, so the loop does not rebuild it per selection.
    """
    interval_deg = float(interval_deg)
    if interval_deg <= 0:
        raise ValueError(f"interval must be positive, got {interval_deg}")
    n_yaw = round(360.0 / interval_deg)
    n_pitch = round(180.0 / interval_deg)
    if n_pitch < 1 or n_yaw * interval_deg != 360.0 or n_pitch * interval_deg != 180.0:
        raise ValueError(f"interval must divide both 360 and 180, got {interval_deg}")
    centers = tuple(
        Viewpoint(
            yaw=-180.0 + (i + 0.5) * interval_deg,
            pitch=-90.0 + (j + 0.5) * interval_deg,
        )
        for j in range(n_pitch)
        for i in range(n_yaw)
    )
    return ViewpointLattice(interval_deg=interval_deg, n_yaw=n_yaw, n_pitch=n_pitch, centers=centers)


@lru_cache(maxsize=8)
def _centered_coords(dim: int) -> np.ndarray:
    coords = np.indices((dim, dim, dim), dtype=np.float64).reshape(3, -1).T - (dim - 1) / 2.0
    coords.flags.writeable = False
    return coords


def _rounded_targets(dim: int, yaw: float, pitch: float) -> np.ndarray:
    """``np.rint(coords @ rot.T + half)``: rounded rotated centers, one row per voxel.

    Exact .5 ties occur (e.g. 24 of the 72 cells of the 30-degree lattice at
    dim 32) and the matmul's rounding noise settles them, so every forward
    map comes from this one matmul, one pose at a time. The add and the
    rounding run in place, which gives the same values without two temporaries.
    """
    rot = rotation_matrix(Viewpoint(yaw=yaw, pitch=pitch))
    target = _centered_coords(dim) @ rot.T
    target += (dim - 1) / 2.0
    return np.rint(target, out=target)


def _forward_pixel_ids(dim: int, yaw: float, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """Pixel ids of every voxel under both off rules: (cube rule, image rule)."""
    cells = _rounded_targets(dim, yaw, pitch).astype(np.int32)
    in_range = (cells >= 0) & (cells < dim)
    off = np.int32(dim * dim)
    image_ids = np.where(in_range[:, 1] & in_range[:, 2], cells[:, 1] * dim + cells[:, 2], off)
    cube_ids = np.where(in_range[:, 0], image_ids, off)
    return cube_ids, image_ids


# Eight poses: the loop renders a round's views and then carves them, and the
# CLI renders views before it carves them, so a pose is reused a few poses
# after it is made. At dim 64 eight pairs are 16 MiB.
@lru_cache(maxsize=8)
def _pose_pixel_ids(dim: int, yaw: float, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    ids = _forward_pixel_ids(dim, yaw, pitch)
    for arr in ids:
        arr.flags.writeable = False
    return ids


def pixel_ids(dim: int, v: Viewpoint, *, clip_depth: bool = True) -> np.ndarray:
    """Image pixel each voxel of a cubic grid projects to under ``v``.

    Entry ``k`` belongs to source voxel ``k`` (C order over ``(x, y, z)``)
    and is the int32 id ``y * dim + z`` of the (y, z) pixel of the cell
    nearest its rotated center, the cell :func:`rotated_cells` gives. A
    voxel that projects nowhere gets the single sentinel ``dim * dim``, one
    past the last pixel, so a ``dim * dim + 1`` image buffer absorbs it.
    With ``clip_depth`` (rendering) a voxel is off when its
    rotated cell leaves the cube on any axis, which is what
    :func:`rotate_grid` drops; without it (carving) only when its (y, z)
    pixel leaves the image. The array is read-only and cached per pose, for
    the 8 most recent poses (16 MiB at dim 64), so a pose is cheap to map
    again while it is in use: rendering a round's views and then carving
    them builds each map once.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    cube_ids, image_ids = _pose_pixel_ids(int(dim), v.yaw, v.pitch)
    return cube_ids if clip_depth else image_ids


def cell_keys(dim: int, v: Viewpoint) -> np.ndarray:
    """Rotated cell of every voxel of a cubic grid under ``v``, as ray-major keys.

    Entry ``i`` is the int32 key ``(y * dim + z) * dim + x`` of the cell
    :func:`rotated_cells` gives source voxel ``i``, or the sentinel
    ``dim ** 3`` when that cell leaves the cube. ``key // dim`` is the
    depth-clipped :func:`pixel_ids` entry (sentinel ``dim * dim``), and among
    the voxels on one pixel ray the smallest key is the one nearest the
    camera. The rounded targets are whole numbers, so one float64 matmul
    gives the keys exactly. Nothing is cached.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    dim = int(dim)
    target = _rounded_targets(dim, v.yaw, v.pitch)
    in_range = (target >= 0) & (target < dim)
    keys = (target @ np.array([1.0, dim * dim, dim])).astype(np.int32)
    return np.where(in_range[:, 0] & in_range[:, 1] & in_range[:, 2], keys, np.int32(dim**3))


@lru_cache(maxsize=2)
def _lattice_cell_keys(dim: int, lattice: ViewpointLattice) -> np.ndarray:
    table = np.empty((len(lattice.centers), dim**3), dtype=np.int32)
    for row, c in zip(table, lattice.centers):
        row[:] = cell_keys(dim, c)
    table.flags.writeable = False
    return table


def lattice_cell_keys(dim: int, lattice: ViewpointLattice) -> np.ndarray:
    """:func:`cell_keys` of every lattice center, one row per center.

    Row ``k`` is ``cell_keys(dim, lattice.centers[k])``, computed pose by pose,
    so it equals the map of that center alone. The table is read-only and
    cached for the two most recent ``(dim, lattice)`` pairs.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return _lattice_cell_keys(int(dim), lattice)


def rotated_cells(dim: int, v: Viewpoint) -> tuple[np.ndarray, np.ndarray]:
    """Forward map of every voxel center of a cubic grid under ``v``.

    Returns ``(cells, inside)`` where ``cells[k]`` is the integer output cell
    nearest the rotated center of source voxel ``k`` (sources enumerated in C
    order over ``(x, y, z)`` indices) and ``inside[k]`` says whether that cell
    lies within the cube. Both arrays are computed afresh on every call. This
    dense map serves :func:`rotate_grid`; the hot paths use :func:`pixel_ids`.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    cells = _rounded_targets(int(dim), v.yaw, v.pitch).astype(np.int64)
    return cells, ((cells >= 0) & (cells < dim)).all(axis=1)


def rotate_grid(grid: VoxelGrid, v: Viewpoint) -> VoxelGrid:
    """Rotate a cubic grid's content by the viewpoint rotation.

    Nearest-neighbor forward resampling about the grid center: source values
    deposit into their rotated cells, out-of-cube targets are dropped, vacated
    cells read 0, and colliding deposits keep the maximum value.
    """
    if not grid.is_cubic:
        raise ValueError(f"rotation requires a cubic grid, got dims {grid.dims}")
    dim = grid.dims[0]
    cells, inside = rotated_cells(dim, v)
    vals = grid.values.reshape(-1)
    src = inside & (vals > 0.0)
    out = np.zeros((dim, dim, dim), dtype=np.float64)
    tgt = cells[src]
    flat = (tgt[:, 0] * dim + tgt[:, 1]) * dim + tgt[:, 2]
    np.maximum.at(out.reshape(-1), flat, vals[src])
    return VoxelGrid(out)


def sample_gaussian_view(center: Viewpoint, sigma_deg: float, rng: np.random.Generator) -> Viewpoint:
    """Draw a viewpoint near ``center`` with independent Gaussian jitter.

    One normal draw perturbs yaw, a second perturbs pitch (in that order);
    the result is wrapped and clamped by the Viewpoint constructor. Sigma 0
    returns the center exactly.
    """
    if not (math.isfinite(sigma_deg) and sigma_deg >= 0.0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma_deg}")
    dyaw, dpitch = rng.normal(0.0, sigma_deg, size=2) if sigma_deg > 0.0 else (0.0, 0.0)
    return Viewpoint(yaw=center.yaw + dyaw, pitch=center.pitch + dpitch)

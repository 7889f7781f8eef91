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
Every forward map comes from one rounded matmul (``_rounded_targets``), the
stacked rotations of one or more poses times the axis-major coordinates of
the voxels asked for, so every encode runs on contiguous rows. Its
sparse form, :func:`pixel_ids`, gives each voxel the int32 id ``y * dim + z``
of the image pixel it lands on, or the sentinel ``dim * dim`` when it lands
nowhere. It is the kernel that silhouette rendering and carving share, and
it builds no rotated grid. Error scoring reads :func:`cell_keys`: each
voxel's rotated cell as ``(y * dim + z) * dim + x``, whose quotient by
``dim`` is the depth-clipped pixel id and whose order along a ray is its
depth. :func:`lattice_cell_keys` gives it for every center of a lattice,
one row per voxel, from one table cached per dim and lattice. A lattice is
determined by its interval, and compares and hashes by the interval alone.

Each of them takes ``voxels``, the flat indices its caller reads (rendering
the occupied voxels, carving the voxels still kept, scoring the error
voxels), and returns their entries as a fresh array in the layout that
caller reads, filled by one chunked loop over the matmul (``_fill``).
:func:`pixel_ids` and :func:`cell_keys` keep nothing: a call maps exactly
its voxels, one matmul column each. Pixel ids come as one int32 code per
voxel and pose from which either pixel rule is read, so a caller that needs
both (the loop renders and carves a round of views in one pass,
:mod:`voxsel.carve`) maps each voxel once per pose, in one product. The
lattice table is the one kind of cache,
``_ForwardMap``: a row of cell keys under every center per voxel it has
mapped, kept in fill order and written transposed from the axis-major
fill, and an int32 slot per voxel naming its row, so its rows grow with the
voxels mapped rather than with ``dim**3``. Binary scoring at even dims
keeps a second one over ``_base_half`` of the centers, as their antipodes
map each voxel to the mirrored cell. Each is filled on demand: a lookup
sends exactly the voxels it does not hold yet through the fill, every
center stacked, and maps nothing else. An entry of that matmul depends only
on its voxel and pose on the tested BLAS at the product widths the fill
uses (a lone column is multiplied as two, which keeps it off BLAS gemv),
so a map filled in any order, or in any chunks, equals the full one bit for
bit; other widths over the same poses can round differently. The
dense form, :func:`rotated_cells` and :func:`rotate_grid`, stays as public
API and as the reference the sparse forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grid import VoxelGrid, _cubic_dim

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


@dataclass(frozen=True)
class ViewpointLattice:
    """Regular grid of viewpoint interval centers covering the view sphere.

    Yaw [-180, 180) and pitch [-90, 90] split into ``interval_deg`` cells, each represented by its
    median angle (a 30 degree lattice starts at (-165, -75)); the interval must divide 360 and 180
    (22.5 does, 50 does not) and be at least 1 degree (64,800 centers). The constructor derives
    ``n_yaw``, ``n_pitch`` and ``centers`` from the interval, so a lattice compares and hashes by it
    alone. Entry ``k`` of ``centers`` covers yaw cell ``k % n_yaw`` and pitch cell ``k // n_yaw``.
    """

    interval_deg: float
    n_yaw: int = field(init=False, compare=False)
    n_pitch: int = field(init=False, compare=False)
    centers: tuple[Viewpoint, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        try:
            interval_deg = float(self.interval_deg)
        except OverflowError:  # an int too large for a float
            raise ValueError("interval must divide both 360 and 180, got an int too large for a float") from None
        if not interval_deg >= 1.0:
            raise ValueError(f"interval must be at least 1 degree (the 64,800-center lattice), got {interval_deg}")
        n_yaw = round(360.0 / interval_deg)
        n_pitch = round(180.0 / interval_deg)
        if n_yaw * interval_deg != 360.0 or n_pitch * interval_deg != 180.0:
            raise ValueError(f"interval must divide both 360 and 180, got {interval_deg}")
        centers = tuple(
            Viewpoint(yaw=-180.0 + (i + 0.5) * interval_deg, pitch=-90.0 + (j + 0.5) * interval_deg)
            for j in range(n_pitch)
            for i in range(n_yaw)
        )
        for key, value in zip(("interval_deg", "n_yaw", "n_pitch", "centers"), (interval_deg, n_yaw, n_pitch, centers)):
            object.__setattr__(self, key, value)

    def lattice_index(self, k: int) -> tuple[int, int]:
        """(yaw index, pitch index) of the k-th center."""
        return (k % self.n_yaw, k // self.n_yaw)

    def center_at(self, yaw_index: int, pitch_index: int) -> Viewpoint:
        if not (0 <= yaw_index < self.n_yaw and 0 <= pitch_index < self.n_pitch):
            raise IndexError(f"lattice index ({yaw_index}, {pitch_index}) out of range")
        return self.centers[pitch_index * self.n_yaw + yaw_index]


@lru_cache(maxsize=8)
def discretize_viewpoints(interval_deg: float) -> ViewpointLattice:
    """``ViewpointLattice(interval_deg)``, cached for the eight most recent intervals; the loop asks per selection."""
    return ViewpointLattice(interval_deg)


@lru_cache(maxsize=8)
def _centered_coords(dim: int) -> np.ndarray:
    """Centered coordinates of every voxel, axis-major: a read-only ``(3, dim**3)`` array, row ``a`` the a-th axis."""
    coords = np.indices((dim, dim, dim), dtype=np.float64).reshape(3, -1) - (dim - 1) / 2.0
    coords.flags.writeable = False
    return coords


# Voxel columns times poses per matmul. Its float64 temporaries (384 KiB) are
# reused from one chunk to the next; a full pose at dim 32 filled this way
# took 1.1 ms, and 2.8 ms as one product whose fresh temporaries are faulted
# in page by page.
_ENTRIES_PER_PRODUCT = 2**14
# The most views of a round stacked in one product (one pass of the loop's
# carve), as TestBlasIdentity checks stacks of 1 to this many poses.
_POSES_PER_PASS = 12


def _stacked_rotations(poses: Sequence[Viewpoint]) -> np.ndarray:
    """``rot`` of every pose stacked, as a C-contiguous ``(3 * poses, 3)`` array; one pose's stack is its ``rot``.

    Every pose's x row comes first, then every y, then every z, so each axis
    of a product with the axis-major coordinates is one contiguous block.
    """
    rots = np.stack([rotation_matrix(v) for v in poses])
    return rots.transpose(1, 0, 2).reshape(-1, 3)


def _voxel_coords(dim: int, voxels: np.ndarray) -> np.ndarray:
    """Centered coordinates of ``voxels``, axis-major like the whole array: a C-contiguous ``(3, m)`` gather."""
    return np.take(_centered_coords(dim), voxels, axis=1)


def _rotated_centers(dim: int, rot: np.ndarray, voxels: np.ndarray) -> np.ndarray:
    """``rot @ coords``: centered voxel coordinates rotated, one column per voxel of ``voxels``.

    A one-column product runs as two copies of the column. numpy hands a
    single column to BLAS gemv, and on OpenBLAS 0.3.31 gemv's entries differ
    from gemm's in the last bit, enough to round .5 ties the other way;
    products of two or more columns go to gemm and equal the full product.
    """
    if len(voxels) != 1:
        return rot @ _voxel_coords(dim, voxels)
    return (rot @ _voxel_coords(dim, np.repeat(voxels, 2)))[:, :1]


def _rounded_targets(dim: int, rot: np.ndarray, voxels: np.ndarray) -> np.ndarray:
    """``np.rint(rot @ coords + half)``: rounded rotated centers, ``(3 * poses, m)``, one column per voxel.

    ``rot`` is one pose's rotation or the :func:`_stacked_rotations` of
    several; ``voxels`` picks the columns. Exact .5 ties occur (e.g. 24 of
    the 72 cells of the 30-degree lattice at dim 32) and the matmul's
    rounding noise settles them, so every forward map comes from this one
    matmul (:func:`_rotated_centers`). Each entry is the same whichever
    voxels and poses share the product, at the widths :func:`_fill` uses: a
    column subset, or several poses stacked, equals the same entries of the
    full per-pose product bit for bit on the tested BLAS
    (``tests/test_geometry.py::TestBlasIdentity``), so maps are filled voxel
    by voxel. The add and the rounding run in place.
    """
    target = _rotated_centers(dim, rot, voxels)
    target += (dim - 1) / 2.0
    return np.rint(target, out=target)


def _fill(out: np.ndarray, dim: int, rot: np.ndarray, voxels: np.ndarray, encode) -> np.ndarray:
    """``out`` with column ``i`` (its last axis) set to ``encode`` of the rounded targets of ``voxels[i]``.

    The voxels go through the matmul in products of ``_ENTRIES_PER_PRODUCT`` entries, voxel columns times poses.
    """
    cols = max(1, _ENTRIES_PER_PRODUCT // (len(rot) // 3))
    for start in range(0, len(voxels), cols):
        chunk = voxels[start : start + cols]
        out[..., start : start + len(chunk)] = encode(dim, _rounded_targets(dim, rot, chunk))
    return out


def _axes(target: np.ndarray) -> np.ndarray:
    """Rounded targets as int32 cells, ``(3, poses, m)``: every pose's x row, then its y, then its z."""
    return target.astype(np.int32).reshape(3, -1, target.shape[1])


def _cell_keys_of(dim: int, target: np.ndarray) -> np.ndarray:
    """Ray-major keys of rounded targets: ``(poses, m)`` int32, ``dim**3`` off the cube."""
    x, y, z = cells = _axes(target)
    keys = y * dim
    keys += z
    keys *= dim
    keys += x
    off = _off_cube(cells, dim)  # one test of the contiguous rows, faster than one per axis
    np.putmask(keys, off[0] | off[1] | off[2], dim**3)
    return keys


def _off_cube(cells: np.ndarray, dim: int) -> np.ndarray:
    """Whether int32 cells leave ``[0, dim)``, in one test: as uint32 a negative cell wraps past ``dim``."""
    return cells.view(np.uint32) >= dim


def _grid_dim(dim) -> int:
    """``dim`` as a checked positive int; a bool or a float is no dim."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return int(dim)


def _voxel_index(voxels, dim: int) -> np.ndarray:
    """``voxels`` as checked flat indices into a cubic grid of a checked ``dim``; an empty 1-D input means none."""
    voxels = np.asarray(voxels)
    if voxels.shape == (0,):
        return voxels.astype(np.intp)
    if voxels.ndim != 1 or voxels.dtype.kind not in "iu":
        raise ValueError(f"voxels must be a 1-D array of flat voxel indices, got {voxels.dtype} {voxels.shape}")
    if voxels.min() < 0 or voxels.max() >= dim**3:
        raise ValueError(f"voxels must be flat indices in [0, {dim ** 3}), got {voxels.min()} to {voxels.max()}")
    return voxels


def _pixel_codes(dim: int, target: np.ndarray) -> np.ndarray:
    """int32 codes of rounded targets, ``(poses, m)``: the image-rule pixel id, plus ``dim * dim + 1`` when x is off."""
    cells = _axes(target)
    outside = _off_cube(cells, dim)
    off = dim * dim
    codes = cells[1] * dim
    codes += cells[2]
    np.putmask(codes, outside[1] | outside[2], off)
    return np.add(codes, off + 1, out=codes, where=outside[0])


class _ForwardMap:
    """A lattice's cell keys, one row per voxel, each voxel's row computed the first time a lookup asks for it.

    ``rot`` is the :func:`_stacked_rotations` of the lattice's centers, and
    a voxel's row holds its :func:`_cell_keys_of` under each of them, written
    transposed from the axis-major fill. Each voxel is mapped at most once
    while the map lives, by the same matmul columns as the full map, and
    only when a lookup asks for it. Lookups copy,
    so the entries never leave the map. ``rows[1:used]`` holds the mapped
    voxels' rows in fill order, doubling up to ``dim**3 + 1`` rows, and
    ``slot[i]`` is voxel ``i``'s row, 0 (a sentinel) while it is unmapped;
    untouched pages of those zeros stay unresident.
    """

    def __init__(self, dim: int, rot: np.ndarray) -> None:
        self.dim, self.rot = dim, rot
        self.slot = np.zeros(dim**3, dtype=np.int32)
        self.rows = np.zeros((1, len(rot) // 3), dtype=np.int32)
        self.used = 1

    def lookup(self, voxels: np.ndarray) -> np.ndarray:
        """Rows of ``voxels`` (flat indices), mapping those not mapped yet and nothing else."""
        slots = self.slot[voxels]
        missing = voxels[slots == 0]
        if not missing.size:
            return np.take(self.rows, slots, axis=0)
        # The loop passes its sorted hull's ids, strictly increasing and so
        # free of duplicates, then any outside it; other lookups map each
        # voxel they list once. Not np.unique: its first call imports
        # numpy.ma, about 11 ms.
        if not (missing[1:] > missing[:-1]).all():
            missing = np.sort(missing)
            missing = missing[np.append(True, missing[1:] != missing[:-1])]
        end = self.used + missing.size
        if end > len(self.rows):
            grown = np.empty((max(min(2 * len(self.rows), len(self.slot) + 1), end), self.rows.shape[1]), np.int32)
            grown[: self.used] = self.rows[: self.used]
            self.rows = grown
        _fill(self.rows[self.used : end].T, self.dim, self.rot, missing, _cell_keys_of)
        self.slot[missing] = np.arange(self.used, end, dtype=np.int32)
        self.used = end
        return np.take(self.rows, self.slot[voxels], axis=0)


def _pose_pixel_codes(dim: int, poses: Sequence[Viewpoint], voxels: np.ndarray) -> np.ndarray:
    """:func:`_pixel_codes` of ``voxels`` under each of ``poses``, computed afresh: one row per pose."""
    return _fill(np.empty((len(poses), len(voxels)), np.int32), dim, _stacked_rotations(poses), voxels, _pixel_codes)


def _pixel_rule(codes: np.ndarray, dim: int, *, clip_depth: bool) -> np.ndarray:
    """:func:`pixel_ids` under either rule, read from pixel codes in place.

    The cube rule is ``min(code, dim * dim)``, the image rule ``code % (dim
    * dim + 1)``, computed as a subtraction, several times faster.
    """
    off = dim * dim
    if clip_depth:
        return np.minimum(codes, off, out=codes)
    return np.subtract(codes, off + 1, out=codes, where=codes > off)


def pixel_ids(dim: int, v: Viewpoint, *, clip_depth: bool = True, voxels: np.ndarray) -> np.ndarray:
    """Image pixel each of ``voxels`` projects to under ``v``, in a cubic grid.

    ``voxels`` is a 1-D array of flat voxel indices (C order over
    ``(x, y, z)``), and entry ``i`` of the fresh int32 result belongs to
    ``voxels[i]``: the id ``y * dim + z`` of the (y, z) pixel of the cell
    nearest its rotated center, the cell :func:`rotated_cells` gives. A
    voxel that projects nowhere gets the single sentinel ``dim * dim``, one
    past the last pixel, so a ``dim * dim + 1`` image buffer absorbs it.
    With ``clip_depth`` (rendering) a voxel is off when its
    rotated cell leaves the cube on any axis, which is what
    :func:`rotate_grid` drops; without it (carving) only when its (y, z)
    pixel leaves the image.

    Nothing is cached: each call maps exactly ``voxels``, one matmul column
    per voxel, into one int32 code per voxel from which both rules read: the
    image-rule id, plus ``dim * dim + 1`` when the rotated depth leaves the
    cube. A caller that needs both rules for one pose reads them from the
    same codes, as the loop's one-pass render and carve does.
    """
    dim = _grid_dim(dim)
    voxels = _voxel_index(voxels, dim)
    return _pixel_rule(_pose_pixel_codes(dim, [v], voxels)[0], dim, clip_depth=clip_depth)


def cell_keys(dim: int, v: Viewpoint, voxels: np.ndarray) -> np.ndarray:
    """Rotated cell of each of ``voxels`` under ``v``, in a cubic grid, as ray-major keys.

    ``voxels`` is a 1-D array of flat voxel indices, and entry ``i`` is the
    int32 key ``(y * dim + z) * dim + x`` of the cell :func:`rotated_cells`
    gives voxel ``voxels[i]``, or the sentinel ``dim ** 3`` when that cell
    leaves the cube. ``key // dim`` is the depth-clipped :func:`pixel_ids`
    entry (sentinel ``dim * dim``), and among the voxels on one pixel ray
    the smallest key is the one nearest the camera. Nothing is cached.
    """
    dim = _grid_dim(dim)
    voxels = _voxel_index(voxels, dim)
    return _fill(np.empty((1, len(voxels)), dtype=np.int32), dim, rotation_matrix(v), voxels, _cell_keys_of)[0]


def _base_half(lattice: ViewpointLattice) -> list[Viewpoint]:
    """The centers of yaw index below ``n_yaw // 2``, in lattice order; the ``k``-th other center is the ``k``-th's antipode."""
    half = lattice.n_yaw // 2
    return [c for j in range(lattice.n_pitch) for c in lattice.centers[j * lattice.n_yaw : j * lattice.n_yaw + half]]


@lru_cache(maxsize=2)
def _lattice_cell_keys(dim: int, lattice: ViewpointLattice, half: bool = False) -> _ForwardMap:
    """The lattice table: keys under every center, or with ``half`` under :func:`_base_half` only.

    ``lru_cache`` keys a keyword apart from a default, so ``half`` is passed only as ``half=True``.
    """
    return _ForwardMap(dim, _stacked_rotations(_base_half(lattice) if half else lattice.centers))


def lattice_cell_keys(dim: int, lattice: ViewpointLattice, voxels: np.ndarray) -> np.ndarray:
    """:func:`cell_keys` of ``voxels`` under every lattice center, one row per voxel.

    The result is a fresh C-contiguous ``(len(voxels), centers)`` int32
    array whose column ``k`` equals ``cell_keys(dim, lattice.centers[k],
    voxels)``. The table behind it holds a row for each voxel asked for so
    far and no other, and is cached for the two most recent ``(dim,
    lattice)`` pairs: a voxel's keys under every center come from one
    batched matmul the first time any caller asks for that voxel.
    """
    dim = _grid_dim(dim)
    return _lattice_cell_keys(dim, lattice).lookup(_voxel_index(voxels, dim))


def rotated_cells(dim: int, v: Viewpoint) -> tuple[np.ndarray, np.ndarray]:
    """Forward map of every voxel center of a cubic grid under ``v``.

    Returns ``(cells, inside)`` where ``cells[k]`` is the integer output cell
    nearest the rotated center of source voxel ``k`` (sources enumerated in C
    order over ``(x, y, z)`` indices) and ``inside[k]`` says whether that cell
    lies within the cube. Both arrays are computed afresh on every call. This
    dense map serves :func:`rotate_grid`; the hot paths use :func:`pixel_ids`.
    """
    dim = _grid_dim(dim)
    cells = _rounded_targets(dim, rotation_matrix(v), np.arange(dim**3)).astype(np.int64)
    return cells.T, ((cells >= 0) & (cells < dim)).all(axis=0)


def rotate_grid(grid: VoxelGrid, v: Viewpoint) -> VoxelGrid:
    """Rotate a cubic grid's content by the viewpoint rotation.

    Nearest-neighbor forward resampling about the grid center: source values
    deposit into their rotated cells, out-of-cube targets are dropped, vacated
    cells read 0, and colliding deposits keep the maximum value.
    """
    dim = _cubic_dim(grid, "rotation")
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

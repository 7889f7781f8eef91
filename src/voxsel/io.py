"""Binary file formats for grids and silhouettes, plus viewpoint JSON.

``.vxg`` carries one voxel grid: an 8-byte magic ``VXGRID01``, three
little-endian uint32 dims (x, y, z), a one-byte payload flag, then the
payload in canonical x-fastest order. Flag 0 stores float32 little-endian
values; flag 1 stores bit-packed occupancy, LSB-first within each byte, with
the final byte zero-padded.

``.sil`` carries one silhouette image: magic ``SILIMG01``, two little-endian
uint32 dims (y, z), then bit-packed pixels in y-fastest order, LSB-first,
final byte zero-padded.

Viewpoints interchange as JSON objects ``{"yaw": number, "pitch": number}``
in degrees; roll is fixed at zero and therefore omitted. Every JSON document
the package writes is canonical: sorted keys, two-space indent.
"""

from __future__ import annotations

import json
import struct
import warnings
from pathlib import Path

import numpy as np

from .geometry import Viewpoint
from .grid import OccupancySet, VoxelGrid
from .synthesis import SilhouetteImage

__all__ = [
    "FormatError",
    "canonical_json",
    "VXG_MAGIC",
    "SIL_MAGIC",
    "vxg_bytes",
    "parse_vxg",
    "write_vxg",
    "read_vxg",
    "sil_bytes",
    "parse_sil",
    "write_sil",
    "read_sil",
    "viewpoint_to_dict",
    "viewpoint_from_dict",
]

VXG_MAGIC = b"VXGRID01"
SIL_MAGIC = b"SILIMG01"

VXG_FLAG_FLOAT = 0
VXG_FLAG_BITS = 1


class FormatError(ValueError):
    """Raised for malformed .vxg or .sil content; the message says where."""


def _header(data: bytes, what: str, magic: bytes, fmt: str, ndim: int) -> tuple[tuple[int, ...], bytes]:
    """The ``fmt`` fields after ``magic``, the first ``ndim`` of them positive dims, and the payload after them."""
    end = len(magic) + struct.calcsize(fmt)
    if len(data) < end:
        raise FormatError(f"{what}: truncated header, got {len(data)} bytes")
    if data[: len(magic)] != magic:
        raise FormatError(f"{what}: bad magic {data[: len(magic)]!r} at offset 0, expected {magic!r}")
    fields = struct.unpack(fmt, data[len(magic) : end])
    if min(fields[:ndim]) < 1:
        raise FormatError(f"{what}: dims must be positive, got {fields[:ndim]}")
    return fields, data[end:]


def _packed_bits(flags: np.ndarray) -> bytes:
    return np.packbits(flags, bitorder="little").tobytes()


def _unpacked_bits(data: bytes, count: int, what: str) -> np.ndarray:
    expected = (count + 7) // 8
    if len(data) != expected:
        raise FormatError(f"{what}: expected {expected} payload bytes for {count} bits, got {len(data)}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count, bitorder="little")
    return bits.astype(bool)


def vxg_bytes(obj: VoxelGrid | OccupancySet) -> bytes:
    """Serialize a grid (flag 0) or occupancy set (flag 1) to .vxg bytes."""
    if isinstance(obj, VoxelGrid):
        dims = obj.dims
        flag = VXG_FLAG_FLOAT
        payload = obj.to_flat().astype("<f4").tobytes()
    elif isinstance(obj, OccupancySet):
        dims = obj.dims
        flag = VXG_FLAG_BITS
        payload = _packed_bits(obj.to_flat())
    else:
        raise TypeError(f"expected VoxelGrid or OccupancySet, got {type(obj).__name__}")
    return VXG_MAGIC + struct.pack("<IIIB", *dims, flag) + payload


def parse_vxg(data: bytes) -> VoxelGrid | OccupancySet:
    """Parse .vxg bytes; the payload flag decides which type comes back.

    Float values outside [0, 1] are clamped with a warning; non-finite
    values, bad magic, unknown flags, and size mismatches are rejected.
    """
    (dx, dy, dz, flag), payload = _header(data, "vxg", VXG_MAGIC, "<IIIB", 3)
    count = dx * dy * dz
    if flag == VXG_FLAG_FLOAT:
        if len(payload) != 4 * count:
            raise FormatError(f"vxg: expected {4 * count} payload bytes for {count} voxels, got {len(payload)}")
        flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(flat)):
            raise FormatError("vxg: payload contains non-finite values")
        if flat.min() < 0.0 or flat.max() > 1.0:
            warnings.warn("vxg: values outside [0, 1] clamped on load", stacklevel=2)
            flat = np.clip(flat, 0.0, 1.0)
        return VoxelGrid.from_flat((dx, dy, dz), flat)
    if flag == VXG_FLAG_BITS:
        return OccupancySet.from_flat((dx, dy, dz), _unpacked_bits(payload, count, "vxg"))
    raise FormatError(f"vxg: unknown payload flag {flag} at offset 20, expected 0 or 1")


def write_vxg(path: str | Path, obj: VoxelGrid | OccupancySet) -> None:
    Path(path).write_bytes(vxg_bytes(obj))


def read_vxg(path: str | Path) -> VoxelGrid | OccupancySet:
    return parse_vxg(Path(path).read_bytes())


def sil_bytes(sil: SilhouetteImage) -> bytes:
    """Serialize a silhouette image to .sil bytes."""
    return SIL_MAGIC + struct.pack("<II", *sil.dims) + _packed_bits(sil.to_flat())


def parse_sil(data: bytes) -> SilhouetteImage:
    """Parse .sil bytes, rejecting bad magic and size mismatches."""
    (dy, dz), payload = _header(data, "sil", SIL_MAGIC, "<II", 2)
    bits = _unpacked_bits(payload, dy * dz, "sil")
    return SilhouetteImage(bits.reshape((dy, dz), order="F"))


def write_sil(path: str | Path, sil: SilhouetteImage) -> None:
    Path(path).write_bytes(sil_bytes(sil))


def read_sil(path: str | Path) -> SilhouetteImage:
    return parse_sil(Path(path).read_bytes())


def canonical_json(obj) -> str:
    """``obj`` as JSON with sorted keys and a two-space indent, no trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2)


def viewpoint_to_dict(v: Viewpoint) -> dict[str, float]:
    return {"yaw": v.yaw, "pitch": v.pitch}


def viewpoint_from_dict(obj: dict) -> Viewpoint:
    """Parse ``{"yaw": ..., "pitch": ...}``; each angle must be a JSON number (an int or float, not a bool)."""
    try:
        angles = obj["yaw"], obj["pitch"]
        if any(isinstance(a, bool) or not isinstance(a, (int, float)) for a in angles):
            raise TypeError
        yaw, pitch = float(angles[0]), float(angles[1])  # an int too large for a float overflows
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"viewpoint JSON must have numeric 'yaw' and 'pitch', got {obj!r}") from exc
    return Viewpoint(yaw=yaw, pitch=pitch)

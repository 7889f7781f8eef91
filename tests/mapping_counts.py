"""Count the forward-map entries the library computes, per (dim, pose, voxel).

Every forward map comes from ``geometry._rounded_targets(dim, rot, voxels)``,
one matmul column per voxel and pose, so wrapping it sees every entry
computed: the pixel-id maps of one pose or of a round of poses, the lattice
key tables, streamed ``cell_keys`` rows and the dense ``rotated_cells`` map
alike. A pose is identified by the bytes of its ``rot``, which are the same
in a one-pose product and in a stack of poses.
"""

from __future__ import annotations

import numpy as np

from voxsel import geometry


class MappedEntries:
    """Install with a pytest ``monkeypatch``; ``counts`` maps (dim, pose) to per-voxel counts."""

    def __init__(self, monkeypatch) -> None:
        self.counts: dict[tuple[int, bytes], np.ndarray] = {}
        original = geometry._rounded_targets

        def counting(dim, rot, voxels):
            k = len(rot) // 3
            for j in range(k):
                pose = np.ascontiguousarray(rot[[j, k + j, 2 * k + j]]).tobytes()
                np.add.at(self.counts.setdefault((dim, pose), np.zeros(dim**3, dtype=np.int64)), voxels, 1)
            return original(dim, rot, voxels)

        monkeypatch.setattr(geometry, "_rounded_targets", counting)

    def of(self, dim: int, v: geometry.Viewpoint) -> np.ndarray:
        """Per-voxel count of entries computed for pose ``v`` at ``dim``."""
        pose = np.ascontiguousarray(geometry.rotation_matrix(v)).tobytes()
        return self.counts.get((dim, pose), np.zeros(dim**3, dtype=np.int64))

    def most(self) -> int:
        """The largest number of times any (dim, pose, voxel) entry was computed."""
        return max((int(c.max()) for c in self.counts.values()), default=0)

    def total(self) -> int:
        return sum(int(c.sum()) for c in self.counts.values())

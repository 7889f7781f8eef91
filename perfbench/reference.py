"""A fixed reference computation that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
minutes. ``run.py`` times this kernel before the first repetition and after
every repetition, in its own process, and divides each repetition's times by
the mean of the two reference times around it, so that a slow spell of the
host slows the reference and the repetition alike and cancels out.

The kernel uses none of voxsel's code, so no change to the program can move
it. It does the kind of work the workloads do: nearest-neighbour forward maps
of a cubic grid (float matmul, rounding, fancy indexing, ``np.maximum.at``),
boolean masks, fresh arrays of a few hundred kilobytes, and Python-level
loops over small objects.
"""

from __future__ import annotations

import math
import time

import numpy as np

DIM = 48
POSES = 10
ROUNDS = 2
# About the time this kernel takes on the machine the baseline was recorded
# on (0.19-0.23 s there); a fixed constant that only sets the scale of the
# normalised figures.
NOMINAL_S = 0.19


def _pose_matrix(k: int) -> np.ndarray:
    yaw, pitch = 2.0 * math.pi * k / POSES, 0.3 * math.sin(k)
    cy, sy, cp, sp = math.cos(yaw), math.sin(yaw), math.cos(pitch), math.sin(pitch)
    return np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
        [[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]]
    )


def _kernel() -> float:
    """Forward maps of ``POSES`` poses, kept (~30 MB), then ``ROUNDS`` render-and-carve passes over them."""
    rng = np.random.Generator(np.random.PCG64(12345))
    flat = (rng.random(DIM**3) < 0.3).astype(np.float64)
    centers = np.indices((DIM, DIM, DIM)).reshape(3, -1).T.astype(np.float64) - (DIM - 1) / 2.0
    maps = []
    for k in range(POSES):
        cells = np.rint(centers @ _pose_matrix(k).T + (DIM - 1) / 2.0).astype(np.int64)
        maps.append((cells, np.all((cells >= 0) & (cells < DIM), axis=1)))
    checksum = 0.0
    for _ in range(ROUNDS):
        for cells, inside in maps:
            src = inside & (flat > 0.0)
            tgt = cells[src]
            out = np.zeros(DIM**3)
            np.maximum.at(out, (tgt[:, 0] * DIM + tgt[:, 1]) * DIM + tgt[:, 2], flat[src])
            image = out.reshape(DIM, DIM, DIM).max(axis=0) > 0.5
            keep = np.zeros(DIM**3, dtype=bool)
            keep[inside] = image[cells[inside, 1], cells[inside, 2]]
            checksum += float(keep.sum())
            checksum += sum(sum(1 for p in row if p) for row in image.tolist())
    return checksum


def measure() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start

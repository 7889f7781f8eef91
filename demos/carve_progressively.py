"""Carve a sphere from a growing set of silhouettes and watch IoU climb.

Space carving keeps exactly the voxels consistent with every silhouette, so
the reconstruction starts as a fat envelope and tightens monotonically toward
the true shape as views accumulate. It never undershoots: the hull is always
a superset of the ground truth.
"""

import numpy as np

from voxsel.carve import ViewObservation, carve
from voxsel.grid import iou, threshold_grid
from voxsel.synthesis import ShapeSpec, ViewDistribution, generate_shape, render_silhouette, sample_dataset_viewpoints


def main():
    dim = 32
    gt = generate_shape(ShapeSpec("sphere", radius=10.0), dim, np.random.default_rng(1))
    gt_occ = threshold_grid(gt)
    print(f"ground truth: sphere of radius 10 in a {dim}^3 grid, {int(gt.values.sum())} voxels")

    views = sample_dataset_viewpoints(ViewDistribution("spherical", 12), np.random.default_rng(7))

    # The hull is the AND of one-view carves, so each new view is carved into
    # the ids of the last hull alone: nothing is carved twice.
    ids = np.arange(dim**3)
    print(f"{'views':>5} {'hull voxels':>12} {'excess':>7} {'IoU':>7}")
    for count, v in enumerate(views, start=1):
        hull = carve([ViewObservation(viewpoint=v, silhouette=render_silhouette(gt, v, 0.4))], dim, voxels=ids)
        ids = np.flatnonzero(hull.values)
        hull_occ = threshold_grid(hull)
        excess = int(hull.values.sum() - gt.values.sum())
        print(f"{count:>5} {int(hull.values.sum()):>12} {excess:>7} {iou(hull_occ, gt_occ):>7.4f}")

    print("\nthe hull only ever shrinks, and every ground-truth voxel survives:")
    print(f"  superset holds: {bool(np.all(hull.values[gt.values > 0] == 1.0))}")


if __name__ == "__main__":
    main()

"""Measure why error-guided selection trails random selection on criterion 6.

Runs the acceptance criterion 6 setup (20 ell/cross shapes at dim 32, 3
iterations of 3 views, every object updated, mixed pool, seeds 0-4) and looks
inside every error-guided selection:

- how many lattice cells score exactly the same as their antipode, the cell
  at yaw + 180 and the same pitch, which looks along the same ray lines from
  the other end and so renders the mirrored silhouette: one carving
  constraint, not two;
- how often the fresh picks of one selection contain such an antipodal pair;
- what share of the first-hit error score lies on rays that miss the ground
  truth, the only rays a silhouette can carve.

It then reruns the guided loop with antipodes suppressed (a cell is skipped
when its antipode is already picked) and prints both policies' mean IoU
delta against random, the quantity criterion 6 asserts to be >= 0. The loop
scores the ids of its mismatch voxels, where the hull and the ground truth
differ, into one total per lattice cell with the private
``selection._lattice_totals`` and takes the best-ranked cells with
``selection._top_centers``; the variant is installed by wrapping the
harness's ``run_object_iteration`` (to see the object's ground truth),
``_lattice_totals`` (to see the error, rebuilt as a grid) and
``_top_centers`` (to pick) for the duration of the run. The library itself
is unchanged.

Run: python3 demos/measure_selection_gap.py   (about a minute)
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import voxsel.harness as harness
from voxsel.geometry import discretize_viewpoints, rotate_grid
from voxsel.harness import LoopConfig, make_corpus, run_loop
from voxsel.grid import VoxelGrid
from voxsel.selection import ViewScore, project_first_hit, rank_scores
from voxsel.synthesis import render_silhouette

SEEDS = range(5)
INTERVAL = 30
STATS = ("cells", "tied", "selections", "multi_pick", "antipodal",
         "all_total", "all_carvable", "picked_total", "picked_carvable")


def antipode(index, lattice):
    """Lattice index of the cell looking along the same lines from the other end."""
    i, j = index
    return ((i + lattice.n_yaw // 2) % lattice.n_yaw, j)


def pick(scores, n, lattice, suppress):
    """Top-n cells by the library's ranking, optionally skipping antipodes of earlier picks."""
    chosen = []
    for s in rank_scores(scores):
        if suppress and any(antipode(c.lattice_index, lattice) == s.lattice_index for c in chosen):
            continue
        chosen.append(s)
        if len(chosen) == n:
            break
    return chosen


@contextmanager
def guided_selection(stats, suppress):
    """Wrap the harness's error-guided selection in an instrumented one for the duration of a run."""
    lattice = discretize_viewpoints(INTERVAL)
    seen = {}

    def iterate(obj, *args):
        seen["gt"] = obj.gt
        return originals["run_object_iteration"](obj, *args)

    def score(dim, hot, vals, scored_lattice):
        assert scored_lattice == lattice
        error = np.zeros(dim**3)
        error[hot] = 1.0 if vals is None else vals
        seen["error"] = VoxelGrid(error.reshape(dim, dim, dim))
        return originals["_lattice_totals"](dim, hot, vals, scored_lattice)

    def top(totals, scored_lattice, n):
        assert scored_lattice == lattice
        err, gt = seen.pop("error"), seen["gt"]
        scores = [ViewScore(c, float(totals[k]), lattice.lattice_index(k)) for k, c in enumerate(lattice.centers)]
        by_index = {s.lattice_index: s.score for s in scores}
        chosen = pick(scores, n, lattice, suppress)
        if stats is not None:
            stats["cells"] += len(scores)
            stats["tied"] += sum(by_index[antipode(s.lattice_index, lattice)] == s.score for s in scores)
            stats["selections"] += 1
            stats["multi_pick"] += n >= 2
            indices = {s.lattice_index for s in chosen}
            stats["antipodal"] += any(antipode(k, lattice) in indices for k in indices)
            for s in scores:
                first_hit = project_first_hit(rotate_grid(err, s.viewpoint)).pixels
                carvable = float(first_hit[~render_silhouette(gt, s.viewpoint).pixels].sum())
                stats["all_total"] += s.score
                stats["all_carvable"] += carvable
                if s in chosen:
                    stats["picked_total"] += s.score
                    stats["picked_carvable"] += carvable
        return [s.viewpoint for s in chosen]

    hooks = {"run_object_iteration": iterate, "_lattice_totals": score, "_top_centers": top}
    originals = {name: getattr(harness, name) for name in hooks}
    for name, hook in hooks.items():
        setattr(harness, name, hook)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(harness, name, original)


def final_iou(corpus, config):
    return run_loop(corpus, config).aggregates["mean_iou"][-1]


def main():
    stats = dict.fromkeys(STATS, 0)
    deltas = {"paper ranking": [], "antipodes suppressed": []}
    for seed in SEEDS:
        corpus = make_corpus(20, dim=32, seed=seed, kinds=("ell", "cross"))
        config = LoopConfig(iterations=3, views_per_round=3, update_fraction=1.0, seed=seed)
        random = final_iou(corpus, replace(config, selection_policy="random"))
        with guided_selection(stats, suppress=False):
            paper = final_iou(corpus, config)
        with guided_selection(None, suppress=True):
            suppressed = final_iou(corpus, config)
        deltas["paper ranking"].append(paper - random)
        deltas["antipodes suppressed"].append(suppressed - random)
        print(f"seed {seed}: error-guided minus random {paper - random:+.4f}, "
              f"with antipodes suppressed {suppressed - random:+.4f}")

    print(f"\n{stats['selections']} error-guided selections, {stats['cells']} lattice cells scored")
    print(f"cells scoring exactly their antipode's score: {stats['tied'] / stats['cells']:.1%}")
    print(f"selections of 2+ fresh views holding an antipodal pair: "
          f"{stats['antipodal']} of {stats['multi_pick']}")
    print(f"share of first-hit error score on rays that miss the ground truth: "
          f"{stats['picked_carvable'] / stats['picked_total']:.1%} for picked cells, "
          f"{stats['all_carvable'] / stats['all_total']:.1%} over all cells")
    print("\nmean IoU delta against random over seeds 0-4 (criterion 6 asks for >= 0):")
    for name, values in deltas.items():
        print(f"  {name:>20}: {np.mean(values):+.4f}  per seed {[round(v, 4) for v in values]}")


if __name__ == "__main__":
    main()

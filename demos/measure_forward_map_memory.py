"""Measure what the lattice table holds after one error-guided loop.

Runs one seed-0 error-guided loop per ``--dim`` on the benchmark's corpus
(ell and cross shapes; 20 objects at dim 32, 4 at dim 64, 2 at dim 128;
3 iterations of 3 views, every object updated) and then prints:

- the 30-degree lattice table the loop fills: its columns, voxels mapped
  (rows held), row capacity and bytes, and the bytes of its per-voxel slot
  index. The loop scores binary masks, and at these even dims a binary
  score reads only the base half of the lattice (36 columns), so that is
  the table it fills. At dim 128 a table of every center would pass
  ``MAX_LATTICE_TABLE_BYTES``, so scoring keeps none;
- ``ru_maxrss``, the process's peak RSS so far. Dims run in the order given
  in one process, so a later dim's figure is the peak over all runs so far.

The table's slot index is allocated whole but starts as zeros, so only the
pages a lookup touched are resident; rows are allocated as they are mapped.
Pose pixel ids are not cached, so the table is the only forward map a loop
keeps.

Run: python3 demos/measure_forward_map_memory.py [--dim 32 64 128]
(dims 32 and 64 by default, a few seconds; dim 128 takes a few seconds more).
"""

import argparse
import resource

from voxsel import geometry
from voxsel.geometry import discretize_viewpoints
from voxsel.harness import LoopConfig, make_corpus, run_loop

OBJECTS = {32: 20, 64: 4, 128: 2}


def describe(store):
    return (
        f"{store.rows.shape[1]} columns, {store.used - 1:>9,} voxels, capacity {len(store.rows) - 1:>9,} rows, "
        f"rows {store.rows.nbytes / 2**20:7.2f} MiB, slot {store.slot.nbytes / 2**20:5.2f} MiB"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, nargs="+", default=[32, 64], choices=sorted(OBJECTS))
    args = parser.parse_args()
    for dim in args.dim:
        geometry._lattice_cell_keys.cache_clear()
        corpus = make_corpus(OBJECTS[dim], dim=dim, seed=0, kinds=("ell", "cross"))
        config = LoopConfig(dim=dim, iterations=3, views_per_round=3, update_fraction=1.0, seed=0)
        run_loop(corpus, config)
        print(f"dim {dim}, {len(corpus)} objects, {dim**3:,} voxels")
        store = geometry._lattice_cell_keys(dim, discretize_viewpoints(30), half=True)
        if store.used == 1:
            print("  30-degree table  no rows: past MAX_LATTICE_TABLE_BYTES, scoring streamed center by center")
        else:
            print(f"  30-degree table  {describe(store)}")
        print(f"  ru_maxrss so far {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main()

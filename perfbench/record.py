"""Record ``final_mean_iou`` and the output sha256 per workload and seed into ``expected.json``.

Usage: ``python3 perfbench/record.py [--tiny] SEED [SEED ...]``. Run it only
when a change is meant to alter what the program computes, and say so in
the change; the benchmark compares every repetition against these values.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, run_child
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()

    path = HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    table = expected.setdefault("tiny" if args.tiny else "full", {})
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            rep = run_child(argparse.Namespace(workload=workload, seed=seed, tiny=args.tiny), None)
            if rep["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {rep['failed']} failed ops, nothing recorded")
            record = {"final_mean_iou": rep["final_mean_iou"], "sha256": rep["digest"]}
            table.setdefault(workload, {})[str(seed)] = record
            print(workload, seed, rep["final_mean_iou"], rep["digest"], flush=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

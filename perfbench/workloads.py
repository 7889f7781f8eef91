"""One benchmark repetition in a fresh process: set up a workload, time it, check it.

Run as ``python3 perfbench/workloads.py --workload NAME --seed N [--tiny]
[--spans PATH]`` with ``src`` on ``PYTHONPATH``; ``run.py`` does this once
per repetition. With ``--spans`` the repetition is traced and its spans are
written to PATH. The last stdout line is one JSON object with the
repetition's timings, work counts and check results.

Workloads (closed loop, one caller, each call waits for the previous one):

* ``loop-guided-d32``: the C6 setup, 20 ``ell``/``cross`` shapes at dim 32,
  3 iterations of 3 views, every object updated, error-guided selection with
  the mixed pool. Dense scoring leads, then carving and rendering.
* ``loop-random-d32``: the same with random selection. Selection does no
  work, so carving and rendering dominate and every pose is a new forward map.
* ``loop-guided-d64``: error-guided at dim 64 on 4 objects. Eight times the
  voxels per pass and ~7 MB of rotation cache per distinct pose: working-set
  growth and kernel scaling show here.
* ``cli-soft-d32``: ``voxsel.cli.main`` in-process over files, per object
  ``select`` on a soft-valued predicted grid, ``render`` of the 3 sampled
  views, ``carve`` from those files. The only user of soft-valued dense
  scoring, and the only workload that reads and writes files.

The timed section is ``run_loop`` plus ``report_json`` for loops and the CLI
calls for ``cli-soft-d32``. Everything before it (imports, corpus, input
files) is set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHAPE_KINDS = ("ell", "cross")
ITERATIONS = 3
VIEWS_PER_ROUND = 3
TINY_DIM = 16
TINY_OBJECTS = 2


@dataclass
class Outcome:
    """What one timed section did, as the checks saw it."""

    ops: int
    failed: int
    views: int
    final_mean_iou: float
    digest: str
    checks: dict[str, str]


@dataclass(frozen=True)
class LoopWorkload:
    """``run_loop`` plus ``report_json`` on a generated corpus; an op is one object-iteration."""

    policy: str
    dim: int
    objects: int

    def setup(self, seed: int, dim: int, objects: int, work: Path):
        from voxsel import harness

        corpus = harness.make_corpus(objects, dim=dim, seed=seed, kinds=SHAPE_KINDS)
        config = harness.LoopConfig(
            dim=dim,
            iterations=ITERATIONS,
            views_per_round=VIEWS_PER_ROUND,
            update_fraction=1.0,
            selection_policy=self.policy,
            seed=seed,
        )
        return corpus, config

    def run(self, state) -> str:
        from voxsel import harness

        corpus, config = state
        return harness.report_json(harness.run_loop(corpus, config))

    def check(self, state, text: str | None) -> Outcome:
        ops = len(state[0]) * ITERATIONS
        if text is None:
            return Outcome(ops, ops, 0, float("nan"), "", {"run_loop returns": "fail (raised)"})
        report = json.loads(text)
        decreases = 0
        for obj in report["objects"]:
            ious = [it["iou"] for it in obj["iterations"]]
            decreases += sum(1 for a, b in zip(ious, ious[1:]) if b < a)
        return Outcome(
            ops=ops,
            failed=decreases,
            views=sum(obj["iterations"][-1]["view_count"] for obj in report["objects"]),
            final_mean_iou=report["aggregates"]["mean_iou"][-1],
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            checks={"C5 per-object IoU never decreases": "pass" if decreases == 0 else f"fail ({decreases} decreases)"},
        )


def _cli(argv: list[str]) -> bool:
    from voxsel import cli

    try:
        return cli.main(argv) == 0
    except SystemExit as exc:
        print(f"voxsel {argv[0]} exited with {exc.code}", file=sys.stderr)
        return False


@dataclass(frozen=True)
class CliWorkload:
    """``select`` → ``render`` × 3 → ``carve`` through ``voxsel.cli.main``; an op is one CLI call."""

    dim: int
    objects: int

    def setup(self, seed: int, dim: int, objects: int, work: Path):
        """Write ground truth and a soft prediction per object; returns (work, dim, seed, [(name, GT bits)])."""
        from voxsel import harness
        from voxsel.carve import ViewObservation, carve
        from voxsel.grid import DEFAULT_THRESHOLD, OccupancySet, VoxelGrid
        from voxsel.io import write_vxg
        from voxsel.synthesis import ViewDistribution, render_silhouette, sample_dataset_viewpoints

        ring = sample_dataset_viewpoints(ViewDistribution("aligned"), np.random.default_rng(0))
        initial = [ring[k * len(ring) // 3] for k in range(3)]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 7))))
        inputs = []
        for obj in harness.make_corpus(objects, dim=dim, seed=seed, kinds=SHAPE_KINDS):
            hull = carve([ViewObservation(v, render_silhouette(obj.gt, v)) for v in initial], dim)
            # Soft-valued: the coarse hull of 3 ring views with per-voxel confidence.
            soft = hull.values * rng.uniform(0.35, 1.0, size=hull.dims)
            write_vxg(work / f"{obj.name}-pred.vxg", VoxelGrid(soft))
            write_vxg(work / f"{obj.name}-gt.vxg", OccupancySet(obj.gt.values > 0.5))
            inputs.append((obj.name, obj.gt.values >= DEFAULT_THRESHOLD))
        return work, dim, seed, inputs

    def run(self, state) -> int:
        """All CLI calls; returns how many failed, counting calls skipped after a failed select."""
        work, dim, seed, inputs = state
        failed = 0
        for i, (name, _) in enumerate(inputs):
            gt, sel = str(work / f"{name}-gt.vxg"), work / f"{name}-select.json"
            if not _cli(["select", "--pred", str(work / f"{name}-pred.vxg"), "--gt", gt,
                         "--n", str(VIEWS_PER_ROUND), "--seed", str(seed * 1000 + i), "--out", str(sel)]):
                failed += 2 + VIEWS_PER_ROUND
                continue
            views = []
            for k, v in enumerate(json.loads(sel.read_text(encoding="utf-8"))["sampled"]):
                sil = f"{name}-{k}.sil"
                if _cli(["render", "--grid", gt, "--yaw", repr(v["yaw"]), "--pitch", repr(v["pitch"]),
                         "--out", str(work / sil)]):
                    views.append({"yaw": v["yaw"], "pitch": v["pitch"], "silhouette": sil})
                else:
                    failed += 1
            (work / f"{name}-views.json").write_text(json.dumps(views), encoding="utf-8")
            if not _cli(["carve", "--views", str(work / f"{name}-views.json"), "--sil-dir", str(work),
                         "--dim", str(dim), "--out", str(work / f"{name}-hull.vxg")]):
                failed += 1
        return failed

    def check(self, state, failed: int | None) -> Outcome:
        from voxsel.io import read_vxg

        work, _, _, inputs = state
        ops = (2 + VIEWS_PER_ROUND) * len(inputs)
        if failed is None:
            return Outcome(ops, ops, 0, float("nan"), "", {"CLI calls return": "fail (raised)"})
        digest = hashlib.sha256()
        ious, unsound = [], 0
        for name, gt_bits in inputs:
            hull_path = work / f"{name}-hull.vxg"
            if not hull_path.exists():
                continue
            digest.update((work / f"{name}-select.json").read_bytes())
            digest.update(hull_path.read_bytes())
            hull_bits = read_vxg(hull_path).values > 0.5
            unsound += int(not np.all(hull_bits[gt_bits]))
            ious.append(int((hull_bits & gt_bits).sum()) / int((hull_bits | gt_bits).sum()))
        return Outcome(
            ops=ops,
            failed=failed + unsound,
            views=VIEWS_PER_ROUND * len(inputs),
            final_mean_iou=float(np.mean(ious)) if ious else float("nan"),
            digest=digest.hexdigest(),
            checks={
                "every CLI call exits 0": "pass" if failed == 0 else f"fail ({failed} calls)",
                "C4 carved hull contains thresholded GT": "pass" if unsound == 0 else f"fail ({unsound} hulls)",
            },
        )


WORKLOADS = {
    "loop-guided-d32": LoopWorkload("error-guided", 32, 20),
    "loop-random-d32": LoopWorkload("random", 32, 20),
    "loop-guided-d64": LoopWorkload("error-guided", 64, 4),
    "cli-soft-d32": CliWorkload(32, 20),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help=f"dim {TINY_DIM}, {TINY_OBJECTS} objects")
    parser.add_argument("--spans", default=None, help="trace voxsel's functions and write the spans here")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    wl = WORKLOADS[args.workload]
    dim, objects = (TINY_DIM, TINY_OBJECTS) if args.tiny else (wl.dim, wl.objects)

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        state = wl.setup(args.seed, dim, objects, work)
        start = time.monotonic()
        try:
            raw = wl.run(state)
        except Exception:
            traceback.print_exc()
            raw = None
        end = time.monotonic()
        if tracer is not None:
            tracer.enabled = False
        outcome = wl.check(state, raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "start": start,
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **vars(outcome),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

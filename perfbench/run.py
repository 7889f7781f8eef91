"""voxsel benchmark: time one workload end to end, or trace it layer by layer.

Usage, from anywhere::

    python3 perfbench/run.py --workload loop-guided-d32 --seed 0 --seconds 30 --trace 0

Each repetition runs ``perfbench/workloads.py`` in a fresh single process
(BLAS and OpenMP pinned to one thread, ``src`` on ``PYTHONPATH``), one after
another, until ``--seconds`` is spent; at least three repetitions always run.
The workload's inputs come from ``--seed`` alone.

The host's speed drifts, so every repetition runs between two runs of a
fixed reference kernel (``reference.py``, no voxsel code) in this process,
and this process and its repetitions stay on one CPU. Each of the
repetition's times is scaled by ``reference.NOMINAL_S`` over the mean of
the two reference times around it: a time at the reference host speed.

``--trace 0`` reports the end-to-end metrics as medians over repetitions:
``wall_s`` (timed section, scaled), ``views_per_s`` (silhouettes rendered,
initial plus selected, over the scaled ``wall_s``), ``setup_s`` (process
spawn to the timed section: interpreter, imports, corpus, input files;
scaled), ``peak_rss_mb`` (``ru_maxrss`` of the repetition) and
``final_mean_iou``. The raw times are printed on the lines before.

``--trace 1`` alternates traced repetitions, which wrap every public voxsel
function in spans (see ``tracing.py``), with untraced ones, starting traced,
and reports the per-layer metrics: counts from the traced repetitions, which
must agree exactly, and medians of times. ``trace.overhead_s`` is the median
traced minus the median untraced ``wall_s``. The spans of the last traced
repetition are written to ``.perfbench_out/``.

Output checks, each counted into ``failed`` per op (an object-iteration of a
loop or one CLI call): canonical output bytes identical across the
repetitions of a seed; per-object IoU never decreases (loops, C5); every CLI
call exits 0 and every carved hull contains the thresholded ground truth
(``cli-soft-d32``, C4); ``final_mean_iou`` equals the value recorded for the
seed in ``expected.json``, where one is recorded. The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was, apart from .perfbench_out/
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads, for the reference kernel in this process

import reference  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("wall_s", "s"),
    ("views_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_mean_iou", "fraction"),
)
COUNT_UNITS = ("count", "B")
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update(PINNED_THREADS)
    return env


def run_child(args: argparse.Namespace, spans: Path | None) -> dict:
    """One repetition in a fresh process; it is traced when ``spans`` names a file for its spans."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"repetition did not finish within {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"repetition exited with code {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["start"] - spawned
    rep["elapsed_s"] = time.monotonic() - spawned
    rep["traced"] = spans is not None
    return rep


def pin_to_one_cpu() -> int | None:
    """Keep this process, so its reference runs and every repetition, on one CPU; returns it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_reps(args: argparse.Namespace) -> list[dict]:
    """Repetitions until the time is spent, each between two reference runs.

    With --trace 1, traced and untraced repetitions alternate.
    """
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + args.seconds
    reps: list[dict] = []
    before = reference.measure()
    while True:
        trace = bool(args.trace) and len(reps) % 2 == 0
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        rep = run_child(args, spans if trace else None)
        after = reference.measure()
        rep["reference_s"] = (before + after) / 2
        before = after
        reps.append(rep)
        longest = max(r["elapsed_s"] for r in reps)
        if len(reps) >= MIN_REPS and time.monotonic() + longest > deadline:
            return reps


def recorded_outputs(args: argparse.Namespace) -> dict | None:
    """The ``final_mean_iou`` and sha256 recorded for this workload, size and seed, if any."""
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return expected.get("tiny" if args.tiny else "full", {}).get(args.workload, {}).get(str(args.seed))


def check(reps: list[dict], recorded: dict | None) -> tuple[int, int, list[str]]:
    """Apply the cross-repetition checks; returns (attempted, failed, report lines)."""
    lines = []
    attempted = failed = 0
    first = reps[0]
    for k, rep in enumerate(reps):
        bad = rep["failed"]
        if rep["digest"] != first["digest"]:
            lines.append(f"FAIL rep {k}: output sha256 {rep['digest']} differs from rep 0")
            bad = rep["ops"]
        if recorded is not None and rep["final_mean_iou"] != recorded["final_mean_iou"]:
            lines.append(f"FAIL rep {k}: final_mean_iou {rep['final_mean_iou']!r} "
                         f"!= recorded {recorded['final_mean_iou']!r}")
            bad = rep["ops"]
        for name, status in rep["checks"].items():
            if status != "pass":
                lines.append(f"FAIL rep {k}: {name}: {status}")
        attempted += rep["ops"]
        failed += bad
    lines.append(f"check output bytes identical across {len(reps)} repetitions: sha256 {first['digest']}")
    if recorded is None:
        lines.append("check final_mean_iou against record: no value recorded for this seed")
    else:
        same = "matches" if recorded["sha256"] == first["digest"] else "differs from"
        lines.append(f"check final_mean_iou == recorded {recorded['final_mean_iou']!r}; "
                     f"sha256 {same} the recorded one")
    for name in first["checks"]:
        lines.append(f"check {name}: {sum(r['checks'][name] == 'pass' for r in reps)}/{len(reps)} repetitions pass")

    traced = [r for r in reps if r["traced"]]
    if traced:
        counts = [name for name, unit, _, _ in PER_LAYER if unit in COUNT_UNITS]
        unstable = [n for n in counts if len({r["layers"][n] for r in traced}) != 1]
        if unstable:
            lines.append(f"FAIL layer counts differ between traced repetitions: {unstable}")
            failed += sum(r["ops"] for r in traced)
        lines.append(f"check layer counts repeat exactly across {len(traced)} traced repetitions")
    return attempted, failed, lines


def normalised(rep: dict, key: str) -> float:
    """A repetition's time scaled to reference host speed by the reference runs around it."""
    return rep[key] * reference.NOMINAL_S / rep["reference_s"]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(normalised(r, "wall_s") for r in reps),
        "views_per_s": statistics.median(r["views"] / normalised(r, "wall_s") for r in reps),
        "setup_s": statistics.median(normalised(r, "setup_s") for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "final_mean_iou": statistics.median(r["final_mean_iou"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    untraced_wall = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    values = {}
    for name, unit, _, _ in PER_LAYER:
        # Counts agree across traced repetitions (checked); times vary.
        if unit in COUNT_UNITS:
            values[name] = traced[0]["layers"][name]
        else:
            values[name] = statistics.median(r["layers"][name] for r in traced)
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voxsel" / "__init__.py").is_file():
        print(f"perfbench: no voxsel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    try:
        reps = run_reps(args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, lines = check(reps, recorded_outputs(args))
    for line in lines:
        print(line)
    print(f"repetitions: {len(reps)} ({sum(r['traced'] for r in reps)} traced); threads pinned: {PINNED_THREADS}; "
          f"on CPU {cpu}")
    print("wall_s per repetition: " + " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in reps))
    print("setup_s per repetition: " + " ".join(f"{r['setup_s']:.3f}" for r in reps))
    print("reference_s around each repetition: " + " ".join(f"{r['reference_s']:.3f}" for r in reps)
          + f" (nominal {reference.NOMINAL_S})")
    if args.trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        units["trace.overhead_s"] = "s"
        values = per_layer(reps)
    else:
        units = dict(END_TO_END)
        values = end_to_end(reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

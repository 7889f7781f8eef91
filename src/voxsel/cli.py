"""Command line front end.

Subcommands map one-to-one onto the library's stages: ``select`` scores and
picks viewpoints from a prediction/ground-truth pair, ``render`` writes a
silhouette, ``gen-shapes`` emits a synthetic corpus, ``carve`` reconstructs
from silhouettes, ``loop`` runs the full reconstruction loop, and ``compare``
runs it once per selection policy.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .carve import ViewObservation, carve
from .geometry import Viewpoint, discretize_viewpoints
from .grid import DEFAULT_THRESHOLD, OccupancySet, VoxelGrid, error_grid
from .harness import (
    LoopConfig,
    SceneObject,
    _CORPUS_TYPES,
    _check_field_types,
    compare_policies,
    comparison_json,
    config_from_dict,
    make_corpus,
    report_json,
    run_loop,
)
from .io import (
    FormatError,
    canonical_json,
    read_sil,
    read_vxg,
    viewpoint_from_dict,
    viewpoint_to_dict,
    write_sil,
    write_vxg,
)
from .selection import sample_around, score_all, select_top_n
from .synthesis import SHAPE_KINDS, render_silhouette


def _load_grid(path: str | Path) -> VoxelGrid:
    loaded = read_vxg(path)
    return loaded.to_grid() if isinstance(loaded, OccupancySet) else loaded


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _number(text: str) -> int | float:
    """``text`` as an int when it is written as one, else as a float, so ``--interval 30`` still prints 30."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None


def _cmd_select(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    pred = _load_grid(args.pred)
    gt = _load_grid(args.gt)
    lattice = discretize_viewpoints(args.interval)
    scores = score_all(error_grid(pred, gt), lattice)
    top = select_top_n(scores, args.n)
    sampled = sample_around(top, args.interval, np.random.Generator(np.random.PCG64(args.seed)))
    payload = {
        "interval_deg": args.interval,
        "scores": [
            {
                "viewpoint": viewpoint_to_dict(s.viewpoint),
                "score": s.score,
                "lattice_index": list(s.lattice_index),
            }
            for s in scores
        ],
        "selected": [viewpoint_to_dict(v) for v in top],
        "sampled": [viewpoint_to_dict(v) for v in sampled],
    }
    _emit(canonical_json(payload) + "\n", args.out)


def _cmd_render(args: argparse.Namespace) -> None:
    grid = _load_grid(args.grid)
    sil = render_silhouette(grid, Viewpoint(yaw=args.yaw, pitch=args.pitch), args.tau)
    write_sil(args.out, sil)


def _cmd_gen_shapes(args: argparse.Namespace) -> None:
    corpus = make_corpus(args.count, dim=args.dim, seed=args.seed)  # validates before anything is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for obj in corpus:
        filename = f"{obj.name}.vxg"
        write_vxg(out_dir / filename, OccupancySet(obj.gt.values > 0.5))
        manifest.append({"name": obj.name, "category": obj.category, "file": filename})
    (out_dir / "manifest.json").write_text(canonical_json(manifest) + "\n", encoding="utf-8")


def _require_string_fields(entry: object, keys: tuple[str, ...], where: str) -> None:
    """Raise a ValueError naming ``entry`` unless it is a JSON object whose ``keys`` all hold strings."""
    if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in keys):
        names = ", ".join(repr(k) for k in keys)
        raise ValueError(f"{where} must be an object with string {names}, got {entry!r}")


def _cmd_carve(args: argparse.Namespace) -> None:
    entries = json.loads(Path(args.views).read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError("views file must contain a JSON list")
    sil_dir = Path(args.sil_dir)
    observations = []
    for i, entry in enumerate(entries):
        _require_string_fields(entry, ("silhouette",), f"views entry {i}")
        sil = read_sil(sil_dir / entry["silhouette"])
        observations.append(ViewObservation(viewpoint=viewpoint_from_dict(entry), silhouette=sil))
    write_vxg(args.out, carve(observations, args.dim))


def _load_corpus_dir(path: Path) -> list[SceneObject]:
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    if not isinstance(manifest, list):
        raise ValueError("corpus manifest must contain a JSON list")
    corpus = []
    for i, entry in enumerate(manifest):
        _require_string_fields(entry, ("name", "category", "file"), f"manifest entry {i}")
        gt = _load_grid(path / entry["file"])
        corpus.append(SceneObject(name=entry["name"], category=entry["category"], gt=gt))
    return corpus


def _corpus_and_config(config_path: str) -> tuple[list[SceneObject], LoopConfig]:
    spec = json.loads(Path(config_path).read_text(encoding="utf-8"))
    if not isinstance(spec, dict):
        raise ValueError("config must be a JSON object")
    loop_spec = spec.get("loop", {})
    if not isinstance(loop_spec, dict):
        raise ValueError(f"config field 'loop' must be an object, got {loop_spec!r}")
    config = config_from_dict(loop_spec)
    corpus_spec = spec.get("corpus")
    if not isinstance(corpus_spec, dict):
        raise ValueError("config must contain a 'corpus' object")
    _check_field_types(corpus_spec, _CORPUS_TYPES, "corpus")
    if "dir" in corpus_spec:
        return _load_corpus_dir(Path(corpus_spec["dir"])), config
    if "count" not in corpus_spec:
        raise ValueError("corpus field 'count' is required")
    corpus = make_corpus(
        count=corpus_spec["count"],
        dim=corpus_spec.get("dim", config.dim),
        seed=corpus_spec.get("seed", config.seed),
        kinds=tuple(corpus_spec.get("kinds", SHAPE_KINDS)),
    )
    return corpus, config


def _cmd_loop(args: argparse.Namespace) -> None:
    corpus, config = _corpus_and_config(args.config)
    report = run_loop(corpus, config)
    _emit(report_json(report), args.out)
    print(f"loop finished in {report.wall_clock_s:.2f}s", file=sys.stderr)


def _cmd_compare(args: argparse.Namespace) -> None:
    corpus, config = _corpus_and_config(args.config)
    _emit(comparison_json(compare_policies(corpus, config)), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxsel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="score lattice viewpoints against reconstruction error")
    p.add_argument("--pred", required=True, help="predicted grid (.vxg)")
    p.add_argument("--gt", required=True, help="ground-truth grid (.vxg)")
    p.add_argument("--interval", type=_number, default=30, help="lattice interval in degrees")
    p.add_argument("--n", type=int, default=3, help="number of viewpoints to select")
    p.add_argument("--seed", type=int, default=0, help="seed for Gaussian sampling")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("render", help="render a silhouette of a grid")
    p.add_argument("--grid", required=True, help="input grid (.vxg)")
    p.add_argument("--yaw", type=float, required=True)
    p.add_argument("--pitch", type=float, required=True)
    p.add_argument("--tau", type=float, default=DEFAULT_THRESHOLD, help="occupancy threshold")
    p.add_argument("--out", required=True, help="output silhouette (.sil)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen-shapes", help="generate a synthetic shape corpus")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_shapes)

    p = sub.add_parser("carve", help="reconstruct a grid from silhouettes")
    p.add_argument("--views", required=True, help="JSON list of {yaw, pitch, silhouette}")
    p.add_argument("--sil-dir", required=True, help="directory containing the silhouettes")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True, help="output grid (.vxg)")
    p.set_defaults(func=_cmd_carve)

    p = sub.add_parser("loop", help="run the reconstruction loop")
    p.add_argument("--config", required=True, help="JSON config with 'loop' and 'corpus'")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=_cmd_loop)

    p = sub.add_parser("compare", help="run the loop once per selection policy")
    p.add_argument("--config", required=True, help="JSON config with 'loop' and 'corpus'")
    p.add_argument("--out", default=None, help="comparison path (default: stdout)")
    p.set_defaults(func=_cmd_compare)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (FormatError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"voxsel {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

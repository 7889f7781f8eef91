"""Span tracer that wraps voxsel's public functions from outside the package.

Every public function of each ``voxsel.<layer>`` module, and the
``__post_init__`` validation of each public dataclass, is replaced by a
wrapper that records one span ``[name, start, end, parent]``. Modules bind
names with ``from .x import f``, so a wrapper is installed under every name
in every voxsel module that refers to the original object; otherwise calls
between modules would bypass it.

Spans stay in memory until :meth:`Tracer.dump`. A span's self time is its
duration minus the time covered by its direct child spans, so self times of
all spans add up to the traced time without double counting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("grid", "geometry", "selection", "carve", "synthesis", "pool", "io", "harness", "cli")

# Per-layer metrics: (name, unit, better, source). Sources name a span
# statistic ("<span>:calls", "<span>:self_s", "<span>:p50_ms"), a counter
# ("counter:<key>"), a layer's summed self time ("layer:<layer>"), the
# number of distinct (dim, yaw, pitch) rotation poses ("poses") or of spans
# ("spans"). A ``busy_s`` metric is the span's self time. Every span name is
# "<layer>.<function>", or "<layer>.<Class>" for dataclass validation.
PER_LAYER = (
    ("selection.score_all.calls", "count", "lower", "selection.score_all:calls"),
    ("selection.score_all.busy_s", "s", "lower", "selection.score_all:self_s"),
    ("selection.views_scored", "count", "lower", "counter:selection.views_scored"),
    ("selection.project_first_hit.busy_s", "s", "lower", "selection.project_first_hit:self_s"),
    ("selection.select_and_sample.busy_s", "s", "lower", "selection.select_and_sample:self_s"),
    ("selection.select_and_sample.p50_ms", "ms", "lower", "selection.select_and_sample:p50_ms"),
    ("selection.self_s", "s", "lower", "layer:selection"),
    ("geometry.rotate_grid.calls", "count", "lower", "geometry.rotate_grid:calls"),
    ("geometry.rotate_grid.busy_s", "s", "lower", "geometry.rotate_grid:self_s"),
    ("geometry.rotated_cells.calls", "count", "lower", "geometry.rotated_cells:calls"),
    ("geometry.rotated_cells.distinct_poses", "count", "lower", "poses"),
    ("geometry.rotated_cells.busy_s", "s", "lower", "geometry.rotated_cells:self_s"),
    ("geometry.self_s", "s", "lower", "layer:geometry"),
    ("carve.carve.calls", "count", "lower", "carve.carve:calls"),
    ("carve.carve.busy_s", "s", "lower", "carve.carve:self_s"),
    ("carve.observations_carved", "count", "lower", "counter:carve.observations_carved"),
    ("carve.self_s", "s", "lower", "layer:carve"),
    ("synthesis.render_silhouette.calls", "count", "lower", "synthesis.render_silhouette:calls"),
    ("synthesis.render_silhouette.busy_s", "s", "lower", "synthesis.render_silhouette:self_s"),
    ("synthesis.generate_shape.busy_s", "s", "lower", "synthesis.generate_shape:self_s"),
    ("synthesis.self_s", "s", "lower", "layer:synthesis"),
    ("grid.VoxelGrid.constructions", "count", "lower", "grid.VoxelGrid:calls"),
    ("grid.VoxelGrid.busy_s", "s", "lower", "grid.VoxelGrid:self_s"),
    ("grid.error_grid.busy_s", "s", "lower", "grid.error_grid:self_s"),
    ("grid.threshold_grid.busy_s", "s", "lower", "grid.threshold_grid:self_s"),
    ("grid.self_s", "s", "lower", "layer:grid"),
    ("pool.sample_by_category.calls", "count", "lower", "pool.sample_by_category:calls"),
    ("pool.empty_category", "count", "lower", "counter:pool.sample_by_category.raised.EmptyCategoryError"),
    ("pool.record.views", "count", "higher", "counter:pool.record.views"),
    ("pool.self_s", "s", "lower", "layer:pool"),
    ("io.bytes_read", "B", "lower", "counter:io.bytes_read"),
    ("io.bytes_written", "B", "lower", "counter:io.bytes_written"),
    ("io.busy_s", "s", "lower", "layer:io"),
    ("harness.run_object_iteration.calls", "count", "lower", "harness.run_object_iteration:calls"),
    ("harness.run_object_iteration.busy_s", "s", "lower", "harness.run_object_iteration:self_s"),
    ("harness.report_json.busy_s", "s", "lower", "harness.report_json:self_s"),
    ("harness.self_s", "s", "lower", "layer:harness"),
    ("cli.main.calls", "count", "lower", "cli.main:calls"),
    ("cli.main.busy_s", "s", "lower", "cli.main:self_s"),
    ("cli.self_s", "s", "lower", "layer:cli"),
    ("trace.spans", "count", "lower", "spans"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span recorder with a few work counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.poses: set[tuple] = set()
        self.enabled = True
        self._stack: list[int] = []

    def _after(self, name: str, args: tuple, kwargs: dict, result) -> None:
        """Work counters that need the arguments or result of a call."""
        if name == "selection.score_all":
            self.counters["selection.views_scored"] += len(result)
        elif name == "geometry.rotated_cells":
            v = _arg(args, kwargs, 1, "v")
            self.poses.add((int(_arg(args, kwargs, 0, "dim")), v.yaw, v.pitch))
        elif name == "carve.carve":
            self.counters["carve.observations_carved"] += len(_arg(args, kwargs, 0, "observations"))
        elif name == "pool.record":
            self.counters["pool.record.views"] += len(_arg(args, kwargs, 2, "viewpoints"))
        elif name in ("io.read_vxg", "io.read_sil"):
            self.counters["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name in ("io.write_vxg", "io.write_sil"):
            self.counters["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            self._after(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public voxsel function and dataclass validation, where each is looked up."""
        modules = {layer: importlib.import_module(f"voxsel.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    obj.__post_init__ = self.wrap(f"{layer}.{attr}", vars(obj)["__post_init__"])
        for mod in [importlib.import_module("voxsel"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, summed self time and median duration."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - inner
            durations[name].append(end - start)
        return {
            name: {"calls": calls[name], "self_s": self_s[name], "p50_s": statistics.median(durations[name])}
            for name in calls
        }

    def metrics(self) -> dict[str, float]:
        """Values of every :data:`PER_LAYER` metric; unused layers read 0."""
        stats = self.summary()
        layer_self: dict[str, float] = defaultdict(float)
        for name, st in stats.items():
            layer_self[name.split(".", 1)[0]] += st["self_s"]
        values = {}
        for metric, _, _, source in PER_LAYER:
            if source == "poses":
                values[metric] = len(self.poses)
            elif source == "spans":
                values[metric] = len(self.spans)
            elif source.startswith("counter:"):
                values[metric] = self.counters.get(source[len("counter:"):], 0)
            elif source.startswith("layer:"):
                values[metric] = layer_self[source[len("layer:"):]]
            else:
                span, stat = source.split(":")
                st = stats.get(span)
                if st is None:
                    values[metric] = 0
                elif stat == "p50_ms":
                    values[metric] = st["p50_s"] * 1000.0
                else:
                    values[metric] = st[stat]
        return values

    def dump(self, path: str) -> None:
        """Write every span as ``[name, start_s, end_s, parent_index]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)

"""Active multi-view reconstruction loop and policy comparison.

Each object starts from a few dataset views. Every iteration a subset of
unconverged objects is re-observed: the reconstruction error of the object's
current visual hull against ground truth is scored over the viewpoint
lattice, and new views are chosen by the configured policy (error-guided
selection, uniform random, or fixed lattice sweep), optionally mixing in
viewpoints pooled from previously processed objects of the same category.
New silhouettes are appended and all objects are re-evaluated. Reports are
deterministic functions of (corpus, config): the same seed reproduces the
same report bytes.

Each object's state (``_ObjectState``) is built once from its ground truth
and the loop's tau, which it thresholds once: ``occ`` is the flat bool
``gt >= tau`` and, for a 0/1 ground truth, ``bits`` the flat ``gt == 1``.
Its visual hull is the sorted ids of the voxels its observations keep, the
AND of their one-view carves, each carved once; beside it lie the ids of the
occupied voxels outside the hull, none unless a view carves one away. Every
view is the exact silhouette of ``occ``. The loop renders and carves in one
pass each object's first initial view, cut from the full cube, in one pass
for all objects sharing that pose, and each object's round of new views in
one pass (per 12) that maps the hull plus its outside list under all. The
voxels an earlier view of the round carves away are among those mapped, so
the round equals its views carved one by one. The other initial views are
rendered from the occupied ids and carved by ``carve(new, dim, voxels=hull)``,
which maps the hull's ids only. Either way one update keeps the hull voxels
the views keep and moves the occupied ones they drop to the outside list. The
AND is order-independent and idempotent, so the hull equals ``carve`` of all
the observations. An object has converged when its hull equals its bits,
which the state decides in one place; a converged object is not re-observed.
Evaluation computes IoU, F-score and excess voxels from the lengths of the
id lists. Error-guided selection passes the ids of the mismatch voxels, the
hull's off ``bits`` and the ``bits`` outside the hull, straight to the
scoring kernel of :mod:`voxsel.selection` and takes the best-ranked lattice
centers from its totals, building no grid and no per-center scores; a soft
ground truth is scored on ``|hull - gt|`` over the cube, ``gt`` with
``1 - gt`` written at the hull's ids, and never converges.

Randomness is drawn from numpy's PCG64 generator. Streams are derived with
``numpy.random.SeedSequence`` from (master seed, purpose tag, object index),
so each object consumes an independent stream and processing order cannot
leak randomness across objects.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from typing import get_type_hints

import numpy as np

from .carve import ViewObservation, _render_and_carve, carve
from .geometry import Viewpoint, discretize_viewpoints, pixel_ids
from .grid import DEFAULT_THRESHOLD, VoxelGrid, _count_scores
from .io import canonical_json, viewpoint_to_dict
from .pool import DEFAULT_POOL_CAPACITY, EmptyCategoryError, ViewpointPool, record, sample_by_category
from .selection import _hot_voxels, _lattice_totals, _top_centers, sample_around
from .synthesis import SHAPE_KINDS, ShapeSpec, ViewDistribution, _silhouette, generate_shape, sample_dataset_viewpoints

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "POLICIES",
    "POOL_MODES",
    "SceneObject",
    "LoopConfig",
    "RunReport",
    "make_corpus",
    "run_object_iteration",
    "run_loop",
    "compare_policies",
    "report_json",
    "comparison_json",
    "config_to_dict",
    "config_from_dict",
]

REPORT_SCHEMA_VERSION = "v1"

POLICIES = ("error-guided", "random", "fixed-lattice")
POOL_MODES = ("pool-only", "fresh-only", "mixed")

# Purpose tags for deriving independent RNG streams from the master seed.
_TAG_SHAPE = 1
_TAG_INIT = 2
_TAG_SELECT = 3
_TAG_SUBSET = 4


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


@dataclass(frozen=True)
class SceneObject:
    """One reconstruction target: a named, categorized ground-truth grid."""

    name: str
    category: str
    gt: VoxelGrid

    def __post_init__(self) -> None:
        if not self.name or not self.category:
            raise ValueError("scene objects need non-empty name and category")
        if not self.gt.is_cubic:
            raise ValueError(f"ground truth must be cubic, got dims {self.gt.dims}")


@dataclass(frozen=True)
class LoopConfig:
    """Knobs of the reconstruction loop.

    Defaults: 30-degree lattice, 3 views per round from 3 aligned initial
    views, 5% of objects refreshed per iteration, threshold 0.4.
    """

    dim: int = 32
    interval_deg: float = 30
    views_per_round: int = 3
    initial_views: int = 3
    initial_distribution: ViewDistribution = field(default_factory=lambda: ViewDistribution("aligned"))
    iterations: int = 3
    update_fraction: float = 0.05
    tau: float = DEFAULT_THRESHOLD
    selection_policy: str = "error-guided"
    pool_mode: str = "mixed"
    pool_capacity: int = DEFAULT_POOL_CAPACITY
    seed: int = 0

    def __post_init__(self) -> None:
        _check_field_types(vars(self), _FIELD_TYPES, "loop config")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.views_per_round < 1:
            raise ValueError(f"views_per_round must be positive, got {self.views_per_round}")
        if not (1 <= self.initial_views <= self.initial_distribution.views_per_object):
            raise ValueError(
                f"initial_views must lie in [1, {self.initial_distribution.views_per_object}], "
                f"got {self.initial_views}"
            )
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        if not (0.0 < self.update_fraction <= 1.0):
            raise ValueError(f"update_fraction must lie in (0, 1], got {self.update_fraction}")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if self.selection_policy not in POLICIES:
            raise ValueError(f"unknown selection policy {self.selection_policy!r}, expected one of {POLICIES}")
        if self.pool_mode not in POOL_MODES:
            raise ValueError(f"unknown pool mode {self.pool_mode!r}, expected one of {POOL_MODES}")
        if self.pool_capacity < 1:
            raise ValueError(f"pool_capacity must be positive, got {self.pool_capacity}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        n_centers = len(discretize_viewpoints(self.interval_deg).centers)  # validates the interval
        # An empty pool makes every pool mode select all views_per_round views fresh.
        if self.selection_policy == "error-guided" and self.views_per_round > n_centers:
            raise ValueError(
                f"views_per_round must not exceed the lattice's {n_centers} centers "
                f"under error-guided selection, got {self.views_per_round}"
            )


def config_to_dict(config: LoopConfig) -> dict:
    return asdict(config)


# The type of each loop config field, read from its annotation and checked by the constructor: the loop passes
# counts, sizes and seeds to range() and SeedSequence; a float field takes any number, and no field a bool.
_NUMBER = (int, float)
_FIELD_TYPES = {key: _NUMBER if kind is float else kind for key, kind in get_type_hints(LoopConfig).items()}
_DISTRIBUTION_TYPES = get_type_hints(ViewDistribution)
_TYPE_NAMES = {int: "an integer", _NUMBER: "a number", str: "a string", list: "a non-empty list of shape kinds",
               ViewDistribution: "a ViewDistribution"}
# The type of each corpus field, in a JSON config and as a make_corpus argument.
_CORPUS_TYPES = {"dir": str, "count": int, "dim": int, "seed": int, "kinds": list}


def _check_field_types(obj: dict, types: dict, where: str) -> None:
    """Raise a ValueError naming the unknown keys of ``obj``, or its first field not of its type in ``types``."""
    extra = set(obj) - set(types)
    if extra:
        raise ValueError(f"unknown {where} keys: {sorted(extra)}")
    for key, kind in types.items():
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], kind)):
            raise ValueError(f"{where} field {key!r} must be {_TYPE_NAMES[kind]}, got {obj[key]!r}")


def config_from_dict(obj: dict) -> LoopConfig:
    """Build a config from a JSON-like dict.

    Unknown keys and fields of the wrong JSON type raise ``ValueError``.
    """
    kwargs = dict(obj)
    dist = kwargs.pop("initial_distribution", None)
    _check_field_types(kwargs, _FIELD_TYPES, "loop config")
    if dist is not None:
        if not isinstance(dist, dict):
            raise ValueError(f"loop config field 'initial_distribution' must be an object, got {dist!r}")
        _check_field_types(dist, _DISTRIBUTION_TYPES, "initial_distribution")
        if "kind" not in dist:
            raise ValueError("initial_distribution field 'kind' is required")
        kwargs["initial_distribution"] = ViewDistribution(**dist)
    return LoopConfig(**kwargs)


def make_corpus(
    count: int,
    dim: int = 32,
    seed: int = 0,
    kinds: Sequence[str] = SHAPE_KINDS,
) -> list[SceneObject]:
    """Generate a corpus of synthetic objects, cycling through shape kinds.

    Object i is drawn from an independent stream keyed on (seed, i), so the
    corpus is reproducible and insensitive to generation order. The shape
    kind doubles as the object's category.
    """
    _check_field_types({"count": count, "dim": dim, "seed": seed}, _CORPUS_TYPES, "corpus")
    if count < 1:
        raise ValueError(f"corpus count must be positive, got {count}")
    if seed < 0:
        raise ValueError(f"corpus seed must be nonnegative, got {seed}")
    if isinstance(kinds, (str, bytes)) or not isinstance(kinds, Sequence):
        raise ValueError(f"corpus kinds must be a sequence of shape kinds, got {kinds!r}")
    if len(kinds) == 0:
        raise ValueError(f"corpus kinds must name at least one shape kind, got {kinds!r}")
    specs = [ShapeSpec(kind) for kind in kinds]
    corpus = []
    for i in range(count):
        spec = specs[i % len(specs)]
        gt = generate_shape(spec, dim, _stream(seed, _TAG_SHAPE, i))
        corpus.append(SceneObject(name=f"{spec.kind}-{i:03d}", category=spec.kind, gt=gt))
    return corpus


@lru_cache(maxsize=1)
def _cube_ids(dim: int) -> np.ndarray:
    """The read-only flat ids of the whole ``dim**3`` cube, every state's hull before its first view."""
    ids = np.arange(dim**3)
    ids.flags.writeable = False
    return ids


@dataclass
class _ObjectState:
    """One object's ground truth, views and running hull.

    The constructor thresholds ``gt`` at ``tau`` once: ``occ`` is the flat
    bool ``gt >= tau``, ``occ_ids`` its ids, and ``bits`` the flat ``gt ==
    1`` when ``gt`` is 0/1, else None (a soft ground truth). ``hull`` holds
    the sorted flat ids of the voxels every observation keeps; with no
    observations it is the full cube. ``outside`` holds the occupied voxels
    outside the hull, none unless a view carves away an occupied voxel (one
    past the safe radius, or any at tau 0); neither is ever a dense mask. A
    state starts with no observations. :meth:`observe` carves views on the
    hull's ids and :func:`_observe_in_one_pass` renders and carves them in
    one pass; both append them through :meth:`add`, the one hull update.
    """

    gt: VoxelGrid
    tau: float
    rng: np.random.Generator
    lattice_cursor: int = field(init=False, default=0)
    observations: list[ViewObservation] = field(init=False, default_factory=list)
    dim: int = field(init=False)
    occ: np.ndarray = field(init=False, repr=False)
    occ_ids: np.ndarray = field(init=False, repr=False)
    bits: np.ndarray | None = field(init=False, repr=False)
    n_bits: int = field(init=False, repr=False)
    hull: np.ndarray = field(init=False, repr=False)
    outside: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.dim = self.gt.dims[0]
        flat = self.gt.values.reshape(-1)
        self.occ = flat >= self.tau
        self.occ_ids = np.flatnonzero(self.occ)
        bits = self.occ if self.tau > 0 else flat == 1.0
        self.bits = bits if np.array_equal(flat, bits) else None
        self.n_bits = int(np.count_nonzero(bits))
        self.hull, self.outside = _cube_ids(self.dim), self.occ_ids[:0]

    @property
    def converged(self) -> bool:
        """Zero reconstruction error: the hull equals a 0/1 ground truth (a soft one never converges)."""
        return self.bits is not None and self.hull.size == self.n_bits and bool(self.bits[self.hull].all())

    def observe(self, new: Sequence[ViewObservation]) -> None:
        """Append observations and AND them into the hull with one ``carve`` call on its ids."""
        if new:
            kept = carve(new, self.dim, voxels=self.hull).values.reshape(-1)[self.hull] > 0
            self.add(new, kept, self.occ[self.hull])

    def add(self, new: Iterable[ViewObservation], kept: np.ndarray, occupied: np.ndarray) -> None:
        """Append views keeping the hull voxels ``kept``; the ones they drop that are ``occupied`` join ``outside``."""
        self.outside = np.sort(np.concatenate((self.outside, self.hull[occupied & ~kept])))
        self.hull = self.hull[kept]
        self.observations.extend(new)


# The most views one product stacks, as far as TestBlasIdentity checks stacks bit-identical;
# a longer round takes several passes, the same hull as the AND does not depend on order.
_VIEWS_PER_PASS = 12


def _observe_in_one_pass(states: Sequence[_ObjectState], views: Sequence[Viewpoint]) -> None:
    """Render ``views`` of each state's ``occ``, carve them into its hull and append them, in one pass for all of them.

    Every state holds the same hull and outside list, as all do before their
    first view, so the pass maps those ids once under every view. A voxel a
    view carves away moves to the outside list, which is mapped too, so the
    later views of the pass render the same voxels as if carved one by one.
    """
    first = states[0]
    voxels = np.concatenate((first.hull, first.outside)) if first.outside.size else first.hull
    occupied = [state.occ if voxels.size == state.occ.size else state.occ[voxels] for state in states]
    passes = _render_and_carve(first.dim, views, voxels, occupied, first.hull.size)
    for state, occ, (silhouettes, kept) in zip(states, occupied, passes):
        state.add(map(ViewObservation, views, silhouettes), kept, occ[: kept.size])


def run_object_iteration(
    obj: SceneObject,
    state: _ObjectState,
    config: LoopConfig,
    pool: ViewpointPool,
) -> dict:
    """Select and append new views for one object; returns the update record.

    The new views are rendered from ``state.occ`` and carved in one pass per
    ``_VIEWS_PER_PASS`` of them. The record carries the viewpoints added, the
    freshly selected subset that should enter the pool (empty under baseline
    policies), and whether an empty pool forced a fallback to fresh selection.
    A converged object (zero reconstruction error) is left untouched.
    """
    if state.converged:
        return {"added": [], "pool_record": [], "pool_fallback": False, "converged": True}

    n = config.views_per_round
    fallback = False
    pool_views: list[Viewpoint] = []
    fresh: list[Viewpoint] = []

    if config.selection_policy == "error-guided":
        # The pool participates only under the error-guided policy.
        want_pool = {"pool-only": n, "fresh-only": 0, "mixed": n // 2}[config.pool_mode]
        if want_pool > 0:
            try:
                pool_views = sample_by_category(pool, obj.category, want_pool, state.rng)
            except EmptyCategoryError:
                pool_views = []
                fallback = config.pool_mode == "pool-only"
        n_fresh = n - len(pool_views)
        if n_fresh > 0:
            if state.bits is None:  # soft: |hull - gt| over the cube, gt off the hull and 1 - gt on it
                error = obj.gt.values.ravel().copy()
                error[state.hull] = 1.0 - error[state.hull]
                hot, vals = _hot_voxels(error)
            else:  # the hull voxels off bits, then the bits voxels outside the hull
                hot = np.concatenate((state.hull[~state.bits[state.hull]], state.outside[state.bits[state.outside]]))
                vals = None
            lattice = discretize_viewpoints(config.interval_deg)
            top = _top_centers(_lattice_totals(state.dim, hot, vals, lattice), lattice, n_fresh)
            fresh = sample_around(top, config.interval_deg, state.rng)
    elif config.selection_policy == "random":
        fresh = sample_dataset_viewpoints(ViewDistribution("spherical", n), state.rng)
    else:  # fixed-lattice
        lattice = discretize_viewpoints(config.interval_deg)
        total = len(lattice.centers)
        fresh = [lattice.centers[(state.lattice_cursor + k) % total] for k in range(n)]
        state.lattice_cursor = (state.lattice_cursor + n) % total

    added = fresh + pool_views
    for start in range(0, len(added), _VIEWS_PER_PASS):
        _observe_in_one_pass([state], added[start : start + _VIEWS_PER_PASS])
    pool_record = fresh if config.selection_policy == "error-guided" else []
    return {"added": added, "pool_record": pool_record, "pool_fallback": fallback, "converged": False}


@dataclass
class RunReport:
    """Outcome of one loop run; everything except wall_clock_s serializes."""

    schema_version: str
    config: dict
    seed: int
    objects: list[dict]
    aggregates: dict
    wall_clock_s: float = 0.0


def _evaluate(state: _ObjectState) -> tuple[float, float, int]:
    """IoU, F-score and excess voxels of the hull thresholded at the state's tau, from the lengths of its id lists."""
    n_gt = state.occ_ids.size
    if state.tau > 0:  # the occupied voxels the hull misses are its outside list
        n_pred, inter = state.hull.size, n_gt - state.outside.size
    else:  # a 0/1 hull thresholded at 0 is the whole cube
        n_pred, inter = state.occ.size, n_gt
    return (*_count_scores(int(n_pred), int(n_gt), int(inter)), int(n_pred - inter))


def run_loop(
    corpus: Sequence[SceneObject],
    config: LoopConfig,
    pool: ViewpointPool | None = None,
) -> RunReport:
    """Run the reconstruction loop over a corpus and return its report.

    Each of iterations 0..``config.iterations`` re-observes
    ``max(1, round(update_fraction * len(corpus)))`` of the not-yet-converged
    objects (all of them if fewer remain; none in iteration 0, which so
    evaluates the initial view sets), then evaluates every object. Views are
    exact silhouettes of the ground truth at ``config.tau``. Pool writes
    happen in a serial phase after all of an iteration's updates, so objects
    within one iteration see the previous iteration's pool.
    """
    started = time.perf_counter()
    if len(corpus) == 0:
        raise ValueError("corpus must contain at least one object")
    names = [obj.name for obj in corpus]
    if len(set(names)) != len(names):
        raise ValueError("corpus object names must be unique")
    for obj in corpus:
        if obj.gt.dims != (config.dim,) * 3:
            raise ValueError(f"object {obj.name!r} dims {obj.gt.dims} do not match config dim {config.dim}")

    pool = ViewpointPool(capacity=config.pool_capacity) if pool is None else pool

    states: list[_ObjectState] = []
    initials: list[list[Viewpoint]] = []
    object_records: list[dict] = []
    for i, obj in enumerate(corpus):
        candidates = sample_dataset_viewpoints(config.initial_distribution, _stream(config.seed, _TAG_INIT, i))
        initial = [candidates[k * len(candidates) // config.initial_views] for k in range(config.initial_views)]
        states.append(_ObjectState(obj.gt, config.tau, _stream(config.seed, _TAG_SELECT, i)))
        initials.append(initial)
        views = [viewpoint_to_dict(v) for v in initial]
        object_records.append({"name": obj.name, "category": obj.category, "initial_views": views, "iterations": []})

    # A first initial view is carved out of the full cube, so the objects seen
    # from the same first pose share one pass that maps the cube once.
    sharing: dict[Viewpoint, list[_ObjectState]] = {}
    for state, initial in zip(states, initials):
        sharing.setdefault(initial[0], []).append(state)
    for v, group in sharing.items():
        _observe_in_one_pass(group, [v])
    for state, initial in zip(states, initials):  # rendered from the occupied ids, as render_silhouette does
        state.observe([ViewObservation(v, _silhouette(config.dim, pixel_ids(config.dim, v, voxels=state.occ_ids)))
                       for v in initial[1:]])

    for iteration in range(config.iterations + 1):
        eligible = [i for i in range(len(corpus)) if iteration > 0 and not states[i].converged]
        updates: dict[int, dict] = {}
        if eligible:
            quota = min(max(1, round(config.update_fraction * len(corpus))), len(eligible))
            picks = _stream(config.seed, _TAG_SUBSET, iteration).choice(len(eligible), size=quota, replace=False)
            for i in sorted(eligible[int(p)] for p in picks):
                updates[i] = run_object_iteration(corpus[i], states[i], config, pool)
            for i, rec in updates.items():
                if rec["pool_record"]:
                    record(pool, corpus[i].category, rec["pool_record"])
        for i, state in enumerate(states):
            score_iou, score_f, excess = _evaluate(state)
            update = updates.get(i, {"added": [], "pool_fallback": False})
            object_records[i]["iterations"].append(
                {
                    "iteration": iteration,
                    "updated": i in updates,
                    "selected": [viewpoint_to_dict(v) for v in update["added"]],
                    "pool_fallback": update["pool_fallback"],
                    "view_count": len(state.observations),
                    "iou": score_iou,
                    "f_score": score_f,
                    "excess_voxels": excess,
                    "converged": state.converged,
                    "loss": None,
                }
            )

    mean_iou, mean_f = (
        [float(np.mean([rec["iterations"][t][key] for rec in object_records])) for t in range(config.iterations + 1)]
        for key in ("iou", "f_score")
    )
    aggregates = {"mean_iou": mean_iou, "mean_f_score": mean_f, "converged_objects": sum(s.converged for s in states)}
    return RunReport(
        schema_version=REPORT_SCHEMA_VERSION,
        config=config_to_dict(config),
        seed=config.seed,
        objects=object_records,
        aggregates=aggregates,
        wall_clock_s=time.perf_counter() - started,
    )


def report_json(report: RunReport) -> str:
    """Canonical JSON for a report: sorted keys, two-space indent, newline.

    Wall-clock time is deliberately excluded so identical (corpus, config)
    runs produce byte-identical files.
    """
    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "wall_clock_s"}
    return canonical_json(payload) + "\n"


def compare_policies(corpus: Sequence[SceneObject], config_base: LoopConfig) -> dict:
    """Run every selection policy on identical footing and report deltas.

    Each policy runs the full loop with the same corpus, seed, initial views,
    and per-iteration update subsets (all derived from policy-independent
    streams); each run gets its own empty pool. Deltas compare final-iteration
    mean IoU.
    """
    runs = {}
    for policy in POLICIES:
        report = run_loop(corpus, replace(config_base, selection_policy=policy))
        runs[policy] = {
            "mean_iou": report.aggregates["mean_iou"],
            "mean_f_score": report.aggregates["mean_f_score"],
            "final_mean_iou": report.aggregates["mean_iou"][-1],
        }
    deltas = {
        "error_guided_minus_random": runs["error-guided"]["final_mean_iou"] - runs["random"]["final_mean_iou"],
        "error_guided_minus_fixed_lattice": runs["error-guided"]["final_mean_iou"]
        - runs["fixed-lattice"]["final_mean_iou"],
    }
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config_to_dict(config_base),
        "seed": config_base.seed,
        "policies": runs,
        "deltas": deltas,
    }


def comparison_json(comparison: dict) -> str:
    """Canonical JSON for a policy comparison."""
    return canonical_json(comparison) + "\n"

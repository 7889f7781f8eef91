"""Reconstruction loop driver, corpus generation, and policy comparison."""

import dataclasses
import hashlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from voxsel import geometry, grid, harness, selection
from voxsel.carve import ViewObservation, carve
from voxsel.geometry import Viewpoint, discretize_viewpoints
from voxsel.grid import VoxelGrid, f_score, iou, threshold_grid
from voxsel.harness import (
    LoopConfig,
    POLICIES,
    POOL_MODES,
    REPORT_SCHEMA_VERSION,
    RunReport,
    SceneObject,
    compare_policies,
    comparison_json,
    config_from_dict,
    config_to_dict,
    make_corpus,
    report_json,
    run_loop,
    run_object_iteration,
)
from voxsel.harness import _ObjectState
from voxsel.io import viewpoint_from_dict
from voxsel.pool import ViewpointPool, record
from voxsel.synthesis import (
    ShapeSpec,
    SilhouetteImage,
    ViewDistribution,
    generate_shape,
    render_silhouette,
)

from .mapping_counts import MappedEntries


def small_config(**kw):
    base = dict(dim=16, iterations=2, update_fraction=1.0, seed=0)
    base.update(kw)
    return LoopConfig(**base)


def empty_object(dim=16, name="empty"):
    # All silhouettes are dark, so carving recovers the grid exactly and the
    # object is converged from the start.
    return SceneObject(name=name, category="box", gt=VoxelGrid(np.zeros((dim, dim, dim))))


class TestMakeCorpus:
    def test_cycles_kinds_and_labels_categories(self):
        corpus = make_corpus(5, dim=16, seed=0, kinds=["ell", "cross"])
        assert [o.category for o in corpus] == ["ell", "cross", "ell", "cross", "ell"]
        assert [o.name for o in corpus] == [
            "ell-000", "cross-001", "ell-002", "cross-003", "ell-004",
        ]

    def test_objects_are_independent_of_corpus_size(self):
        a = make_corpus(3, dim=16, seed=4)
        b = make_corpus(6, dim=16, seed=4)
        for x, y in zip(a, b):
            assert np.array_equal(x.gt.values, y.gt.values)

    def test_deterministic_per_seed(self):
        a = make_corpus(4, dim=16, seed=12)
        b = make_corpus(4, dim=16, seed=12)
        for x, y in zip(a, b):
            assert np.array_equal(x.gt.values, y.gt.values)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_corpus(0)
        with pytest.raises(ValueError):
            make_corpus(2, kinds=["pyramid"])
        with pytest.raises(ValueError, match="kinds"):
            make_corpus(2, dim=8, kinds=())
        with pytest.raises(ValueError, match="corpus kinds must be a sequence of shape kinds, got 'box'"):
            make_corpus(2, dim=8, kinds="box")
        with pytest.raises(ValueError, match="corpus kinds must be a sequence of shape kinds, got None"):
            make_corpus(2, dim=8, kinds=None)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"count": 2.0}, "corpus field 'count' must be an integer, got 2.0"),
            ({"count": True}, "corpus field 'count' must be an integer, got True"),
            ({"count": 2, "dim": 16.0}, "corpus field 'dim' must be an integer, got 16.0"),
            ({"count": 2, "dim": np.int64(16)}, "corpus field 'dim' must be an integer, got np.int64(16)"),
            ({"count": 2, "seed": 1.5}, "corpus field 'seed' must be an integer, got 1.5"),
        ],
    )
    def test_rejects_counts_dims_and_seeds_that_are_not_ints(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_corpus(**kw)


class TestSceneObject:
    @pytest.mark.parametrize("name, category", [("", "box"), ("box-000", "")])
    def test_rejects_an_empty_name_or_category(self, name, category):
        with pytest.raises(ValueError, match="non-empty name and category"):
            SceneObject(name=name, category=category, gt=VoxelGrid.zeros((4, 4, 4)))

    def test_rejects_a_non_cubic_ground_truth(self):
        with pytest.raises(ValueError, match=r"must be cubic, got dims \(4, 4, 5\)"):
            SceneObject(name="box-000", category="box", gt=VoxelGrid.zeros((4, 4, 5)))


class TestLoopConfig:
    def test_default_configuration(self):
        cfg = LoopConfig()
        assert cfg.dim == 32
        assert cfg.interval_deg == 30
        assert cfg.views_per_round == 3
        assert cfg.initial_views == 3
        assert cfg.initial_distribution.kind == "aligned"
        assert cfg.update_fraction == 0.05
        assert cfg.tau == 0.4
        assert cfg.selection_policy == "error-guided"
        assert cfg.pool_mode == "mixed"

    @pytest.mark.parametrize(
        "kw",
        [
            {"dim": 0},
            {"views_per_round": 0},
            {"initial_views": 0},
            {"initial_views": 25},
            {"iterations": -1},
            {"update_fraction": 0.0},
            {"update_fraction": 1.5},
            {"tau": 1.2},
            {"selection_policy": "greedy"},
            {"pool_mode": "sometimes"},
            {"interval_deg": 50},
            {"pool_capacity": 0},
            {"pool_capacity": -1},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            LoopConfig(**kw)

    # The constructor applies the rule config_from_dict applies to JSON: an int field takes an int and not a
    # bool, a float field an int or a float, a str field a str, and initial_distribution a ViewDistribution.
    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"dim": 16.0}, "loop config field 'dim' must be an integer, got 16.0"),
            ({"dim": np.int64(16)}, "loop config field 'dim' must be an integer, got np.int64(16)"),
            ({"seed": 1.5}, "loop config field 'seed' must be an integer, got 1.5"),
            ({"iterations": 2.0}, "loop config field 'iterations' must be an integer, got 2.0"),
            ({"pool_capacity": 2.5}, "loop config field 'pool_capacity' must be an integer, got 2.5"),
            ({"views_per_round": True}, "loop config field 'views_per_round' must be an integer, got True"),
            ({"interval_deg": "30"}, "loop config field 'interval_deg' must be a number, got '30'"),
            ({"update_fraction": True}, "loop config field 'update_fraction' must be a number, got True"),
            ({"tau": "0.4"}, "loop config field 'tau' must be a number, got '0.4'"),
            ({"tau": np.float32(0.4)}, "loop config field 'tau' must be a number, got np.float32(0.4)"),
            ({"selection_policy": 1}, "loop config field 'selection_policy' must be a string, got 1"),
            ({"initial_distribution": {"kind": "aligned"}},
             "loop config field 'initial_distribution' must be a ViewDistribution, got {'kind': 'aligned'}"),
        ],
    )
    def test_fields_of_the_wrong_type_rejected_by_the_constructor(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LoopConfig(**kw)

    def test_an_int_float_field_and_a_python_float_subclass_are_numbers(self):
        cfg = LoopConfig(interval_deg=45, update_fraction=1, tau=np.float64(0.5))
        assert (cfg.interval_deg, cfg.update_fraction, cfg.tau) == (45, 1, 0.5)

    def test_views_per_round_beyond_the_lattice_rejected_under_error_guided(self):
        with pytest.raises(ValueError, match=r"views_per_round .* 8 centers .* got 9"):
            LoopConfig(interval_deg=90, views_per_round=9, pool_mode="fresh-only")
        LoopConfig(interval_deg=90, views_per_round=8, pool_mode="fresh-only")
        for policy in ("random", "fixed-lattice"):
            LoopConfig(interval_deg=90, views_per_round=9, selection_policy=policy)

    def test_dict_round_trip(self):
        cfg = LoopConfig(
            dim=16,
            iterations=4,
            update_fraction=0.25,
            selection_policy="random",
            pool_mode="fresh-only",
            initial_views=5,
            initial_distribution=ViewDistribution("spherical", 10),
            seed=99,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_keys_rejected(self):
        payload = config_to_dict(LoopConfig())
        payload["verbosity"] = 3
        with pytest.raises(ValueError, match="verbosity"):
            config_from_dict(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"iterations": 1.5}, "loop config field 'iterations' must be an integer, got 1.5"),
            ({"seed": True}, "loop config field 'seed' must be an integer, got True"),
            ({"dim": "16"}, "loop config field 'dim' must be an integer"),
            ({"interval_deg": "30"}, "loop config field 'interval_deg' must be a number"),
            ({"update_fraction": [1]}, "loop config field 'update_fraction' must be a number"),
            ({"selection_policy": 1}, "loop config field 'selection_policy' must be a string"),
            ({"initial_distribution": 5}, "loop config field 'initial_distribution' must be an object"),
            ({"initial_distribution": {"kind": "spherical", "views_per_object": 2.5}},
             "initial_distribution field 'views_per_object' must be an integer"),
            ({"initial_distribution": {"kind": "aligned", "n": 3}}, "unknown initial_distribution keys: ['n']"),
            ({"initial_distribution": {"views_per_object": 24}}, "initial_distribution field 'kind' is required"),
            ({"initial_distribution": {"kind": "aligned", "views_per_object": 5}},
             "aligned distribution is a fixed 24-view pattern, got views_per_object=5"),
            ({"seed": -1}, "seed must be nonnegative, got -1"),
        ],
    )
    def test_fields_of_the_wrong_type_rejected(self, payload, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(payload)


class TestRunLoopStructure:
    def test_iteration_zero_is_the_initial_evaluation(self):
        corpus = make_corpus(3, dim=16, seed=1)
        rep = run_loop(corpus, small_config())
        for rec in rep.objects:
            first = rec["iterations"][0]
            assert first["iteration"] == 0
            assert first["updated"] is False
            assert first["selected"] == []
            assert first["pool_fallback"] is False
            assert first["view_count"] == 3

    def test_initial_views_are_strided_over_the_aligned_ring(self):
        corpus = make_corpus(1, dim=16, seed=1)
        rep = run_loop(corpus, small_config(iterations=0))
        got = rep.objects[0]["initial_views"]
        assert got == [
            {"yaw": -180.0, "pitch": 60.0},
            {"yaw": -60.0, "pitch": 60.0},
            {"yaw": 60.0, "pitch": 60.0},
        ]

    def test_view_counts_grow_by_views_per_round_when_updated(self):
        corpus = make_corpus(2, dim=16, seed=3)
        rep = run_loop(corpus, small_config(iterations=3))
        for rec in rep.objects:
            counts = [it["view_count"] for it in rec["iterations"]]
            assert counts[0] == 3
            for prev, nxt, it in zip(counts, counts[1:], rec["iterations"][1:]):
                assert nxt >= prev
                if it["updated"]:
                    assert nxt == prev + 3
                    assert len(it["selected"]) == 3

    def test_metrics_lie_in_unit_interval(self):
        corpus = make_corpus(3, dim=16, seed=5)
        rep = run_loop(corpus, small_config())
        for rec in rep.objects:
            for it in rec["iterations"]:
                assert 0.0 <= it["iou"] <= 1.0
                assert 0.0 <= it["f_score"] <= 1.0
                assert it["excess_voxels"] >= 0

    def test_update_fraction_quota_rule(self):
        # 5% of 20 objects rounds to exactly one update per iteration.
        corpus = make_corpus(20, dim=16, seed=2)
        rep = run_loop(corpus, small_config(update_fraction=0.05, iterations=2))
        for t in (1, 2):
            updated = sum(1 for rec in rep.objects if rec["iterations"][t]["updated"])
            assert updated == 1

    def test_update_fraction_one_updates_everyone(self):
        corpus = make_corpus(4, dim=16, seed=2)
        rep = run_loop(corpus, small_config(iterations=1))
        assert all(rec["iterations"][1]["updated"] for rec in rep.objects)

    def test_converged_objects_are_skipped(self):
        rep = run_loop([empty_object()], small_config())
        rec = rep.objects[0]
        assert all(it["converged"] for it in rec["iterations"])
        assert all(not it["updated"] for it in rec["iterations"])
        assert all(it["view_count"] == 3 for it in rec["iterations"])
        assert rep.aggregates["converged_objects"] == 1

    def test_iteration_on_converged_object_adds_nothing(self):
        # A centered box is exactly the intersection of its three axis-view
        # extrusions, so these observations leave zero reconstruction error.
        from voxsel.harness import ViewObservation, _ObjectState

        dim = 16
        vals = np.zeros((dim, dim, dim))
        vals[5:11, 5:11, 5:11] = 1.0
        obj = SceneObject(name="box", category="box", gt=VoxelGrid(vals))
        views = [Viewpoint(0.0, 0.0), Viewpoint(-90.0, 0.0), Viewpoint(0.0, 90.0)]
        obs = [ViewObservation(viewpoint=v, silhouette=render_silhouette(obj.gt, v, 0.4)) for v in views]
        state = _ObjectState(obj.gt, 0.4, np.random.default_rng(0))
        state.observe(obs)
        rec = run_object_iteration(obj, state, small_config(), ViewpointPool())
        assert rec == {"added": [], "pool_record": [], "pool_fallback": False, "converged": True}
        assert state.converged
        assert len(state.observations) == 3

    def test_rejects_bad_corpora(self):
        with pytest.raises(ValueError):
            run_loop([], small_config())
        with pytest.raises(ValueError):
            run_loop([empty_object(dim=8)], small_config())
        twin = make_corpus(1, dim=16, seed=0) * 2
        with pytest.raises(ValueError):
            run_loop(twin, small_config())

    def test_wall_clock_recorded_on_the_report_object(self):
        rep = run_loop(make_corpus(1, dim=16, seed=0), small_config(iterations=0))
        assert rep.wall_clock_s > 0.0


def assert_hull_is_carve(state, dim):
    # The hull's ids are the carve's, sorted, and the outside list holds
    # exactly the occupied voxels the carve drops.
    expected = carve(state.observations, dim).values.reshape(-1) > 0
    assert state.dim == dim
    assert np.array_equal(state.hull, np.flatnonzero(expected))
    assert np.array_equal(state.outside, np.flatnonzero(state.occ & ~expected))


def recorded_states(monkeypatch):
    """The ``_ObjectState`` of every object ``run_loop`` builds from now on, in the order built."""
    states = []

    class RecordedState(_ObjectState):
        def __post_init__(self):
            states.append(self)
            super().__post_init__()

    monkeypatch.setattr(harness, "_ObjectState", RecordedState)
    return states


class TestRunningHull:
    """The per-object hull always equals carving all of the object's observations."""

    def drive(self, config, initial_views, rounds=3, flip_prob=0.0):
        # ``flip_prob`` flips each initial silhouette pixel with that
        # probability, so the views disagree with the ground truth.
        pool = ViewpointPool(capacity=config.pool_capacity)
        flips = np.random.default_rng(4)
        # Two objects per category, so the second of each can draw pooled views.
        for obj in make_corpus(4, dim=config.dim, seed=5, kinds=["ell", "cross"]):
            obs = []
            for v in initial_views:
                pixels = render_silhouette(obj.gt, v, config.tau).pixels
                obs.append(ViewObservation(v, SilhouetteImage(pixels ^ (flips.random(pixels.shape) < flip_prob))))
            state = _ObjectState(obj.gt, config.tau, np.random.default_rng(1))
            state.observe(obs)
            assert_hull_is_carve(state, config.dim)
            for _ in range(rounds):
                rec = run_object_iteration(obj, state, config, pool)
                assert_hull_is_carve(state, config.dim)
                if rec["pool_record"]:
                    record(pool, obj.category, rec["pool_record"])

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("pool_mode", POOL_MODES)
    def test_after_every_iteration(self, policy, pool_mode):
        config = small_config(selection_policy=policy, pool_mode=pool_mode)
        self.drive(config, [Viewpoint(0.0, 0.0), Viewpoint(-90.0, 0.0)])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_with_noisy_silhouettes(self, policy):
        config = small_config(selection_policy=policy)
        self.drive(config, [Viewpoint(30.0, 20.0)], flip_prob=0.05)

    def test_with_repeated_views(self):
        # The fixed-lattice sweep starts at the lattice's first centers, which
        # are the initial views here, so every view of round one is a repeat.
        config = small_config(selection_policy="fixed-lattice")
        initial = list(discretize_viewpoints(config.interval_deg).centers[: config.views_per_round])
        self.drive(config, initial, rounds=1)

    def test_repeating_an_observation_changes_nothing(self):
        obj = make_corpus(1, dim=16, seed=2)[0]
        obs = ViewObservation(Viewpoint(40.0, 10.0), render_silhouette(obj.gt, Viewpoint(40.0, 10.0), 0.4))
        state = _ObjectState(obj.gt, 0.4, np.random.default_rng(0))
        state.observe([obs])
        before = state.hull.copy(), state.outside.copy()
        state.observe([obs])
        assert np.array_equal(state.hull, before[0]) and np.array_equal(state.outside, before[1])
        assert len(state.observations) == 2
        assert_hull_is_carve(state, 16)

    def test_rejects_a_silhouette_of_another_dim(self):
        obj = make_corpus(1, dim=16, seed=2)[0]
        state = _ObjectState(obj.gt, 0.4, np.random.default_rng(0))
        state.observe([ViewObservation(Viewpoint(0.0, 0.0), render_silhouette(obj.gt, Viewpoint(0.0, 0.0), 0.4))])
        before = state.hull.copy(), state.outside.copy()
        with pytest.raises(ValueError, match="do not match grid dim 16"):
            state.observe([ViewObservation(Viewpoint(0.0, 0.0), SilhouetteImage(np.zeros((8, 8), dtype=bool)))])
        assert len(state.observations) == 1
        assert np.array_equal(state.hull, before[0]) and np.array_equal(state.outside, before[1])

    def test_run_loop_carves_each_observation_once(self, monkeypatch):
        # First initial views and new views are carved by the one-pass
        # render and carve, the other initial views by carve;
        # between them, every observation once.
        by_carve, by_one_pass = [], []
        render_and_carve = harness._render_and_carve

        def counting_carve(observations, dim, **kw):
            by_carve.extend(obs.silhouette for obs in observations)
            return carve(observations, dim, **kw)

        def counting_render_and_carve(*args):
            passes = render_and_carve(*args)
            by_one_pass.extend(silhouette for silhouettes, _ in passes for silhouette in silhouettes)
            return passes

        monkeypatch.setattr(harness, "carve", counting_carve)
        monkeypatch.setattr(harness, "_render_and_carve", counting_render_and_carve)
        states = recorded_states(monkeypatch)
        config = small_config(iterations=2, update_fraction=1.0)
        rep = run_loop(make_corpus(3, dim=16, seed=1), config)
        carved = by_carve + by_one_pass
        assert by_carve and by_one_pass
        assert len(by_carve) == len(states) * (config.initial_views - 1)
        assert len(carved) == sum(obj["iterations"][-1]["view_count"] for obj in rep.objects)
        observed = [obs.silhouette for state in states for obs in state.observations]
        assert sorted(map(id, carved)) == sorted(map(id, observed))
        for state in states:
            assert_hull_is_carve(state, config.dim)

    @pytest.mark.parametrize("initial_views", [2, 3])
    @pytest.mark.parametrize("kind", ["aligned", "hemispherical", "spherical"])
    def test_each_initial_view_after_the_first_maps_the_hull_carved_before_it(self, monkeypatch, kind, initial_views):
        # The first initial view is cut from the whole cube; each later one
        # maps exactly the ids of the hull the views before it carved, each
        # once, and so never the whole cube.
        dim = 16
        mapped = MappedEntries(monkeypatch)
        observed = []

        class CheckedState(_ObjectState):
            def observe(self, new):
                before = carve(self.observations, dim).values.reshape(-1) > 0
                assert self.observations and np.array_equal(self.hull, np.flatnonzero(before))
                singles = [carve([obs], dim).values.reshape(-1) > 0 for obs in new]
                mapped.counts.clear()
                super().observe(new)
                for obs, single in zip(new, singles):
                    assert np.array_equal(mapped.of(dim, obs.viewpoint), before) and not before.all()
                    before = before & single
                assert len(mapped.counts) == len(new)
                observed.append(len(new))

        monkeypatch.setattr(harness, "_ObjectState", CheckedState)
        corpus = [corner_object(obj) for obj in make_corpus(3, dim=dim, seed=2)]
        distribution = ViewDistribution(kind) if kind == "aligned" else ViewDistribution(kind, 6)
        run_loop(corpus, small_config(initial_views=initial_views, initial_distribution=distribution))
        assert observed == [initial_views - 1] * len(corpus)

    @pytest.mark.parametrize("tau, soft", [(0.4, False), (0.6, True), (0.2, True)])
    def test_run_loop_observes_the_exact_silhouette_of_every_view(self, monkeypatch, tau, soft):
        # The first initial views and the new views come from the one-pass
        # render and carve, the other initial views from render_silhouette:
        # both give the exact silhouette of the ground truth at the loop's tau.
        states = recorded_states(monkeypatch)
        config = small_config(tau=tau, iterations=3)
        corpus = make_corpus(3, dim=config.dim, seed=5, kinds=["ell", "cross"])
        if soft:
            corpus = [soft_object(obj, k) for k, obj in enumerate(corpus)]
        rep = run_loop(corpus, config)
        for obj, rec, state in zip(corpus, rep.objects, states):
            views = [viewpoint_from_dict(d) for d in rec["initial_views"]]
            views += [viewpoint_from_dict(d) for it in rec["iterations"] for d in it["selected"]]
            assert len(views) == config.initial_views + config.iterations * config.views_per_round
            assert [obs.viewpoint for obs in state.observations] == views
            for obs in state.observations:
                assert np.array_equal(obs.silhouette.pixels, render_silhouette(obj.gt, obs.viewpoint, tau).pixels)
            assert_hull_is_carve(state, config.dim)



def soft_object(obj, seed):
    """``obj`` with soft ground truth: shape voxels in [0.5, 1), the rest in [0, 0.3)."""
    rng = np.random.default_rng(seed)
    bits = obj.gt.values > 0
    values = np.where(bits, rng.uniform(0.5, 1.0, bits.shape), rng.uniform(0.0, 0.3, bits.shape))
    return SceneObject(name=obj.name, category=obj.category, gt=VoxelGrid(values))


def corner_object(obj):
    """``obj`` with ground-truth voxels set at two cube corners, past the safe radius, so views carve them away."""
    values = obj.gt.values.copy()
    dim = values.shape[0]
    values[0, 0, 0] = values[dim - 1, dim - 1, 0] = 1.0
    return SceneObject(name=obj.name, category=obj.category, gt=VoxelGrid(values))


class TestIdHull:
    """The hull held as sorted voxel ids, beside the occupied voxels outside it."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind, tau", [("corners", 0.4), ("plain", 0.0), ("plain", 1.0), ("soft", 0.4)])
    def test_the_ids_equal_the_carve_after_every_round(self, monkeypatch, policy, kind, tau):
        states = recorded_states(monkeypatch)
        iterate = harness.run_object_iteration
        outside = []

        def checked(obj, state, config, pool):
            assert_hull_is_carve(state, config.dim)
            rec = iterate(obj, state, config, pool)
            assert_hull_is_carve(state, config.dim)
            outside.append(state.outside.size)
            return rec

        monkeypatch.setattr(harness, "run_object_iteration", checked)
        corpus = make_corpus(4, dim=16, seed=3)
        if kind == "corners":
            corpus = [corner_object(obj) for obj in corpus]
        elif kind == "soft":
            corpus = [soft_object(obj, k) for k, obj in enumerate(corpus)]
        run_loop(corpus, small_config(tau=tau, iterations=3, selection_policy=policy))
        assert len(states) == len(corpus) and outside
        for state in states:
            assert_hull_is_carve(state, 16)
        # Views carve the corner voxels away, and at tau 0 every voxel is occupied;
        # the generated shapes lie within the safe radius, so no view carves them.
        assert min(outside) > 0 if kind == "corners" or tau == 0.0 else max(outside) == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_each_selected_view_maps_the_hull_and_the_voxels_outside_it_once(self, monkeypatch, policy):
        mapped = MappedEntries(monkeypatch)
        one_pass = harness._observe_in_one_pass
        outside = []

        def counted(states, views):
            if not states[0].observations:  # a first initial view, cut from the whole cube
                return one_pass(states, views)
            # An object's round: all its selected views in one pass.
            [state] = states
            assert len(views) == 3
            expected = np.zeros(16**3, dtype=bool)
            expected[state.hull] = expected[state.outside] = True
            assert np.count_nonzero(expected) == state.hull.size + state.outside.size
            outside.append(state.outside.size)
            mapped.counts.clear()
            one_pass(states, views)
            for v in views:
                assert np.array_equal(mapped.of(16, v), expected)

        monkeypatch.setattr(harness, "_observe_in_one_pass", counted)
        corpus = [corner_object(obj) for obj in make_corpus(4, dim=16, seed=3)]
        run_loop(corpus, small_config(iterations=3, selection_policy=policy))
        assert len(outside) == 4 * 3 and min(outside) > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_round_longer_than_one_pass_is_carved_in_passes_of_at_most_the_checked_stack(
        self, monkeypatch, policy
    ):
        # A pass stacks at most _VIEWS_PER_PASS poses in one product, the
        # stacks TestBlasIdentity checks; a longer round takes several passes
        # and still equals its views carved one by one.
        states = recorded_states(monkeypatch)
        one_pass = harness._observe_in_one_pass
        passes = []

        def counted(states, views):
            if states[0].observations:
                passes.append(len(views))
            return one_pass(states, views)

        monkeypatch.setattr(harness, "_observe_in_one_pass", counted)
        n = 2 * harness._VIEWS_PER_PASS + 3
        corpus = [corner_object(obj) for obj in make_corpus(2, dim=16, seed=3)]
        rep = run_loop(corpus, small_config(views_per_round=n, selection_policy=policy))
        rounds = [len(it["selected"]) for rec in rep.objects for it in rec["iterations"] if it["selected"]]
        assert rounds and set(rounds) == {n}
        assert passes == [harness._VIEWS_PER_PASS, harness._VIEWS_PER_PASS, 3] * len(rounds)
        for state, obj in zip(states, corpus):
            assert_hull_is_carve(state, 16)
            for obs in state.observations:
                assert np.array_equal(obs.silhouette.pixels, render_silhouette(obj.gt, obs.viewpoint).pixels)

    def test_a_round_renders_and_carves_its_views_as_if_one_by_one(self, monkeypatch):
        # The corner voxels lie past the safe radius. The round's first view
        # carves both away; the second, a plain view down x, still renders
        # them, from the outside list, and they alone set two of its pixels.
        dim, tau = 16, 0.4
        gt = corner_object(make_corpus(1, dim=dim, seed=3)[0]).gt
        corners = np.ravel_multi_index(([0, dim - 1], [0, dim - 1], [0, 0]), (dim,) * 3)
        state = _ObjectState(gt, tau, np.random.default_rng(0))
        first = Viewpoint(90.0, 0.0)  # a quarter turn keeps the corners on the cube
        harness._observe_in_one_pass([state], [first])
        assert np.isin(corners, state.hull).all()
        views = [Viewpoint(45.0, 0.0), Viewpoint(0.0, 0.0), Viewpoint(100.0, 30.0)]
        carved_by_one = carve([ViewObservation(v, render_silhouette(gt, v, tau)) for v in (first, views[0])], dim)
        assert not carved_by_one.values.reshape(-1)[corners].any()
        expected = np.zeros(dim**3, dtype=bool)
        expected[state.hull] = expected[state.outside] = True
        mapped = MappedEntries(monkeypatch)
        harness._observe_in_one_pass([state], views)
        # The hull and the occupied voxels outside it, mapped once per pose of the round.
        for v in views:
            assert np.array_equal(mapped.of(dim, v), expected)
        assert mapped.most() == 1 and len(mapped.counts) == len(views)
        assert [obs.viewpoint for obs in state.observations] == [first, *views]
        for obs in state.observations:
            assert np.array_equal(obs.silhouette.pixels, render_silhouette(gt, obs.viewpoint, tau).pixels)
        without_corners = gt.values.copy()
        without_corners.reshape(-1)[corners] = 0.0
        lone = state.observations[2].silhouette.pixels & ~render_silhouette(VoxelGrid(without_corners), views[1]).pixels
        assert np.array_equal(np.argwhere(lone), [[0, 0], [dim - 1, 0]])
        # The hull is the carve of every observation, and the outside list the occupied voxels it drops.
        assert_hull_is_carve(state, dim)
        occ = gt.values.reshape(-1) >= tau
        assert np.array_equal(state.outside, np.setdiff1d(np.flatnonzero(occ), state.hull))
        assert np.isin(corners, state.outside).all()


    @pytest.mark.parametrize("tau", [0.0, 0.4, 1.0])
    def test_a_soft_error_from_the_ids_is_the_dense_error_bit_for_bit(self, monkeypatch, tau):
        # The soft error is gt with 1 - gt written at the hull's ids; the dense
        # |mask - gt| of the same hull must come out in the same bits. The
        # corner voxels are carved away, so the outside list is not empty.
        errors, expected, outside = [], [], []
        hot_voxels, iterate = harness._hot_voxels, harness.run_object_iteration

        def recording(error):
            errors.append(error.copy())
            return hot_voxels(error)

        def checked(obj, state, config, pool):
            mask = np.zeros(state.dim**3, dtype=bool)
            mask[state.hull] = True
            expected.append(np.abs(mask - obj.gt.values.ravel()))
            outside.append(state.outside.size)
            rec = iterate(obj, state, config, pool)
            assert len(errors) == len(expected)
            return rec

        monkeypatch.setattr(harness, "_hot_voxels", recording)
        monkeypatch.setattr(harness, "run_object_iteration", checked)
        corpus = [corner_object(soft_object(obj, k)) for k, obj in enumerate(make_corpus(4, dim=16, seed=3))]
        run_loop(corpus, small_config(tau=tau, iterations=3))
        assert len(errors) > 0 and min(outside) > 0
        for error, dense in zip(errors, expected):
            assert error.dtype == dense.dtype == np.float64
            assert np.array_equal(error.view(np.uint64), dense.view(np.uint64))


class TestLoopMetrics:
    """Every reported metric equals the grid metrics of carving the object's observations."""

    @pytest.mark.parametrize("tau, soft", [(0.0, False), (0.4, False), (1.0, False), (0.4, True)])
    def test_metrics_equal_those_of_carving_the_observations(self, tau, soft):
        corpus = make_corpus(4, dim=16, seed=3) + [empty_object()]
        if soft:
            corpus = [soft_object(obj, k) for k, obj in enumerate(corpus)]
        rep = run_loop(corpus, small_config(tau=tau, iterations=3))
        for rec, obj in zip(rep.objects, corpus):
            views = [viewpoint_from_dict(d) for d in rec["initial_views"]]
            gt_occ = threshold_grid(obj.gt, tau)
            for it in rec["iterations"]:
                views += [viewpoint_from_dict(d) for d in it["selected"]]
                hull = carve([ViewObservation(v, render_silhouette(obj.gt, v, tau)) for v in views], 16)
                pred_occ = threshold_grid(hull, tau)
                assert it["view_count"] == len(views)
                assert it["iou"] == iou(pred_occ, gt_occ)
                assert it["f_score"] == f_score(pred_occ, gt_occ)
                assert it["excess_voxels"] == int(np.logical_and(pred_occ.bits, ~gt_occ.bits).sum())
                assert it["converged"] == np.array_equal(hull.values, obj.gt.values)


class TestLoopWork:
    """What the loop builds per run and per selection."""

    @pytest.mark.parametrize("tau, soft", [(0.0, False), (0.4, False), (1.0, False), (0.4, True), (0.6, True)])
    def test_ground_truth_is_thresholded_once_per_object(self, monkeypatch, tau, soft):
        # One state per object, built from its own ground truth, whose occupancy is threshold_grid's bits.
        states = recorded_states(monkeypatch)
        corpus = make_corpus(3, dim=16, seed=1)
        if soft:
            corpus = [soft_object(obj, k) for k, obj in enumerate(corpus)]
        run_loop(corpus, small_config(tau=tau, iterations=3))
        assert [id(state.gt) for state in states] == [id(obj.gt) for obj in corpus]
        for state, obj in zip(states, corpus):
            assert np.array_equal(state.occ, threshold_grid(obj.gt, tau).bits.reshape(-1))

    def test_the_loop_builds_no_occupancy_set(self, monkeypatch):
        # Thresholding, rendering and evaluation all read flat masks and id lists.
        built = []
        post_init = grid.OccupancySet.__post_init__

        def counting(occ):
            built.append(occ)
            post_init(occ)

        monkeypatch.setattr(grid.OccupancySet, "__post_init__", counting)
        corpus = make_corpus(3, dim=16, seed=1)
        run_loop(corpus, small_config(iterations=3))
        assert built == []

    def test_objects_sharing_the_first_initial_pose_map_it_once(self, monkeypatch):
        # Every object's first initial view is carved out of the full cube
        # from the first aligned pose, in one pass for all three objects.
        mapped = MappedEntries(monkeypatch)
        config = small_config(iterations=2)
        rep = run_loop(make_corpus(3, dim=16, seed=1), config)
        first_pose = viewpoint_from_dict(rep.objects[0]["initial_views"][0])
        assert all(viewpoint_from_dict(obj["initial_views"][0]) == first_pose for obj in rep.objects)
        assert mapped.of(16, first_pose).max() == 1

    # Under these pool modes every update selects fresh views (pool-only
    # selects none once the pool can supply them all).
    @pytest.mark.parametrize("pool_mode", ["mixed", "fresh-only"])
    def test_each_error_guided_selection_scores_one_error_grid(self, monkeypatch, pool_mode):
        scored = []

        def recording(dim, hot, vals, lattice):
            # The loop's masks are binary: it passes the ids of its mismatch voxels, each once.
            assert vals is None and np.unique(hot).size == hot.size
            error = np.zeros(dim**3)
            error[hot] = 1.0
            scored.append(error.reshape(dim, dim, dim))
            return selection._lattice_totals(dim, hot, vals, lattice)

        monkeypatch.setattr(harness, "_lattice_totals", recording)
        corpus = make_corpus(4, dim=16, seed=1)
        rep = run_loop(corpus, small_config(iterations=3, pool_mode=pool_mode))
        selections = [(k, t) for t in range(1, 4) for k, obj in enumerate(rep.objects)
                      if obj["iterations"][t]["selected"]]
        assert len(scored) == len(selections) > 0
        # Each scored grid is |hull - gt| of the hull before that selection's views.
        for error, (k, t) in zip(scored, selections):
            obj, rec = corpus[k], rep.objects[k]
            views = [viewpoint_from_dict(d) for d in rec["initial_views"]]
            views += [viewpoint_from_dict(d) for it in rec["iterations"][:t] for d in it["selected"]]
            hull = carve([ViewObservation(v, render_silhouette(obj.gt, v, 0.4)) for v in views], 16)
            assert np.array_equal(error, np.abs(hull.values - obj.gt.values))


class TestLoopBehavior:
    def test_per_object_iou_never_decreases(self):
        corpus = make_corpus(6, dim=16, seed=11)
        for policy in POLICIES:
            rep = run_loop(corpus, small_config(iterations=3, selection_policy=policy))
            for rec in rep.objects:
                ious = [it["iou"] for it in rec["iterations"]]
                assert all(b >= a for a, b in zip(ious, ious[1:])), (policy, rec["name"])

    def test_sphere_iteration_regression(self):
        # One error-guided iteration on the reference sphere carves away
        # 176 excess voxels.
        gt = generate_shape(ShapeSpec("sphere", radius=10.0), 32, np.random.default_rng(1))
        obj = SceneObject(name="sphere-000", category="sphere", gt=gt)
        rep = run_loop([obj], LoopConfig(seed=7, iterations=1, update_fraction=1.0))
        first, second = rep.objects[0]["iterations"]
        assert (first["view_count"], second["view_count"]) == (3, 6)
        assert first["excess_voxels"] == 732
        assert second["excess_voxels"] == 556
        assert first["iou"] == pytest.approx(0.8523002421307506, rel=1e-12)
        assert second["iou"] == pytest.approx(0.8836820083682009, rel=1e-12)

    def test_random_policy_leaves_the_pool_empty(self):
        pool = ViewpointPool()
        run_loop(make_corpus(3, dim=16, seed=4), small_config(selection_policy="random"), pool=pool)
        assert pool.categories() == []

    def test_fixed_lattice_policy_leaves_the_pool_empty(self):
        pool = ViewpointPool()
        run_loop(
            make_corpus(3, dim=16, seed=4), small_config(selection_policy="fixed-lattice"), pool=pool
        )
        assert pool.categories() == []

    def test_error_guided_pool_holds_exactly_the_fresh_selections(self):
        pool = ViewpointPool()
        corpus = make_corpus(3, dim=16, seed=4)
        rep = run_loop(corpus, small_config(pool_mode="fresh-only"), pool=pool)
        selected = {}
        for rec in rep.objects:
            views = [
                Viewpoint(s["yaw"], s["pitch"])
                for it in rec["iterations"]
                for s in it["selected"]
            ]
            selected.setdefault(rec["category"], []).extend(views)
        for category, views in selected.items():
            assert sorted(pool.entries[category], key=lambda v: (v.yaw, v.pitch)) == sorted(
                views, key=lambda v: (v.yaw, v.pitch)
            ), category

    def test_pool_only_mode_falls_back_then_recovers(self):
        corpus = make_corpus(1, dim=16, seed=6)
        rep = run_loop(corpus, small_config(pool_mode="pool-only", iterations=2))
        its = rep.objects[0]["iterations"]
        assert its[1]["updated"]
        assert its[1]["pool_fallback"] is True
        assert len(its[1]["selected"]) == 3
        if its[2]["updated"]:
            assert its[2]["pool_fallback"] is False

    def test_fixed_lattice_walks_the_centers_round_robin(self):
        corpus = make_corpus(1, dim=16, seed=8)
        rep = run_loop(corpus, small_config(selection_policy="fixed-lattice", iterations=2))
        its = rep.objects[0]["iterations"]
        first = [(s["yaw"], s["pitch"]) for s in its[1]["selected"]]
        assert first == [(-165.0, -75.0), (-135.0, -75.0), (-105.0, -75.0)]
        if its[2]["updated"]:
            second = [(s["yaw"], s["pitch"]) for s in its[2]["selected"]]
            assert second == [(-75.0, -75.0), (-45.0, -75.0), (-15.0, -75.0)]


class TestReports:
    def test_reports_are_byte_identical_across_runs(self):
        cfg = small_config(iterations=2)
        a = report_json(run_loop(make_corpus(3, dim=16, seed=9), cfg))
        b = report_json(run_loop(make_corpus(3, dim=16, seed=9), cfg))
        assert a == b

    def test_report_json_is_canonical_and_excludes_wall_clock(self):
        rep = run_loop(make_corpus(1, dim=16, seed=0), small_config(iterations=0))
        text = report_json(rep)
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION == "v1"
        assert "wall_clock_s" not in text
        assert list(payload) == sorted(payload)
        assert set(payload) == {f.name for f in dataclasses.fields(RunReport)} - {"wall_clock_s"}
        assert payload["config"] == config_to_dict(small_config(iterations=0))

    def test_different_seeds_change_the_report(self):
        a = report_json(run_loop(make_corpus(2, dim=16, seed=0), small_config(seed=0)))
        b = report_json(run_loop(make_corpus(2, dim=16, seed=0), small_config(seed=1)))
        assert a != b


class TestBoundedMemory:
    def test_the_loop_lattice_table_holds_only_the_voxels_scored(self, monkeypatch):
        # The seed-0 C6 error-guided loop at dim 32 scores binary masks at an
        # even dim, so it fills the half table: one row of the 36 base-half
        # keys per distinct voxel it scored, in at most twice their bytes,
        # however large the cube, and no full table.
        dim = 32
        asked = np.zeros(dim**3, dtype=bool)

        def recording(dim, hot, vals, lattice):
            asked[hot] = True
            return selection._lattice_totals(dim, hot, vals, lattice)

        monkeypatch.setattr(harness, "_lattice_totals", recording)
        geometry._lattice_cell_keys.cache_clear()
        corpus = make_corpus(20, dim=dim, seed=0, kinds=("ell", "cross"))
        run_loop(corpus, LoopConfig(dim=dim, iterations=3, views_per_round=3, update_fraction=1.0, seed=0))
        assert geometry._lattice_cell_keys.cache_info().currsize == 1
        table = geometry._lattice_cell_keys(dim, discretize_viewpoints(30), half=True)
        distinct = int(asked.sum())
        assert 0 < distinct < dim**3 // 4
        assert table.rows.shape[1] == 36
        assert np.array_equal(table.slot > 0, asked)
        assert table.used - 1 == distinct
        assert table.rows.nbytes <= 2 * distinct * 36 * 4


ROOT = Path(__file__).resolve().parents[1]


def load_demo(name):
    path = ROOT / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSelectionGapDemo:
    def test_its_hooks_see_every_error_guided_selection(self):
        demo = load_demo("measure_selection_gap")
        corpus = make_corpus(2, dim=16, seed=0, kinds=("ell", "cross"))
        config = small_config(iterations=1, views_per_round=3)
        plain = run_loop(corpus, config)
        stats = dict.fromkeys(demo.STATS, 0)
        originals = (harness.run_object_iteration, harness._lattice_totals, harness._top_centers)
        with demo.guided_selection(stats, suppress=False):
            hooked = run_loop(corpus, config)
        assert (harness.run_object_iteration, harness._lattice_totals, harness._top_centers) == originals
        # Unsuppressed picks are the library's, so the run is unchanged.
        assert report_json(hooked) == report_json(plain)
        selections = sum(1 for obj in plain.objects for it in obj["iterations"] if it["selected"])
        assert stats["selections"] == selections == len(corpus)
        assert stats["cells"] == 72 * selections
        assert 0 < stats["picked_carvable"] <= stats["picked_total"]


class TestRecordedReports:
    """The loop's reports stay byte-identical to those the benchmark recorded.

    ``perfbench/workloads.py`` runs each loop workload's ``run_loop`` and
    records the SHA-256 of its ``report_json`` in ``perfbench/expected.json``.
    """

    @pytest.mark.parametrize("seed", [0, 1, 10])
    @pytest.mark.parametrize(
        "workload, policy, dim, objects",
        [("loop-guided-d32", "error-guided", 32, 20), ("loop-random-d32", "random", 32, 20),
         ("loop-guided-d64", "error-guided", 64, 4)],
    )
    def test_report_digest_matches_the_benchmark_record(self, workload, policy, dim, objects, seed):
        corpus = make_corpus(objects, dim=dim, seed=seed, kinds=("ell", "cross"))
        config = LoopConfig(
            dim=dim, iterations=3, views_per_round=3, update_fraction=1.0, selection_policy=policy, seed=seed
        )
        digest = hashlib.sha256(report_json(run_loop(corpus, config)).encode("utf-8")).hexdigest()
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
        assert digest == expected["full"][workload][str(seed)]["sha256"]


def pinned_corpus(kind):
    if kind == "converging":  # random views carve boxes exactly; the empty object converges at once
        return make_corpus(4, dim=16, seed=0, kinds=("box", "sphere")) + [empty_object()]
    if kind == "past-safe-radius":  # ground-truth voxels near the corners rotate off the cube and get carved
        rng = np.random.default_rng(11)
        grids = [rng.random((16,) * 3) < p for p in (0.02, 0.3)] + [np.pad(np.ones((14,) * 3), 1)]
        return [SceneObject(f"corner-{k}", "box", VoxelGrid(g)) for k, g in enumerate(grids)]
    corpus = make_corpus(4, dim=16, seed=3) + [empty_object()]
    return [soft_object(obj, k) for k, obj in enumerate(corpus)] if kind == "soft" else corpus


# Initial views other than the loop's default, over the default corpus.
PINNED_CONFIGS = {
    "hemispherical": {"initial_distribution": ViewDistribution("hemispherical")},
    "one-initial-view": {"initial_views": 1},
}


class TestPinnedReports:
    """Dim-16 reports over every ground-truth case the loop's masks distinguish, pinned to recorded bytes.

    Binary ground truth at tau 0 (every voxel occupied) and 1, soft ground
    truth (never converges) at tau 0.4 and 0, and at 0.6, where only part of
    each shape is occupied, under both the error-guided and the random
    policy, and a corpus whose objects converge during the run: under random
    views two boxes converge besides the empty object. Grids with voxels past ``safe_radius`` pin what the
    hulls lose of them. The two last rows pin how first initial views are
    grouped by pose: hemispherical initial views, where every object's first
    pose is its own, and a single initial view, where the loop never calls
    ``carve``.
    """

    @pytest.mark.parametrize(
        "kind, tau, policy, converged, sha256",
        [
            ("binary", 0.0, "error-guided", 0, "67196b5d01cea2038b46280b7d30ff16df888482dd53ab7d8044351f5bd99901"),
            ("binary", 1.0, "error-guided", 1, "771d15a6e83940b3846e581d3029937c2f9df9d8715f27ce96012d44a4e39c76"),
            ("soft", 0.4, "error-guided", 0, "b44084ea0a6e581db6517360d353cea7a171229106f8eaa2e5949c9c4d09384f"),
            ("soft", 0.0, "error-guided", 0, "21b701765ee30eb78e83492acf929ea48521a32ec1bd6a8ef2b8c3589209faea"),
            ("soft", 0.6, "error-guided", 0, "e2e3594ddecee6e63e6a7ccb9906cd0a330c5b3208396c7bb805ccb11df9dd7f"),
            ("soft", 0.6, "random", 0, "6c9bc51de5f7126ba68713f049f91e71d7d447a7213f662c1fec7e40e7160420"),
            ("converging", 0.4, "random", 3, "d809cf115230862e82005e6fec58963046622e8a324bcf982ae0d7ca3f4c1bc4"),
            ("converging", 0.4, "error-guided", 1, "46673869e78d44bbf6cfdd02c0f009c560c224dd8822fbecd9af1c2748bacf62"),
            ("past-safe-radius", 0.4, "error-guided", 0, "8b0ebebc79ecacb40d72f533e8bc47a0668c084e6d569e67e64d95473ef1be4d"),
            ("past-safe-radius", 0.4, "random", 0, "b18ed4a6e8a62398b38c363b05ae6285064f4abfd47c62e73e319cf352530fa7"),
            ("hemispherical", 0.4, "error-guided", 1, "e433ee8f487cec4d201a78a869e6223984cbe69fcb57a1cf14c46ae1c9a9ca78"),
            ("one-initial-view", 0.4, "random", 2, "5944eaa3aecce353a58211070747a0fd4a07709428af000b417fe44debba53e2"),
        ],
    )
    def test_report_digest(self, kind, tau, policy, converged, sha256):
        config = LoopConfig(
            dim=16, iterations=4, update_fraction=1.0, tau=tau, selection_policy=policy, seed=0,
            **PINNED_CONFIGS.get(kind, {}),
        )
        report = run_loop(pinned_corpus(kind), config)
        assert report.aggregates["converged_objects"] == converged
        assert hashlib.sha256(report_json(report).encode("utf-8")).hexdigest() == sha256


@pytest.fixture(scope="module")
def sphere_corpus():
    return [
        SceneObject(
            name=f"sphere-{i:03d}",
            category="sphere",
            gt=generate_shape(ShapeSpec("sphere"), 32, np.random.default_rng(100 + i)),
        )
        for i in range(6)
    ]


class TestComparePolicies:
    def test_zero_iterations_make_all_policies_equal(self, sphere_corpus):
        # With no updates all policies see only the shared initial views.
        cmp = compare_policies(sphere_corpus, LoopConfig(seed=5, iterations=0))
        finals = {cmp["policies"][p]["final_mean_iou"] for p in POLICIES}
        assert len(finals) == 1
        assert finals.pop() == pytest.approx(0.8387133097003111, rel=1e-12)

    def test_sphere_corpus_keeps_policies_close(self, sphere_corpus):
        # Spheres look alike from everywhere; the frozen spread is 0.0265.
        cmp = compare_policies(sphere_corpus, LoopConfig(seed=5, iterations=3, update_fraction=1.0))
        finals = [cmp["policies"][p]["final_mean_iou"] for p in POLICIES]
        assert max(finals) - min(finals) < 0.05

    def test_deltas_match_the_policy_numbers(self):
        corpus = make_corpus(3, dim=16, seed=7)
        cmp = compare_policies(corpus, small_config(iterations=1))
        eg = cmp["policies"]["error-guided"]["final_mean_iou"]
        assert cmp["deltas"]["error_guided_minus_random"] == pytest.approx(
            eg - cmp["policies"]["random"]["final_mean_iou"]
        )
        assert cmp["deltas"]["error_guided_minus_fixed_lattice"] == pytest.approx(
            eg - cmp["policies"]["fixed-lattice"]["final_mean_iou"]
        )

    def test_comparison_json_canonical(self):
        corpus = make_corpus(2, dim=16, seed=3)
        cmp = compare_policies(corpus, small_config(iterations=0))
        text = comparison_json(cmp)
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["schema_version"] == "v1"
        assert set(payload["policies"]) == set(POLICIES)

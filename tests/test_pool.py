"""Per-category viewpoint pool: recording and sampling."""

import numpy as np
import pytest

from voxsel.geometry import Viewpoint
from voxsel.pool import (
    DEFAULT_POOL_CAPACITY,
    EmptyCategoryError,
    ViewpointPool,
    record,
    sample_by_category,
)


def vp(k):
    return Viewpoint(yaw=-165.0 + 30.0 * k, pitch=-75.0 + 15.0 * (k % 10))


class TestRecord:
    def test_first_record_creates_the_category(self):
        pool = ViewpointPool()
        record(pool, "chair", [vp(0), vp(1), vp(2)])
        assert pool.size("chair") == 3
        assert pool.categories() == ["chair"]

    def test_records_append_in_insertion_order(self):
        pool = ViewpointPool()
        record(pool, "chair", [vp(0), vp(1), vp(2)])
        record(pool, "chair", [vp(3), vp(4), vp(5)])
        assert pool.size("chair") == 6
        assert pool.entries["chair"] == [vp(k) for k in range(6)]

    def test_capacity_evicts_oldest_first(self):
        pool = ViewpointPool(capacity=4)
        record(pool, "chair", [vp(k) for k in range(6)])
        assert pool.size("chair") == 4
        assert pool.entries["chair"] == [vp(2), vp(3), vp(4), vp(5)]

    def test_default_capacity(self):
        assert ViewpointPool().capacity == DEFAULT_POOL_CAPACITY == 1024

    def test_empty_category_name_rejected(self):
        with pytest.raises(ValueError):
            record(ViewpointPool(), "", [vp(0)])

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            ViewpointPool(capacity=0)

    def test_viewpoints_stored_unmodified(self):
        pool = ViewpointPool()
        views = [Viewpoint(12.25, -33.5), Viewpoint(-91.0, 64.125)]
        record(pool, "lamp", views)
        assert pool.entries["lamp"] == views


class TestSample:
    def test_single_entry_repeats(self):
        pool = ViewpointPool()
        record(pool, "chair", [vp(7)])
        draws = sample_by_category(pool, "chair", 5, np.random.default_rng(0))
        assert draws == [vp(7)] * 5

    def test_fixed_seed_gives_identical_draws(self):
        pool = ViewpointPool()
        record(pool, "chair", [vp(k) for k in range(6)])
        a = sample_by_category(pool, "chair", 20, np.random.default_rng(3))
        b = sample_by_category(pool, "chair", 20, np.random.default_rng(3))
        assert a == b

    def test_unknown_category_raises_fallback_signal(self):
        pool = ViewpointPool()
        record(pool, "chair", [vp(0)])
        with pytest.raises(EmptyCategoryError):
            sample_by_category(pool, "table", 1, np.random.default_rng(0))

    def test_cross_category_isolation(self):
        pool = ViewpointPool()
        chairs = [vp(0), vp(1)]
        tables = [vp(5), vp(6), vp(7)]
        record(pool, "chair", chairs)
        record(pool, "table", tables)
        rng = np.random.default_rng(1)
        assert set(sample_by_category(pool, "chair", 50, rng)) <= set(chairs)
        assert set(sample_by_category(pool, "table", 50, rng)) <= set(tables)

    def test_draw_frequencies_are_uniform(self):
        # 10k draws over 4 entries: each frequency within 4% absolute of 25%
        # (measured 0.19% worst case for this generator stream).
        pool = ViewpointPool()
        views = [vp(0), vp(1), vp(2), vp(3)]
        record(pool, "chair", views)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2026)))
        draws = sample_by_category(pool, "chair", 10_000, rng)
        for v in views:
            freq = draws.count(v) / 10_000
            assert abs(freq - 0.25) < 0.04

    def test_negative_count_rejected(self):
        pool = ViewpointPool()
        record(pool, "chair", [vp(0)])
        with pytest.raises(ValueError):
            sample_by_category(pool, "chair", -1, np.random.default_rng(0))

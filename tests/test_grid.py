"""Voxel grid container, thresholding, error grids, and metrics."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voxsel.grid import (
    DEFAULT_THRESHOLD,
    OccupancySet,
    VoxelGrid,
    error_grid,
    f_score,
    iou,
    threshold_grid,
)
from voxsel.selection import ErrorProjectionMap
from voxsel.synthesis import SilhouetteImage


def grid_of(values):
    return VoxelGrid(np.asarray(values, dtype=np.float64))


def occ_of(bits):
    return OccupancySet(np.asarray(bits, dtype=bool))


value_grids = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


class TestVoxelGrid:
    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            VoxelGrid(np.zeros((4, 4)))

    def test_rejects_an_empty_axis(self):
        with pytest.raises(ValueError, match=r"VoxelGrid values must be 3-D with positive dims, got shape \(4, 0, 4\)"):
            VoxelGrid(np.zeros((4, 0, 4)))

    def test_rejects_out_of_range_values(self):
        bad = np.zeros((2, 2, 2))
        for value in (1.5, 1.1, -0.1):
            bad[0, 0, 0] = value
            with pytest.raises(ValueError):
                VoxelGrid(bad)

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2, 2))
        for value in (np.nan, np.inf):
            bad[1, 1, 1] = value
            with pytest.raises(ValueError):
                VoxelGrid(bad)

    def test_values_are_read_only(self):
        g = VoxelGrid.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            g.values[0, 0, 0] = 1.0

    def test_constructor_copies_input(self):
        src = np.zeros((2, 2, 2))
        g = VoxelGrid(src)
        src[0, 0, 0] = 1.0
        assert g.values[0, 0, 0] == 0.0

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (8, 8, 8)])
    def test_a_bool_grid_equals_its_float_grid(self, dims):
        bits = np.random.default_rng(sum(dims)).random(dims) < 0.5
        g = VoxelGrid(bits)
        assert g.values.dtype == np.float64
        assert np.array_equal(g.values, VoxelGrid(bits.astype(float)).values)
        with pytest.raises(ValueError):
            g.values[0, 0, 0] = 1.0
        bits[0, 0, 0] = not bits[0, 0, 0]
        assert g.values[0, 0, 0] != bits[0, 0, 0]


class TestOccupancySet:
    def test_rejects_non_bool(self):
        with pytest.raises(ValueError):
            OccupancySet(np.zeros((2, 2, 2), dtype=np.float64))

    @pytest.mark.parametrize("shape", [(4, 4), (4, 0, 4)])
    def test_rejects_non_3d_or_an_empty_axis(self, shape):
        with pytest.raises(ValueError, match="3-D with positive dims"):
            OccupancySet(np.zeros(shape, dtype=bool))

    def test_count(self):
        bits = np.zeros((3, 3, 3), dtype=bool)
        bits[0, 1, 2] = True
        bits[2, 2, 2] = True
        assert occ_of(bits).count == 2



def with_entry(shape, value):
    arr = np.zeros(shape)
    arr.flat[-1] = value
    return arr


# The contract every frozen container shares: a read-only copy of its array with its number of positive dims,
# bool bits or finite values in [0, 1]. Only the cases the per-container tests leave out are listed. Bits are
# copied in C order from a source of any layout (the CLI reads them in Fortran order from its files).
@pytest.mark.parametrize(
    "container, source, message",
    [
        (OccupancySet, np.asfortranarray(np.arange(24).reshape(2, 3, 4) % 3 == 0), None),
        (SilhouetteImage, np.asfortranarray(np.eye(3, dtype=bool)[:, :2]), None),
        (OccupancySet, np.ones((2, 2, 2), dtype=np.uint8), "OccupancySet bits must be boolean, got uint8"),
        (SilhouetteImage, np.ones((2, 2), dtype=np.uint8), "SilhouetteImage pixels must be boolean, got uint8"),
        (ErrorProjectionMap, np.zeros((2, 0)),
         "ErrorProjectionMap pixels must be 2-D with positive dims, got shape (2, 0)"),
        (ErrorProjectionMap, with_entry((2, 2), np.nan), "ErrorProjectionMap pixels must be finite"),
        (ErrorProjectionMap, with_entry((2, 2), np.inf), "ErrorProjectionMap pixels must be finite"),
        (ErrorProjectionMap, with_entry((2, 2), -0.1), "ErrorProjectionMap pixels must lie in [0, 1]"),
    ],
)
def test_a_frozen_container_stores_a_read_only_copy_of_a_valid_array(container, source, message):
    if message is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            container(source)
        return
    stored = getattr(container(source), dataclasses.fields(container)[0].name)
    assert stored.dtype == source.dtype and np.array_equal(stored, source)
    assert stored.flags.c_contiguous and not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0, 0] = ~stored[0, 0]
    source[...] = ~source
    assert np.array_equal(stored, ~source)


class TestThreshold:
    def test_default_threshold_value(self):
        assert DEFAULT_THRESHOLD == 0.4

    def test_boundary_is_inclusive(self):
        g = grid_of(np.full((1, 1, 1), 0.4))
        assert threshold_grid(g, 0.4).count == 1

    def test_below_boundary_excluded(self):
        g = grid_of(np.full((1, 1, 1), 0.39999))
        assert threshold_grid(g, 0.4).count == 0

    def test_rejects_out_of_range_tau(self):
        g = VoxelGrid.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            threshold_grid(g, 1.5)
        with pytest.raises(ValueError):
            threshold_grid(g, -0.1)

    @given(value_grids, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_tau(self, vals, t1, t2):
        # tau1 <= tau2 implies set(tau2) is a subset of set(tau1)
        lo, hi = min(t1, t2), max(t1, t2)
        g = VoxelGrid(vals)
        big = threshold_grid(g, lo).bits
        small = threshold_grid(g, hi).bits
        assert np.all(big | ~small)


class TestErrorGrid:
    def test_agreement_gives_zero(self):
        g = grid_of(np.full((2, 2, 2), 0.7))
        assert error_grid(g, g).values.max() == 0.0

    def test_binary_difference(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        a[0, 0, 0] = 1.0
        b[1, 1, 1] = 1.0
        e = error_grid(grid_of(a), grid_of(b))
        assert e.values[0, 0, 0] == 1.0
        assert e.values[1, 1, 1] == 1.0
        assert e.values.sum() == 2.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_grid(VoxelGrid.zeros((2, 2, 2)), VoxelGrid.zeros((3, 3, 3)))

    @given(value_grids)
    def test_symmetry(self, vals):
        g = VoxelGrid(vals)
        h = VoxelGrid(np.flip(vals, axis=0).copy())
        assert np.array_equal(error_grid(g, h).values, error_grid(h, g).values)


def random_pair(seed, dims=(4, 4, 4), p=0.5):
    rng = np.random.default_rng(seed)
    return (
        OccupancySet(rng.random(dims) < p),
        OccupancySet(rng.random(dims) < p),
    )


class TestMetrics:
    def test_iou_identical_sets(self):
        a, _ = random_pair(0)
        assert iou(a, a) == 1.0

    def test_iou_disjoint_sets(self):
        bits_a = np.zeros((2, 2, 2), dtype=bool)
        bits_b = np.zeros((2, 2, 2), dtype=bool)
        bits_a[0, 0, 0] = True
        bits_b[1, 1, 1] = True
        assert iou(occ_of(bits_a), occ_of(bits_b)) == 0.0

    def test_iou_partial_overlap(self):
        # |pred| = 8, |gt| = 8, |inter| = 4: iou = 4/12
        bits_a = np.zeros((4, 4, 4), dtype=bool)
        bits_b = np.zeros((4, 4, 4), dtype=bool)
        bits_a[0, 0, :4] = True
        bits_a[1, 0, :4] = True
        bits_b[1, 0, :4] = True
        bits_b[2, 0, :4] = True
        assert iou(occ_of(bits_a), occ_of(bits_b)) == pytest.approx(4 / 12)

    def test_iou_empty_empty_is_one(self):
        e = OccupancySet(np.zeros((2, 2, 2), dtype=bool))
        assert iou(e, e) == 1.0

    def test_f_score_identical(self):
        a, _ = random_pair(1)
        assert f_score(a, a) == 1.0

    def test_f_score_precision_half_recall_one(self):
        # pred covers gt plus as much again: precision 0.5, recall 1 -> 2/3
        bits_gt = np.zeros((4, 4, 4), dtype=bool)
        bits_gt[:2, 0, 0] = True
        bits_pred = bits_gt.copy()
        bits_pred[2:4, 0, 0] = True
        assert f_score(occ_of(bits_pred), occ_of(bits_gt)) == pytest.approx(2 / 3)

    def test_f_score_empty_pred(self):
        gt = OccupancySet(np.ones((2, 2, 2), dtype=bool))
        empty = OccupancySet(np.zeros((2, 2, 2), dtype=bool))
        assert f_score(empty, gt) == 0.0

    def test_f_score_empty_empty_is_one(self):
        e = OccupancySet(np.zeros((2, 2, 2), dtype=bool))
        assert f_score(e, e) == 1.0

    @given(st.integers(0, 200))
    def test_iou_at_most_f_score(self, seed):
        # F = 2J/(1+J) >= J for J in [0, 1]
        a, b = random_pair(seed)
        assert iou(a, b) <= f_score(a, b) + 1e-12

    @given(st.integers(0, 200))
    def test_metric_ranges(self, seed):
        a, b = random_pair(seed)
        assert 0.0 <= iou(a, b) <= 1.0
        assert 0.0 <= f_score(a, b) <= 1.0

    def test_scores_equal_the_set_formulas(self):
        empty, full = (OccupancySet(np.full((5, 4, 3), v)) for v in (False, True))
        some, _ = random_pair(9, dims=(5, 4, 3))
        pairs = [(empty, empty), (empty, full), (full, empty), (some, OccupancySet(~some.bits))]
        pairs += [random_pair(seed, dims=(5, 4, 3), p=0.1 + 0.2 * seed) for seed in range(5)]
        for a, b in pairs:
            inter = int(np.logical_and(a.bits, b.bits).sum())
            union = int(np.logical_or(a.bits, b.bits).sum())
            n_a, n_b = int(a.bits.sum()), int(b.bits.sum())
            assert iou(a, b) == (inter / union if union else 1.0)
            if n_a and n_b:
                precision, recall = inter / n_a, inter / n_b
                expected_f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
            else:
                expected_f = 0.0 if n_a or n_b else 1.0
            assert f_score(a, b) == expected_f

    def test_dim_mismatch_rejected(self):
        a = OccupancySet(np.zeros((2, 2, 2), dtype=bool))
        b = OccupancySet(np.zeros((3, 3, 3), dtype=bool))
        with pytest.raises(ValueError):
            iou(a, b)
        with pytest.raises(ValueError):
            f_score(a, b)

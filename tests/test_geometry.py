"""Viewpoint algebra, lattice discretization, and grid rotation."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxsel import geometry
from voxsel.geometry import (
    Viewpoint,
    ViewpointLattice,
    cell_keys,
    clamp_pitch,
    discretize_viewpoints,
    lattice_cell_keys,
    pixel_ids,
    rotate_grid,
    rotated_cells,
    rotation_matrix,
    sample_gaussian_view,
    view_direction,
    wrap_yaw,
)
from voxsel.grid import VoxelGrid
from voxsel.synthesis import ViewDistribution, sample_dataset_viewpoints

from .mapping_counts import MappedEntries
from .oracles import (
    forward_visible_count,
    quarter_turn_matrix,
    quarter_turn_rotate,
    reference_rotation,
)

yaw_floats = st.floats(-720.0, 720.0, allow_nan=False)
pitch_floats = st.floats(-90.0, 90.0, allow_nan=False)

# Voxel columns times poses per forward-map product, and the most views one pass stacks.
ENTRIES = geometry._ENTRIES_PER_PRODUCT
PASS_POSES = geometry._POSES_PER_PASS

# All 90-degree-multiple viewpoints in the canonical domain:
# yaw in {-180, -90, 0, 90}, pitch in {-90, 0, 90}.
QUARTER_TURN_VIEWS = [
    (yaw, pitch) for yaw in (-180.0, -90.0, 0.0, 90.0) for pitch in (-90.0, 0.0, 90.0)
]


def quarters(deg):
    q = round(deg / 90.0)
    assert q * 90.0 == deg
    return q


class TestAngles:
    def test_wrap_examples(self):
        assert wrap_yaw(185.0) == -175.0
        assert wrap_yaw(-185.0) == 175.0
        assert wrap_yaw(180.0) == -180.0
        assert wrap_yaw(-180.0) == -180.0
        assert wrap_yaw(0.0) == 0.0
        assert wrap_yaw(360.0) == 0.0

    def test_clamp_examples(self):
        assert clamp_pitch(95.0) == 90.0
        assert clamp_pitch(-95.0) == -90.0
        assert clamp_pitch(45.0) == 45.0

    @given(yaw_floats)
    def test_wrap_range(self, yaw):
        assert -180.0 <= wrap_yaw(yaw) < 180.0


class TestViewpoint:
    def test_normalizes_on_construction(self):
        v = Viewpoint(yaw=185.0, pitch=95.0)
        assert v.yaw == -175.0
        assert v.pitch == 90.0
        assert v.roll == 0.0

    def test_equal_orientations_compare_equal(self):
        assert Viewpoint(190.0, 30.0) == Viewpoint(-170.0, 30.0)

    def test_rejects_nonzero_roll(self):
        with pytest.raises(ValueError):
            Viewpoint(0.0, 0.0, roll=5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Viewpoint(math.nan, 0.0)
        with pytest.raises(ValueError):
            Viewpoint(0.0, math.inf)


class TestRotationMatrix:
    def test_identity_at_origin(self):
        assert np.allclose(rotation_matrix(Viewpoint(0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_yaw_quarter_turn_maps_x_to_y(self):
        r = rotation_matrix(Viewpoint(90.0, 0.0))
        assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_pitch_quarter_turn_maps_x_to_minus_z(self):
        r = rotation_matrix(Viewpoint(0.0, 90.0))
        assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], atol=1e-15)

    @given(yaw_floats, pitch_floats)
    def test_orthonormal_with_unit_determinant(self, yaw, pitch):
        r = rotation_matrix(Viewpoint(yaw, pitch))
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    @given(yaw_floats, pitch_floats)
    def test_matches_trig_reference(self, yaw, pitch):
        v = Viewpoint(yaw, pitch)
        assert np.allclose(rotation_matrix(v), reference_rotation(v.yaw, v.pitch), atol=1e-12)

    def test_quarter_turns_match_integer_oracle(self):
        for yaw, pitch in QUARTER_TURN_VIEWS:
            r = rotation_matrix(Viewpoint(yaw, pitch))
            expect = quarter_turn_matrix(quarters(yaw), quarters(pitch))
            assert np.allclose(r, expect, atol=1e-15), (yaw, pitch)

    def test_twelve_distinct_quarter_turn_matrices(self):
        mats = {
            tuple(np.rint(rotation_matrix(Viewpoint(yaw, pitch))).astype(int).ravel())
            for yaw, pitch in QUARTER_TURN_VIEWS
        }
        assert len(mats) == 12


class TestViewDirection:
    def test_points_opposite_the_sweep_row(self):
        v = Viewpoint(37.0, -12.0)
        assert np.allclose(view_direction(v), -rotation_matrix(v)[0, :])

    def test_axis_anchors(self):
        # Rays of (0, 0) travel +x, so the camera sits on the -x side; a
        # -90 yaw sends rays along +y, putting the camera at -y.
        assert np.allclose(view_direction(Viewpoint(0.0, 0.0)), [-1.0, 0.0, 0.0])
        assert np.allclose(view_direction(Viewpoint(-90.0, 0.0)), [0.0, -1.0, 0.0], atol=1e-15)
        assert np.allclose(view_direction(Viewpoint(0.0, 90.0)), [0.0, 0.0, -1.0], atol=1e-15)

    @given(yaw_floats, pitch_floats)
    def test_unit_norm(self, yaw, pitch):
        assert abs(np.linalg.norm(view_direction(Viewpoint(yaw, pitch))) - 1.0) <= 1e-12

    def test_antipodal_direction_shifts_yaw_half_turn(self):
        # dir(yaw + 180, pitch) == -dir(yaw, pitch): antipodes share a pitch bucket.
        for yaw, pitch in [(-165.0, -75.0), (15.0, 45.0), (120.0, -30.0)]:
            a = view_direction(Viewpoint(yaw, pitch))
            b = view_direction(Viewpoint(yaw + 180.0, pitch))
            assert np.allclose(a, -b, atol=1e-12)


class TestLattice:
    def test_k30_shape_and_first_center(self):
        lat = discretize_viewpoints(30)
        assert (lat.n_yaw, lat.n_pitch) == (12, 6)
        assert len(lat.centers) == 72
        assert lat.centers[0] == Viewpoint(-165.0, -75.0)

    def test_k90_has_eight_centers(self):
        lat = discretize_viewpoints(90)
        assert (lat.n_yaw, lat.n_pitch) == (4, 2)
        assert len(lat.centers) == 8

    def test_k15_has_288_centers(self):
        lat = discretize_viewpoints(15)
        assert len(lat.centers) == 24 * 12 == 288

    def test_fractional_interval_accepted(self):
        lat = discretize_viewpoints(22.5)
        assert (lat.n_yaw, lat.n_pitch) == (16, 8)

    def test_cached_per_interval(self):
        assert discretize_viewpoints(30) is discretize_viewpoints(30)

    def test_determined_by_its_interval(self):
        lat, cached = ViewpointLattice(30), discretize_viewpoints(30)
        assert lat == cached and hash(lat) == hash(cached)
        assert lat.interval_deg == 30.0 and lat.centers == cached.centers

    def test_derived_fields_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            ViewpointLattice(30.0, 3, 1, ())

    @pytest.mark.parametrize("bad", [0, -30, 50, 75, 7, 360.5, pytest.param(10**400, id="int-past-float")])
    def test_non_divisors_rejected(self, bad):
        with pytest.raises(ValueError):
            discretize_viewpoints(bad)
        with pytest.raises(ValueError):
            ViewpointLattice(bad)

    @pytest.mark.parametrize("fine", [0.5, 0.01, 2**-10])
    def test_sub_degree_intervals_rejected_before_building(self, fine):
        # 0.5 divides 360 and 180; 0.01 would build 648,000,000 centers.
        with pytest.raises(ValueError, match="at least 1 degree"):
            discretize_viewpoints(fine)
        with pytest.raises(ValueError, match="at least 1 degree"):
            ViewpointLattice(fine)

    def test_yaw_index_varies_fastest(self):
        lat = discretize_viewpoints(30)
        assert lat.centers[1] == Viewpoint(-135.0, -75.0)
        assert lat.centers[12] == Viewpoint(-165.0, -45.0)
        for k, v in enumerate(lat.centers):
            i, j = lat.lattice_index(k)
            assert lat.center_at(i, j) == v
            assert v.yaw == -180.0 + (i + 0.5) * 30.0
            assert v.pitch == -90.0 + (j + 0.5) * 30.0

    @pytest.mark.parametrize("index", [(-1, 0), (12, 0), (0, -1), (0, 6)])
    def test_center_at_rejects_an_index_off_the_lattice(self, index):
        with pytest.raises(IndexError, match="out of range"):
            discretize_viewpoints(30).center_at(*index)


def random_grid(dim, seed, p=0.3):
    rng = np.random.default_rng(seed)
    return VoxelGrid((rng.random((dim, dim, dim)) < p).astype(np.float64))


class TestRotateGrid:
    def test_identity_view_is_exact(self):
        g = random_grid(9, 0)
        assert np.array_equal(rotate_grid(g, Viewpoint(0.0, 0.0)).values, g.values)

    def test_center_voxel_is_fixed_point_odd_dim(self):
        vals = np.zeros((9, 9, 9))
        vals[4, 4, 4] = 1.0
        g = VoxelGrid(vals)
        for yaw, pitch in [(33.0, -71.0), (-165.0, -75.0), (90.0, 45.0)]:
            out = rotate_grid(g, Viewpoint(yaw, pitch))
            assert out.values[4, 4, 4] == 1.0
            assert out.values.sum() == 1.0

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError):
            rotate_grid(VoxelGrid.zeros((4, 4, 5)), Viewpoint(0.0, 0.0))

    @pytest.mark.parametrize("dim", [7, 8])
    def test_quarter_turns_match_permutation_oracle(self, dim):
        # Exact axis permutation/flip, both grid parities, all 12 views.
        for seed in range(5):
            g = random_grid(dim, seed)
            for yaw, pitch in QUARTER_TURN_VIEWS:
                out = rotate_grid(g, Viewpoint(yaw, pitch))
                expect = quarter_turn_rotate(g.values, quarters(yaw), quarters(pitch))
                assert np.array_equal(out.values, expect), (dim, seed, yaw, pitch)

    def test_quarter_turns_preserve_count_exactly(self):
        g = random_grid(8, 3)
        n = np.count_nonzero(g.values)
        for yaw, pitch in QUARTER_TURN_VIEWS:
            assert np.count_nonzero(rotate_grid(g, Viewpoint(yaw, pitch)).values) == n

    @given(st.integers(0, 30), st.sampled_from([4, 8, 12, 16]), yaw_floats, pitch_floats)
    @settings(max_examples=40, deadline=None)
    def test_count_bounded_by_forward_map_oracle(self, seed, dim, yaw, pitch):
        # Collisions may merge sources, so the rotated count never exceeds
        # the number of occupied sources whose centers stay inside the cube.
        g = random_grid(dim, seed)
        v = Viewpoint(yaw, pitch)
        out = rotate_grid(g, v)
        bound = forward_visible_count(g.values, rotation_matrix(v))
        assert np.count_nonzero(out.values) <= bound
        assert bound <= np.count_nonzero(g.values)

    def test_preserves_value_range_and_set(self):
        rng = np.random.default_rng(11)
        vals = rng.random((8, 8, 8)) * (rng.random((8, 8, 8)) < 0.3)
        g = VoxelGrid(vals)
        out = rotate_grid(g, Viewpoint(40.0, -20.0))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0
        assert set(np.unique(out.values)) <= set(np.unique(vals)) | {0.0}

    def test_collisions_keep_maximum_value(self):
        # Two sources forced onto one target cell by a near-45-degree yaw.
        vals = np.zeros((8, 8, 8))
        v = Viewpoint(45.0, 0.0)
        cells, inside = rotated_cells(8, v)
        flat = cells[inside][:, 0] * 64 + cells[inside][:, 1] * 8 + cells[inside][:, 2]
        targets, counts = np.unique(flat, return_counts=True)
        shared = targets[counts >= 2][0]
        idx = np.flatnonzero(inside)[flat == shared][:2]
        src = np.unravel_index(idx, (8, 8, 8))
        vals[src[0][0], src[1][0], src[2][0]] = 0.3
        vals[src[0][1], src[1][1], src[2][1]] = 0.9
        out = rotate_grid(VoxelGrid(vals), v)
        tx, ty, tz = np.unravel_index(shared, (8, 8, 8))
        assert out.values[tx, ty, tz] == 0.9

    def test_corner_content_clipped_off_cube(self):
        vals = np.zeros((8, 8, 8))
        vals[0, 0, 0] = 1.0
        out = rotate_grid(VoxelGrid(vals), Viewpoint(45.0, 0.0))
        assert out.values.sum() == 0.0

    def test_z_symmetric_grids_repeat_under_antipodal_pitch_flip(self):
        # R(yaw+180, -pitch) = R(yaw, pitch) @ Rz(180), and Rz(180) is an
        # exact index map (x, y -> flipped), so a grid invariant under it
        # yields byte-identical rotations from those two viewpoints. This is
        # why axially symmetric scenes tie across +-pitch buckets.
        for seed, (yaw, pitch) in enumerate([(-165.0, 75.0), (30.0, -45.0), (110.0, 15.0)]):
            raw = random_grid(9, seed).values
            vals = np.maximum(raw, raw[::-1, ::-1, :])
            g = VoxelGrid(vals)
            a = rotate_grid(g, Viewpoint(yaw, pitch)).values
            b = rotate_grid(g, Viewpoint(yaw + 180.0, -pitch)).values
            assert np.array_equal(a, b), (yaw, pitch)


def dense_pixel_ids(dim, v):
    """(depth-clipped, image-clipped) pixel ids derived from the dense forward map."""
    cells, inside = rotated_cells(dim, v)
    pixel = cells[:, 1] * dim + cells[:, 2]
    on_image = ((cells[:, 1:] >= 0) & (cells[:, 1:] < dim)).all(axis=1)
    return np.where(inside, pixel, dim * dim), np.where(on_image, pixel, dim * dim)


class TestPixelIds:
    @given(st.integers(1, 12), yaw_floats, pitch_floats)
    @settings(max_examples=40, deadline=None)
    def test_both_off_rules_match_the_dense_forward_map(self, dim, yaw, pitch):
        v, every = Viewpoint(yaw, pitch), np.arange(dim**3)
        clipped, on_image = dense_pixel_ids(dim, v)
        assert pixel_ids(dim, v, voxels=every).dtype == np.int32
        assert np.array_equal(pixel_ids(dim, v, voxels=every), clipped)
        assert np.array_equal(pixel_ids(dim, v, clip_depth=False, voxels=every), on_image)

    @pytest.mark.parametrize("dim", [31, 32])
    def test_lattice_columns_match_the_dense_forward_map_at_tie_dims(self, dim):
        # At these dims some 30-degree centers put rotated coordinates exactly
        # on .5, so a column computed any other way than pose by pose can differ.
        lattice = discretize_viewpoints(30)
        table = lattice_cell_keys(dim, lattice, np.arange(dim**3)) // dim
        assert table.shape == (dim**3, 72)
        assert table.dtype == np.int32
        for k, center in enumerate(lattice.centers):
            assert np.array_equal(table[:, k], dense_pixel_ids(dim, center)[0])

    @pytest.mark.parametrize("dim", [15, 16, 31])
    def test_cells_off_either_side_of_each_axis_match_the_dense_forward_map(self, dim):
        # Keys and codes test range as uint32, where a negative cell wraps past
        # dim; the poses must send cells below 0 and past dim on every axis.
        every, below, above = np.arange(dim**3), np.zeros(3, bool), np.zeros(3, bool)
        for center in discretize_viewpoints(45).centers:
            cells, inside = rotated_cells(dim, center)
            below |= (cells < 0).any(axis=0)
            above |= (cells >= dim).any(axis=0)
            keys = (cells[:, 1] * dim + cells[:, 2]) * dim + cells[:, 0]
            assert np.array_equal(cell_keys(dim, center, every), np.where(inside, keys, dim**3))
            clipped, on_image = dense_pixel_ids(dim, center)
            assert np.array_equal(pixel_ids(dim, center, voxels=every), clipped)
            assert np.array_equal(pixel_ids(dim, center, clip_depth=False, voxels=every), on_image)
        assert below.all() and above.all()

    def test_rejects_non_positive_dim(self):
        for voxels in (np.array([0]), []):
            with pytest.raises(ValueError, match="dim must be positive"):
                pixel_ids(0, Viewpoint(0.0, 0.0), voxels=voxels)
            with pytest.raises(ValueError, match="dim must be positive"):
                lattice_cell_keys(0, discretize_viewpoints(90), voxels)
            with pytest.raises(ValueError, match="dim must be positive"):
                cell_keys(0, Viewpoint(0.0, 0.0), voxels)
        with pytest.raises(ValueError, match="dim must be positive"):
            rotated_cells(0, Viewpoint(0.0, 0.0))

    @pytest.mark.parametrize("dim", [16.5, 16.0, np.float64(16.0), True])
    def test_rejects_a_dim_that_is_not_an_integer(self, dim):
        # A float dim once mapped as its floor, a bool as 1.
        v, lattice = Viewpoint(30.0, 20.0), discretize_viewpoints(90)
        message = re.escape(f"dim must be an integer, got {dim!r}")
        for voxels in (np.array([0, 4095, 4096]), np.array([0, 4095]), []):
            with pytest.raises(ValueError, match=message):
                pixel_ids(dim, v, voxels=voxels)
            with pytest.raises(ValueError, match=message):
                cell_keys(dim, v, voxels)
            with pytest.raises(ValueError, match=message):
                lattice_cell_keys(dim, lattice, voxels)
        with pytest.raises(ValueError, match=message):
            rotated_cells(dim, v)

    def test_a_numpy_integer_dim_maps_as_the_int(self):
        v, lattice, voxels = Viewpoint(30.0, 20.0), discretize_viewpoints(90), np.array([0, 77, 4095])
        for dim in (np.int64(16), np.int32(16), np.uint8(16)):
            assert np.array_equal(pixel_ids(dim, v, voxels=voxels), pixel_ids(16, v, voxels=voxels))
            assert np.array_equal(cell_keys(dim, v, voxels), cell_keys(16, v, voxels))
            assert np.array_equal(lattice_cell_keys(dim, lattice, voxels), lattice_cell_keys(16, lattice, voxels))
            assert np.array_equal(rotated_cells(dim, v)[0], rotated_cells(16, v)[0])


class TestLatticeCellKeys:
    @pytest.mark.parametrize("dim, interval", [(1, 30), (5, 45), (31, 30), (32, 30), (9, 22.5)])
    def test_columns_are_the_dense_forward_map_as_ray_major_keys(self, dim, interval):
        # 31 and 32 are the tie dims of the 30-degree lattice: a column must be
        # computed pose by pose to match rotated_cells and cell_keys there.
        lattice = discretize_viewpoints(interval)
        every = np.arange(dim**3)
        table = lattice_cell_keys(dim, lattice, every)
        assert table.shape == (dim**3, len(lattice.centers))
        assert table.dtype == np.int32
        assert table.flags.c_contiguous
        for k, center in enumerate(lattice.centers):
            cells, inside = rotated_cells(dim, center)
            keys = (cells[:, 1] * dim + cells[:, 2]) * dim + cells[:, 0]
            assert np.array_equal(table[:, k], np.where(inside, keys, dim**3))
            assert np.array_equal(table[:, k] // dim, pixel_ids(dim, center, voxels=every))
            assert np.array_equal(table[:, k], cell_keys(dim, center, every))

    def test_cached_per_dim_and_lattice(self, monkeypatch):
        lattice, every = discretize_viewpoints(45), np.arange(6**3)
        first = lattice_cell_keys(6, lattice, every)
        mapped = MappedEntries(monkeypatch)
        assert np.array_equal(lattice_cell_keys(6, lattice, every), first)
        assert mapped.total() == 0
        assert geometry._lattice_cell_keys.cache_info().maxsize == 2

    @pytest.mark.parametrize(
        "dim, interval", [(8, 15), (8, 22.5), (8, 30), (8, 45), (8, 90), (16, 30), (16, 45), (32, 30), (32, 45)]
    )
    def test_at_even_dims_an_antipode_maps_every_voxel_to_its_centers_cell_mirrored(self, dim, interval):
        # Antipodes (yaw + 180) reverse the rotated x and y and keep z, so at
        # even dims a binary score needs only the base half of the lattice.
        lattice, every = discretize_viewpoints(interval), np.arange(dim**3)
        base, half = geometry._base_half(lattice), lattice.n_yaw // 2
        assert len(base) == len(lattice.centers) // 2
        for k, center in enumerate(base):
            assert center == lattice.center_at(k % half, k // half)
            antipode = lattice.center_at(k % half + half, k // half)
            assert antipode == Viewpoint(center.yaw + 180.0, center.pitch)
            keys = cell_keys(dim, center, every)
            ray, x = np.divmod(keys, dim)
            y, z = np.divmod(ray, dim)
            mirrored = np.where(keys < dim**3, ((dim - 1 - y) * dim + z) * dim + (dim - 1 - x), keys)
            assert np.array_equal(cell_keys(dim, antipode, every), mirrored)

    @pytest.mark.parametrize("dim, interval", [(8, 45), (32, 30)])
    def test_the_half_table_holds_the_base_half_columns(self, dim, interval):
        lattice, every = discretize_viewpoints(interval), np.arange(dim**3)
        geometry._lattice_cell_keys.cache_clear()
        table = geometry._lattice_cell_keys(dim, lattice, half=True).lookup(every)
        assert table.shape == (dim**3, len(lattice.centers) // 2)
        for k, center in enumerate(geometry._base_half(lattice)):
            assert np.array_equal(table[:, k], dense_cell_keys(dim, center))


class TestMappingWork:
    """What each forward-map call maps, and what the lattice table keeps."""

    def test_a_map_holds_rows_in_proportion_to_the_voxels_it_maps(self):
        # A 30-degree table holds 72 keys per mapped voxel.
        dim, lattice = 16, discretize_viewpoints(30)
        geometry._lattice_cell_keys.cache_clear()
        store = geometry._lattice_cell_keys(dim, lattice)
        dense = np.stack([dense_cell_keys(dim, c) for c in lattice.centers], axis=1)
        rng = np.random.default_rng(5)
        asked = np.zeros(dim**3, dtype=bool)
        # Growing increasing fills, an unordered one, then the whole map.
        fills = [
            np.arange(0, dim**3, 97),
            np.arange(0, dim**3, 13),
            np.sort(rng.choice(dim**3, size=500, replace=False)),
            rng.choice(dim**3, size=300, replace=False),
            np.arange(dim**3),
        ]
        for voxels in fills:
            lattice_cell_keys(dim, lattice, voxels)
            asked[voxels] = True
            mapped = int(asked.sum())
            assert np.count_nonzero(store.slot) == store.used - 1 == mapped
            assert store.used <= len(store.rows) <= min(2 * mapped, dim**3 + 1)
            assert np.array_equal(store.rows[store.slot[asked]], dense[asked])
        assert store.rows.shape == (dim**3 + 1, dense.shape[1])
        assert np.array_equal(np.sort(store.slot), np.arange(1, dim**3 + 1))
        assert np.array_equal(store.rows[store.slot], dense)

    def test_a_voxel_listed_many_times_is_mapped_once(self, monkeypatch):
        dim, lattice = 8, discretize_viewpoints(30)
        geometry._lattice_cell_keys.cache_clear()
        store = geometry._lattice_cell_keys(dim, lattice)
        dense = np.stack([dense_cell_keys(dim, c) for c in lattice.centers], axis=1)
        mapped = MappedEntries(monkeypatch)
        for voxels, held in [(np.zeros(100_000, dtype=int), 1), (np.array([9, 4, 9, 0, 4, 200, 9]), 4)]:
            assert np.array_equal(lattice_cell_keys(dim, lattice, voxels), dense[voxels])
            assert store.used - 1 == held and len(store.rows) <= dim**3 + 1
        assert mapped.most() == 1

    def test_writing_into_a_lookup_leaves_the_next_lookup_unchanged(self):
        dim, v, lattice = 12, Viewpoint(12.5, -33.0), discretize_viewpoints(45)
        geometry._lattice_cell_keys.cache_clear()
        lookups = [
            lambda voxels: pixel_ids(dim, v, voxels=voxels),
            lambda voxels: pixel_ids(dim, v, clip_depth=False, voxels=voxels),
            lambda voxels: cell_keys(dim, v, voxels),
            lambda voxels: lattice_cell_keys(dim, lattice, voxels),
        ]
        # A partly filled map, then a whole one, then a lookup of the whole map.
        for voxels in (np.array([7, 3, 1000, 3]), np.arange(dim**3), np.array([7, 3, 1000, 3])):
            for lookup in lookups:
                looked_up = lookup(voxels)
                expected = looked_up.copy()
                looked_up[...] = -1
                assert np.array_equal(lookup(voxels), expected)

    def test_a_render_carve_round_and_repeated_scoring_map_each_entry_at_most_once(self, monkeypatch):
        from voxsel.carve import ViewObservation, carve
        from voxsel.selection import FIRST_HIT_EPS, score_all
        from voxsel.synthesis import render_silhouette

        dim = 16
        # Random over the whole cube: voxels near the corners rotate off it,
        # so the hull loses some of the ground truth.
        gt = VoxelGrid(random_grid(dim, 4).values > 0.7)
        occ = gt.values.reshape(-1) > 0.5
        views = [Viewpoint(yaw, 20.0) for yaw in (5.0, 65.0, 125.0, 185.0, 245.0, 305.0, 15.0, 75.0)]
        # The reference: each view rendered, then carved into the ids of the running hull.
        reference, running = [], np.arange(dim**3)
        for v in views:
            silhouette = render_silhouette(gt, v)
            running = np.flatnonzero(carve([ViewObservation(v, silhouette)], dim, voxels=running).values)
            reference.append((silhouette, running))
        geometry._lattice_cell_keys.cache_clear()
        mapped = MappedEntries(monkeypatch)
        hull = np.arange(dim**3)
        outside_hull = 0
        for v, (silhouette, carved) in zip(views, reference):
            alive = occ.copy()
            alive[hull] = True
            outside_hull += np.count_nonzero(alive) - hull.size
            rendered, hull = render_and_carve_hull(occ, dim, v, hull)
            assert np.array_equal(rendered.pixels, silhouette.pixels)
            assert np.array_equal(hull, carved)
            # One pass maps the voxels still kept and the occupied ones, once each.
            assert np.array_equal(mapped.of(dim, v), alive)
        assert outside_hull > 0

        lattice = discretize_viewpoints(45)
        # Three grids, each scored twice: the table maps only their hot voxels.
        errors = [random_grid(dim, seed) for seed in (1, 2, 3)]
        first = [score_all(error, lattice) for error in errors]
        hot = np.logical_or.reduce([error.values.reshape(-1) > FIRST_HIT_EPS for error in errors])
        assert [score_all(error, lattice) for error in errors] == first
        # The grids are binary and dim is even: only the base half is mapped.
        base = geometry._base_half(lattice)
        for c in lattice.centers:
            assert np.array_equal(mapped.of(dim, c), hot if c in base else np.zeros(dim**3))
        assert mapped.most() == 1

    def test_objects_sharing_a_pose_are_rendered_and_carved_as_if_alone(self, monkeypatch):
        # Four objects seen from one pose through one list of ids: a hull they
        # share, then every voxel occupied outside it. The loop shares the
        # whole cube before any view; a carved hull is shared here too. The
        # last object is random over the whole cube, so some of its voxels lie
        # past the safe radius and outside the carved hull.
        from voxsel.carve import ViewObservation, _render_and_carve, carve
        from voxsel.harness import make_corpus
        from voxsel.synthesis import render_silhouette, safe_radius

        dim = 16
        views = [Viewpoint(-180.0, 60.0), Viewpoint(95.0, -20.0), Viewpoint(-30.0, 45.0)]
        gts = [obj.gt for obj in make_corpus(3, dim=dim, seed=4)] + [random_grid(dim, 6)]
        radius = np.linalg.norm(np.indices((dim,) * 3).reshape(3, -1).T - (dim - 1) / 2.0, axis=1)
        assert np.any((gts[-1].values.reshape(-1) > 0) & (radius > safe_radius(dim)))
        occs = [gt.values.reshape(-1) >= 0.4 for gt in gts]
        union = np.logical_or.reduce(occs)
        for earlier in ([], [Viewpoint(30.0, 10.0), Viewpoint(-70.0, -40.0)]):
            in_hull = np.ones(dim**3, dtype=bool)
            if earlier:
                in_hull = carve([ViewObservation(w, render_silhouette(gts[0], w)) for w in earlier], dim).values > 0
                in_hull = in_hull.reshape(-1)
                assert np.any(occs[-1] & ~in_hull)
                assert not np.array_equal(in_hull | union, in_hull | occs[-1])
            hull = np.flatnonzero(in_hull)
            voxels = np.concatenate((hull, np.flatnonzero(union & ~in_hull)))
            # One pose, then a round of three poses in one pass.
            for poses in (views[:1], views):
                # The reference: each object rendered, then carved, on its own.
                reference = []
                for gt in gts:
                    silhouettes = [render_silhouette(gt, v) for v in poses]
                    carved = carve([ViewObservation(v, s) for v, s in zip(poses, silhouettes)], dim, voxels=hull)
                    reference.append((silhouettes, np.flatnonzero(carved.values)))
                mapped = MappedEntries(monkeypatch)
                passes = _render_and_carve(dim, poses, voxels, [occ[voxels] for occ in occs], hull.size)
                assert len(passes) == len(gts)
                for (rendered, kept), (silhouettes, carved) in zip(passes, reference):
                    assert len(rendered) == len(poses)
                    assert all(np.array_equal(r.pixels, s.pixels) for r, s in zip(rendered, silhouettes))
                    assert kept.shape == hull.shape
                    assert np.array_equal(hull[kept], carved)
                # The hull and every voxel occupied outside it are mapped under each pose, once each.
                for v in poses:
                    assert np.array_equal(mapped.of(dim, v), in_hull | union)

    def test_every_fill_maps_only_the_missing_voxels(self, monkeypatch):
        # Nothing is kept between calls under one pose, so every call's voxels
        # are missing: pixel_ids under either rule maps exactly the voxels it
        # is given, and a render and carve exactly those of in_hull | occ, each once.
        dim, v = 16, Viewpoint(33.0, -12.0)
        mapped = MappedEntries(monkeypatch)
        rng = np.random.default_rng(0)
        expected = np.zeros(dim**3, dtype=np.int64)
        for fill in range(6):
            if fill % 3 == 2:
                in_hull, occ = rng.random(dim**3) < 0.3, rng.random(dim**3) < 0.1
                expected += in_hull | occ
                render_and_carve_hull(occ, dim, v, np.flatnonzero(in_hull))
            else:
                voxels = np.sort(rng.choice(dim**3, size=300, replace=False))
                pixel_ids(dim, v, clip_depth=bool(fill % 2), voxels=voxels)
                expected[voxels] += 1
            assert np.array_equal(mapped.of(dim, v), expected)
        assert mapped.most() > 1


def render_and_carve_hull(occ, dim, v, hull):
    """The loop's one pass of a hull held as sorted ids; returns the silhouette and the carved hull's ids.

    The pass maps the hull's ids, then the occupied voxels outside it.
    """
    from voxsel.carve import _render_and_carve

    outside = occ.copy()
    outside[hull] = False
    voxels = np.concatenate((hull, np.flatnonzero(outside)))
    [([silhouette], kept)] = _render_and_carve(dim, [v], voxels, [occ[voxels]], hull.size)
    return silhouette, hull[kept]


def dense_cell_keys(dim, v):
    cells, inside = rotated_cells(dim, v)
    return np.where(inside, (cells[:, 1] * dim + cells[:, 2]) * dim + cells[:, 0], dim**3)


class TestOnDemandFill:
    @given(
        st.integers(0, 10_000),
        st.one_of(st.sampled_from([31, 32]), st.integers(1, 33)),
        st.sampled_from([22.5, 30, 45]),
        st.one_of(st.tuples(yaw_floats, pitch_floats), st.integers(0, 71)),
        st.integers(1, 4),
    )
    @settings(max_examples=15, deadline=None)
    @example(seed=0, dim=31, interval=30, pose=7, n_chunks=4)
    @example(seed=1, dim=32, interval=30, pose=40, n_chunks=4)
    def test_chunked_fills_match_the_dense_forward_map(self, seed, dim, interval, pose, n_chunks):
        # Maps filled in random-order, overlapping chunks, then whole, must
        # equal the dense per-pose oracle. A pose drawn as an index is a
        # 30-degree center: at dims 31 and 32 some of them put rotated
        # coordinates exactly on .5. The first chunk lists a voxel twice and
        # the second grows the fresh maps' rows by doubling them.
        v = discretize_viewpoints(30).centers[pose] if isinstance(pose, int) else Viewpoint(*pose)
        lattice = discretize_viewpoints(interval)
        rng = np.random.default_rng(seed)
        geometry._lattice_cell_keys.cache_clear()
        clipped, on_image = dense_pixel_ids(dim, v)
        keys = dense_cell_keys(dim, v)
        table = np.stack([dense_cell_keys(dim, c) for c in lattice.centers], axis=1)
        # One- and two-voxel chunks are fills of one and two matmul columns.
        sizes = [rng.choice([1, 2, rng.integers(0, dim**3 + 1)]) for _ in range(n_chunks)]
        chunks = [rng.choice(dim**3, size=min(size, dim**3), replace=False) for size in sizes]
        first, second = (rng.choice(dim**3, size=min(2, dim**3), replace=False) for _ in range(2))
        for chunk in [first[[0, -1, 0]], second] + chunks:
            assert np.array_equal(pixel_ids(dim, v, voxels=chunk), clipped[chunk])
            assert np.array_equal(pixel_ids(dim, v, clip_depth=False, voxels=chunk), on_image[chunk])
            assert np.array_equal(cell_keys(dim, v, chunk), keys[chunk])
            assert np.array_equal(lattice_cell_keys(dim, lattice, chunk), table[chunk])
        every = np.arange(dim**3)
        assert np.array_equal(pixel_ids(dim, v, voxels=every), clipped)
        assert np.array_equal(pixel_ids(dim, v, clip_depth=False, voxels=every), on_image)
        assert np.array_equal(cell_keys(dim, v, every), keys)
        assert np.array_equal(lattice_cell_keys(dim, lattice, every), table)

    def test_rejects_voxels_that_are_not_flat_indices(self):
        v = Viewpoint(0.0, 0.0)
        bad_indices = (np.ones(8, dtype=bool), np.zeros((2, 2), dtype=np.int64), np.array([0.0, 1.0]))
        for bad in bad_indices + (np.array([0, 8]), np.array([-1, 3]), np.array([2**40], dtype=np.uint64)):
            with pytest.raises(ValueError, match="voxels"):
                pixel_ids(2, v, voxels=bad)
            with pytest.raises(ValueError, match="voxels"):
                cell_keys(2, v, bad)
            with pytest.raises(ValueError, match="voxels"):
                lattice_cell_keys(2, discretize_viewpoints(90), bad)

    def test_no_voxels_map_to_an_empty_result(self):
        v, lattice = Viewpoint(0.0, 0.0), discretize_viewpoints(90)
        for empty in ([], np.array([]), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)):
            for clip_depth in (True, False):
                looked_up = pixel_ids(8, v, clip_depth=clip_depth, voxels=empty)
                assert looked_up.shape == (0,) and looked_up.dtype == np.int32
            keys = cell_keys(8, v, empty)
            assert keys.shape == (0,) and keys.dtype == np.int32
            table = lattice_cell_keys(8, lattice, empty)
            assert table.shape == (0, len(lattice.centers)) and table.dtype == np.int32

    @pytest.mark.parametrize("dim", [31, 32])
    def test_one_voxel_fills_at_ties_match_the_dense_forward_map(self, dim):
        # A fill missing a single voxel multiplies a single row. Only a voxel
        # near a .5 tie can round differently, so every such voxel of every
        # 30-degree center is mapped alone: by project_voxel, and one voxel
        # after another into one lattice table.
        from voxsel.carve import project_voxel

        lattice = discretize_viewpoints(30)
        geometry._lattice_cell_keys.cache_clear()
        union = tie_voxels(dim, 30)
        table = np.stack([dense_cell_keys(dim, c) for c in lattice.centers], axis=1)
        for i in union:
            assert np.array_equal(lattice_cell_keys(dim, lattice, np.array([i])), table[[i]])
        for c in lattice.centers:
            _, on_image = dense_pixel_ids(dim, c)
            for i in near_ties(dim, rotation_matrix(c) @ geometry._centered_coords(dim)):
                pixel = project_voxel(np.unravel_index(i, (dim,) * 3), c, dim)
                assert pixel == (None if on_image[i] == dim * dim else divmod(int(on_image[i]), dim))

    def test_a_pose_fill_past_one_product_matches_the_dense_forward_map(self, monkeypatch):
        # ENTRIES + 1 voxels fill one full ENTRIES-column product and a
        # one-column tail; the tail is a voxel near a .5 tie under the pose.
        dim, lattice = 32, discretize_viewpoints(30)
        coords = geometry._centered_coords(dim)
        v = next(c for c in lattice.centers if near_ties(dim, rotation_matrix(c) @ coords).size)
        tail = near_ties(dim, rotation_matrix(v) @ coords)[0]
        rng = np.random.default_rng(3)
        voxels = np.append(rng.choice(np.setdiff1d(np.arange(dim**3), tail), size=ENTRIES, replace=False), tail)
        (clipped, on_image), keys = dense_pixel_ids(dim, v), dense_cell_keys(dim, v)
        products = product_columns(monkeypatch)
        assert np.array_equal(pixel_ids(dim, v, voxels=voxels), clipped[voxels])
        assert np.array_equal(pixel_ids(dim, v, clip_depth=False, voxels=voxels), on_image[voxels])
        assert np.array_equal(cell_keys(dim, v, voxels), keys[voxels])
        assert products == [ENTRIES, 1] * 3

    def test_a_lattice_fill_past_one_product_matches_the_dense_forward_map(self, monkeypatch):
        # A product over the 30-degree lattice holds ENTRIES // 72 (227)
        # columns, so one more fresh voxel fills one product and a one-column
        # tail. The tail is a voxel whose keys differ when its lone column
        # goes to BLAS gemv, so it must be multiplied as two columns.
        dim, lattice = 32, discretize_viewpoints(30)
        coords, stacked = geometry._centered_coords(dim), geometry._stacked_rotations(lattice.centers)
        table = np.stack([dense_cell_keys(dim, c) for c in lattice.centers], axis=1)

        def lone_column_keys(i):
            return geometry._cell_keys_of(dim, np.rint(stacked @ coords[:, [i]] + (dim - 1) / 2))[:, 0]

        ties = tie_voxels(dim, 30)
        width = ENTRIES // len(lattice.centers)
        ties = ties[ties >= width]
        tail = ([i for i in ties if not np.array_equal(lone_column_keys(i), table[i])] or ties)[0]
        voxels = np.append(np.sort(np.random.default_rng(4).choice(tail, size=width, replace=False)), tail)
        geometry._lattice_cell_keys.cache_clear()
        products = product_columns(monkeypatch)
        assert np.array_equal(lattice_cell_keys(dim, lattice, voxels), table[voxels])
        assert products == [width, 1]


def product_columns(monkeypatch):
    """The voxel columns of every forward-map product from now on, in the order made."""
    columns = []
    original = geometry._rounded_targets

    def recording(dim, rot, voxels):
        columns.append(len(voxels))
        return original(dim, rot, voxels)

    monkeypatch.setattr(geometry, "_rounded_targets", recording)
    return columns


def near_ties(dim, rotated):
    """Voxels with a rotated coordinate within 1e-6 of a .5 tie; ``rotated`` is axis-major, one column per voxel.

    Entries of different products of the same column differ by a few ulps
    at most, so only these voxels can round to another cell.
    """
    shifted = rotated + (dim - 1) / 2
    frac = np.abs(shifted - np.floor(shifted) - 0.5)
    return np.flatnonzero((frac < 1e-6).any(axis=0))


def pose_ties(dim, poses):
    """The voxels near a .5 tie under any of ``poses``."""
    coords = geometry._centered_coords(dim)
    return np.unique(np.concatenate([near_ties(dim, rotation_matrix(c) @ coords) for c in poses]))


@functools.lru_cache(maxsize=4)
def tie_voxels(dim, interval):
    """The voxels near a .5 tie under any center of the lattice."""
    return pose_ties(dim, discretize_viewpoints(interval).centers)


def blas_name():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown BLAS')} {blas.get('version', '')} ({blas.get('openblas configuration', '')})"


def round_poses(n):
    """``n`` poses of one round: aligned-ring views, 30-degree centers and random poses in turn.

    The ring's views and the centers put voxels exactly on .5 ties at dims 31 and 32.
    """
    ring = sample_dataset_viewpoints(ViewDistribution("aligned"), np.random.default_rng(0))
    centers, rng = discretize_viewpoints(30).centers, np.random.default_rng(n)
    cycle = [(ring[5 * k % 24], centers[7 * k % 72], Viewpoint(*rng.uniform((-180, -90), (180, 90)))) for k in range(n)]
    return [v for trio in cycle for v in trio][:n]


def fill_poses(poses):
    """The poses one product stacks: a round of ``poses`` views, or an ``(interval, half)`` lattice table's centers."""
    if isinstance(poses, int):
        return round_poses(poses)
    interval, half = poses
    lattice = discretize_viewpoints(interval)
    return geometry._base_half(lattice) if half else list(lattice.centers)


class TestBlasIdentity:
    # A fill multiplies the stacked rotations of its poses by
    # _ENTRIES_PER_PRODUCT // poses voxel columns at a time, then by a
    # shorter tail of any width; a lone column runs as two, as BLAS gemv
    # rounds differently. Forward maps stay byte-identical to the dense
    # per-pose map only while every entry of those products equals the full
    # per-pose product's. Exact .5 ties make any other rounding visible in
    # the reports, so the voxels near one go first. The product width is
    # load-bearing: on OpenBLAS 0.3.31 a 455-column product (the width of the
    # 30-degree half table, 36 centers) over the 288 centers of the
    # 15-degree lattice differs from the per-pose product on every center,
    # although each width below, used with its own pose count, does not.
    @pytest.mark.parametrize(
        "columns, products, tail",
        [(1, 300, 0), (2, 300, 1), (ENTRIES // 162, 40, 57), (ENTRIES // 72, 40, 113), (ENTRIES, 1, 101)],
    )
    @pytest.mark.parametrize("dim, interval", [(d, i) for i in (30, 20) for d in (31, 32, 64)])
    def test_products_of_any_column_count_equal_the_full_per_pose_matmul(
        self, dim, interval, columns, products, tail
    ):
        # One pose's product, as pixel_ids, cell_keys, carve, render_silhouette
        # and every initial view make it, at the widths of one pose
        # (ENTRIES), of the 30- and 20-degree lattice tables (ENTRIES // 72 and
        # // 162), two columns and a lone column, each with a tail; and every
        # center of the lattice stacked at those same widths.
        lattice = discretize_viewpoints(interval)
        rng = np.random.default_rng(columns)
        ties = tie_voxels(dim, interval)
        others = np.setdiff1d(np.arange(dim**3), ties)
        voxels = np.concatenate([rng.permutation(ties), rng.permutation(others)])[: products * columns + tail]
        voxels = rng.permutation(voxels)
        chunks = [voxels[start : start + columns] for start in range(0, voxels.size, columns)]
        k = len(lattice.centers)
        stacked = geometry._stacked_rotations(lattice.centers)
        batched = np.concatenate([geometry._rotated_centers(dim, stacked, chunk) for chunk in chunks], axis=1)
        coords = geometry._centered_coords(dim)
        differ = []
        for j, c in enumerate(lattice.centers):
            rot = rotation_matrix(c)
            full = (rot @ coords)[:, voxels]
            subsets = np.concatenate([geometry._rotated_centers(dim, rot, chunk) for chunk in chunks], axis=1)
            if not np.array_equal(subsets, full):
                differ.append(("column subset", c.yaw, c.pitch))
            if not np.array_equal(batched[[j, k + j, 2 * k + j]], full):
                differ.append(("center batch", c.yaw, c.pitch))
            if not np.array_equal((coords.T @ rot.T)[voxels].T, full):
                differ.append(("voxel-major", c.yaw, c.pitch))
        assert not differ, (
            f"on {blas_name()} {len(differ)} products of {columns} columns differ from the full per-pose product, "
            f"e.g. {differ[:3]}; forward maps filled on demand would not be byte-identical to the dense map "
            "with this BLAS"
        )

    @pytest.mark.parametrize(
        "poses",
        [*range(1, PASS_POSES + 1), *((interval, half) for interval in (30, 20, 15, 10) for half in (False, True))],
        ids=str,
    )
    @pytest.mark.parametrize("dim", [31, 32, 64])
    def test_products_at_the_fill_widths_equal_the_full_per_pose_matmul(self, dim, poses):
        # Rounds of one to PASS_POSES views, the most one pass stacks,
        # and the full and half lattice tables, each at its own fill width;
        # the lone columns are all voxels near a tie.
        poses = fill_poses(poses)
        width = max(1, ENTRIES // len(poses))
        rng = np.random.default_rng(len(poses))
        ties = pose_ties(dim, poses)
        others = np.setdiff1d(np.arange(dim**3), ties)
        order = np.concatenate([rng.permutation(ties), rng.permutation(others)])
        products = min(40, ENTRIES // width)
        tail = min(int(rng.integers(2, width)) if width > 2 else 1, dim**3 - products * width)
        full_and_tail = order[: products * width + tail]
        chunks = [full_and_tail[start : start + width] for start in range(0, full_and_tail.size, width)]
        chunks += [order[[i]] for i in range(50)]
        assert [c.size for c in chunks] == [width] * products + [tail] + [1] * 50
        stacked = geometry._stacked_rotations(poses)
        batched = np.concatenate([geometry._rotated_centers(dim, stacked, chunk) for chunk in chunks], axis=1)
        voxels = np.concatenate(chunks)
        coords = geometry._centered_coords(dim)
        k = len(poses)
        differ = []
        for j, c in enumerate(poses):
            full = rotation_matrix(c) @ coords
            if not np.array_equal(batched[[j, k + j, 2 * k + j]], full[:, voxels]):
                differ.append(("stacked", c.yaw, c.pitch))
            if not np.array_equal((coords.T @ rotation_matrix(c).T)[voxels].T, full[:, voxels]):
                differ.append(("voxel-major", c.yaw, c.pitch))
        assert not differ, (
            f"on {blas_name()} {len(differ)} products over {k} poses of {width} columns differ from the full "
            f"per-pose product, e.g. {differ[:3]}; forward maps filled on demand would not be byte-identical "
            "to the dense map with this BLAS"
        )


class TestGaussianSampling:
    def test_sigma_zero_returns_center(self):
        rng = np.random.default_rng(0)
        c = Viewpoint(12.0, -34.0)
        assert sample_gaussian_view(c, 0.0, rng) == c

    def test_fixed_seed_reproducible(self):
        c = Viewpoint(-165.0, -75.0)
        a = sample_gaussian_view(c, 5.0, np.random.default_rng(99))
        b = sample_gaussian_view(c, 5.0, np.random.default_rng(99))
        assert a == b

    def test_wraps_yaw_across_the_seam(self):
        # Find a draw pushing yaw past +180 and check it lands wrapped.
        c = Viewpoint(175.0, 0.0)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            out = sample_gaussian_view(c, 10.0, rng)
            assert -180.0 <= out.yaw < 180.0
            if out.yaw < 0.0:
                break
        else:
            pytest.fail("no draw crossed the yaw seam")

    def test_clamps_pitch_at_the_pole(self):
        c = Viewpoint(0.0, 88.0)
        hits = [sample_gaussian_view(c, 10.0, np.random.default_rng(s)).pitch for s in range(100)]
        assert max(hits) == 90.0
        assert all(p <= 90.0 for p in hits)

    def test_spread_tracks_sigma(self):
        rng = np.random.default_rng(7)
        c = Viewpoint(0.0, 0.0)
        yaws = np.array([sample_gaussian_view(c, 5.0, rng).yaw for _ in range(4000)])
        assert abs(yaws.mean()) < 0.5
        assert abs(yaws.std() - 5.0) < 0.3

    def test_rejects_bad_sigma(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gaussian_view(Viewpoint(0.0, 0.0), -1.0, rng)
        with pytest.raises(ValueError):
            sample_gaussian_view(Viewpoint(0.0, 0.0), math.inf, rng)

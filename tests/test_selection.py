"""First-hit projection, view scoring, top-n selection, Gaussian sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxsel.geometry import Viewpoint, discretize_viewpoints, rotate_grid, view_direction
from voxsel import geometry, selection
from voxsel.grid import VoxelGrid
from voxsel.selection import (
    FIRST_HIT_EPS,
    ErrorProjectionMap,
    ViewScore,
    project_first_hit,
    rank_scores,
    score_all,
    score_view,
    select_and_sample,
    select_top_n,
)

from .mapping_counts import MappedEntries
from .oracles import great_circle_deg, naive_first_hit

LATTICE_30 = discretize_viewpoints(30)


def random_soft_grid(dim, seed, p=0.3):
    rng = np.random.default_rng(seed)
    vals = rng.random((dim, dim, dim)) * (rng.random((dim, dim, dim)) < p)
    return VoxelGrid(vals)


def random_binary_grid(dim, seed, p=0.3):
    rng = np.random.default_rng(seed)
    return VoxelGrid((rng.random((dim, dim, dim)) < p).astype(np.float64))


def l_slab_grid(dim=16):
    # L-shaped plate of value 1.0 at x=4, fully covered by a 0.2 plate at
    # x=5: visible at full strength only from the low-x side.
    foot = np.zeros((dim, dim), dtype=bool)
    foot[4:12, 4:7] = True
    foot[9:12, 4:12] = True
    vals = np.zeros((dim, dim, dim))
    vals[4, foot] = 1.0
    vals[5, foot] = 0.2
    return VoxelGrid(vals), int(foot.sum())


def pitch_cap_grid(dim=24):
    # Error on the polar cap (elevation >= 60 deg) of a spherical shell,
    # with a soft core occluding it from below.
    c = (dim - 1) / 2.0
    coords = np.arange(dim)
    xx, yy, zz = np.meshgrid(coords, coords, coords, indexing="ij")
    px, py, pz = xx - c, yy - c, zz - c
    r = np.sqrt(px**2 + py**2 + pz**2)
    shell = (r >= 7.5) & (r <= 9.5)
    elev = np.degrees(np.arcsin(np.where(r > 0, pz / np.maximum(r, 1e-12), 0.0)))
    vals = np.zeros((dim, dim, dim))
    vals[shell & (elev >= 60.0)] = 1.0
    vals[r <= 5.0] = 0.15
    return VoxelGrid(vals)


def octant_patch_grid(dim=24):
    # High-error patch on a soft occluding ball, centered on the (+x,+y,+z)
    # diagonal: only views facing the patch see the 1.0 values.
    c = (dim - 1) / 2.0
    coords = np.arange(dim)
    xx, yy, zz = np.meshgrid(coords, coords, coords, indexing="ij")
    px, py, pz = xx - c, yy - c, zz - c
    r = np.sqrt(px**2 + py**2 + pz**2)
    outward = np.ones(3) / np.sqrt(3.0)
    unit = np.stack([px, py, pz], axis=-1) / np.maximum(r, 1e-12)[..., None]
    align = unit @ outward
    vals = np.zeros((dim, dim, dim))
    vals[r <= 9.0] = 0.25
    vals[(r >= 8.0) & (r <= 10.0) & (align >= np.cos(np.deg2rad(25.0)))] = 1.0
    return VoxelGrid(vals)


class TestProjectionMap:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            ErrorProjectionMap(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            ErrorProjectionMap(np.full((2, 2), 1.5))

    def test_total_is_pixel_sum(self):
        m = ErrorProjectionMap(np.full((4, 4), 0.25))
        assert m.total == pytest.approx(4.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_constructor_copies_input_into_read_only_pixels(self, dtype):
        src = np.zeros((2, 3), dtype=dtype)
        m = ErrorProjectionMap(src)
        src[0, 0] = 1
        assert m.pixels[0, 0] == 0.0
        assert m.pixels.dtype == np.float64
        assert not m.pixels.flags.writeable
        with pytest.raises(ValueError):
            m.pixels[0, 1] = 0.5


class TestProjectFirstHit:
    def test_empty_grid_gives_zero_map(self):
        m = project_first_hit(VoxelGrid.zeros((5, 5, 5)))
        assert m.pixels.shape == (5, 5)
        assert m.total == 0.0

    def test_single_voxel_lands_on_its_pixel(self):
        vals = np.zeros((12, 12, 12))
        vals[5, 2, 9] = 0.7
        m = project_first_hit(VoxelGrid(vals))
        assert m.pixels[2, 9] == 0.7
        assert m.total == pytest.approx(0.7)

    def test_nearer_voxel_wins_the_ray(self):
        vals = np.zeros((10, 10, 10))
        vals[3, 4, 4] = 0.5
        vals[7, 4, 4] = 0.9
        m = project_first_hit(VoxelGrid(vals))
        assert m.pixels[4, 4] == 0.5

    def test_non_cubic_grids_allowed(self):
        vals = np.zeros((2, 3, 4))
        vals[1, 2, 3] = 1.0
        m = project_first_hit(VoxelGrid(vals))
        assert m.dims == (3, 4)
        assert m.pixels[2, 3] == 1.0

    @given(st.integers(0, 60), st.sampled_from([2, 4, 7, 11, 16]))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_per_ray_oracle(self, seed, dim):
        g = random_soft_grid(dim, seed)
        m = project_first_hit(g)
        assert np.array_equal(m.pixels, naive_first_hit(g.values))


class TestScoreView:
    def test_all_ones_grid_scores_full_image(self):
        g = VoxelGrid(np.ones((4, 4, 4)))
        for yaw in (-180.0, -90.0, 0.0, 90.0):
            for pitch in (-90.0, 0.0, 90.0):
                assert score_view(g, Viewpoint(yaw, pitch)).score == 16.0

    def test_empty_grid_scores_zero_everywhere(self):
        g = VoxelGrid.zeros((6, 6, 6))
        for v in LATTICE_30.centers:
            assert score_view(g, v).score == 0.0

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError):
            score_view(VoxelGrid.zeros((4, 4, 5)), Viewpoint(0.0, 0.0))

    def test_zero_score_iff_rotation_empties_the_grid(self):
        # A single corner voxel clipped off the cube by a diagonal rotation.
        vals = np.zeros((8, 8, 8))
        vals[0, 0, 0] = 1.0
        g = VoxelGrid(vals)
        v = Viewpoint(45.0, 0.0)
        assert np.count_nonzero(rotate_grid(g, v).values) == 0
        assert score_view(g, v).score == 0.0
        kept = Viewpoint(0.0, 0.0)
        assert np.count_nonzero(rotate_grid(g, kept).values) == 1
        assert score_view(g, kept).score == 1.0

    def test_filling_an_empty_ray_strictly_increases_score(self):
        vals = np.zeros((6, 6, 6))
        vals[2, 1, 1] = 1.0
        v = Viewpoint(0.0, 0.0)
        before = score_view(VoxelGrid(vals), v).score
        vals2 = vals.copy()
        vals2[3, 4, 4] = 0.8
        after = score_view(VoxelGrid(vals2), v).score
        assert after == before + 0.8

    @given(st.integers(0, 40), st.floats(-180.0, 179.9), st.floats(-90.0, 90.0))
    @settings(max_examples=40, deadline=None)
    def test_binary_error_scores_antipode_symmetric(self, seed, yaw, pitch):
        # Rays are lines: a line hits a binary error set no matter which end
        # the camera sits at, so score(v) == score(v + half turn) exactly.
        g = random_binary_grid(8, seed)
        a = score_view(g, Viewpoint(yaw, pitch)).score
        b = score_view(g, Viewpoint(yaw + 180.0, pitch)).score
        assert a == b

    def test_l_slab_facing_views_see_full_error(self):
        err, n_cells = l_slab_grid()
        assert n_cells == 39
        assert score_view(err, Viewpoint(0.0, 0.0)).score == 39.0
        assert score_view(err, Viewpoint(-180.0, 0.0)).score == pytest.approx(7.8)

    def test_l_slab_facing_beats_occluded_backside(self):
        err, _ = l_slab_grid()
        scores = score_all(err, LATTICE_30)
        facing = [s.score for s in scores if view_direction(s.viewpoint)[0] < -0.9]
        backside = [s.score for s in scores if view_direction(s.viewpoint)[0] > 0.9]
        assert len(facing) == 4 and len(backside) == 4
        assert min(facing) == pytest.approx(39.0)
        assert max(backside) == pytest.approx(13.2)
        assert min(facing) > max(backside)
        top = rank_scores(scores)[0]
        assert view_direction(top.viewpoint)[0] < -0.9


class TestScoreAll:
    def test_one_score_per_lattice_center_in_order(self):
        g = random_soft_grid(6, 0)
        scores = score_all(g, LATTICE_30)
        assert len(scores) == 72
        for k, s in enumerate(scores):
            assert s.viewpoint == LATTICE_30.centers[k]
            assert s.lattice_index == LATTICE_30.lattice_index(k)

    def test_empty_grid_gives_72_zeros(self):
        scores = score_all(VoxelGrid.zeros((8, 8, 8)), LATTICE_30)
        assert [s.score for s in scores] == [0.0] * 72

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError, match=r"cubic grid, got dims \(4, 4, 5\)"):
            score_all(VoxelGrid.zeros((4, 4, 5)), LATTICE_30)

    def test_spherical_shell_scores_nearly_uniform(self):
        dim = 32
        c = (dim - 1) / 2.0
        coords = np.arange(dim)
        xx, yy, zz = np.meshgrid(coords, coords, coords, indexing="ij")
        r = np.sqrt((xx - c) ** 2 + (yy - c) ** 2 + (zz - c) ** 2)
        shell = VoxelGrid(((r >= 9.0) & (r <= 11.0)).astype(np.float64))
        vals = np.array([s.score for s in score_all(shell, LATTICE_30)])
        assert vals.min() == 392.0
        assert vals.max() == 400.0
        spread = (vals.max() - vals.min()) / vals.mean()
        assert spread == pytest.approx(0.0202, abs=0.0001)
        assert spread < 0.10

    @given(
        st.integers(0, 10_000),
        st.integers(3, 33),
        st.floats(0.0, 0.5),
        st.sampled_from([22.5, 30, 45]),
        st.sampled_from([0.0, FIRST_HIT_EPS / 2, FIRST_HIT_EPS]),
    )
    # Sub-cutoff values beside the 1.0s: the count of pixels must ignore them.
    @example(seed=2, dim=10, density=0.3, interval=30, floor=FIRST_HIT_EPS / 2)
    @settings(max_examples=40, deadline=None)
    def test_binary_grids_match_the_dense_score_view_oracle(self, seed, dim, density, interval, floor):
        # Dense corners rotate off the cube, so the sparse path's off rule is
        # exercised. Empty voxels hold ``floor``, which is never a first hit.
        error = VoxelGrid(np.maximum(random_binary_grid(dim, seed, density).values, floor))
        lattice = discretize_viewpoints(interval)
        expected = [score_view(error, c, lattice.lattice_index(k)) for k, c in enumerate(lattice.centers)]
        assert score_all(error, lattice) == expected

    def test_lattice_over_the_table_budget_streams_key_rows(self, monkeypatch):
        errors = [random_binary_grid(7, 5, p=0.4), random_soft_grid(7, 8, p=0.4)]
        expected = [score_all(error, LATTICE_30) for error in errors]
        monkeypatch.setattr(selection, "MAX_LATTICE_TABLE_BYTES", 72 * 7**3 * 4 - 1)
        # Any use of the table or of the dense path would raise.
        for name in ("lattice_cell_keys", "rotate_grid", "project_first_hit", "score_view"):
            monkeypatch.setattr(selection, name, None)
        for error, scores in zip(errors, expected):
            mapped = MappedEntries(monkeypatch)
            assert score_all(error, LATTICE_30) == scores
            # Each center's streamed row maps the voxels above the cutoff, once.
            hot = error.values.reshape(-1) > FIRST_HIT_EPS
            for c in LATTICE_30.centers:
                assert np.array_equal(mapped.of(7, c), hot)

    @given(
        st.integers(0, 10_000),
        st.one_of(st.sampled_from([31, 32]), st.integers(1, 33)),
        st.floats(0.0, 0.5),
        st.sampled_from([22.5, 30, 45]),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_streamed_rows_match_the_dense_score_view_oracle(self, seed, dim, density, interval, soft):
        # With no table budget every center's key row is computed on its own.
        error = (random_soft_grid if soft else random_binary_grid)(dim, seed, density)
        lattice = discretize_viewpoints(interval)
        expected = [score_view(error, c, lattice.lattice_index(k)) for k, c in enumerate(lattice.centers)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "MAX_LATTICE_TABLE_BYTES", 0)
            assert score_all(error, lattice) == expected

    def test_binary_and_soft_grids_share_one_lattice_table(self, monkeypatch):
        geometry._lattice_cell_keys.cache_clear()
        lattice = discretize_viewpoints(45)
        mapped = MappedEntries(monkeypatch)
        binary, soft = random_binary_grid(13, 1), random_soft_grid(13, 2)
        score_all(binary, lattice)
        score_all(soft, lattice)
        # The soft grid's scoring maps only the voxels the binary one did not.
        hot = (binary.values.reshape(-1) > 0) | (soft.values.reshape(-1) > FIRST_HIT_EPS)
        for c in lattice.centers:
            assert np.array_equal(mapped.of(13, c), hot)

    def test_at_even_dims_binary_grids_use_the_half_table_and_soft_grids_the_full_one(self, monkeypatch):
        geometry._lattice_cell_keys.cache_clear()
        lattice = discretize_viewpoints(45)
        mapped = MappedEntries(monkeypatch)
        binary, soft = random_binary_grid(12, 1), random_soft_grid(12, 2)
        score_all(binary, lattice)
        score_all(soft, lattice)
        hot_binary, hot_soft = binary.values.reshape(-1) > 0, soft.values.reshape(-1) > FIRST_HIT_EPS
        half = geometry._lattice_cell_keys(12, lattice, half=True)
        full = geometry._lattice_cell_keys(12, lattice)
        assert geometry._lattice_cell_keys.cache_info().currsize == 2
        assert half.rows.shape[1] == 16 and full.rows.shape[1] == 32
        assert np.array_equal(half.slot > 0, hot_binary) and np.array_equal(full.slot > 0, hot_soft)
        # A base center maps the hot voxels of both grids, once per table; an antipode only the soft grid's.
        base = geometry._base_half(lattice)
        for c in lattice.centers:
            assert np.array_equal(mapped.of(12, c), hot_soft.astype(int) + hot_binary * (c in base))

    def test_soft_grid_matches_score_view(self):
        error = random_soft_grid(9, 4, p=0.5)
        expected = [score_view(error, c, LATTICE_30.lattice_index(k)) for k, c in enumerate(LATTICE_30.centers)]
        assert score_all(error, LATTICE_30) == expected

    @given(
        st.integers(0, 10_000),
        st.one_of(st.sampled_from([31, 32]), st.integers(1, 33)),
        st.floats(0.0, 1.0),
        st.sampled_from([22.5, 30, 45]),
    )
    @example(seed=0, dim=8, density=0.0, interval=30)  # all zero
    @example(seed=1, dim=9, density=1.0, interval=45)  # full: about 84 cells per view take two deposits
    @settings(max_examples=30, deadline=None)
    def test_soft_grids_match_the_dense_score_view_oracle(self, seed, dim, density, interval):
        # Values at and below FIRST_HIT_EPS sit next to real hits: a voxel at
        # or below the cutoff is never a first hit, even where it is nearest
        # the camera, and a cell's deposits keep their maximum.
        rng = np.random.default_rng(seed)
        levels = np.array([FIRST_HIT_EPS, FIRST_HIT_EPS / 2, 1e-300, 0.25, 1.0])
        vals = np.where(rng.random(dim**3) < 0.5, rng.choice(levels, dim**3), rng.random(dim**3))
        error = VoxelGrid((vals * (rng.random(dim**3) < density)).reshape(dim, dim, dim))
        lattice = discretize_viewpoints(interval)
        expected = [score_view(error, c, lattice.lattice_index(k)) for k, c in enumerate(lattice.centers)]
        assert score_all(error, lattice) == expected

    def test_values_at_or_below_the_cutoff_score_zero(self):
        error = VoxelGrid(np.full((6, 6, 6), FIRST_HIT_EPS))
        assert [s.score for s in score_all(error, LATTICE_30)] == [0.0] * 72

    def test_soft_grid_makes_no_rotate_grid_call(self, monkeypatch):
        calls = []

        def counting(grid, v):
            calls.append(v)
            return rotate_grid(grid, v)

        monkeypatch.setattr(selection, "rotate_grid", counting)
        error = random_soft_grid(12, 6, p=0.4)
        score_all(error, LATTICE_30)
        assert calls == []
        score_view(error, LATTICE_30.centers[0])
        assert len(calls) == 1


class TestLatticeTotals:
    """The private kernel the loop scores its mismatch voxels with, which ``score_all`` wraps."""

    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("kind", ["bool mask", "0/1 floats", "soft", "all-false mask"])
    def test_totals_equal_the_scores_of_score_all(self, monkeypatch, kind, streamed):
        dim = 11
        grid = random_soft_grid(dim, 4, p=0.4) if kind == "soft" else random_binary_grid(dim, 4, p=0.4)
        if kind == "all-false mask":
            grid = VoxelGrid.zeros((dim, dim, dim))
        expected = [s.score for s in score_all(grid, LATTICE_30)]
        flat = grid.values.reshape(-1)
        # A mask's hot voxels are its ids, as the loop passes them; grids go through score_all's step.
        hot, vals = (np.flatnonzero(flat > 0), None) if kind.endswith("mask") else selection._hot_voxels(flat)
        assert np.array_equal(hot, np.flatnonzero(flat > selection.FIRST_HIT_EPS))
        assert (vals is None) == (kind != "soft")
        if streamed:  # below the table: every center's key row is computed on its own
            monkeypatch.setattr(selection, "MAX_LATTICE_TABLE_BYTES", 72 * dim**3 * 4 - 1)
            monkeypatch.setattr(selection, "lattice_cell_keys", None)
        totals = selection._lattice_totals(dim, hot, vals, LATTICE_30)
        assert totals.dtype == np.float64 and totals.shape == (72,)
        assert totals.tolist() == expected
        assert kind != "all-false mask" or not totals.any()

    @pytest.mark.parametrize("streamed", [False, True])
    def test_odd_dims_score_antipodes_on_their_own(self, monkeypatch, streamed):
        # At odd dims some antipodes round to cells that are not the mirror
        # of their center's, and this mask's totals differ at three antipodal
        # pairs: copying the base half's totals would get them wrong.
        dim = 31
        mask = np.random.default_rng(0).random(dim**3) < 0.02
        grid = VoxelGrid(mask.reshape(dim, dim, dim).astype(np.float64))
        expected = np.array([score_view(grid, c).score for c in LATTICE_30.centers])
        by_pitch = expected.reshape(6, 12)
        assert np.count_nonzero(by_pitch[:, :6] != by_pitch[:, 6:]) == 3
        if streamed:
            monkeypatch.setattr(selection, "MAX_LATTICE_TABLE_BYTES", 0)
        assert selection._lattice_totals(dim, np.flatnonzero(mask), None, LATTICE_30).tolist() == expected.tolist()

    def test_a_streamed_even_dim_mask_maps_only_the_base_half(self, monkeypatch):
        dim = 12
        mask = np.random.default_rng(3).random(dim**3) < 0.3
        grid = VoxelGrid(mask.reshape(dim, dim, dim).astype(np.float64))
        expected = [score_view(grid, c).score for c in LATTICE_30.centers]
        monkeypatch.setattr(selection, "MAX_LATTICE_TABLE_BYTES", 72 * dim**3 * 4 - 1)
        # Any use of either table would raise.
        for name in ("lattice_cell_keys", "_lattice_cell_keys"):
            monkeypatch.setattr(selection, name, None)
        mapped = MappedEntries(monkeypatch)
        assert selection._lattice_totals(dim, np.flatnonzero(mask), None, LATTICE_30).tolist() == expected
        base = geometry._base_half(LATTICE_30)
        for c in LATTICE_30.centers:
            assert np.array_equal(mapped.of(dim, c), mask if c in base else np.zeros(dim**3))

    def test_a_warm_binary_call_allocates_under_six_bytes_per_entry(self):
        # The lookup's fresh keys become ray ids in place (4 bytes per hot
        # voxel and center scored, the 36 of the base half at this even dim)
        # and are scattered in bounded intp chunks; a whole ray-id copy, or an
        # intp cast of all of them, would add 4 or 8.
        dim = 64
        hot = np.flatnonzero(np.random.default_rng(0).random(dim**3) < 0.05)
        selection._lattice_totals(dim, hot, None, LATTICE_30)  # the table now holds these voxels
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            selection._lattice_totals(dim, hot, None, LATTICE_30)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (hot.size * 36) < 6.0


class TestRanking:
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]), min_size=72, max_size=72), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_one_rule_orders_the_loop_and_the_public_ranking(self, values, shuffler):
        # Four values over 72 cells force ties, which the yaw then pitch index settles.
        totals = np.array(values)
        scores = [ViewScore(c, values[k], LATTICE_30.lattice_index(k)) for k, c in enumerate(LATTICE_30.centers)]
        shuffler.shuffle(scores)
        ranked = rank_scores(scores)
        assert ranked == sorted(scores, key=lambda s: (-s.score, s.lattice_index))
        for n in range(1, 73):
            assert selection._top_centers(totals, LATTICE_30, n) == select_top_n(scores, n)


class TestSelectTopN:
    def make_scores(self, values):
        lat = discretize_viewpoints(90)
        return [
            ViewScore(viewpoint=lat.centers[k], score=v, lattice_index=lat.lattice_index(k))
            for k, v in enumerate(values)
        ]

    def test_tie_breaks_by_ascending_lattice_index(self):
        scores = self.make_scores([5.0, 5.0, 3.0])
        picked = select_top_n(scores, 2)
        assert picked == [scores[0].viewpoint, scores[1].viewpoint]

    def test_yaw_index_breaks_ties_before_pitch_index(self):
        lat = discretize_viewpoints(90)
        scores = [
            ViewScore(lat.center_at(1, 1), 5.0, (1, 1)),
            ViewScore(lat.center_at(0, 1), 5.0, (0, 1)),
            ViewScore(lat.center_at(2, 0), 5.0, (2, 0)),
        ]
        picked = select_top_n(scores, 2)
        assert picked == [lat.center_at(0, 1), lat.center_at(1, 1)]

    def test_n_equal_to_input_returns_descending(self):
        scores = self.make_scores([1.0, 4.0, 2.0, 3.0, 0.0, 5.0, 6.0, 1.5])
        picked = select_top_n(scores, len(scores))
        ranked = [s.score for s in rank_scores(scores)]
        assert ranked == sorted(ranked, reverse=True)
        assert picked[0] == scores[6].viewpoint

    def test_rejects_out_of_range_n(self):
        scores = self.make_scores([1.0] * 8)
        with pytest.raises(ValueError):
            select_top_n(scores, 0)
        with pytest.raises(ValueError):
            select_top_n(scores, 9)

    @given(st.integers(0, 1000))
    def test_permutation_stable(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, size=8).astype(float)
        scores = self.make_scores(values)
        shuffled = list(scores)
        rng.shuffle(shuffled)
        assert select_top_n(shuffled, 3) == select_top_n(scores, 3)

    def test_pitch_cap_error_selects_the_top_pitch_bucket(self):
        # Four down-looking views tie exactly on the symmetric cap; the tie
        # rule picks the lowest yaw index, which lies in the +75 bucket.
        err = pitch_cap_grid()
        ranked = rank_scores(score_all(err, LATTICE_30))
        assert ranked[0].viewpoint == Viewpoint(-165.0, 75.0)
        top4 = {s.score for s in ranked[:4]}
        assert top4 == {66.0}
        assert ranked[3].score - ranked[4].score == pytest.approx(4.35, abs=0.01)
        assert select_top_n(ranked, 1) == [Viewpoint(-165.0, 75.0)]


class TestSelectAndSample:
    def test_zero_error_returns_jittered_leading_centers(self):
        # All-zero scores degrade to the tie rule: yaw index first, so the
        # leading entries share yaw bucket 0 and walk up the pitch buckets.
        g = random_binary_grid(8, 5)
        out = select_and_sample(g, g, 30, 3, np.random.default_rng(0))
        assert len(out) == 3
        leaders = [LATTICE_30.center_at(0, j) for j in range(3)]
        for v, center in zip(out, leaders):
            assert abs(v.yaw - center.yaw) < 25.0
            assert abs(v.pitch - center.pitch) < 25.0

    def test_sampling_sigma_is_interval_sixth(self):
        # K=30 gives sigma 5: over many seeds the yaw jitter spread around
        # the winning center matches 5 degrees.
        vals = np.zeros((9, 9, 9))
        vals[4, 4, 4] = 1.0
        pred = VoxelGrid(vals)
        gt = VoxelGrid.zeros((9, 9, 9))
        yaws = []
        for seed in range(500):
            out = select_and_sample(pred, gt, 30, 1, np.random.default_rng(seed))
            yaws.append(out[0].yaw)
        spread = np.std(np.array(yaws) - LATTICE_30.centers[0].yaw)
        assert abs(spread - 5.0) < 0.5

    def test_fixed_seed_reproducible(self):
        pred = random_binary_grid(8, 1)
        gt = random_binary_grid(8, 2)
        a = select_and_sample(pred, gt, 30, 3, np.random.default_rng(42))
        b = select_and_sample(pred, gt, 30, 3, np.random.default_rng(42))
        assert a == b

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            select_and_sample(
                VoxelGrid.zeros((4, 4, 4)),
                VoxelGrid.zeros((8, 8, 8)),
                30,
                1,
                np.random.default_rng(0),
            )

    def test_octant_patch_draws_views_facing_the_patch(self):
        # All three sampled poses land within 45 degrees of the patch's
        # outward diagonal; the ball hides the patch from everywhere else.
        err = octant_patch_grid()
        gt = VoxelGrid.zeros(err.dims)
        outward = np.ones(3) / np.sqrt(3.0)
        for seed in (3, 11, 2026):
            sampled = select_and_sample(err, gt, 30, 3, np.random.default_rng(seed))
            for v in sampled:
                ang = great_circle_deg(view_direction(v), outward)
                assert ang < 45.0, (seed, v, ang)

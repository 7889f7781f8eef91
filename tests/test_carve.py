"""Visual-hull carving and the shared voxel-to-pixel projection kernel."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsel.carve import ViewObservation, carve, project_voxel
from voxsel.geometry import Viewpoint, discretize_viewpoints, rotated_cells
from voxsel.grid import VoxelGrid, iou, threshold_grid
from voxsel.synthesis import ShapeSpec, SilhouetteImage, generate_shape, render_silhouette, safe_radius

from .mapping_counts import MappedEntries
from .oracles import AXIS_VIEWPOINTS, extrude_silhouette, quarter_turn_matrix


def observe(gt, views):
    return [ViewObservation(v, render_silhouette(gt, v)) for v in views]


def centered_cube(dim=16, lo=5, hi=11):
    vals = np.zeros((dim, dim, dim))
    vals[lo:hi, lo:hi, lo:hi] = 1.0
    return VoxelGrid(vals)


def random_shape(seed, dim=16):
    kinds = ("box", "sphere", "ell", "cross", "union-of-boxes", "random-blob")
    kind = kinds[seed % len(kinds)]
    return generate_shape(ShapeSpec(kind), dim, np.random.default_rng(seed))


AXIS_VIEWS = [Viewpoint(yaw, pitch) for yaw, pitch in AXIS_VIEWPOINTS.values()]


def dense_gather_carve(observations, dim):
    """Carving as a gather through the dense forward map: off-image pixels count as outside."""
    keep = np.ones(dim**3, dtype=bool)
    for obs in observations:
        cells, _ = rotated_cells(dim, obs.viewpoint)
        py, pz = cells[:, 1], cells[:, 2]
        on_image = (py >= 0) & (py < dim) & (pz >= 0) & (pz < dim)
        inside = np.zeros(keep.shape, dtype=bool)
        inside[on_image] = obs.silhouette.pixels[py[on_image], pz[on_image]]
        keep &= inside
    return keep.reshape((dim, dim, dim))


class TestProjectVoxel:
    def test_identity_view_maps_index_to_its_own_pixel(self):
        for x, y, z in [(0, 0, 0), (3, 7, 2), (15, 15, 15)]:
            assert project_voxel((x, y, z), Viewpoint(0.0, 0.0), 16) == (y, z)

    def test_center_voxel_hits_center_pixel_for_every_view(self):
        dim = 9
        for v in discretize_viewpoints(30).centers:
            assert project_voxel((4, 4, 4), v, dim) == (4, 4)

    def test_quarter_turns_match_the_permutation_oracle(self):
        dim = 8
        half = (dim - 1) / 2.0
        for (yaw, pitch), (x, y, z) in itertools.product(
            AXIS_VIEWPOINTS.values(), [(0, 1, 2), (7, 0, 5), (3, 3, 3)]
        ):
            rot = quarter_turn_matrix(round(yaw / 90), round(pitch / 90))
            target = rot @ (np.array([x, y, z]) - half) + half
            expect = (int(round(target[1])), int(round(target[2])))
            got = project_voxel((x, y, z), Viewpoint(yaw, pitch), dim)
            assert got == expect, (yaw, pitch, (x, y, z))

    def test_off_image_projection_returns_none(self):
        # A corner voxel swings off the frame under a diagonal yaw.
        assert project_voxel((0, 0, 0), Viewpoint(45.0, 0.0), 8) is None

    def test_out_of_grid_index_rejected(self):
        with pytest.raises(ValueError):
            project_voxel((8, 0, 0), Viewpoint(0.0, 0.0), 8)


class TestCarveBasics:
    def test_empty_observation_list_rejected(self):
        with pytest.raises(ValueError):
            carve([], 8)

    def test_silhouette_dim_mismatch_rejected(self):
        sil = SilhouetteImage(np.zeros((8, 8), dtype=bool))
        with pytest.raises(ValueError):
            carve([ViewObservation(Viewpoint(0.0, 0.0), sil)], 16)

    def test_non_positive_dim_rejected(self):
        sil = SilhouetteImage(np.zeros((1, 1), dtype=bool))
        with pytest.raises(ValueError, match="dim must be positive, got 0"):
            carve([ViewObservation(Viewpoint(0.0, 0.0), sil)], 0)

    @pytest.mark.parametrize("dim", [16.0, 16.5, True])
    def test_a_dim_that_is_not_an_integer_is_rejected(self, dim):
        sil = SilhouetteImage(np.zeros((16, 16), dtype=bool))
        with pytest.raises(ValueError, match=f"dim must be an integer, got {dim!r}"):
            carve([ViewObservation(Viewpoint(0.0, 0.0), sil)], dim)

    def test_output_is_binary(self):
        gt = centered_cube()
        out = carve(observe(gt, [Viewpoint(30.0, 45.0)]), 16)
        assert set(np.unique(out.values)) <= {0.0, 1.0}

    def test_single_view_extrudes_the_silhouette(self):
        # One observation constrains nothing along the line of sight, so the
        # hull is the silhouette swept through the volume; checked against a
        # hand-derived backprojection for all six axis views.
        gt = random_shape(3)
        for label, (yaw, pitch) in AXIS_VIEWPOINTS.items():
            v = Viewpoint(yaw, pitch)
            sil = render_silhouette(gt, v)
            out = carve([ViewObservation(v, sil)], 16)
            expect = extrude_silhouette(sil.pixels, label, 16)
            assert np.array_equal(out.values > 0, expect), label


class TestCarveRecovery:
    def test_axis_views_recover_a_centered_cube_exactly(self):
        gt = centered_cube()
        out = carve(observe(gt, AXIS_VIEWS), 16)
        assert np.array_equal(out.values, gt.values)

    def test_axis_views_equal_intersection_of_extrusions(self):
        gt = random_shape(7)
        sils = {label: render_silhouette(gt, Viewpoint(*vp)) for label, vp in AXIS_VIEWPOINTS.items()}
        out = carve(
            [ViewObservation(Viewpoint(*AXIS_VIEWPOINTS[label]), sil) for label, sil in sils.items()],
            16,
        )
        expect = np.ones((16, 16, 16), dtype=bool)
        for label, sil in sils.items():
            expect &= extrude_silhouette(sil.pixels, label, 16)
        assert np.array_equal(out.values > 0, expect)

    def test_sphere_two_orthogonal_views_frozen_iou(self):
        gt = generate_shape(ShapeSpec("sphere", radius=10.0), 32, np.random.default_rng(1))
        out = carve(observe(gt, [Viewpoint(0.0, 0.0), Viewpoint(-90.0, 0.0)]), 32)
        pred = threshold_grid(out)
        truth = threshold_grid(gt)
        assert truth.count == 4224
        assert pred.count == 5384
        assert np.all(pred.bits | ~truth.bits)
        assert iou(pred, truth) == pytest.approx(4224 / 5384)
        assert iou(pred, truth) < 1.0


class TestCarveMatchesDenseGather:
    @given(st.integers(0, 10_000), st.integers(2, 17), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_random_silhouettes_and_views(self, seed, dim, n_views):
        # Random silhouettes keep voxels whose rotated depth leaves the cube,
        # which carving must not drop.
        rng = np.random.default_rng(seed)
        obs = [
            ViewObservation(
                Viewpoint(rng.uniform(-180, 180), rng.uniform(-90, 90)),
                SilhouetteImage(rng.random((dim, dim)) < 0.8),
            )
            for _ in range(n_views)
        ]
        assert np.array_equal(carve(obs, dim).values > 0, dense_gather_carve(obs, dim))


class TestCarveOnVoxelIds:
    """``carve(..., voxels=)``: only the listed ids can survive, and only the surviving ones are mapped."""

    VIEWS = [Viewpoint(25.0, -10.0), Viewpoint(-65.0, 45.0), Viewpoint(120.0, 80.0), Viewpoint(0.0, 0.0)]

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_carving_into_the_earlier_hull_equals_carving_everything(self, split):
        gt = random_shape(11)
        obs = observe(gt, self.VIEWS)
        earlier = carve(obs[:split], 16)
        later = carve(obs[split:], 16, voxels=np.flatnonzero(earlier.values))
        assert np.array_equal(later.values, carve(obs, 16).values)
        assert np.array_equal(carve(obs[split:], 16, voxels=np.arange(16**3)).values, carve(obs[split:], 16).values)

    @given(st.integers(0, 10_000), st.integers(2, 12), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_the_carve_of_any_ids_is_the_full_carve_within_them(self, seed, dim, n_views):
        # Unsorted ids with repeats, over random silhouettes.
        rng = np.random.default_rng(seed)
        obs = [
            ViewObservation(
                Viewpoint(rng.uniform(-180, 180), rng.uniform(-90, 90)),
                SilhouetteImage(rng.random((dim, dim)) < 0.8),
            )
            for _ in range(n_views)
        ]
        voxels = rng.integers(0, dim**3, size=rng.integers(1, 2 * dim**3))
        within = np.zeros(dim**3, dtype=bool)
        within[voxels] = True
        expected = dense_gather_carve(obs, dim) & within.reshape((dim,) * 3)
        assert np.array_equal(carve(obs, dim, voxels=voxels).values > 0, expected)

    def test_no_ids_give_an_empty_grid(self):
        obs = observe(random_shape(12), self.VIEWS[:2])
        for voxels in (np.array([], dtype=np.int64), [], np.array([])):
            out = carve(obs, 16, voxels=voxels)
            assert out.dims == (16, 16, 16) and not out.values.any()

    def test_bad_ids_or_silhouettes_are_rejected(self):
        obs = observe(random_shape(12), self.VIEWS[:1])
        for message, voxels in [
            ("a 1-D array", np.arange(16**3).reshape(16, -1)),
            ("a 1-D array", np.arange(4.0)),
            ("a 1-D array", np.ones(16**3, dtype=bool)),
            (r"in \[0, 4096\)", np.array([3, -1])),
            (r"in \[0, 4096\)", np.array([0, 16**3])),
        ]:
            with pytest.raises(ValueError, match=f"voxels must be .*{message}"):
                carve(obs, 16, voxels=voxels)
        small = ViewObservation(Viewpoint(0.0, 0.0), SilhouetteImage(np.zeros((8, 8), dtype=bool)))
        with pytest.raises(ValueError, match="do not match grid dim 16"):
            carve([*obs, small], 16, voxels=np.arange(10))

    def test_each_view_maps_only_the_ids_that_survive_the_earlier_ones(self, monkeypatch):
        dim = 16
        gt = random_shape(11)
        obs = observe(gt, self.VIEWS)
        # Every third voxel, unsorted: a view never maps an id outside them.
        voxels = np.random.default_rng(3).permutation(np.arange(0, dim**3, 3))
        within = np.zeros(dim**3, dtype=bool)
        within[voxels] = True
        singles = [carve([o], dim).values.reshape(-1) > 0 for o in obs]
        mapped = MappedEntries(monkeypatch)
        carve(obs, dim, voxels=voxels)
        alive = within
        for o, single in zip(obs, singles):
            assert np.array_equal(mapped.of(dim, o.viewpoint), alive)
            alive = alive & single
        assert mapped.most() == 1 and len(mapped.counts) == len(obs)
        assert mapped.of(dim, obs[-1].viewpoint).sum() < within.sum()


class TestCarveAlgebra:
    @given(st.integers(0, 25), st.integers(8, 32), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_conservative_for_ground_truth_silhouettes(self, seed, dim, generated):
        # The carve keeps a ground-truth voxel only while its rotated cell
        # stays inside the cube, which holds within the safe ball: for every
        # generated shape and for any voxel set drawn there.
        rng = np.random.default_rng(seed + 1000)
        if generated:
            gt = random_shape(seed, dim)
        else:
            centered = np.indices((dim,) * 3).reshape(3, -1).T - (dim - 1) / 2
            ball = np.linalg.norm(centered, axis=1) <= safe_radius(dim)
            drawn = ball & (rng.random(dim**3) < rng.uniform(0.01, 0.5))
            gt = VoxelGrid(drawn.reshape((dim,) * 3).astype(np.float64))
        views = [
            Viewpoint(rng.uniform(-180, 180), rng.uniform(-90, 90)) for _ in range(4)
        ]
        out = carve(observe(gt, views), dim)
        assert np.all((out.values > 0) | (gt.values == 0))

    def test_carve_is_the_and_of_one_view_carves(self):
        gt = random_shape(7)
        obs = observe(gt, [Viewpoint(25.0, -10.0), Viewpoint(-65.0, 45.0), Viewpoint(120.0, 80.0)])
        singles = [carve([o], 16).values > 0 for o in obs]
        assert np.array_equal(carve(obs, 16).values > 0, np.logical_and.reduce(singles))

    def test_more_views_never_add_voxels(self):
        gt = random_shape(11)
        views = [Viewpoint(0.0, 0.0), Viewpoint(-90.0, 0.0), Viewpoint(40.0, 30.0), Viewpoint(-140.0, -60.0)]
        prev = None
        for k in range(1, len(views) + 1):
            out = carve(observe(gt, views[:k]), 16).values > 0
            if prev is not None:
                assert np.all(prev | ~out)
            prev = out

    def test_duplicate_observations_change_nothing(self):
        gt = random_shape(13)
        obs = observe(gt, [Viewpoint(25.0, -10.0), Viewpoint(-65.0, 45.0)])
        a = carve(obs, 16)
        b = carve(obs + [obs[0]], 16)
        assert np.array_equal(a.values, b.values)

    @given(st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_observation_order_is_irrelevant(self, seed):
        gt = random_shape(seed)
        rng = np.random.default_rng(seed)
        views = [Viewpoint(rng.uniform(-180, 180), rng.uniform(-90, 90)) for _ in range(3)]
        obs = observe(gt, views)
        shuffled = list(obs)
        rng.shuffle(shuffled)
        assert np.array_equal(carve(obs, 16).values, carve(shuffled, 16).values)

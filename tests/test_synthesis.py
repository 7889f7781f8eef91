"""Silhouette rendering, view distributions, and synthetic shape generation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsel import synthesis
from voxsel.carve import project_voxel
from voxsel.geometry import Viewpoint, discretize_viewpoints, rotate_grid
from voxsel.grid import VoxelGrid
from voxsel.harness import make_corpus
from voxsel.selection import project_first_hit
from voxsel.synthesis import (
    SHAPE_KINDS,
    ShapeSpec,
    SilhouetteImage,
    ViewDistribution,
    generate_shape,
    render_silhouette,
    safe_radius,
    sample_dataset_viewpoints,
)

from .oracles import sphere_mask


def rng_of(seed):
    return np.random.default_rng(seed)


class TestSilhouetteImage:
    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            SilhouetteImage(np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(4, 4, 1), (4, 0)])
    def test_rejects_non_2d_or_an_empty_axis(self, shape):
        with pytest.raises(ValueError, match="2-D with positive dims"):
            SilhouetteImage(np.zeros(shape, dtype=bool))

    def test_count(self):
        px = np.zeros((2, 3), dtype=bool)
        px[1, 2] = True
        assert SilhouetteImage(px).count == 1


class TestRenderSilhouette:
    def test_centered_cube_gives_square(self):
        vals = np.zeros((16, 16, 16))
        vals[5:11, 5:11, 5:11] = 1.0
        sil = render_silhouette(VoxelGrid(vals), Viewpoint(0.0, 0.0))
        expect = np.zeros((16, 16), dtype=bool)
        expect[5:11, 5:11] = True
        assert np.array_equal(sil.pixels, expect)
        assert sil.count == 36

    def test_empty_grid_gives_empty_silhouette(self):
        sil = render_silhouette(VoxelGrid.zeros((8, 8, 8)), Viewpoint(30.0, -45.0))
        assert sil.count == 0

    def test_sphere_silhouette_near_disc_area(self):
        # pi * 10^2 = 314.16; the axis view and the 72 lattice views stay
        # within the frozen envelope (oblique aliasing can thin the splat).
        gt = generate_shape(ShapeSpec("sphere", radius=10.0), 32, rng_of(1))
        axis = render_silhouette(gt, Viewpoint(0.0, 0.0))
        assert axis.count == 316
        counts = [render_silhouette(gt, v).count for v in discretize_viewpoints(30).centers]
        assert min(counts) == 320
        assert max(counts) == 332
        ideal = np.pi * 100.0
        assert abs(axis.count - ideal) / ideal < 0.10
        assert all(abs(c - ideal) / ideal < 0.10 for c in counts)

    def test_threshold_is_applied_before_rendering(self):
        vals = np.zeros((8, 8, 8))
        vals[4, 4, 4] = 0.3
        sil = render_silhouette(VoxelGrid(vals), Viewpoint(0.0, 0.0), tau=0.4)
        assert sil.count == 0
        sil = render_silhouette(VoxelGrid(vals), Viewpoint(0.0, 0.0), tau=0.2)
        assert sil.count == 1

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError, match=r"rendering requires a cubic grid, got dims \(4, 4, 8\)"):
            render_silhouette(VoxelGrid.zeros((4, 4, 8)), Viewpoint(0.0, 0.0))

    @given(st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_equals_nonzero_mask_of_first_hit_projection(self, seed):
        rng = rng_of(seed)
        gt = VoxelGrid((rng.random((12, 12, 12)) < 0.2).astype(np.float64))
        v = Viewpoint(rng.uniform(-180, 180), rng.uniform(-90, 90))
        sil = render_silhouette(gt, v)
        proj = project_first_hit(rotate_grid(gt, v))
        assert np.array_equal(sil.pixels, proj.pixels > 0.0)

    @given(st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_every_occupied_voxel_projects_inside_the_silhouette(self, seed):
        # The consistency that makes carving conservative.
        gt = generate_shape(ShapeSpec(SHAPE_KINDS[seed % len(SHAPE_KINDS)]), 12, rng_of(seed))
        rng = rng_of(seed + 500)
        v = Viewpoint(rng.uniform(-180, 180), rng.uniform(-90, 90))
        sil = render_silhouette(gt, v)
        for x, y, z in zip(*np.nonzero(gt.values)):
            pixel = project_voxel((int(x), int(y), int(z)), v, 12)
            assert pixel is not None
            assert sil.pixels[pixel]


class TestViewDistributions:
    def test_aligned_is_the_fixed_ring(self):
        views = sample_dataset_viewpoints(ViewDistribution("aligned"), rng_of(0))
        assert len(views) == 24
        assert all(v.pitch == 60.0 for v in views)
        assert [v.yaw for v in views] == [-180.0 + 15.0 * k for k in range(24)]

    def test_aligned_is_seed_independent(self):
        a = sample_dataset_viewpoints(ViewDistribution("aligned"), rng_of(1))
        b = sample_dataset_viewpoints(ViewDistribution("aligned"), rng_of(999))
        assert a == b

    def test_aligned_rejects_other_view_counts(self):
        with pytest.raises(ValueError):
            sample_dataset_viewpoints(ViewDistribution("aligned", 12), rng_of(0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ViewDistribution("ring")

    def test_non_positive_view_count_rejected(self):
        with pytest.raises(ValueError, match="views_per_object must be positive, got 0"):
            ViewDistribution("spherical", 0)

    @pytest.mark.parametrize("kind, count", [("aligned", 24.0), ("spherical", True), ("hemispherical", "8")])
    def test_a_view_count_that_is_not_an_int_rejected(self, kind, count):
        with pytest.raises(ValueError, match=f"views_per_object must be an integer, got {count!r}"):
            ViewDistribution(kind, count)

    @given(st.integers(0, 100))
    def test_hemispherical_pitch_range(self, seed):
        views = sample_dataset_viewpoints(ViewDistribution("hemispherical", 8), rng_of(seed))
        assert len(views) == 8
        assert all(0.0 <= v.pitch <= 90.0 for v in views)
        assert all(-180.0 <= v.yaw < 180.0 for v in views)

    def test_spherical_pitch_distribution_is_centered(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
        views = sample_dataset_viewpoints(ViewDistribution("spherical", 10_000), rng)
        mean_pitch = float(np.mean([v.pitch for v in views]))
        assert abs(mean_pitch) < 2.0

    def test_random_kinds_are_reproducible(self):
        dist = ViewDistribution("spherical", 16)
        assert sample_dataset_viewpoints(dist, rng_of(5)) == sample_dataset_viewpoints(dist, rng_of(5))


class TestGenerateShape:
    def test_exact_box_has_512_voxels(self):
        g = generate_shape(ShapeSpec("box", size=(8, 8, 8)), 32, rng_of(0))
        assert int(g.values.sum()) == 512
        assert np.array_equal(np.unique(g.values), np.array([0.0, 1.0]))

    def test_exact_sphere_count_frozen(self):
        # Ideal volume (4/3) pi 10^3 = 4188.8; the lattice count lands 0.84%
        # above it, within the 5% discretization budget.
        g = generate_shape(ShapeSpec("sphere", radius=10.0), 32, rng_of(1))
        count = int(g.values.sum())
        assert count == 4224
        ideal = 4.0 / 3.0 * np.pi * 1000.0
        assert abs(count - ideal) / ideal < 0.05
        assert np.array_equal(g.values > 0, sphere_mask(32, 10.0))

    def test_determinism_per_seed(self):
        for kind in SHAPE_KINDS:
            a = generate_shape(ShapeSpec(kind), 16, rng_of(77))
            b = generate_shape(ShapeSpec(kind), 16, rng_of(77))
            assert np.array_equal(a.values, b.values), kind

    @given(st.integers(0, 60), st.sampled_from(SHAPE_KINDS), st.sampled_from([8, 9, 11, 16, 32]))
    @settings(max_examples=80, deadline=None)
    def test_occupancy_bounds_and_safe_ball(self, seed, kind, dim):
        g = generate_shape(ShapeSpec(kind), dim, rng_of(seed))
        frac = g.values.sum() / g.values.size
        assert 0.01 <= frac <= 0.60
        half = (dim - 1) / 2.0
        coords = np.indices((dim, dim, dim), dtype=np.float64) - half
        r = np.sqrt((coords**2).sum(axis=0))
        assert np.all(r[g.values > 0] <= safe_radius(dim) + 1e-9)

    @pytest.mark.parametrize(
        "kind, dim, seed",
        [("cross", 11, 156), ("cross", 11, 604), ("cross", 11, 743), ("cross", 11, 753), ("box", 10, 532), ("box", 10, 743)],
    )
    def test_small_dim_floors_keep_occupancy_in_bounds(self, kind, dim, seed):
        # Without the box and cross floors these land at 0.977% (cross) and
        # 0.800% (box) and are rejected.
        g = generate_shape(ShapeSpec(kind), dim, rng_of(seed))
        assert 0.01 <= g.values.sum() / g.values.size <= 0.60

    @pytest.mark.parametrize("dim", [8, 9, 32])
    def test_safe_ball_is_cached_read_only_per_dim(self, dim):
        safe = synthesis._safe_ball(dim)
        assert synthesis._safe_ball(dim) is safe
        assert not safe.flags.writeable
        assert np.array_equal(safe, synthesis._ball_mask(dim, np.zeros(3), safe_radius(dim)))

    def test_a_corpus_builds_the_safe_ball_once(self, monkeypatch):
        # Every shape of one dim is checked against the same safe ball.
        built = []
        ball_mask = synthesis._ball_mask

        def counting_ball_mask(dim, center, radius):
            if radius == safe_radius(dim) and not np.any(center):
                built.append(dim)
            return ball_mask(dim, center, radius)

        monkeypatch.setattr(synthesis, "_ball_mask", counting_ball_mask)
        synthesis._safe_ball.cache_clear()
        make_corpus(12, dim=12, seed=3)
        assert built == [12]

    def test_small_dim_corpus_generates(self):
        corpus = make_corpus(12, dim=11, seed=255)
        assert [o.category for o in corpus] == list(SHAPE_KINDS) * 2

    def test_exact_box_low_corner(self):
        g = generate_shape(ShapeSpec("box", size=(5, 8, 11)), 31, rng_of(0))
        occupied = np.argwhere(g.values > 0)
        assert occupied.min(axis=0).tolist() == [13, 11, 10]
        assert occupied.max(axis=0).tolist() == [17, 18, 20]
        assert len(occupied) == 5 * 8 * 11

    def test_shapes_are_pinned_byte_for_byte(self):
        # Every kind at dims 12-64 and the exact primitives, byte for byte:
        # reports and benchmark digests start from these shapes.
        digest = hashlib.sha256()
        for dim in (12, 16, 31, 32, 64):
            for kind in SHAPE_KINDS:
                for seed in range(10):
                    digest.update(generate_shape(ShapeSpec(kind), dim, rng_of(seed)).values.tobytes())
        for spec, dim in [
            (ShapeSpec("box", size=(8, 8, 8)), 32),
            (ShapeSpec("box", size=(5, 8, 11)), 31),
            (ShapeSpec("box", size=(7, 4, 9)), 16),
            (ShapeSpec("sphere", radius=10.0), 32),
            (ShapeSpec("sphere", radius=4.5), 16),
        ]:
            digest.update(generate_shape(spec, dim, rng_of(0)).values.tobytes())
        assert digest.hexdigest() == "5ae9b4e1321abcf9f85afeba9df2bb5a7d20135613a21629dca1b958fc47dda0"

    def test_rotation_never_clips_generated_shapes(self):
        g = generate_shape(ShapeSpec("cross"), 16, rng_of(9))
        n = np.count_nonzero(g.values)
        for v in [Viewpoint(45.0, 45.0), Viewpoint(-135.0, -75.0), Viewpoint(170.0, 30.0)]:
            rotated = rotate_grid(g, v)
            # Forward splat may merge cells but never drops safe-ball content
            # off the cube.
            assert np.count_nonzero(rotated.values) >= 0.8 * n

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError):
            generate_shape(ShapeSpec("box"), 7, rng_of(0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ShapeSpec("torus")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "box", "size": (2.5, 4, 4)}, "box size must be a tuple of three positive ints"),
            ({"kind": "box", "size": (4, 4)}, "box size must be a tuple of three positive ints"),
            ({"kind": "box", "size": (4, 0, 4)}, "box size must be a tuple of three positive ints"),
            ({"kind": "sphere", "radius": -8.0}, "sphere radius must be a positive finite number"),
            ({"kind": "sphere", "radius": float("nan")}, "sphere radius must be a positive finite number"),
            ({"kind": "sphere", "size": (4, 4, 4)}, "size applies only to a box, got kind 'sphere'"),
            ({"kind": "box", "radius": 3.0}, "radius applies only to a sphere, got kind 'box'"),
        ],
    )
    def test_unusable_fields_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ShapeSpec(**kwargs)

    def test_exact_box_below_the_occupancy_floor_rejected(self):
        # 8 of 32,768 voxels is 0.024%, under the 1% floor.
        with pytest.raises(ValueError, match=r"occupancy 0.024% outside \[1%, 60%\]"):
            generate_shape(ShapeSpec("box", size=(2, 2, 2)), 32, rng_of(0))

    def test_oversized_exact_box_rejected(self):
        with pytest.raises(ValueError):
            generate_shape(ShapeSpec("box", size=(40, 8, 8)), 32, rng_of(0))

    @pytest.mark.parametrize(
        "spec",
        [ShapeSpec("sphere", radius=100.0), ShapeSpec("box", size=(32, 32, 32)), ShapeSpec("box", size=(20, 20, 20))],
    )
    def test_exact_shape_leaving_the_safe_ball_rejected(self, spec):
        # Clipped to the safe ball, the first two would be the whole ball and
        # the third would lose 184 of its 8,000 voxels.
        with pytest.raises(ValueError, match="does not fit the safe ball of dim 32"):
            generate_shape(spec, 32, rng_of(0))

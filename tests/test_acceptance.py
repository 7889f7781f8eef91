"""Acceptance suite: one test per numbered criterion, each printing a verdict.

Run ``pytest tests/test_acceptance.py -v -rA`` to see every
``ACCEPTANCE C<k>: PASS/FAIL - detail`` line; a FAIL line is followed by the
assertion that fails the build. Timing budgets are asserted alongside the
functional checks.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from voxsel.carve import ViewObservation, carve
from voxsel.geometry import (
    Viewpoint,
    discretize_viewpoints,
    rotate_grid,
    sample_gaussian_view,
)
from voxsel.grid import DEFAULT_THRESHOLD, OccupancySet, VoxelGrid, error_grid, threshold_grid
from voxsel.harness import LoopConfig, compare_policies, make_corpus, run_loop
from voxsel.io import FormatError, parse_sil, parse_vxg, read_vxg, sil_bytes, viewpoint_from_dict, vxg_bytes, write_vxg
from voxsel.selection import project_first_hit, score_all, select_and_sample, select_top_n
from voxsel.synthesis import (
    SilhouetteImage,
    ViewDistribution,
    render_silhouette,
    sample_dataset_viewpoints,
)

from .child_env import child_env
from .oracles import naive_first_hit, quarter_turn_rotate


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE C{criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corpus20():
    return make_corpus(20, dim=32, seed=0)


def _loop_config(**kw):
    # update_fraction=1.0 so every object is exercised every iteration;
    # the 5% default would leave most of a 20-object corpus untouched.
    base = dict(iterations=3, views_per_round=3, update_fraction=1.0)
    base.update(kw)
    return LoopConfig(**base)


def _observation_stages(report, corpus, tau=DEFAULT_THRESHOLD):
    """Rebuild each object's cumulative observation list per iteration.

    Rendering is deterministic, so re-rendering the recorded viewpoints
    reproduces exactly the view sets the run carved from.
    """
    stages = []
    for rec, obj in zip(report.objects, corpus):
        views = [viewpoint_from_dict(d) for d in rec["initial_views"]]
        obs = [ViewObservation(viewpoint=v, silhouette=render_silhouette(obj.gt, v, tau)) for v in views]
        per_iter = [list(obs)]
        for it in rec["iterations"][1:]:
            for d in it["selected"]:
                v = viewpoint_from_dict(d)
                obs.append(ViewObservation(viewpoint=v, silhouette=render_silhouette(obj.gt, v, tau)))
            per_iter.append(list(obs))
        stages.append(per_iter)
    return stages


def _soundness_violations(corpus, stages, rng):
    """Check superset-of-GT, monotone refinement, and order invariance."""
    violations = []
    for obj, per_iter in zip(corpus, stages):
        dim = obj.gt.dims[0]
        gt_bits = threshold_grid(obj.gt).bits
        prev_hull = None
        for t, obs in enumerate(per_iter):
            hull = carve(obs, dim).values > 0.5
            if not bool(np.all(hull[gt_bits])):
                violations.append((obj.name, t, "superset"))
            if prev_hull is not None and not bool(np.all(prev_hull[hull])):
                violations.append((obj.name, t, "monotone"))
            order = rng.permutation(len(obs))
            shuffled = carve([obs[i] for i in order], dim).values > 0.5
            if not np.array_equal(hull, shuffled):
                violations.append((obj.name, t, "order"))
            prev_hull = hull
    return violations


def test_criterion_01_projection_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    lattice = discretize_viewpoints(30)
    dims = (4, 8, 16)
    densities = (0.05, 0.3, 1.0)
    mismatches = 0
    checked = 0
    for g in range(100):
        dim = dims[g % 3]
        density = densities[(g // 3) % 3]
        vals = rng.random((dim, dim, dim)) * (rng.random((dim, dim, dim)) < density)
        grid = VoxelGrid(vals)
        for center in lattice.centers:
            rotated = rotate_grid(grid, center)
            got = project_first_hit(rotated).pixels
            want = naive_first_hit(rotated.values)
            if not np.array_equal(got, want):
                mismatches += 1
            checked += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    _report(1, ok, f"{checked} projections vs per-ray scan, {mismatches} mismatches, {elapsed:.1f}s (budget 30s)")
    assert ok


def test_criterion_02_rotation_permutation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    quarter_pairs = [(yq, pq) for yq in (-2, -1, 0, 1) for pq in (-1, 0, 1)]
    mismatches = 0
    for _ in range(50):
        vals = rng.random((8, 8, 8)) * (rng.random((8, 8, 8)) < 0.5)
        grid = VoxelGrid(vals)
        for yq, pq in quarter_pairs:
            got = rotate_grid(grid, Viewpoint(90.0 * yq, 90.0 * pq)).values
            want = quarter_turn_rotate(vals, yq, pq)
            if not np.array_equal(got, want):
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    _report(2, ok, f"50 grids x {len(quarter_pairs)} quarter-turn views, {mismatches} mismatches, {elapsed:.1f}s (budget 10s)")
    assert ok


def test_criterion_03_reference_constants():
    lattice = discretize_viewpoints(30)
    lattice_ok = len(lattice.centers) == 72 and lattice.centers[0] == Viewpoint(-165.0, -75.0)

    # Replaying select_and_sample's draws with sigma fixed at 30/6 = 5
    # degrees must reproduce its output exactly.
    vals = np.zeros((8, 8, 8))
    vals[6, 4, 4] = 1.0
    pred, gt = VoxelGrid(vals), VoxelGrid(np.zeros((8, 8, 8)))
    got = select_and_sample(pred, gt, 30, 3, np.random.default_rng(5))
    reference_rng = np.random.default_rng(5)
    top = select_top_n(score_all(error_grid(pred, gt), lattice), 3)
    sigma_ok = got == [sample_gaussian_view(v, 5.0, reference_rng) for v in top]

    tau_ok = DEFAULT_THRESHOLD == 0.4

    aligned = sample_dataset_viewpoints(ViewDistribution("aligned"), np.random.default_rng(0))
    aligned_ok = (
        len(aligned) == 24
        and all(v.pitch == 60.0 for v in aligned)
        and [v.yaw for v in aligned] == [-180.0 + 15.0 * k for k in range(24)]
    )

    ok = lattice_ok and sigma_ok and tau_ok and aligned_ok
    _report(
        3,
        ok,
        f"72 centers first {lattice.centers[0].yaw, lattice.centers[0].pitch}, sigma=K/6 replay "
        f"{'exact' if sigma_ok else 'diverged'}, tau={DEFAULT_THRESHOLD}, aligned ring 24 @ pitch 60 step 15",
    )
    assert ok


def test_criterion_04_carving_soundness(corpus20):
    started = time.perf_counter()
    report = run_loop(corpus20, _loop_config(seed=0))
    stages = _observation_stages(report, corpus20)
    violations = _soundness_violations(corpus20, stages, np.random.default_rng(44))
    elapsed = time.perf_counter() - started
    view_sets = sum(len(per_iter) for per_iter in stages)
    ok = not violations and elapsed < 120.0
    _report(
        4,
        ok,
        f"{view_sets} view sets over 20 shapes: {len(violations)} violations "
        f"(superset/monotone/order), {elapsed:.1f}s (budget 120s)",
    )
    assert ok, violations


def test_criterion_05_loop_monotonicity():
    started = time.perf_counter()
    failures = []
    for seed in range(5):
        corpus = make_corpus(20, dim=32, seed=seed)
        report = run_loop(corpus, _loop_config(seed=seed))
        for rec in report.objects:
            ious = [it["iou"] for it in rec["iterations"]]
            if not all(b >= a for a, b in zip(ious, ious[1:])):
                failures.append((seed, rec["name"], ious))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 180.0
    _report(
        5,
        ok,
        f"5 seeds x 20 objects x 3 iterations, {len(failures)} IoU regressions, {elapsed:.1f}s (budget 180s)",
    )
    assert ok, failures


def test_criterion_06_selection_effectiveness():
    started = time.perf_counter()
    vs_random = []
    vs_lattice = []
    for seed in range(5):
        corpus = make_corpus(20, dim=32, seed=seed, kinds=("ell", "cross"))
        cmp = compare_policies(corpus, _loop_config(seed=seed))
        vs_random.append(cmp["deltas"]["error_guided_minus_random"])
        vs_lattice.append(cmp["deltas"]["error_guided_minus_fixed_lattice"])
    elapsed = time.perf_counter() - started
    mean_vs_random = float(np.mean(vs_random))
    mean_vs_lattice = float(np.mean(vs_lattice))
    ok = mean_vs_random >= 0.0 and elapsed < 300.0
    _report(
        6,
        ok,
        f"mean IoU delta error-guided minus random = {mean_vs_random:+.4f} "
        f"(per-seed {[round(d, 4) for d in vs_random]}; vs fixed-lattice {mean_vs_lattice:+.4f}), "
        f"{elapsed:.1f}s (budget 300s); requirement: mean >= 0",
    )
    failed = []
    if not mean_vs_random >= 0.0:
        failed.append(
            f"mean error-guided minus random delta {mean_vs_random:+.6f} is below 0; "
            "demos/measure_selection_gap.py measures the cause (README; ROADMAP, "
            "'Add a `carve-guided` selection policy')"
        )
    if not elapsed < 300.0:
        failed.append(f"took {elapsed:.1f}s, over the 300s budget")
    assert ok, "; ".join(failed)


def _skew_cap_grid(dim=24):
    """Error mass concentrated in a high-elevation shell cap.

    The occluders under the cap sit off-axis on purpose: a scene invariant
    under 180-degree rotation about z satisfies R(yaw+180, -pitch) =
    R(yaw, pitch) @ Rz(180), which makes those two views of it produce
    identical rotated volumes and therefore exactly tied scores across the
    +-75 buckets. Breaking the symmetry makes the top score unique.
    """
    half = (dim - 1) / 2.0
    ax = np.arange(dim) - half
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    r = np.sqrt(x * x + y * y + z * z)
    elev = np.degrees(np.arcsin(np.divide(z, np.maximum(r, 1e-9))))
    vals = np.zeros((dim, dim, dim))
    rho_disk = np.sqrt((x + 1.5) ** 2 + (y - 2.5) ** 2)
    vals[(z >= -8.0) & (z <= -6.5) & (rho_disk <= 9.0)] = 0.05
    r_ball = np.sqrt((x - 2.0) ** 2 + (y - 1.0) ** 2 + z ** 2)
    vals[r_ball <= 5.0] = 0.15
    vals[(r >= 7.5) & (r <= 9.5) & (elev >= 55.0)] = 1.0
    return VoxelGrid(vals)


def test_criterion_07_directional_selection():
    error = _skew_cap_grid()
    lattice = discretize_viewpoints(30)
    scores = score_all(error, lattice)
    top = select_top_n(scores, 1)[0]

    best_center, best_score = None, -1.0
    for center in lattice.centers:
        brute = float(naive_first_hit(rotate_grid(error, center).values).sum())
        if brute > best_score:
            best_center, best_score = center, brute

    top_score = max(s.score for s in scores)
    runner_up = max(s.score for s in scores if s.viewpoint != top)
    unique = sum(1 for s in scores if s.score == top_score) == 1
    ok = top == best_center and top.pitch == 75.0 and unique
    _report(
        7,
        ok,
        f"top-1 {top.yaw, top.pitch} matches brute force {best_center.yaw, best_center.pitch}, "
        f"score {best_score} unique (margin {top_score - runner_up:.2f}); pitch bucket +75",
    )
    assert ok


def test_criterion_08_loop_determinism(tmp_path):
    config = {
        "loop": {"dim": 16, "iterations": 2, "update_fraction": 1.0, "seed": 11},
        "corpus": {"count": 3, "dim": 16, "seed": 11},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "voxsel.cli", "loop", "--config", str(config_path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(
        8,
        ok,
        f"two loop runs byte-identical ({len(outputs[0])} bytes) on {sys.platform}; "
        "the second platform is a CI-matrix concern",
    )
    assert ok


def test_criterion_09_format_round_trips(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = 0
    for i in range(1000):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        if i % 2 == 0:
            grid = VoxelGrid(rng.random(dims, dtype=np.float32).astype(np.float64))
            back = parse_vxg(vxg_bytes(grid))
            failures += not (isinstance(back, VoxelGrid) and np.array_equal(back.values, grid.values))
        else:
            occ = OccupancySet(rng.random(dims) < 0.5)
            back = parse_vxg(vxg_bytes(occ))
            failures += not (isinstance(back, OccupancySet) and np.array_equal(back.bits, occ.bits))
        sil = SilhouetteImage(rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 9)))) < 0.5)
        sil_back = parse_sil(sil_bytes(sil))
        failures += not np.array_equal(sil_back.pixels, sil.pixels)

    # The file layer is the same bytes behind a path.
    disk = tmp_path / "probe.vxg"
    write_vxg(disk, VoxelGrid(np.float32(rng.random((4, 4, 4))).astype(np.float64)))
    read_vxg(disk)

    diagnostics = []
    with pytest.raises(FormatError, match="magic") as exc_info:
        parse_vxg(b"NOTVOXEL" + bytes(16))
    diagnostics.append(str(exc_info.value))
    good = bytearray(vxg_bytes(VoxelGrid(np.zeros((2, 2, 2)))))
    good[20] = 7
    with pytest.raises(FormatError, match="flag") as exc_info:
        parse_vxg(bytes(good))
    diagnostics.append(str(exc_info.value))
    with pytest.raises(FormatError, match="magic"):
        parse_sil(b"NOTASILX" + bytes(12))

    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    _report(
        9,
        ok,
        f"1000 grid + 1000 silhouette round-trips, {failures} failures; malformed magic/flags "
        f"rejected ({diagnostics[0]!r}), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_pool_ablation(corpus20):
    started = time.perf_counter()
    finals = {}
    violation_counts = {}
    regression_counts = {}
    for mode in ("mixed", "fresh-only"):
        report = run_loop(corpus20, _loop_config(seed=0, pool_mode=mode))
        stages = _observation_stages(report, corpus20)
        violation_counts[mode] = len(_soundness_violations(corpus20, stages, np.random.default_rng(10)))
        regression_counts[mode] = sum(
            1
            for rec in report.objects
            for a, b in zip([it["iou"] for it in rec["iterations"]], [it["iou"] for it in rec["iterations"]][1:])
            if b < a
        )
        finals[mode] = report.aggregates["mean_iou"][-1]
    diff = finals["mixed"] - finals["fresh-only"]
    elapsed = time.perf_counter() - started
    ok = (
        all(v == 0 for v in violation_counts.values())
        and all(v == 0 for v in regression_counts.values())
        and elapsed < 300.0
    )
    _report(
        10,
        ok,
        f"soundness holds in both pool modes (violations {violation_counts}, IoU regressions "
        f"{regression_counts}); final mean IoU mixed minus fresh-only = {diff:+.4f} "
        f"(reported, no directional requirement), {elapsed:.1f}s",
    )
    assert ok

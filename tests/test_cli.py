"""Command line front end, exercised in-process through main()."""

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voxsel.cli import build_parser, main
from voxsel.geometry import Viewpoint
from voxsel.grid import OccupancySet, VoxelGrid
from voxsel.harness import make_corpus
from voxsel.io import read_sil, read_vxg, write_vxg
from voxsel.synthesis import render_silhouette

from .child_env import child_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def voxsel_on_path(tmp_path, monkeypatch):
    """Make sure an editable install's ``voxsel`` script is on PATH.

    When none is, the checkout is installed in editable mode into a throwaway
    virtual environment that sees this interpreter's packages, offline and
    with the build tools already present: first by pip, whose editable build
    needs ``bdist_wheel`` (the ``wheel`` package or setuptools >= 70.1), then
    by setuptools' own ``develop`` command. Skips only when neither can
    install the package.
    """
    if shutil.which("voxsel") is not None:
        return
    venv = tmp_path / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--without-pip", "--system-site-packages", str(venv)], check=True
    )
    python = str(venv / "bin" / "python")
    installs = (
        [python, "-m", "pip", "install", "--no-index", "--no-build-isolation", "--no-deps", "-e", str(ROOT)],
        [python, "-c", "from setuptools import setup; setup()", "develop", "--no-deps"],
    )
    errors = []
    for cmd in installs:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            monkeypatch.setenv("PATH", f"{venv / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}")
            return
        lines = [line.strip() for line in (proc.stderr + proc.stdout).splitlines() if "error:" in line]
        errors.append(" | ".join(lines) or f"{cmd[1:3]} exited {proc.returncode}")
    pytest.skip(f"cannot install voxsel in editable mode here: {'; '.join(errors)}")


def centered_box(dim=16, lo=5, hi=11):
    vals = np.zeros((dim, dim, dim))
    vals[lo:hi, lo:hi, lo:hi] = 1.0
    return VoxelGrid(vals)


def write_grid(path, grid):
    write_vxg(path, grid)
    return str(path)


class TestGenShapes:
    def test_writes_manifest_and_matching_grids(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["gen-shapes", "--count", "3", "--dim", "16", "--seed", "4", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest) == 3
        expected = make_corpus(3, dim=16, seed=4)
        for entry, obj in zip(manifest, expected):
            assert entry["name"] == obj.name
            assert entry["category"] == obj.category
            loaded = read_vxg(out / entry["file"])
            assert isinstance(loaded, OccupancySet)
            assert np.array_equal(loaded.bits, obj.gt.values > 0.5)

    def test_small_dim_corpus_succeeds(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["gen-shapes", "--count", "12", "--dim", "11", "--seed", "255", "--out", str(out)]) == 0
        assert len(json.loads((out / "manifest.json").read_text())) == 12

    @pytest.mark.parametrize("option", [["--count", "0"], ["--dim", "4"], ["--seed", "-1"]])
    def test_a_rejected_call_creates_no_directory(self, tmp_path, capsys, option):
        out = tmp_path / "corpus" / "nested"
        argv = {"--count": "2", "--dim": "16", "--seed": "0"} | {option[0]: option[1]}
        assert main(["gen-shapes", *(x for kv in argv.items() for x in kv), "--out", str(out)]) == 2
        assert "voxsel gen-shapes:" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()


class TestRender:
    def test_matches_the_library_call(self, tmp_path):
        grid = centered_box()
        grid_path = write_grid(tmp_path / "box.vxg", grid)
        sil_path = tmp_path / "box.sil"
        code = main(
            ["render", "--grid", grid_path, "--yaw", "30", "--pitch", "45", "--out", str(sil_path)]
        )
        assert code == 0
        expected = render_silhouette(grid, Viewpoint(30.0, 45.0), 0.4)
        assert np.array_equal(read_sil(sil_path).pixels, expected.pixels)

    def test_tau_controls_what_renders(self, tmp_path):
        vals = np.zeros((8, 8, 8))
        vals[4, 4, 4] = 0.2
        grid_path = write_grid(tmp_path / "dim.vxg", VoxelGrid(vals))
        lo, hi = tmp_path / "lo.sil", tmp_path / "hi.sil"
        main(["render", "--grid", grid_path, "--yaw", "0", "--pitch", "0", "--tau", "0.1", "--out", str(lo)])
        main(["render", "--grid", grid_path, "--yaw", "0", "--pitch", "0", "--tau", "0.4", "--out", str(hi)])
        assert read_sil(lo).pixels.sum() == 1
        assert read_sil(hi).pixels.sum() == 0

    def test_non_cubic_grid_fails_cleanly(self, tmp_path, capsys):
        grid_path = write_grid(tmp_path / "flat.vxg", VoxelGrid.zeros((4, 4, 8)))
        code = main(["render", "--grid", grid_path, "--yaw", "0", "--pitch", "0", "--out", str(tmp_path / "o.sil")])
        assert code == 2
        assert capsys.readouterr().err == "voxsel render: rendering requires a cubic grid, got dims (4, 4, 8)\n"
        assert not (tmp_path / "o.sil").exists()


class TestSelect:
    @pytest.fixture()
    def grid_pair(self, tmp_path):
        gt = centered_box()
        pred_vals = gt.values.copy()
        pred_vals[12, 8, 8] = 1.0
        pred = write_grid(tmp_path / "pred.vxg", VoxelGrid(pred_vals))
        return pred, write_grid(tmp_path / "gt.vxg", gt)

    def test_emits_scores_selection_and_samples(self, grid_pair, tmp_path, capsys):
        pred, gt = grid_pair
        assert main(["select", "--pred", pred, "--gt", gt, "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scores"]) == 72
        assert len(payload["selected"]) == 3
        assert len(payload["sampled"]) == 3
        assert payload["interval_deg"] == 30
        for row in payload["scores"]:
            assert set(row) == {"viewpoint", "score", "lattice_index"}
        # A single excess voxel is visible from every viewpoint.
        assert all(row["score"] > 0 for row in payload["scores"])

    def test_interval_changes_the_lattice(self, grid_pair, capsys):
        pred, gt = grid_pair
        assert main(["select", "--pred", pred, "--gt", gt, "--interval", "90", "--n", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scores"]) == 8
        assert len(payload["selected"]) == 2

    def test_deterministic_given_seed(self, grid_pair, tmp_path):
        pred, gt = grid_pair
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["select", "--pred", pred, "--gt", gt, "--seed", "7", "--out", str(a)])
        main(["select", "--pred", pred, "--gt", gt, "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_n_is_a_clean_failure(self, grid_pair, capsys):
        pred, gt = grid_pair
        assert main(["select", "--pred", pred, "--gt", gt, "--n", "100"]) == 2
        assert "voxsel select:" in capsys.readouterr().err

    def test_negative_seed_is_a_clean_failure(self, grid_pair, capsys):
        pred, gt = grid_pair
        assert main(["select", "--pred", pred, "--gt", gt, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "voxsel select: --seed must be nonnegative, got -1\n"

    def test_fractional_interval(self, grid_pair, capsys):
        pred, gt = grid_pair
        assert main(["select", "--pred", pred, "--gt", gt, "--interval", "22.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interval_deg"] == 22.5
        assert len(payload["scores"]) == 16 * 8

    def test_non_divisor_interval_is_a_clean_failure(self, grid_pair, capsys):
        pred, gt = grid_pair
        assert main(["select", "--pred", pred, "--gt", gt, "--interval", "7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("voxsel select: interval must divide both 360 and 180") and err.count("\n") == 1

    def test_non_numeric_interval_exits_via_argparse(self, grid_pair, capsys):
        pred, gt = grid_pair
        with pytest.raises(SystemExit) as exc:
            main(["select", "--pred", pred, "--gt", gt, "--interval", "x"])
        assert exc.value.code == 2
        assert "argument --interval: invalid number: 'x'" in capsys.readouterr().err


class TestCarve:
    def test_axis_views_recover_a_box(self, tmp_path):
        grid = centered_box()
        grid_path = write_grid(tmp_path / "gt.vxg", grid)
        views = [(0.0, 0.0), (-90.0, 0.0), (0.0, 90.0)]
        entries = []
        for i, (yaw, pitch) in enumerate(views):
            name = f"v{i}.sil"
            main(
                ["render", "--grid", grid_path, "--yaw", str(yaw), "--pitch", str(pitch),
                 "--out", str(tmp_path / name)]
            )
            entries.append({"yaw": yaw, "pitch": pitch, "silhouette": name})
        views_path = tmp_path / "views.json"
        views_path.write_text(json.dumps(entries))
        out = tmp_path / "carved.vxg"
        code = main(
            ["carve", "--views", str(views_path), "--sil-dir", str(tmp_path),
             "--dim", "16", "--out", str(out)]
        )
        assert code == 0
        assert np.array_equal(read_vxg(out).values, grid.values)

    def test_non_list_views_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "views.json"
        bad.write_text(json.dumps({"yaw": 0}))
        code = main(["carve", "--views", str(bad), "--sil-dir", str(tmp_path), "--dim", "8",
                     "--out", str(tmp_path / "o.vxg")])
        assert code == 2
        assert "voxsel carve:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "entries, shown",
        [([1], "got 1"), ([{"yaw": 0, "pitch": 0, "silhouette": 5}], "'silhouette': 5")],
    )
    def test_malformed_views_entry_fails_cleanly(self, tmp_path, capsys, entries, shown):
        views = tmp_path / "views.json"
        views.write_text(json.dumps(entries))
        code = main(["carve", "--views", str(views), "--sil-dir", str(tmp_path), "--dim", "8",
                     "--out", str(tmp_path / "o.vxg")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("voxsel carve: views entry 0 must be an object with string 'silhouette'")
        assert shown in err and err.count("\n") == 1

    def test_a_string_yaw_fails_cleanly(self, tmp_path, capsys):
        main(["render", "--grid", write_grid(tmp_path / "gt.vxg", centered_box()), "--yaw", "0", "--pitch", "0",
              "--out", str(tmp_path / "v.sil")])
        views = tmp_path / "views.json"
        views.write_text(json.dumps([{"yaw": "30", "pitch": 0, "silhouette": "v.sil"}]))
        code = main(["carve", "--views", str(views), "--sil-dir", str(tmp_path), "--dim", "16",
                     "--out", str(tmp_path / "o.vxg")])
        assert code == 2
        assert "numeric 'yaw' and 'pitch'" in capsys.readouterr().err
        assert not (tmp_path / "o.vxg").exists()

    def test_an_angle_too_large_for_a_float_fails_cleanly(self, tmp_path, capsys):
        main(["render", "--grid", write_grid(tmp_path / "gt.vxg", centered_box()), "--yaw", "0", "--pitch", "0",
              "--out", str(tmp_path / "v.sil")])
        views = tmp_path / "views.json"
        views.write_text('[{"yaw": 1' + "0" * 400 + ', "pitch": 0, "silhouette": "v.sil"}]')
        code = main(["carve", "--views", str(views), "--sil-dir", str(tmp_path), "--dim", "16",
                     "--out", str(tmp_path / "o.vxg")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("voxsel carve:") and "numeric 'yaw' and 'pitch'" in err
        assert not (tmp_path / "o.vxg").exists()


def loop_config_file(tmp_path, **loop_kw):
    base = {"dim": 16, "iterations": 1, "update_fraction": 1.0, "seed": 3}
    base.update(loop_kw)
    payload = {"loop": base, "corpus": {"count": 2, "dim": 16, "seed": 3}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoop:
    def test_writes_a_canonical_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["loop", "--config", loop_config_file(tmp_path), "--out", str(out)])
        assert code == 0
        assert "loop finished" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == "v1"
        assert len(payload["objects"]) == 2
        assert payload["config"]["dim"] == 16

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = loop_config_file(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["loop", "--config", cfg, "--out", str(a)]) == 0
        assert main(["loop", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reads_a_corpus_directory(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["gen-shapes", "--count", "2", "--dim", "16", "--seed", "5", "--out", str(corpus_dir)])
        payload = {
            "loop": {"dim": 16, "iterations": 1, "update_fraction": 1.0, "seed": 5},
            "corpus": {"dir": str(corpus_dir)},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert main(["loop", "--config", cfg.as_posix(), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        names = [rec["name"] for rec in report["objects"]]
        assert names == [obj.name for obj in make_corpus(2, dim=16, seed=5)]

    def test_missing_corpus_section_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"loop": {"dim": 16}}))
        assert main(["loop", "--config", str(cfg)]) == 2
        assert "voxsel loop:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "manifest, message",
        [
            ({"name": "a"}, "corpus manifest must contain a JSON list"),
            (["ell-000.vxg"], "manifest entry 0 must be an object"),
            ([{"name": "a", "category": "ell", "file": 3}], "manifest entry 0 must be an object"),
            ([{"name": "a", "category": "ell"}], "manifest entry 0 must be an object"),
        ],
    )
    def test_malformed_manifest_fails_cleanly(self, tmp_path, capsys, manifest, message):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "manifest.json").write_text(json.dumps(manifest))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"loop": {"dim": 16}, "corpus": {"dir": str(corpus_dir)}}))
        assert main(["loop", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"voxsel loop: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["loop", "compare"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"loop": {"dim": 16}, "corpus": {"count": [2]}}, "corpus field 'count' must be an integer, got [2]"),
            ({"loop": {"dim": 16}, "corpus": {"count": 2, "kinds": 5}}, "corpus field 'kinds' must be a non-empty list"),
            ({"loop": 5, "corpus": {"count": 2}}, "config field 'loop' must be an object, got 5"),
            ({"loop": {"iterations": 1.5}, "corpus": {"count": 2}}, "loop config field 'iterations' must be an integer"),
            ({"loop": {"interval_deg": "30"}, "corpus": {"count": 2}}, "loop config field 'interval_deg' must be a number"),
            ({"loop": {"dim": 16}, "corpus": {"dir": 5}}, "corpus field 'dir' must be a string, got 5"),
            ({"loop": {"dim": 16, "iterations": 0}, "corpus": {"count": 2, "kindz": ["sphere"]}},
             "unknown corpus keys: ['kindz']"),
            ({"loop": {"initial_distribution": {"views_per_object": 24}}, "corpus": {"count": 2}},
             "initial_distribution field 'kind' is required"),
            ({"loop": {"seed": -1}, "corpus": {"count": 2}}, "seed must be nonnegative, got -1"),
            ({"loop": {"dim": 16}, "corpus": {"count": 2, "seed": -1}}, "corpus seed must be nonnegative, got -1"),
            ({"loop": {"pool_capacity": 0}, "corpus": {"count": 2}}, "pool_capacity must be positive, got 0"),
            ({"loop": {"dim": 16}, "corpus": {"count": 2, "kinds": []}}, "corpus kinds must name at least one shape kind"),
            ({"loop": {"dim": 16}, "corpus": {"count": 2, "kinds": [5]}}, "unknown shape kind 5"),
            ({"loop": {"dim": 16}, "corpus": {"dim": 16}}, "corpus field 'count' is required"),
        ],
    )
    def test_malformed_config_field_fails_cleanly(self, tmp_path, capsys, command, spec, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(spec))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"voxsel {command}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["loop", "compare"])
    def test_a_sub_degree_interval_fails_cleanly(self, tmp_path, capsys, command):
        # 0.01 degrees would ask for a 648,000,000-center lattice.
        cfg = loop_config_file(tmp_path, interval_deg=0.01)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"voxsel {command}: interval must be at least 1 degree") and err.count("\n") == 1

    def test_non_object_config_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps([1]))
        assert main(["loop", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "voxsel loop: config must be a JSON object\n"


class TestCompare:
    def test_zero_iterations_report_zero_deltas(self, tmp_path, capsys):
        cfg = loop_config_file(tmp_path, iterations=0)
        assert main(["compare", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deltas"]["error_guided_minus_random"] == 0.0
        assert payload["deltas"]["error_guided_minus_fixed_lattice"] == 0.0
        assert set(payload["policies"]) == {"error-guided", "random", "fixed-lattice"}


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["render", "--grid", str(tmp_path / "nope.vxg"), "--yaw", "0", "--pitch", "0",
                     "--out", str(tmp_path / "o.sil")])
        assert code == 2
        assert "voxsel render:" in capsys.readouterr().err

    def test_corrupt_grid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.vxg"
        bad.write_bytes(b"NOTAGRID" + bytes(32))
        code = main(["render", "--grid", str(bad), "--yaw", "0", "--pitch", "0",
                     "--out", str(tmp_path / "o.sil")])
        assert code == 2
        assert "voxsel render:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["defragment"])


class TestParser:
    def test_successive_calls_with_different_subcommands_behave_as_before(self, tmp_path, capsys):
        grid = centered_box()
        grid_path = write_grid(tmp_path / "gt.vxg", grid)
        pred_path = write_grid(tmp_path / "pred.vxg", VoxelGrid(np.ones((16, 16, 16))))
        assert main(["select", "--pred", pred_path, "--gt", grid_path, "--n", "2"]) == 0
        first = json.loads(capsys.readouterr().out)
        sil_path = tmp_path / "v.sil"
        assert main(["render", "--grid", grid_path, "--yaw", "30", "--pitch", "10", "--out", str(sil_path)]) == 0
        assert np.array_equal(read_sil(sil_path).pixels, render_silhouette(grid, Viewpoint(30.0, 10.0)).pixels)
        # A later call sees the defaults, not the options of an earlier one.
        assert main(["select", "--pred", pred_path, "--gt", grid_path]) == 0
        second = json.loads(capsys.readouterr().out)
        assert len(first["selected"]) == 2 and len(second["selected"]) == 3
        assert second["scores"] == first["scores"]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voxsel.cli", "--help"], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0
        for name in ("select", "render", "gen-shapes", "carve", "loop", "compare"):
            assert name in proc.stdout

    def test_declared_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with (ROOT / "pyproject.toml").open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"voxsel": "voxsel.cli:main"}
        inspect.signature(main).bind()  # the generated script calls main() with no arguments

    @pytest.mark.usefixtures("voxsel_on_path")
    def test_console_script_installed(self):
        exe = shutil.which("voxsel")
        assert exe is not None, "editable install should expose the voxsel script"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0

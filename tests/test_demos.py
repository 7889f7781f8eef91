"""The quick demos run to their end.

They read internals (the lattice table's rows and slots, the one-pass
render and carve), so each runs here as a child process with ``src`` on
``PYTHONPATH``. ``measure_selection_gap`` is covered by
``tests/test_harness.py::TestSelectionGapDemo``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from .child_env import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "carve_progressively",
        "compare_selection_policies",
        "grid_files_round_trip",
        "measure_forward_map_memory",
        "pick_informative_views",
        "run_reconstruction_loop",
    ],
)
def test_demo_exits_zero(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr

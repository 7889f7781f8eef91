"""Environment for tests that start ``python -m voxsel...`` in a child process."""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    """This process's environment with ``src`` first on ``PYTHONPATH``.

    pytest finds the package through ``pythonpath`` in ``pyproject.toml``,
    which only extends its own ``sys.path``; a child interpreter sees
    ``voxsel`` only through ``PYTHONPATH`` or an install.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env

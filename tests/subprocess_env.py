"""Environment for tests that start a child Python process.

pytest puts ``src`` on its own ``sys.path`` (``pythonpath`` in
``pyproject.toml``), but a child interpreter does not inherit that: it
only sees ``PYTHONPATH``.  :func:`child_env` prepends ``src`` to it, so a
child imports this checkout's ``repro`` whether or not the package is
installed, and any caller-supplied entries stay after it.
"""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**overrides: str) -> dict[str, str]:
    """``os.environ`` plus *overrides*, with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env

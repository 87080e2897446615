"""The environment of a fresh interpreter that imports this lrdcp."""

import os
from pathlib import Path

import lrdcp

SRC = str(Path(lrdcp.__file__).resolve().parent.parent)


def child_env(**overrides):
    """``os.environ`` with ``overrides``, and SRC first on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env

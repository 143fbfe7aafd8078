"""Shared fixtures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrcdamp

SURROGATE_JSON = Path(__file__).resolve().parent.parent / "configs" / "surrogate.json"


@pytest.fixture
def surrogate_raw():
    """A fresh copy of the canonical surrogate config, configs/surrogate.json."""
    return json.loads(SURROGATE_JSON.read_text(encoding="utf-8"))


@pytest.fixture
def run_python():
    """``python *args`` in a fresh interpreter that imports the nrcdamp these
    tests import, installed or from ``src``: the completed process, its
    output captured as text."""
    src = str(Path(nrcdamp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=60,
        )

    return run

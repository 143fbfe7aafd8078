"""Shared fixtures."""

import json
from pathlib import Path

import pytest

SURROGATE_JSON = Path(__file__).resolve().parent.parent / "configs" / "surrogate.json"


@pytest.fixture
def surrogate_raw():
    """A fresh copy of the canonical surrogate config, configs/surrogate.json."""
    return json.loads(SURROGATE_JSON.read_text(encoding="utf-8"))

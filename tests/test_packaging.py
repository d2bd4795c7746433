"""Package metadata: every entry point pyproject.toml declares must resolve."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_entry_points() -> list[tuple[str, str]]:
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    groups = [project.get("scripts", {}), project.get("gui-scripts", {})]
    groups += project.get("entry-points", {}).values()
    return [(name, target) for group in groups for name, target in group.items()]


def test_every_declared_entry_point_imports():
    for name, target in declared_entry_points():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module.strip())
        for part in attr.strip().split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"entry point {name!r} -> {target!r} is not callable"

"""The artifact format: a corrupt or mismatched file raises ArgumentError, a
name is used as given, and no other module reads or writes files."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from balancelab import artifacts
from balancelab.datagen import GenSpec, generate
from balancelab.errors import ArgumentError
from balancelab.tables import JointTable, Variable

TABLE = JointTable((Variable("A", 2), Variable("B", 3)), np.arange(6).reshape(2, 3) / 15)
HEADER = {"kind": "JointTable", "variables": [["A", 2], ["B", 3]]}


def write_archive(path: Path, meta: dict, **arrays: np.ndarray) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def text_file(path: Path) -> None:
    path.write_text("var A 2\ncell 0 0.5\ncell 1 0.5\n", encoding="utf-8")


def truncated(path: Path) -> None:
    artifacts.save(TABLE, str(path))
    path.write_bytes(path.read_bytes()[:50])


def missing_array(path: Path) -> None:
    write_archive(path, HEADER)


def unknown_kind(path: Path) -> None:
    write_archive(path, HEADER | {"kind": "Table"}, probs=TABLE.probs)


def object_array(path: Path) -> None:
    write_archive(path, HEADER, probs=TABLE.probs.astype(object))


def shape_disagrees_with_header(path: Path) -> None:
    write_archive(path, HEADER, probs=TABLE.probs.T)


@pytest.mark.parametrize(
    "corrupt",
    [text_file, truncated, missing_array, unknown_kind, object_array, shape_disagrees_with_header],
)
def test_corrupt_artifact_is_argument_error(tmp_path, corrupt):
    path = tmp_path / "artifact"
    corrupt(path)
    with pytest.raises(ArgumentError):
        artifacts.load(str(path))


def test_missing_file_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        artifacts.load(str(tmp_path / "absent"))


def test_name_is_used_as_given(tmp_path):
    artifacts.save(TABLE, str(tmp_path / "table"))
    assert [p.name for p in tmp_path.iterdir()] == ["table"]


def test_unsupported_value_is_argument_error(tmp_path):
    with pytest.raises(ArgumentError, match="cannot save"):
        artifacts.save({"probs": TABLE.probs}, str(tmp_path / "dict"))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("column", ["y", "z", "v"])
def test_fractional_dataset_labels_are_argument_error(tmp_path, column):
    ds = generate(GenSpec("C", 4, seed=1))
    path = tmp_path / "dataset"
    artifacts.save(ds, str(path))
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays[column] = np.array([0.0, 1.0, 0.7, 1.0])
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ArgumentError, match=f"{column} must hold whole numbers"):
        artifacts.load(str(path))


def test_dataset_without_feature_columns_is_argument_error(tmp_path):
    y = np.array([0, 1, 1])
    meta = {"kind": "Dataset", "channels": [], "spec": None}
    write_archive(tmp_path / "dataset", meta, y=y, z=y, x=np.empty((3, 0)), weights=np.ones(3))
    with pytest.raises(ArgumentError, match="at least one column"):
        artifacts.load(str(tmp_path / "dataset"))


def test_no_other_module_reads_or_writes_files():
    # one format: only the artifacts module opens files or speaks JSON
    for module in sorted(Path(artifacts.__file__).parent.glob("*.py")):
        if module.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                assert getattr(func, "id", getattr(func, "attr", None)) != "open", module.name
            if isinstance(node, ast.Import):
                assert "json" not in [alias.name for alias in node.names], module.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "json", module.name

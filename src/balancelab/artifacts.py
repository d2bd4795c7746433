"""One file format for the package's values: exact tables, networks, trained
parameters and datasets.

An artifact is one uncompressed ``np.savez`` archive.  Every array keeps its
dtype and bits; a ``meta`` entry holds a JSON header with the value's ``kind``
and its non-array fields.  ``load`` reads with ``allow_pickle=False`` and
rebuilds the value through its own validating constructor.  NumPy gives every
zip entry one fixed timestamp, so two saves of one value are byte-identical.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from .bayesnet import Cbn
from .datagen import Dataset, GenSpec
from .errors import ArgumentError
from .model import ModelParams
from .tables import JointTable, Variable


def _variables(variables) -> list[list]:
    return [[v.name, int(v.cardinality)] for v in variables]


def _read_variables(meta: dict) -> tuple[Variable, ...]:
    return tuple(Variable(name, card) for name, card in meta["variables"])


def _encode(obj) -> tuple[dict, dict[str, np.ndarray]]:
    """The header fields and the named arrays of ``obj``."""
    if isinstance(obj, JointTable):
        return {"variables": _variables(obj.variables)}, {"probs": obj.probs}
    if isinstance(obj, Cbn):
        meta = {"variables": _variables(obj.nodes), "parents": [list(obj.parents[n]) for n in obj.names]}
        return meta, {f"cpt{i}": obj.cpts[n] for i, n in enumerate(obj.names)}
    if isinstance(obj, ModelParams):
        arrays = {f"weight{i}": w for i, w in enumerate(obj.weights)}
        arrays |= {f"bias{i}": b for i, b in enumerate(obj.biases)}
        return {"layers": len(obj.weights)}, arrays
    if isinstance(obj, Dataset):
        channels = [[name, start, stop] for name, (start, stop) in obj.channel_slices.items()]
        meta = {"channels": channels, "spec": None if obj.spec is None else obj.spec.to_dict()}
        arrays = {"y": obj.y, "z": obj.z, "x": obj.x, "weights": obj.weights}
        return meta, arrays if obj.v is None else arrays | {"v": obj.v}
    raise ArgumentError(f"cannot save a {type(obj).__name__}")


def _table(meta: dict, arrays: dict) -> JointTable:
    return JointTable(_read_variables(meta), arrays["probs"])


def _cbn(meta: dict, arrays: dict) -> Cbn:
    nodes = _read_variables(meta)
    parents = {v.name: tuple(ps) for v, ps in zip(nodes, meta["parents"], strict=True)}
    return Cbn(nodes, parents, {v.name: arrays[f"cpt{i}"] for i, v in enumerate(nodes)})


def _params(meta: dict, arrays: dict) -> ModelParams:
    if meta.get("activation", "relu") != "relu":  # older files name the hidden layer's activation
        raise ArgumentError(f"a hidden layer is always ReLU, got activation {meta['activation']!r}")
    layers = range(meta["layers"])
    weights = [arrays[f"weight{i}"] for i in layers]
    return ModelParams(weights, [arrays[f"bias{i}"] for i in layers])


def _dataset(meta: dict, arrays: dict) -> Dataset:
    slices = {name: (start, stop) for name, start, stop in meta["channels"]}
    spec = None if meta["spec"] is None else GenSpec.from_dict(meta["spec"])
    return Dataset(arrays["y"], arrays["z"], arrays["x"], arrays["weights"], slices, arrays.get("v"), spec)


_DECODERS = {"JointTable": _table, "Cbn": _cbn, "ModelParams": _params, "Dataset": _dataset}


def save(obj: JointTable | Cbn | ModelParams | Dataset, path: str) -> None:
    """Write ``obj`` to ``path``, under exactly that name."""
    meta, arrays = _encode(obj)
    header = json.dumps({"kind": type(obj).__name__} | meta)
    with open(path, "wb") as fh:  # np.savez would append ".npz" to a bare name
        np.savez(fh, meta=np.array(header), **arrays)


def load(path: str) -> JointTable | Cbn | ModelParams | Dataset:
    """The value saved at ``path``.

    A missing file raises FileNotFoundError.  A file that is not an artifact,
    lacks an array, names an unknown kind, holds pickled data or whose
    header disagrees with its arrays raises ArgumentError.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays.pop("meta")))
        return _DECODERS[meta["kind"]](meta, arrays)
    except (zipfile.BadZipFile, EOFError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArgumentError(f"{path}: not a readable artifact ({exc!r})") from exc

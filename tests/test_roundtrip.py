"""Serializer round trips as properties: every artifact and dict form reads
back bit for bit, and saving what was loaded writes the same bytes."""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from balancelab import artifacts
from balancelab.bayesnet import Cbn
from balancelab.datagen import Dataset, GenSpec
from balancelab.model import ModelParams
from balancelab.tables import JointTable, Variable

FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def simplex(draw, shape: tuple[int, ...]) -> np.ndarray:
    """Rows over the last axis that are positive and sum to 1 up to rounding."""
    raw = draw(arrays(float, shape, elements=st.floats(0.01, 1.0)))
    return raw / raw.sum(axis=-1, keepdims=True)


@st.composite
def model_params(draw) -> ModelParams:
    d = draw(st.integers(1, 5))
    hidden = draw(st.integers(0, 4))
    dims = [d, hidden, 1] if hidden else [d, 1]
    weights = [draw(arrays(float, (a, b), elements=FLOATS)) for a, b in zip(dims, dims[1:])]
    biases = [draw(arrays(float, (b,), elements=FLOATS)) for b in dims[1:]]
    return ModelParams(weights, biases)


@st.composite
def networks(draw) -> Cbn:
    size = draw(st.integers(1, 4))
    nodes = tuple(Variable(f"N{i}", draw(st.integers(2, 3))) for i in range(size))
    parents = {
        v.name: tuple(p.name for p in nodes[:i] if draw(st.booleans()))
        for i, v in enumerate(nodes)
    }
    card = {v.name: v.cardinality for v in nodes}
    cpts = {v.name: simplex(draw, tuple(card[p] for p in parents[v.name]) + (v.cardinality,)) for v in nodes}
    return Cbn(nodes, parents, cpts)


@st.composite
def tables(draw) -> JointTable:
    cards = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    probs = simplex(draw, (int(np.prod(cards)),)).reshape(cards)
    return JointTable(tuple(Variable(f"V{i}", c) for i, c in enumerate(cards)), probs)


UNIT = st.floats(0.05, 0.95)
GRAPH_FIELDS = {
    "A": {"confounding": st.tuples(UNIT, UNIT), "z_marginal": UNIT, "label_noise": st.floats(0.0, 0.5)},
    "B": {"x_effect": st.floats(0.1, 0.5), "confounder_effect": st.floats(0.05, 0.4), "z_flip": st.floats(0.0, 0.5)},
    "C": {
        "label_noise": st.floats(0.0, 0.5),
        "dim_v": st.integers(1, 5),
        "sep_v": st.floats(0.1, 4.0),
        "noise_v": st.floats(0.1, 3.0),
        "v_flip": st.tuples(UNIT, UNIT),
        "v_z_pull": st.floats(0.0, 0.4),
        "confounder_strength": st.floats(0.0, 1.0),
        "z_flip": st.floats(0.0, 0.5),
    },
    "D": {"confounding": st.tuples(UNIT, UNIT), "z_marginal": UNIT, "label_noise": st.floats(0.0, 0.5)},
}


@st.composite
def gen_specs(draw) -> GenSpec:
    graph = draw(st.sampled_from(sorted(GRAPH_FIELDS)))
    fields = {name: draw(st.none() | strategy) for name, strategy in GRAPH_FIELDS[graph].items()}
    return GenSpec(
        graph,
        draw(st.integers(1, 10**6)),
        draw(st.integers(0, 2**32)),
        dim_core=draw(st.integers(1, 8)),
        dim_aux=draw(st.integers(1, 8)),
        sep_core=draw(st.floats(0.0, 5.0)),
        noise_aux=draw(st.floats(0.1, 3.0)),
        **fields,
    )


@st.composite
def datasets(draw) -> Dataset:
    n, d = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    cut = draw(st.integers(0, d))
    return Dataset(
        draw(arrays(np.int64, n, elements=st.integers(0, 1))),
        draw(arrays(np.int64, n, elements=st.integers(-3, 3))),
        draw(arrays(float, (n, d), elements=FLOATS)),
        draw(arrays(float, n, elements=st.floats(0.0, 1e300))),
        {"core": (0, cut), "aux": (cut, d)},
        draw(st.none() | arrays(np.int64, n, elements=st.integers(0, 1))),
        draw(st.none() | gen_specs()),
    )


def reloaded(obj):
    """``obj`` saved and loaded again; saving the loaded value must write the
    same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        artifacts.save(obj, first)
        again = artifacts.load(first)
        artifacts.save(again, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    return again


@given(model_params())
def test_params_round_trip(params):
    again = reloaded(params)
    assert len(again.weights) == len(params.weights)
    for a, b in zip(again.weights + again.biases, params.weights + params.biases):
        assert same_bits(a, b)


@given(networks())
def test_cbn_round_trip(net):
    again = reloaded(net)
    assert again.nodes == net.nodes
    assert again.parents == net.parents
    for v in net.nodes:
        assert same_bits(again.cpts[v.name], net.cpts[v.name])


@given(tables())
def test_table_round_trip(table):
    again = reloaded(table)
    assert again.variables == table.variables
    assert same_bits(again.probs, table.probs)


@given(datasets())
def test_dataset_round_trip(data):
    again = reloaded(data)
    for name in ("y", "z", "x", "weights"):
        assert same_bits(getattr(again, name), getattr(data, name)), name
    assert (again.v is None) == (data.v is None)
    assert data.v is None or same_bits(again.v, data.v)
    assert list(again.channel_slices.items()) == list(data.channel_slices.items())
    assert again.spec == data.spec
    assert repr(again.spec) == repr(data.spec)


@given(gen_specs())
def test_genspec_round_trip(spec):
    again = GenSpec.from_dict(spec.to_dict())
    assert again == spec
    assert repr(again) == repr(spec)  # repr spells every float exactly, -0.0 included

"""Synthetic dataset generation: distributions, channels, shifts, round trips."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from balancelab import datagen
from balancelab.bayesnet import joint
from balancelab.checks import correlation_grid
from balancelab.datagen import (
    Dataset,
    GenSpec,
    generate,
    ideal_testset,
    implied_y_given_z,
    load_dataset,
    save_dataset,
    shift_testsets,
)
from balancelab.errors import ArgumentError, SpecError
from balancelab.tables import marginalize
from balancelab.templates import GRAPH_IDS, graph_template, template_a, template_b, template_c, template_d

BUILDERS = {"A": template_a, "B": template_b, "C": template_c, "D": template_d}
# the law fields that apply to each graph beyond confounding and z_marginal,
# with their defaults
SPELLED_DEFAULTS = {
    "A": {"label_noise": 0.02},
    "B": {"x_effect": 0.6, "confounder_effect": 0.3, "z_flip": 0.1},
    "C": {
        "label_noise": 0.02,
        "dim_v": 4,
        "sep_v": 2.0,
        "noise_v": 1.0,
        "v_flip": (0.2, 0.9),
        "v_z_pull": 0.3,
        "confounder_strength": 0.45,
        "z_flip": 0.1,
    },
    "D": {"label_noise": 0.02},
}
LAW_ONLY_FIELDS = set().union(*SPELLED_DEFAULTS.values())


def three_se(p: float, n: int) -> float:
    return 3.0 * np.sqrt(max(p * (1 - p), 1e-6) / n)


class TestGenSpec:
    def test_unknown_graph(self):
        with pytest.raises(SpecError):
            GenSpec(graph="E", n=10)

    def test_graph_c_knob_rejected_elsewhere(self):
        with pytest.raises(SpecError, match="graph C"):
            GenSpec(graph="A", n=10, dim_v=4)
        with pytest.raises(SpecError, match="graph B"):
            GenSpec(graph="A", n=10, x_effect=0.5)
        with pytest.raises(SpecError, match="graph B"):
            GenSpec(graph="C", n=10, confounder_effect=0.2)
        with pytest.raises(SpecError, match="graph B or C"):
            GenSpec(graph="D", n=10, z_flip=0.2)

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_defaults_spelled_out(self, gid):
        spec = GenSpec(graph=gid, n=10)
        out = spec.to_dict()
        for name in ("confounding", "z_marginal", *SPELLED_DEFAULTS[gid]):
            assert out[name] is not None, (gid, name)
        assert all(out[name] is None for name in LAW_ONLY_FIELDS - set(SPELLED_DEFAULTS[gid])), out
        assert spec == GenSpec(graph=gid, n=10, **SPELLED_DEFAULTS[gid])
        assert GenSpec.from_dict(out | dict.fromkeys(SPELLED_DEFAULTS[gid])) == spec

    def test_law_built_once(self, monkeypatch):
        built = []
        real = datagen.graph_template
        monkeypatch.setattr(datagen, "graph_template", lambda *a, **k: built.append(a) or real(*a, **k))
        spec = GenSpec(graph="C", n=50, seed=3)
        generate(spec)
        ideal_testset(spec, 20, seed=4)
        shift_testsets(spec, correlation_grid(3), 20, seed=5)
        implied_y_given_z(spec)
        assert built == [("C",)]
        assert spec.law.graph_id == "C"
        with pytest.raises(AttributeError):
            spec.law = graph_template("C")

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_law_defaults_are_template_defaults(self, gid):
        spec = GenSpec(graph=gid, n=10)
        params = inspect.signature(BUILDERS[gid]).parameters
        shared = set(params) & set(GenSpec.__dataclass_fields__)
        assert shared, gid
        for name in shared:
            assert getattr(spec, name) == params[name].default, (gid, name)

    def test_negative_seed_rejected(self):
        with pytest.raises(SpecError, match="seed"):
            GenSpec(graph="A", n=10, seed=-1)
        spec = GenSpec(graph="A", n=10)
        with pytest.raises(ArgumentError, match="seed"):
            ideal_testset(spec, 10, seed=-1)
        with pytest.raises(ArgumentError, match="seed"):
            shift_testsets(spec, correlation_grid(3), 10, seed=-1)

    @pytest.mark.parametrize("field", ["x_effect", "confounder_effect", "z_flip"])
    def test_nan_law_parameter_rejected(self, field):
        with pytest.raises(ArgumentError):
            generate(GenSpec(graph="B", n=10, **{field: np.nan}))

    def test_label_noise_rejected_for_b(self):
        with pytest.raises(SpecError, match="label_noise only applies to graph A or C or D, not B"):
            GenSpec(graph="B", n=10, label_noise=0.3)
        for gid in ("A", "C", "D"):
            assert GenSpec(graph=gid, n=10).label_noise == 0.02
        assert GenSpec(graph="B", n=10).label_noise is None

    def test_out_of_range_b_law_rejected_at_construction(self):
        with pytest.raises(SpecError, match="x_effect"):
            GenSpec(graph="B", n=10, x_effect=7.0)

    def test_out_of_range_c_law_rejected_at_construction(self):
        with pytest.raises(SpecError, match="graph C law"):
            GenSpec(graph="C", n=10, confounder_strength=2.0)

    def test_dict_round_trip(self):
        spec = GenSpec(graph="C", n=100, seed=4)
        assert GenSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown_knob"):
            GenSpec.from_dict(GenSpec(graph="B", n=10).to_dict() | {"unknown_knob": 0.8})


class TestGenerate:
    def test_graph_a_confounding_rate(self):
        spec = GenSpec(graph="A", n=30_000, seed=1, confounding=(0.95, 0.10))
        ds = generate(spec)
        rate = np.mean(ds.y[ds.z == 0] == 0)
        assert abs(rate - 0.95) < three_se(0.95, int((ds.z == 0).sum()))

    def test_graph_c_conditionals_match_implied(self):
        spec = GenSpec(graph="C", n=40_000, seed=2)
        ds = generate(spec)
        implied = implied_y_given_z(spec)
        for z_value in (0, 1):
            emp = np.mean(ds.y[ds.z == z_value] == 0)
            n = int((ds.z == z_value).sum())
            assert abs(emp - implied[0, z_value]) < three_se(implied[0, z_value], n)

    def test_graph_c_v_tracking(self):
        spec = GenSpec(graph="C", n=40_000, seed=3)
        ds = generate(spec)
        v0_y1 = np.mean(ds.v[ds.y == 1] == 0)
        v0_y0 = np.mean(ds.v[ds.y == 0] == 0)
        assert v0_y0 < 0.35 and v0_y1 > 0.7  # strong label tracking

    def test_noiseless_channels_decode_label(self):
        spec = GenSpec(
            graph="A", n=500, seed=4, label_noise=0.0, noise_core=1e-9, noise_aux=1e-9
        )
        ds = generate(spec)
        core = ds.channel("core")
        decoded = core[:, spec.dim_core // 2 :].sum(axis=1) > core[:, : spec.dim_core // 2].sum(axis=1)
        assert np.array_equal(decoded.astype(int), ds.y)

    def test_core_means_free_of_group_for_label_keyed_graphs(self):
        # the core channel is keyed to a label-only truth bit for A and D
        for gid in ("A", "D"):
            spec = GenSpec(graph=gid, n=40_000, seed=5)
            ds = generate(spec)
            core = ds.channel("core")
            for y_value in (0, 1):
                rows = ds.y == y_value
                m0 = core[rows & (ds.z == 0)].mean(axis=0)
                m1 = core[rows & (ds.z == 1)].mean(axis=0)
                n_min = min(int((rows & (ds.z == 0)).sum()), int((rows & (ds.z == 1)).sum()))
                assert np.abs(m0 - m1).max() < 3.0 * 2.0 / np.sqrt(n_min), (gid, y_value)

    def test_entangled_channel_depends_on_group_within_label(self):
        spec = GenSpec(graph="D", n=40_000, seed=6)
        ds = generate(spec)
        ent = ds.channel("ent")
        rows = ds.y == 0  # OR(0, z) = z, so the channel must split by z
        m0 = ent[rows & (ds.z == 0)].mean(axis=0)
        m1 = ent[rows & (ds.z == 1)].mean(axis=0)
        assert np.abs(m0 - m1).max() > 0.5

    def test_deterministic_given_seed(self):
        spec = GenSpec(graph="C", n=300, seed=7)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)


class TestIdeal:
    def test_group_decorrelated(self):
        for gid in "ABCD":
            spec = GenSpec(graph=gid, n=1000, seed=8)
            ideal = ideal_testset(spec, 2000, seed=9)
            corr = np.corrcoef(ideal.y, ideal.z)[0, 1]
            assert abs(corr) < 0.08, gid

    def test_graph_c_v_decoupled_from_label(self):
        spec = GenSpec(graph="C", n=1000, seed=10)
        ideal = ideal_testset(spec, 20_000, seed=11)
        v0_y0 = np.mean(ideal.v[ideal.y == 0] == 0)
        v0_y1 = np.mean(ideal.v[ideal.y == 1] == 0)
        assert abs(v0_y0 - v0_y1) < 0.04
        # the group pull on V survives in the ideal law
        v0_z0 = np.mean(ideal.v[ideal.z == 0] == 0)
        v0_z1 = np.mean(ideal.v[ideal.z == 1] == 0)
        assert v0_z0 - v0_z1 > 0.15

    def test_graph_d_second_channel_is_noise(self):
        spec = GenSpec(graph="D", n=1000, seed=12)
        ideal = ideal_testset(spec, 20_000, seed=13)
        ent = ideal.channel("ent")
        for cond in (ideal.y == 1, ideal.z == 1):
            assert np.abs(ent[cond].mean(axis=0) - ent[~cond].mean(axis=0)).max() < 0.08

    def test_seed_determinism(self):
        spec = GenSpec(graph="A", n=100, seed=14)
        a = ideal_testset(spec, 500, seed=3)
        b = ideal_testset(spec, 500, seed=3)
        assert np.array_equal(a.x, b.x)


class TestShifts:
    @pytest.mark.parametrize("gid", ["A", "B", "C", "D"])
    def test_conditionals_track_grid(self, gid):
        spec = GenSpec(graph=gid, n=1000, seed=15)
        grid = correlation_grid(3)
        sets = shift_testsets(spec, grid, 20_000, seed=16)
        for g, ds in zip(grid, sets):
            for y_value in (0, 1):
                rows = ds.y == y_value
                if int(rows.sum()) < 100:
                    continue
                emp = np.mean(ds.z[rows] == 0)
                target = g[y_value, 0]
                assert abs(emp - target) < max(three_se(target, int(rows.sum())), 0.02), (gid, y_value)

    def test_label_marginal_constant(self):
        spec = GenSpec(graph="A", n=1000, seed=17)
        sets = shift_testsets(spec, correlation_grid(5), 20_000, seed=18)
        p = [ds.y.mean() for ds in sets]
        assert max(p) - min(p) < 0.025

    def test_matching_conditional_reproduces_source(self):
        spec = GenSpec(graph="A", n=50_000, seed=19, confounding=(0.8, 0.2))
        src = generate(spec)
        row = np.array([[0.8, 0.2], [0.2, 0.8]])
        shifted = shift_testsets(spec, [row], 50_000, seed=20)[0]
        # distributionally identical: compare pair-cell frequencies
        src_cells = np.bincount(src.y * 2 + src.z, minlength=4) / len(src)
        new_cells = np.bincount(shifted.y * 2 + shifted.z, minlength=4) / len(shifted)
        assert np.abs(src_cells - new_cells).max() < 0.01


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_bad_weight(self, bad):
        with pytest.raises(ArgumentError, match="weights"):
            Dataset(np.zeros(3), np.zeros(3), np.zeros((3, 1)), np.array([1.0, bad, 1.0]), {"x": (0, 1)})

    @pytest.mark.parametrize("bad", [2, -1])
    def test_rejects_non_binary_label(self, bad):
        with pytest.raises(ArgumentError, match="labels"):
            Dataset(np.array([0, bad, 1]), np.zeros(3), np.zeros((3, 1)), np.ones(3), {"x": (0, 1)})

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_take_validates_new_weights(self, bad):
        ds = generate(GenSpec(graph="A", n=20, seed=1))
        with pytest.raises(ArgumentError, match="weights"):
            ds.take(np.arange(3), weights=np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize("weights", [np.ones(2), np.ones((3, 1))])
    def test_take_needs_one_weight_per_row(self, weights):
        ds = generate(GenSpec(graph="A", n=20, seed=1))
        with pytest.raises(ArgumentError, match="weights must have shape"):
            ds.take(np.arange(3), weights=weights)

    def test_take_slices_read_only_columns(self):
        ds = generate(GenSpec(graph="C", n=50, seed=2))
        idx = np.array([4, 0, 4, 17])
        part = ds.take(idx)
        for name in ("y", "z", "x", "weights", "v"):
            col = getattr(part, name)
            assert np.array_equal(col, getattr(ds, name)[idx])
            assert not col.flags.writeable
        assert part.channel_slices == ds.channel_slices
        assert part.channel_slices is not ds.channel_slices
        assert part.spec is ds.spec
        assert len(ds.take(slice(10, 20))) == 10
        with pytest.raises(ArgumentError, match="one-dimensional"):
            ds.take(idx[:, None])


# non-default laws, so a default wired in anywhere shows; each entry pairs the
# spec with the template parameters that fix its (Y, Z) marginal
EXACT_CASES = {
    "A": (
        GenSpec(graph="A", n=40_000, seed=30, confounding=(0.8, 0.3), z_marginal=0.4),
        {"confounding": (0.8, 0.3), "z_marginal": 0.4},
    ),
    "B": (
        GenSpec(graph="B", n=40_000, seed=35, x_effect=0.5, confounder_effect=0.4, z_flip=0.2),
        {"x_effect": 0.5, "confounder_effect": 0.4, "z_flip": 0.2},
    ),
    "C": (
        GenSpec(graph="C", n=40_000, seed=31, confounder_strength=0.6, z_flip=0.2, label_noise=0.05),
        {"confounder_strength": 0.6, "z_flip": 0.2, "label_noise": 0.05},
    ),
    "D": (
        GenSpec(graph="D", n=40_000, seed=32, confounding=(0.9, 0.25), z_marginal=0.6),
        {"confounding": (0.9, 0.25), "z_marginal": 0.6},
    ),
}


def yz_table(gid: str) -> np.ndarray:
    spec, params = EXACT_CASES[gid]
    pair = marginalize(joint(graph_template(gid, **params).net), {"Y", "Z"})
    return np.transpose(pair.probs, pair.axes(("Y", "Z")))


def assert_cells_within_3se(ds: Dataset, exact: np.ndarray) -> None:
    freq = np.bincount(2 * ds.y + ds.z, minlength=4).reshape(2, 2) / len(ds)
    for cell in np.ndindex(2, 2):
        assert abs(freq[cell] - exact[cell]) < three_se(exact[cell], len(ds)), (cell, freq, exact)


class TestExactLaw:
    """The sets are drawn from the exact tables of the template law."""

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_source_ideal_and_shift_cells_match_exact(self, gid):
        spec = EXACT_CASES[gid][0]
        source = yz_table(gid)
        assert_cells_within_3se(generate(spec), source)
        py, pz = source.sum(axis=1), source.sum(axis=0)
        assert_cells_within_3se(ideal_testset(spec, 40_000, seed=33), np.outer(py, pz))
        grid = correlation_grid(3)
        for g, ds in zip(grid, shift_testsets(spec, grid, 40_000, seed=34)):
            assert_cells_within_3se(ds, py[:, None] * g)

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_implied_conditional_is_template_marginal(self, gid):
        source = yz_table(gid)
        implied = implied_y_given_z(EXACT_CASES[gid][0])
        np.testing.assert_allclose(implied, source / source.sum(axis=0), rtol=0, atol=1e-15)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        ds = generate(GenSpec(graph="C", n=40, seed=21))
        path = str(tmp_path / "data.csv")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.v, ds.v)
        assert back.channel_slices == ds.channel_slices
        assert back.spec == ds.spec

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = generate(GenSpec(graph="A", n=30, seed=22))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_dataset(ds, p1)
        save_dataset(generate(GenSpec(graph="A", n=30, seed=22)), p2)
        assert open(p1).read() == open(p2).read()

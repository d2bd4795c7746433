"""Synthetic dataset generation: distributions, channels, shifts, round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balancelab import artifacts, checks, datagen
from balancelab.bayesnet import joint
from balancelab.checks import ShiftFamily, correlation_grid
from balancelab.datagen import (
    Dataset,
    GenSpec,
    generate,
    ideal_testset,
    shift_testsets,
)
from balancelab.errors import ArgumentError, SpecError
from balancelab.metrics import risk_invariance_report
from balancelab.model import ModelParams
from balancelab.tables import marginal_probs, marginalize
from balancelab.templates import GRAPH_IDS, GraphTemplate, graph_template, template_a, template_b, template_c, template_d

BUILDERS = {"A": template_a, "B": template_b, "C": template_c, "D": template_d}
# the fields that apply to some graphs only, with each graph's defaults
SPELLED_DEFAULTS = {
    "A": {"confounding": (0.95, 0.10), "z_marginal": 0.5, "label_noise": 0.02},
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
    "D": {"confounding": (0.95, 0.10), "z_marginal": 0.5, "label_noise": 0.02},
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
        for name in SPELLED_DEFAULTS[gid]:
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

    @pytest.mark.parametrize("field", ["n", "seed"])
    @pytest.mark.parametrize("bad", [10.5, 2.0, True, "3", None])
    def test_n_and_seed_must_be_integers(self, field, bad):
        with pytest.raises(SpecError, match="integers"):
            GenSpec(**{"graph": "A", "n": 50, "seed": 1} | {field: bad})

    def test_numpy_integer_n_and_seed_accepted(self):
        spec = GenSpec("A", np.int32(50), np.uint8(1))
        assert np.array_equal(generate(spec).x, generate(GenSpec("A", 50, 1)).x)

    @pytest.mark.parametrize("bad", [0, -3, 10.5, 2.0, True])
    def test_test_set_size_must_be_a_positive_integer(self, bad):
        spec = GenSpec(graph="A", n=10)
        with pytest.raises(ArgumentError, match="n must be an integer >= 1"):
            ideal_testset(spec, bad, seed=1)
        with pytest.raises(ArgumentError, match="n must be an integer >= 1"):
            shift_testsets(spec, correlation_grid(3), bad, seed=1)
        assert len(ideal_testset(spec, np.int64(3), seed=1)) == 3

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

    @pytest.mark.parametrize(
        "graph, name, value",
        [
            ("A", "noise_core", -1.0),
            ("D", "noise_aux", np.inf),
            ("A", "sep_aux", np.nan),
            ("B", "sep_core", -np.inf),
            ("A", "dim_core", 0),
            ("C", "dim_v", 0),
            ("C", "sep_v", np.nan),
            ("C", "noise_v", -0.5),
        ],
    )
    def test_bad_channel_knob_rejected_at_construction(self, graph, name, value):
        with pytest.raises(SpecError, match=name):
            GenSpec(graph, 5, **{name: value})

    @pytest.mark.parametrize(
        "name, value, rule",
        [
            ("dim_core", 2.5, "an integer >= 1"),
            ("dim_aux", True, "an integer >= 1"),
            ("dim_core", "3", "an integer >= 1"),
            ("noise_core", True, "a finite real >= 0"),
            ("sep_core", False, "a finite real"),
            ("sep_aux", "2", "a finite real"),
        ],
    )
    def test_channel_knob_of_the_wrong_type_rejected_at_construction(self, name, value, rule):
        with pytest.raises(SpecError, match=f"{name} must be {rule}, got {value!r}"):
            GenSpec("A", 5, **{name: value})

    @pytest.mark.parametrize("value", [True, "0.1"])
    @pytest.mark.parametrize(
        "graph, name",
        [
            ("A", "label_noise"),
            ("D", "z_marginal"),
            ("B", "z_flip"),
            ("B", "x_effect"),
            ("B", "confounder_effect"),
            ("C", "confounder_strength"),
            ("C", "v_z_pull"),
        ],
    )
    def test_law_knob_of_the_wrong_type_rejected_at_construction(self, graph, name, value):
        with pytest.raises(SpecError, match=f"{name} must be a finite real, got {value!r}"):
            GenSpec(graph, 50, 1, **{name: value})

    @pytest.mark.parametrize("entry", [True, "0.1"])
    @pytest.mark.parametrize(
        "graph, name, message",
        [("A", "confounding", "two entries in \\(0.0, 1.0\\)"), ("C", "v_flip", "two finite reals")],
    )
    @pytest.mark.parametrize("position", [0, 1])
    def test_law_pair_entry_of_the_wrong_type_rejected_at_construction(self, graph, name, message, entry, position):
        pair = [0.3, 0.6]
        pair[position] = entry
        with pytest.raises(SpecError, match=f"{name} must be {message}, got"):
            GenSpec(graph, 50, 1, **{name: tuple(pair)})

    @pytest.mark.parametrize(
        "graph, name, pair",
        [("A", "confounding", (0.9, (0.1, 0.2))), ("C", "v_flip", (0.1, (0.2, 0.3))), ("C", "v_flip", ((0.1, 0.2), 0.3))],
    )
    def test_ragged_law_pair_rejected_at_construction(self, graph, name, pair):
        with pytest.raises(SpecError, match=f"{name} must be two"):
            GenSpec(graph, 10, **{name: pair})

    def test_law_knobs_accept_numpy_numbers(self):
        plain = GenSpec("C", 50, 1, label_noise=0.05, v_flip=(0.25, 0.75), v_z_pull=0.2)
        numpy = GenSpec("C", 50, 1, label_noise=np.float64(0.05), v_flip=(np.float32(0.25), 0.75), v_z_pull=np.float64(0.2))
        assert np.array_equal(generate(plain).x, generate(numpy).x)

    def test_channel_knobs_accept_numpy_numbers(self):
        spec = GenSpec("A", 50, 3, dim_core=np.int64(2), sep_core=np.float32(1.5), noise_aux=2)
        assert generate(spec).x.shape == (50, 8)

    @pytest.mark.parametrize("bad", [(0.5, 0.5, 0.5), (0.5,), 0.5, (0.0, 0.5), (0.5, np.nan)])
    def test_malformed_confounding_rejected(self, bad):
        with pytest.raises(SpecError, match="confounding must be two entries"):
            GenSpec(graph="A", n=10, confounding=bad)

    @pytest.mark.parametrize("gid", ["B", "C"])
    @pytest.mark.parametrize("field, value", [("confounding", (0.9, 0.2)), ("z_marginal", 0.3)])
    def test_pair_law_rejected_for_b_and_c(self, gid, field, value):
        with pytest.raises(SpecError, match=f"{field} only applies to graph A or D, not {gid}"):
            GenSpec(graph=gid, n=10, **{field: value})

    def test_dict_round_trip(self):
        for gid in GRAPH_IDS:
            spec = GenSpec(graph=gid, n=100, seed=4)
            assert GenSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown_knob"):
            GenSpec.from_dict(GenSpec(graph="B", n=10).to_dict() | {"unknown_knob": 0.8})


class TestBuilderArguments:
    """The template builders reject the law values that GenSpec rejects, with ArgumentError naming them."""

    @pytest.mark.parametrize(
        "gid, name, value",
        [
            ("C", "confounder_strength", True),
            ("C", "v_z_pull", float("inf")),
            ("C", "core_flip", "0.1"),
            ("A", "z_marginal", np.nan),
            ("B", "x_effect", None),
            ("D", "ent_p", False),
        ],
    )
    def test_a_scalar_that_is_not_a_finite_real_is_rejected(self, gid, name, value):
        with pytest.raises(ArgumentError, match=f"{name} must be a finite real, got {re.escape(repr(value))}"):
            graph_template(gid, **{name: value})
        with pytest.raises(ArgumentError, match=f"{name} must be a finite real"):
            BUILDERS[gid](**{name: value})

    @pytest.mark.parametrize(
        "gid, name, value",
        [
            ("C", "v_flip", (0.2,)),
            ("C", "v_flip", (0.2, 0.9, 0.5)),
            ("C", "v_flip", (0.2, True)),
            ("C", "v_flip", "ab"),
            ("A", "confounding", (0.9, "0.1")),
            ("D", "confounding", 0.5),
            ("D", "confounding", (0.9, np.inf)),
        ],
    )
    def test_a_pair_that_is_not_two_finite_reals_is_rejected(self, gid, name, value):
        with pytest.raises(ArgumentError, match=f"{name} must be two finite reals, got {re.escape(repr(value))}"):
            graph_template(gid, **{name: value})

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_defaults_passed_as_numpy_numbers_build_the_same_bits(self, gid):
        builder = BUILDERS[gid]
        explicit = {
            name: np.array(p.default) if isinstance(p.default, tuple) else np.float64(p.default)
            for name, p in inspect.signature(builder).parameters.items()
        }
        default, passed = graph_template(gid).net, builder(**explicit).net
        assert all(default.cpts[n].tobytes() == passed.cpts[n].tobytes() for n in default.cpts)

    def test_default_templates_pinned_bit_for_bit(self):
        digest = hashlib.sha256()
        for gid in GRAPH_IDS:
            net = graph_template(gid).net
            for v in net.nodes:
                digest.update(repr((gid, v.name, net.parents[v.name])).encode())
                digest.update(net.cpts[v.name].tobytes())
        assert digest.hexdigest() == "5da8dcaffa5e122f8075e306e159192eae5182f4f9913d90a86d5a9b174a5acb"

    def test_the_label_and_group_names_are_fixed(self):
        assert [f.name for f in dataclasses.fields(GraphTemplate)] == [
            "graph_id", "net", "latents", "core", "spurious", "entangled", "other_factor", "undesired"
        ]
        assert all((t.y, t.z) == ("Y", "Z") for t in map(graph_template, GRAPH_IDS))


class TestGenerate:
    def test_graph_a_confounding_rate(self):
        spec = GenSpec(graph="A", n=30_000, seed=1, confounding=(0.95, 0.10))
        ds = generate(spec)
        rate = np.mean(ds.y[ds.z == 0] == 0)
        assert abs(rate - 0.95) < three_se(0.95, int((ds.z == 0).sum()))

    def test_graph_c_conditionals_match_implied(self):
        spec = GenSpec(graph="C", n=40_000, seed=2)
        ds = generate(spec)
        pyz = marginal_probs(joint(spec.law.net), ("Y", "Z"))
        implied = pyz / pyz.sum(axis=0)  # P(Y=y | Z=z) as [y, z]
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


class TestShiftGridCheck:
    def test_grid_checked_on_the_pair_marginal_alone(self, monkeypatch):
        spec = GenSpec(graph="C", n=100, seed=21)
        shapes, real = [], checks._reweight
        monkeypatch.setattr(checks, "_reweight", lambda probs, *args: shapes.append(probs.shape) or real(probs, *args))
        shift_testsets(spec, correlation_grid(4), 50, seed=22)
        assert len(shapes) == 1 and shapes[0][0] == 4 and np.prod(shapes[0]) == 4 * 2 * 2  # (members, y, z) only

    @pytest.mark.parametrize(
        "grid",
        [[], [np.full((2, 2), 0.5), np.ones((2, 3)) / 3], [np.array([[0.5, 0.5], [np.nan, 0.5]])], [np.eye(2) * 0.9]],
        ids=["empty", "shape", "non_finite", "rows"],
    )
    def test_bad_grid_raises_what_the_family_raises(self, grid):
        spec = GenSpec(graph="B", n=100, seed=23)
        with pytest.raises(ArgumentError) as want:
            ShiftFamily(datagen._key_table(spec.law.net), grid)
        with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
            shift_testsets(spec, grid, 50, seed=24)


def constant_model(dim: int, score: float) -> ModelParams:
    """A linear model that scores every row ``score``."""
    return ModelParams([np.zeros((dim, 1))], [np.array([np.log(score / (1.0 - score))])])


class TestCoupledShifts:
    """The shift sets are one coupled draw: exact per member, shared between members."""

    @pytest.mark.parametrize("gid", GRAPH_IDS, ids=lambda gid: f"zero_one-{gid}")  # the learned gap is zero-one
    def test_constant_model_has_no_gap(self, gid):
        sets = shift_testsets(GenSpec(graph=gid, n=2000, seed=3), correlation_grid(), 2000, seed=3)
        for score in (0.3, 0.5, 0.8):
            report = risk_invariance_report(constant_model(sets[0].x.shape[1], score), sets)
            assert report.max_gap == 0.0, (score, report.risks)

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_members_share_rows_where_z_agrees(self, gid):
        sets = shift_testsets(GenSpec(graph=gid, n=100, seed=40), correlation_grid(5), 3000, seed=41)
        for a in sets:
            assert np.array_equal(a.y, sets[0].y)
            assert (a.v is None) == (gid != "C")
            for b in sets:
                same = a.z == b.z
                assert np.array_equal(a.x[same], b.x[same])
                assert a.v is None or np.array_equal(a.v[same], b.v[same])

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_neighbour_flips_match_grid_steps(self, gid):
        spec, n = GenSpec(graph=gid, n=100, seed=42), 20_000
        py = marginal_probs(datagen._key_table(spec.law.net), ("Y",))
        uneven = tuple(np.array([[r, 1.0 - r], [1.0 - r**2, r**2]]) for r in (0.1, 0.3, 0.8, 0.9))
        for grid in (correlation_grid(7), uneven):
            sets = shift_testsets(spec, grid, n, seed=43)
            for k in range(len(grid) - 1):
                p = float(py @ np.abs(grid[k + 1][:, 0] - grid[k][:, 0]))
                flips = int(np.sum(sets[k].z != sets[k + 1].z))
                assert abs(flips - n * p) <= 4.0 * np.sqrt(n * p * (1.0 - p)), (k, flips, n * p)

    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_each_set_draws_its_member_law(self, gid):
        # without channel noise the keys are read back from the features
        quiet = {"noise_core": 0.0, "noise_aux": 0.0} | ({"noise_v": 0.0} if gid == "C" else {})
        spec, n = GenSpec(graph=gid, n=100, seed=46, **quiet), 40_000
        family = ShiftFamily(datagen._key_table(spec.law.net), correlation_grid(3))
        for member, ds in zip(family.members(), shift_testsets(spec, family.grid, n, seed=47)):
            cols = {"Y": ds.y, "Z": ds.z, "V": ds.v}
            for name, (start, stop) in ds.channel_slices.items():
                high = datagen._block_means(stop - start, getattr(spec, f"sep_{'aux' if name == 'ent' else name}"))[1]
                cols[datagen._CHANNEL_KEYS[name]] = np.all(ds.channel(name) == high, axis=1).astype(np.int64)
            cells = np.ravel_multi_index([cols[name] for name in member.names], member.shape)
            freq = np.bincount(cells, minlength=member.probs.size) / n
            want = member.probs.ravel()
            assert np.all(np.abs(freq - want) <= 4.0 * np.sqrt(want * (1.0 - want) / n) + 1e-12), (freq, want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gid", GRAPH_IDS)
    def test_unweighted_cells_draw_without_warnings(self, gid):
        # the ends put all of each label's mass on one group, leaving two (y, z) cells unweighted
        sets = shift_testsets(GenSpec(graph=gid, n=100, seed=44), correlation_grid(3, 0.0, 1.0), 500, seed=45)
        assert np.array_equal(sets[0].z, 1 - sets[0].y) and np.array_equal(sets[2].z, sets[2].y)

    @pytest.mark.filterwarnings("error")
    def test_pick_skips_states_without_mass(self):
        masses = np.array([[0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0], [0.25, 0.0, 0.75, 0.0]])
        rows = np.repeat(np.arange(3), 4)
        u = np.tile([0.0, 0.4999, 0.5, np.nextafter(1.0, 0.0)], 3)
        picked = datagen._pick(masses, rows, u)
        assert picked.tolist() == [1, 1, 2, 2] + [0] * 4 + [0, 2, 2, 2]


class TestDataset:
    @pytest.mark.parametrize("column", ["y", "z", "v"])
    @pytest.mark.parametrize("bad", [0.7, 1.9, np.nan, np.inf])
    def test_rejects_values_the_integer_cast_would_change(self, column, bad):
        cols = {"y": np.array([0.0, 1.0, 1.0]), "z": np.zeros(3), "v": np.array([1.0, 0.0, 1.0])}
        cols[column] = np.array([0.0, bad, 1.0])
        with pytest.raises(ArgumentError, match=f"{column} must hold whole numbers"):
            Dataset(cols["y"], cols["z"], np.zeros((3, 1)), np.ones(3), {"x": (0, 1)}, cols["v"])
        cols[column] = np.array([0.0, 1.0, 1.0])  # whole-valued floats are accepted
        whole = Dataset(cols["y"], cols["z"], np.zeros((3, 1)), np.ones(3), {"x": (0, 1)}, cols["v"])
        assert whole.y.dtype == whole.z.dtype == whole.v.dtype == np.int64

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_rejects_non_finite_features(self, bad):
        x = np.zeros((3, 2))
        x[: len(bad), 1] = bad
        with pytest.raises(ArgumentError, match="features x must be finite"):
            Dataset(np.zeros(3), np.zeros(3), x, np.ones(3), {"x": (0, 2)})

    def test_accepts_finite_features_whose_sum_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = Dataset(np.zeros(2), np.zeros(2), np.full((2, 1), 1e308), np.ones(2), {"x": (0, 1)})
        assert len(data) == 2

    def test_rejects_features_without_columns(self):
        # train would divide by sqrt(0) drawing the first layer's weights
        with pytest.raises(ArgumentError, match="features x need at least one column"):
            Dataset(np.zeros(3), np.zeros(3), np.empty((3, 0)), np.ones(3), {})

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

    def test_caller_arrays_stay_writable(self):
        # every column already has its dtype, so np.asarray hands back the caller's array
        y, z, v = np.zeros(4, dtype=np.int64), np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
        x, w = np.zeros((4, 2)), np.ones(4)
        ds = Dataset(y, z, x, w, {"all": (0, 2)}, v)
        new_w = np.full(3, 2.0)
        part = ds.take(np.arange(3), new_w)
        for arr in (y, z, x, w, v, new_w):
            assert arr.flags.writeable
        for col in (ds.y, ds.z, ds.x, ds.weights, ds.v, part.weights):
            assert not col.flags.writeable
        assert np.shares_memory(ds.x, x) and np.shares_memory(part.weights, new_w)  # views, not copies

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

    @pytest.mark.parametrize(
        "idx",
        [np.array([0, 10]), np.array([-11]), np.array([0.5]), np.array([True, False]), 2.0, [0, "1"]],
        ids=["past-the-end", "before-the-start", "float", "short-mask", "float-scalar", "string"],
    )
    def test_take_rejects_an_index_that_selects_no_rows(self, idx):
        ds = generate(GenSpec(graph="C", n=10, seed=2))
        with pytest.raises(ArgumentError, match="row index does not select rows of this 10-row set"):
            ds.take(idx)


    def test_take_with_boolean_mask_selects_rows(self):
        # np.take would read True/False as the row numbers 1/0
        ds = generate(GenSpec(graph="C", n=40, seed=3))
        mask = ds.y == 1
        part = ds.take(mask)
        for name in ("y", "z", "x", "weights", "v"):
            assert np.array_equal(getattr(part, name), getattr(ds, name)[mask])
        assert part.x.shape == (int(mask.sum()), ds.x.shape[1])


def concatenated_features(spec: GenSpec, gen, keys: dict, z=None) -> tuple[list[np.ndarray], dict]:
    """Reference for a single set: the former writer, which drew each channel
    into its own array and concatenated them."""
    assert z is None
    parts, slices, start = [], {}, 0
    for name, (dim, sep, noise) in datagen._channels(spec).items():
        means = datagen._block_means(dim, sep)
        parts.append(means[keys[name]] + gen.normal(0.0, noise, size=(keys[name].shape[0], dim)))
        slices[name] = (start, start + dim)
        start += dim
    return [np.concatenate(parts, axis=1)], slices


class TestPreallocatedChannels:
    @given(
        st.sampled_from(GRAPH_IDS),
        st.integers(1, 300),
        st.integers(0, 2**16),
        st.integers(1, 4),
        st.sampled_from([-1.5, 0.0, 2.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_matches_concatenated_channels(self, graph, n, seed, dim, sep, noise):
        spec = GenSpec(graph=graph, n=n, seed=seed, dim_core=dim, sep_aux=sep, noise_core=noise)
        new = [generate(spec), ideal_testset(spec, n, seed + 1)]
        with mock.patch.object(datagen, "_member_features", concatenated_features):
            old = [generate(spec), ideal_testset(spec, n, seed + 1)]
        for a, b in zip(new, old):
            assert a.channel_slices == b.channel_slices
            for name in ("y", "z", "x", "weights", "v"):
                got, want = getattr(a, name), getattr(b, name)
                assert (got is None and want is None) or got.tobytes() == want.tobytes()


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
        pyz = marginal_probs(joint(EXACT_CASES[gid][0].law.net), ("Y", "Z"))
        np.testing.assert_allclose(pyz / pyz.sum(axis=0), source / source.sum(axis=0), rtol=0, atol=1e-15)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        ds = generate(GenSpec(graph="C", n=40, seed=21))
        path = str(tmp_path / "data")
        artifacts.save(ds, path)
        back = artifacts.load(path)
        for name in ("y", "z", "x", "weights", "v"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
        assert list(back.channel_slices.items()) == list(ds.channel_slices.items())
        assert back.spec == ds.spec

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = generate(GenSpec(graph="A", n=30, seed=22))
        p1, p2 = tmp_path / "a", tmp_path / "b"
        artifacts.save(ds, str(p1))
        artifacts.save(generate(GenSpec(graph="A", n=30, seed=22)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

"""Metric computations against hand-computed fixtures."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from balancelab.checks import _LOSS_PAIRS
from balancelab.datagen import Dataset, GenSpec, generate
from balancelab.errors import ArgumentError
from balancelab.metrics import MetricsReport, evaluate, risk_invariance_report
from balancelab.model import ModelParams, predict_scores


def passthrough_params() -> ModelParams:
    # one feature, logit = 50*(x - 0.5): scores ~ 0/1 step at x = 0.5
    return ModelParams([np.array([[50.0]])], [np.array([-25.0])])


def dataset(y, z, x, w=None) -> Dataset:
    y = np.asarray(y)
    x = np.asarray(x, dtype=float).reshape(len(y), 1)
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    return Dataset(y, np.asarray(z), x, w, {"all": (0, 1)})


class TestEvaluate:
    def test_perfect_classifier(self):
        y = np.array([0, 1] * 10)
        ds = dataset(y, np.array([0, 1] * 10), y.astype(float))
        rep = evaluate(passthrough_params(), ds)
        assert rep.accuracy == 1.0
        assert rep.worst_group == 1.0
        assert rep.equalized_odds == pytest.approx(0.0, abs=1e-9)

    def test_scores_equal_group_value_give_full_eo(self):
        # f(x) = z: within each label stratum the score means are 0 and 1
        y = np.array([0, 0, 1, 1] * 5)
        z = np.array([0, 1, 0, 1] * 5)
        ds = dataset(y, z, z.astype(float))
        rep = evaluate(passthrough_params(), ds)
        assert rep.equalized_odds == pytest.approx(1.0, abs=1e-9)
        assert rep.dp_gap == pytest.approx(1.0, abs=1e-9)

    def test_hand_built_eight_row_fixture(self):
        # two rows per (y, z) cell; the spreadsheet oracle below recomputes
        # every metric from the raw scores with independent arithmetic
        y = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        z = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        x = np.array([0.1, 0.8, 0.2, 0.9, 0.3, 0.4, 0.7, 0.6])
        rep = evaluate(passthrough_params(), dataset(y, z, x), min_stratum=2)

        scores = 1.0 / (1.0 + np.exp(-(50.0 * x - 25.0)))
        preds = scores >= 0.5
        correct = preds == y.astype(bool)
        assert rep.accuracy == pytest.approx(correct.mean())
        for z_value in (0, 1):
            assert rep.z_accuracy[z_value] == pytest.approx(correct[z == z_value].mean())
        assert rep.worst_group == pytest.approx(min(correct[z == 0].mean(), correct[z == 1].mean()))
        eo = 0.0
        for y_value in (0, 1):
            means = [scores[(y == y_value) & (z == zv)].mean() for zv in (0, 1)]
            eo += 0.5 * (max(means) - min(means))
        assert rep.equalized_odds == pytest.approx(eo, abs=1e-12)
        dp = abs(scores[z == 0].mean() - scores[z == 1].mean())
        assert rep.dp_gap == pytest.approx(dp, abs=1e-12)
        assert rep.group_counts[(1, 1)] == 2

    def test_weighted_accuracy(self):
        y = np.array([1, 0])
        ds = dataset(y, np.array([0, 1]), np.array([0.9, 0.9]), w=np.array([3.0, 1.0]))
        rep = evaluate(passthrough_params(), ds, min_stratum=1)
        assert rep.accuracy == pytest.approx(0.75)

    def test_single_class_label_flags_pp_gap(self):
        y = np.ones(10, dtype=int)
        ds = dataset(y, np.array([0, 1] * 5), np.linspace(0, 1, 10))
        rep = evaluate(passthrough_params(), ds)
        assert rep.pp_gap is None
        assert any("single_class" in s for s in rep.excluded_strata)

    def test_tiny_strata_excluded(self):
        y = np.array([0, 1] * 10 + [1])
        z = np.array([0, 1] * 10 + [2])
        ds = dataset(y, z, y.astype(float))
        rep = evaluate(passthrough_params(), ds)
        assert "z=2" in rep.excluded_strata
        assert 2 not in rep.z_accuracy

    def test_zero_weight_stratum_excluded(self):
        ds = generate(GenSpec("A", 200, 1))
        ds = ds.take(slice(None), np.where(ds.z == 1, 0.0, 1.0))
        params = ModelParams([np.zeros((ds.x.shape[1], 1))], [np.zeros(1)])
        rep = evaluate(params, ds)
        assert {"z=1", "y=0,z=1", "y=1,z=1"} <= set(rep.excluded_strata)
        assert set(rep.z_accuracy) == {0}
        for value in (rep.accuracy, rep.worst_group, rep.equalized_odds, rep.dp_gap, rep.pp_gap):
            assert np.isfinite(value)

    def test_zero_total_weight_rejected(self):
        ds = dataset([0, 1] * 10, [0, 1] * 10, np.linspace(0, 1, 20), np.zeros(20))
        with pytest.raises(ArgumentError, match="zero total weight"):
            evaluate(passthrough_params(), ds)

    @pytest.mark.parametrize("knob", [{"pp_bins": 0}, {"pp_bins": -1}, {"min_stratum": 0}])
    def test_knob_below_one_rejected(self, knob):
        ds = dataset([0, 1] * 10, [0, 1] * 10, np.linspace(0, 1, 20))
        with pytest.raises(ArgumentError, match=">= 1"):
            evaluate(passthrough_params(), ds, **knob)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5, 5.0])
    def test_threshold_outside_unit_interval_rejected(self, bad):
        ds = dataset([0, 1] * 10, [0, 1] * 10, np.linspace(0, 1, 20))
        with pytest.raises(ArgumentError, match="threshold"):
            evaluate(passthrough_params(), ds, threshold=bad)

    def test_feature_width_mismatch_rejected(self):
        y = np.array([0, 1] * 10)
        wide = Dataset(y, y, np.ones((20, 2)), np.ones(20), {"all": (0, 2)})
        with pytest.raises(ArgumentError, match="shape"):
            predict_scores(passthrough_params(), np.ones((20, 2)))
        with pytest.raises(ArgumentError, match="shape"):
            predict_scores(passthrough_params(), np.ones(20))
        with pytest.raises(ArgumentError, match="shape"):
            evaluate(passthrough_params(), wide)
        with pytest.raises(ArgumentError, match="shape"):
            risk_invariance_report(passthrough_params(), [wide, wide])

    def test_eo_invariant_to_group_relabeling(self):
        gen = np.random.default_rng(0)
        y = gen.integers(0, 2, 200)
        z = gen.integers(0, 2, 200)
        x = gen.uniform(0, 1, 200)
        before = evaluate(passthrough_params(), dataset(y, z, x))
        after = evaluate(passthrough_params(), dataset(y, 1 - z, x))
        assert before.equalized_odds == pytest.approx(after.equalized_odds, abs=1e-12)
        assert before.worst_group == pytest.approx(after.worst_group, abs=1e-12)

    def test_worst_group_bounded_by_accuracy(self):
        gen = np.random.default_rng(1)
        for seed in range(10):
            y = gen.integers(0, 2, 300)
            z = gen.integers(0, 2, 300)
            x = gen.uniform(0, 1, 300)
            rep = evaluate(passthrough_params(), dataset(y, z, x))
            assert rep.worst_group <= rep.accuracy + 1e-12

    def test_to_dict_is_json_with_every_field(self):
        gen = np.random.default_rng(3)
        y, z = gen.integers(0, 2, 200), gen.integers(0, 2, 200)
        rep = evaluate(passthrough_params(), dataset(y, z, gen.uniform(0, 1, 200)), probe_seed=0, min_stratum=60)
        assert rep.encoding is not None and rep.excluded_strata
        back = json.loads(json.dumps(rep.to_dict()))
        assert set(back) == {f.name for f in fields(MetricsReport)}
        for name in ("accuracy", "worst_group", "equalized_odds", "dp_gap", "pp_gap", "encoding", "threshold"):
            assert back[name] == getattr(rep, name), name
        assert back["group_counts"] == {f"y={a},z={b}": c for (a, b), c in rep.group_counts.items()}
        assert back["z_accuracy"] == {str(k): v for k, v in rep.z_accuracy.items()}
        assert tuple(back["excluded_strata"]) == rep.excluded_strata


class TestRiskReport:
    def test_constant_predictor_same_marginal(self):
        const = ModelParams([np.zeros((1, 1))], [np.array([0.4])])
        gen = np.random.default_rng(2)
        sets = []
        for k in range(3):
            y = gen.integers(0, 2, 4000)
            sets.append((f"s{k}", dataset(y, gen.integers(0, 2, 4000), gen.uniform(0, 1, 4000))))
        rep = risk_invariance_report(const, sets, "zero_one")
        assert rep.max_gap < 0.04  # sampling noise only

    def test_gap_matches_risks(self):
        params = passthrough_params()
        y = np.array([0, 1] * 50)
        good = dataset(y, y, y.astype(float))
        bad = dataset(y, y, 1.0 - y.astype(float))
        rep = risk_invariance_report(params, [("good", good), ("bad", bad)])
        assert rep.risks[0] == pytest.approx(0.0)
        assert rep.risks[1] == pytest.approx(1.0)
        assert rep.max_gap == pytest.approx(1.0)

    def test_to_dict_is_json_with_every_field(self):
        gen = np.random.default_rng(4)
        sets = [
            (f"s{k}", dataset(gen.integers(0, 2, 50), gen.integers(0, 2, 50), gen.uniform(0, 1, 50)))
            for k in range(3)
        ]
        rep = risk_invariance_report(passthrough_params(), sets, "logloss")
        back = json.loads(json.dumps(rep.to_dict()))
        assert back == {"risks": dict(zip(rep.labels, rep.risks)), "max_gap": rep.max_gap, "loss": "logloss"}
        assert tuple(back["risks"]) == rep.labels

    def test_zero_weight_set_rejected(self):
        y = np.array([0, 1] * 5)
        sets = [("a", dataset(y, y, y)), ("b", dataset(y, y, y, np.zeros(10)))]
        with pytest.raises(ArgumentError, match="'b' has zero total weight"):
            risk_invariance_report(passthrough_params(), sets)

    def test_losses_match_inline_formulas(self):
        # the shared (loss if y = 0, loss if y = 1) pairs give the bits of the
        # per-row formulas for finite scores and y in {0, 1}
        gen = np.random.default_rng(6)
        scores = np.concatenate([gen.uniform(0, 1, 2000), [0.0, 0.5, 1.0, 1e-13, 1.0 - 1e-13]])
        y = gen.integers(0, 2, scores.size)
        s = np.clip(scores, 1e-12, 1.0 - 1e-12)
        inline = {
            "zero_one": ((scores >= 0.5) != y.astype(bool)).astype(float),
            "logloss": -(y * np.log(s) + (1 - y) * np.log(1.0 - s)),
        }
        for name, expected in inline.items():
            loss_y0, loss_y1 = _LOSS_PAIRS[name](scores)
            assert np.where(y == 1, loss_y1, loss_y0).tobytes() == expected.tobytes(), name

    def test_unknown_loss_rejected(self):
        y = np.array([0, 1] * 5)
        with pytest.raises(ArgumentError, match="loss"):
            risk_invariance_report(passthrough_params(), [dataset(y, y, y), dataset(y, y, y)], "squared")

    def test_max_gap_is_largest_pairwise_difference(self):
        gen = np.random.default_rng(8)
        for trial in range(20):
            sets = []
            for _ in range(int(gen.integers(2, 8))):
                m = int(gen.integers(5, 60))
                sets.append(dataset(gen.integers(0, 2, m), gen.integers(0, 2, m), gen.uniform(0, 1, m), gen.uniform(0.1, 2.0, m)))
            for loss in ("zero_one", "logloss"):
                rep = risk_invariance_report(passthrough_params(), sets, loss)
                pairwise = max(abs(a - b) for a in rep.risks for b in rep.risks)
                assert rep.max_gap.hex() == pairwise.hex(), (trial, loss)

    @pytest.mark.parametrize(
        "entries,named",
        [
            ([("a",), ("b",)], r"testsets\[0\].*\('a',\)"),
            (["ab", "cd"], r"testsets\[0\].*'ab'"),
            ([("a", 3), ("b", 4)], r"testsets\[0\].*\('a', 3\)"),
            ([(0, "set")], r"testsets\[0\]"),
        ],
    )
    def test_malformed_entries_rejected(self, entries, named):
        y = np.array([0, 1] * 5)
        good = ("good", dataset(y, y, y))
        with pytest.raises(ArgumentError, match=named):
            risk_invariance_report(passthrough_params(), entries + [good])
        with pytest.raises(ArgumentError, match=r"testsets\[1\]"):
            risk_invariance_report(passthrough_params(), [good, entries[0]])

    def test_generator_rejected(self):
        y = np.array([0, 1] * 5)
        sets = (dataset(y, y, y) for _ in range(2))
        with pytest.raises(ArgumentError, match="testsets must be a sequence, got generator"):
            risk_invariance_report(passthrough_params(), sets)

    def test_needs_two_sets(self):
        with pytest.raises(ArgumentError):
            risk_invariance_report(passthrough_params(), [dataset([0, 1], [0, 1], [0.2, 0.8])])

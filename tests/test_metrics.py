"""Metric computations against hand-computed fixtures."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from balancelab.datagen import Dataset
from balancelab.errors import ArgumentError
from balancelab.metrics import MetricsReport, evaluate, risk_invariance_report
from balancelab.model import ModelParams


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

    def test_needs_two_sets(self):
        with pytest.raises(ArgumentError):
            risk_invariance_report(passthrough_params(), [dataset([0, 1], [0, 1], [0.2, 0.8])])

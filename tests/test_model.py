"""Learner: MMD estimator, analytic gradients, training loop, encoding probe."""

from __future__ import annotations

import math

import numpy as np
import pytest

from balancelab import model
from balancelab.datagen import Dataset, GenSpec, generate, ideal_testset
from balancelab.errors import ArgumentError, DegenerateTarget, SampleSizeError
from balancelab.model import (
    MmdPenalty,
    ModelParams,
    TrainSpec,
    dumps_params,
    loads_params,
    log_to_csv,
    loss,
    median_bandwidth,
    mmd2,
    predict_scores,
    probe_encoding,
    representation,
    train,
)
from balancelab.rng import spawn


def toy_dataset(seed: int, n: int = 12, d: int = 4) -> Dataset:
    gen = spawn(seed, 50)
    return Dataset(
        gen.integers(0, 2, n),
        gen.integers(0, 2, n),
        gen.normal(size=(n, d)),
        gen.uniform(0.5, 1.5, n),
        {"all": (0, d)},
    )


def random_params(seed: int, d: int = 4, hidden: int = 0) -> ModelParams:
    gen = spawn(seed, 51)
    if hidden:
        return ModelParams(
            [gen.normal(size=(d, hidden)), gen.normal(size=(hidden, 1))],
            [gen.normal(size=hidden), gen.normal(size=1)],
            "relu",
        )
    return ModelParams([gen.normal(size=(d, 1))], [gen.normal(size=1)])


def two_cluster_dataset(seed: int, n: int = 400) -> Dataset:
    gen = spawn(seed, 52)
    y = gen.integers(0, 2, n)
    x = gen.normal(size=(n, 3)) * 0.5 + np.where(y[:, None] == 1, 2.0, -2.0)
    return Dataset(y, np.zeros(n, dtype=np.int64), x, np.ones(n), {"all": (0, 3)})


class TestMmd2:
    def test_identical_three_points_is_zero(self):
        a = np.array([0.3, 0.3, 0.3])
        assert mmd2(a, a, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop(self):
        a = np.array([0.1, 0.4, 0.9])
        b = np.array([0.2, 0.5, 0.7])
        h = 0.3
        k = lambda u, v: np.exp(-((u - v) ** 2) / (2 * h * h))  # noqa: E731
        brute = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    brute += k(a[i], a[j]) / 6 + k(b[i], b[j]) / 6
                brute -= 2 * k(a[i], b[j]) / 9
        assert mmd2(a, b, h) == pytest.approx(brute, abs=1e-12)

    def test_separated_gaussians(self):
        gen = spawn(0, 53)
        value = mmd2(gen.normal(0, 1, 200), gen.normal(5, 1, 200), 1.0)
        assert value > 0.5

    def test_small_sample_rejected(self):
        with pytest.raises(SampleSizeError):
            mmd2(np.array([0.1]), np.array([0.2, 0.3]), 0.3)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_bad_bandwidth_rejected(self, bad):
        a = np.array([0.1, 0.4, 0.9])
        with pytest.raises(ArgumentError, match="bandwidth"):
            mmd2(a, a, bad)
        spec = TrainSpec(mmd=MmdPenalty("marginal", 1.0))
        with pytest.raises(ArgumentError, match="bandwidth"):
            loss(random_params(0), toy_dataset(0), spec, bandwidth=bad)

    def test_median_bandwidth(self):
        values = np.array([0.0, 1.0, 2.0])
        assert median_bandwidth(values) == pytest.approx(1.0)


def central_difference_worst_error(spec: TrainSpec, hidden: int, seed: int) -> float:
    ds = toy_dataset(seed)
    params = random_params(seed, hidden=hidden)
    report = loss(params, ds, spec, bandwidth=0.3)
    eps = 1e-5
    worst = 0.0
    for arrs, grads in ((params.weights, report.grad_weights), (params.biases, report.grad_biases)):
        for arr, grad in zip(arrs, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + eps
                up = loss(params, ds, spec, bandwidth=0.3).value
                arr[i] = orig - eps
                down = loss(params, ds, spec, bandwidth=0.3).value
                arr[i] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


class TestGradients:
    def test_single_sample_logistic_gradient(self):
        x = np.array([[0.5, -1.0]])
        ds = Dataset(np.array([1]), np.array([0]), x, np.ones(1), {"all": (0, 2)})
        params = ModelParams([np.array([[0.3], [0.2]])], [np.array([0.1])])
        spec = TrainSpec(l2=0.0, mmd=None)
        report = loss(params, ds, spec)
        s = predict_scores(params, x)[0]
        expected = (s - 1.0) * x[0]
        assert np.allclose(report.grad_weights[0][:, 0], expected, atol=1e-12)
        assert report.grad_biases[0][0] == pytest.approx(s - 1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "mmd,hidden",
        [
            (None, 0),
            (None, 3),
            (MmdPenalty("marginal", 2.0, 0.3), 0),
            (MmdPenalty("marginal", 2.0, 0.3), 3),
            (MmdPenalty("conditional", 2.0, 0.3), 0),
            (MmdPenalty("conditional", 2.0, 0.3), 3),
            (MmdPenalty("marginal", 4.0, 0.3, on_representation=True), 3),
            (MmdPenalty("conditional", 4.0, 0.3, on_representation=True), 3),
        ],
    )
    def test_matches_central_differences(self, mmd, hidden):
        spec = TrainSpec(l2=1e-3, hidden_dim=hidden, mmd=mmd)
        for seed in range(3):
            # relative tolerance 1e-4 with an absolute floor of 1e-8
            assert central_difference_worst_error(spec, hidden, seed) < 1e-4

    def test_balanced_scores_give_tiny_marginal_penalty(self):
        gen = spawn(4, 54)
        n = 40
        x = gen.normal(size=(n, 2))
        z = np.arange(n) % 2  # same score distribution in both groups
        ds = Dataset(np.zeros(n, dtype=np.int64), z, x, np.ones(n), {"all": (0, 2)})
        params = ModelParams([np.zeros((2, 1))], [np.zeros(1)])  # constant scores
        spec = TrainSpec(mmd=MmdPenalty("marginal", 1.0, 0.3))
        report = loss(params, ds, spec)
        assert abs(report.mmd) < 1e-12


def brute_penalty(target: np.ndarray, y: np.ndarray, z: np.ndarray, mode: str, h: float):
    """Per-stratum unbiased squared MMD of the target rows and its gradient,
    by double loops over the textbook U-statistic."""

    def k(u, v):
        return np.exp(-((u - v) ** 2).sum() / (2 * h * h))

    strata = [np.ones(len(y), dtype=bool)] if mode == "marginal" else [y == 0, y == 1]
    value, grad, skipped = 0.0, np.zeros_like(target), 0
    for stratum in strata:
        sides = [np.flatnonzero(stratum & (z == 0)), np.flatnonzero(stratum & (z == 1))]
        m, n = len(sides[0]), len(sides[1])
        if m < 2 or n < 2:
            skipped += 1
            continue
        for side in sides:
            size = len(side)
            for i in side:
                for j in side:
                    if i != j:
                        kij = k(target[i], target[j])
                        value += kij / (size * (size - 1))
                        # the ordered pair (j, i) adds the same derivative
                        grad[i] -= 2 * kij * (target[i] - target[j]) / (h * h * size * (size - 1))
        for i in sides[0]:
            for j in sides[1]:
                kij = k(target[i], target[j])
                value -= 2 * kij / (m * n)
                dk = -(target[i] - target[j]) / (h * h) * kij  # d k / d t_i = -(d k / d t_j)
                grad[i] -= 2 * dk / (m * n)
                grad[j] += 2 * dk / (m * n)
    return value, grad, skipped


def backprop(params: ModelParams, x: np.ndarray, dtarget: np.ndarray, on_rep: bool):
    """Parameter gradients of sum(dtarget * target) for a one-hidden-layer
    relu model, the target being the scores or the hidden representation."""
    (w1, w2), (b1, _) = params.weights, params.biases
    pre = x @ w1 + b1
    if on_rep:
        dout = np.zeros((len(x), 1))
        dhidden = dtarget
    else:
        s = predict_scores(params, x)
        dout = dtarget * (s * (1 - s))[:, None]
        dhidden = dout @ w2.T
    dpre = dhidden * (pre > 0)
    return [x.T @ dpre, np.maximum(pre, 0.0).T @ dout], [dpre.sum(axis=0), dout.sum(axis=0)]


def one_row_side_dataset() -> Dataset:
    # y = 0 has a single z = 1 row, so the conditional penalty skips that
    # stratum; the z = 2 rows belong to no stratum
    y = np.array([0] * 6 + [1] * 9 + [0, 0, 1])
    z = np.array([0, 0, 1, 0, 0, 0] + [0, 1, 0, 1, 1, 0, 0, 1, 1] + [2, 2, 2])
    x = spawn(7, 56).normal(size=(len(y), 4))
    return Dataset(y, z, x, np.ones(len(y)), {"all": (0, 4)})


class TestFusedPenalty:
    @pytest.mark.parametrize("mode", ["marginal", "conditional"])
    @pytest.mark.parametrize("on_rep", [False, True])
    @pytest.mark.parametrize("data", ["random", "one_row_side"])
    def test_loss_matches_double_loop(self, mode, on_rep, data):
        ds = toy_dataset(8, n=30) if data == "random" else one_row_side_dataset()
        params = random_params(9, hidden=3)
        h, strength = 0.7, 1.5
        spec = TrainSpec(l2=1e-3, hidden_dim=3, mmd=MmdPenalty(mode, strength, h, on_representation=on_rep))
        report = loss(params, ds, spec)

        scores = predict_scores(params, ds.x)
        target = representation(params, ds.x) if on_rep else scores[:, None]
        value, grad, skipped = brute_penalty(target, ds.y, ds.z, mode, h)
        plain = loss(params, ds, TrainSpec(l2=1e-3, hidden_dim=3))
        gw, gb = backprop(params, ds.x, strength * grad, on_rep)

        assert report.skipped_strata == skipped
        assert skipped == (1 if data == "one_row_side" and mode == "conditional" else 0)
        assert report.mmd == pytest.approx(value, rel=1e-12)
        assert report.value == pytest.approx(plain.value + strength * value, rel=1e-12)
        got = report.grad_weights + report.grad_biases
        base = plain.grad_weights + plain.grad_biases
        for g, b, extra in zip(got, base, gw + gb):
            np.testing.assert_allclose(g, b + extra, rtol=1e-12, atol=0)


class TestKnobs:
    @pytest.mark.parametrize("field", ["learning_rate", "l2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_train_spec_rejects_non_finite(self, field, bad):
        with pytest.raises(ArgumentError, match=field):
            TrainSpec(**{field: bad})

    @pytest.mark.parametrize("field", ["strength", "bandwidth"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_penalty_rejects_non_finite(self, field, bad):
        knobs = {"strength": 1.0, "bandwidth": 0.3} | {field: bad}
        with pytest.raises(ArgumentError, match=field):
            MmdPenalty("marginal", **knobs)


class TestTraining:
    def test_separable_clusters_reach_high_accuracy(self):
        ds = two_cluster_dataset(1)
        result = train(ds, TrainSpec(epochs=50, learning_rate=0.3, seed=2))
        acc = np.mean((predict_scores(result.params, ds.x) >= 0.5) == ds.y.astype(bool))
        assert acc > 0.99

    def test_loss_decreases(self):
        ds = two_cluster_dataset(3)
        result = train(ds, TrainSpec(epochs=30, seed=1))
        assert result.log[-1]["loss"] <= result.log[0]["loss"]

    def test_representation_penalty_needs_hidden_layer(self):
        penalty = MmdPenalty("conditional", 1.0, 0.3, on_representation=True)
        with pytest.raises(ArgumentError, match="hidden"):
            TrainSpec(hidden_dim=0, mmd=penalty)
        with pytest.raises(ArgumentError, match="hidden"):  # linear params
            loss(random_params(0), toy_dataset(0), TrainSpec(hidden_dim=3, mmd=penalty))

    def test_tiny_learning_rate_keeps_params_near_init(self):
        ds = two_cluster_dataset(4)
        r1 = train(ds, TrainSpec(epochs=1, learning_rate=1e-12, seed=5))
        r2 = train(ds, TrainSpec(epochs=1, learning_rate=1e-12, seed=5))
        assert np.allclose(r1.params.weights[0], r2.params.weights[0])
        with pytest.raises(ArgumentError):
            TrainSpec(learning_rate=0.0)

    def test_bitwise_deterministic(self):
        spec = GenSpec(graph="A", n=800, seed=3)
        ds = generate(spec)
        tspec = TrainSpec(epochs=5, hidden_dim=8, seed=11, mmd=MmdPenalty("conditional", 2.0))
        r1, r2 = train(ds, tspec), train(ds, tspec)
        for w1, w2 in zip(r1.params.weights, r2.params.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(r1.params.biases, r2.params.biases):
            assert np.array_equal(b1, b2)
        assert r1.bandwidth == r2.bandwidth

    def test_log_records_components(self):
        ds = two_cluster_dataset(5)
        result = train(ds, TrainSpec(epochs=3, mmd=MmdPenalty("marginal", 0.0, 0.3)))
        entry = result.log[-1]
        assert set(entry) >= {"epoch", "loss", "ce", "l2", "mmd", "skipped_strata"}
        text = log_to_csv(result.log)
        assert text.splitlines()[0] == "epoch,loss,ce,l2,mmd,skipped_strata"

    def test_conditional_strata_skipping_counted(self):
        # one z value only: every stratum lacks its comparison group
        n = 64
        gen = spawn(6, 55)
        ds = Dataset(
            gen.integers(0, 2, n),
            np.zeros(n, dtype=np.int64),
            gen.normal(size=(n, 3)),
            np.ones(n),
            {"all": (0, 3)},
        )
        result = train(ds, TrainSpec(epochs=2, mmd=MmdPenalty("conditional", 1.0, 0.3)))
        assert result.log[-1]["skipped_strata"] > 0


def validating_take(self: Dataset, idx: np.ndarray, weights: np.ndarray | None = None) -> Dataset:
    """``Dataset.take`` through the validating constructor on every call."""
    return Dataset(
        self.y[idx],
        self.z[idx],
        self.x[idx],
        self.weights[idx] if weights is None else weights,
        self.channel_slices,
        None if self.v is None else self.v[idx],
        self.spec,
    )


class TestTrainContract:
    def test_loss_called_through_module_global(self, monkeypatch):
        ds = two_cluster_dataset(11, n=300)
        spec = TrainSpec(epochs=3, batch_size=64)
        seen = []
        real = model.loss

        def counting(*args, **kwargs):
            seen.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "loss", counting)
        train(ds, spec)
        assert len(seen) == spec.epochs * math.ceil(len(ds) / spec.batch_size)
        assert all(s is spec for s in seen)

    def test_trusted_take_is_bit_identical(self, monkeypatch):
        ds = generate(GenSpec(graph="C", n=700, seed=12))
        spec = TrainSpec(epochs=3, hidden_dim=4, seed=3)

        def run():
            result = train(ds, spec)
            return result, probe_encoding(result.params, ds, "v", seed=4)

        fast, fast_acc = run()
        monkeypatch.setattr(Dataset, "take", validating_take)
        slow, slow_acc = run()
        for a, b in zip(fast.params.weights + fast.params.biases, slow.params.weights + slow.params.biases):
            assert np.array_equal(a, b)
        assert fast.log == slow.log
        assert fast_acc == slow_acc


class TestProbe:
    def test_constant_representation_scores_majority_rate(self):
        spec = GenSpec(graph="A", n=3000, seed=7)
        ds = generate(spec)
        zero = ModelParams(
            [np.zeros((ds.x.shape[1], 4)), np.zeros((4, 1))],
            [np.zeros(4), np.zeros(1)],
            "relu",
        )
        acc = probe_encoding(zero, ds, "z", seed=1)
        majority = max(np.mean(ds.z), 1 - np.mean(ds.z))
        assert abs(acc - majority) < 0.06

    def test_linear_model_probe_reads_raw_inputs(self):
        spec = GenSpec(graph="A", n=4000, seed=8)
        ds = generate(spec)
        linear = ModelParams([np.zeros((ds.x.shape[1], 1))], [np.zeros(1)])
        assert np.array_equal(representation(linear, ds.x), ds.x)
        acc = probe_encoding(linear, ds, "z", seed=2)
        assert acc > 0.9  # the aux channel sits in the inputs

    def test_degenerate_target_rejected(self):
        ds = two_cluster_dataset(9)
        params = ModelParams([np.zeros((3, 1))], [np.zeros(1)])
        with pytest.raises(DegenerateTarget):
            probe_encoding(params, ds, "z", seed=0)

    def test_missing_v_column(self):
        ds = two_cluster_dataset(10)
        params = ModelParams([np.zeros((3, 1))], [np.zeros(1)])
        with pytest.raises(ArgumentError):
            probe_encoding(params, ds, "v", seed=0)


class TestSerialization:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("activation relu\n", 2),
            ("activation\nlayers 1\n", 1),
            ("activation relu\nlayers one\n", 2),
            ("activation relu\nlayers 1\nweight 0 2\n", 3),
            ("activation relu\nlayers 1\nweight 0 2 1\n1.0\n2.0 3.0\n", 5),
            ("activation relu\n\nlayers 1\nweight 0 1 1\n1.0\nbias 0 1\nnan?\n", 7),
        ],
    )
    def test_malformed_line_is_argument_error(self, text, line):
        with pytest.raises(ArgumentError, match=f"line {line}:"):
            loads_params(text)

    def test_round_trip_bitwise(self):
        params = random_params(3, d=5, hidden=4)
        again = loads_params(dumps_params(params))
        assert again.activation == params.activation
        for a, b in zip(again.weights, params.weights):
            assert np.array_equal(a, b)
        for a, b in zip(again.biases, params.biases):
            assert np.array_equal(a, b)

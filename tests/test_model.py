"""Learner: MMD estimator, analytic gradients, training loop, encoding probe."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from balancelab import artifacts, metrics, model
from balancelab.datagen import Dataset, GenSpec, generate, ideal_testset
from balancelab.errors import ArgumentError, BalanceLabError, DegenerateTarget, NumericsError, SampleSizeError
from balancelab.model import (
    MmdPenalty,
    ModelParams,
    TrainSpec,
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
        )
    return ModelParams([gen.normal(size=(d, 1))], [gen.normal(size=1)])


def two_cluster_dataset(seed: int, n: int = 400) -> Dataset:
    gen = spawn(seed, 52)
    y = gen.integers(0, 2, n)
    x = gen.normal(size=(n, 3)) * 0.5 + np.where(y[:, None] == 1, 2.0, -2.0)
    return Dataset(y, np.zeros(n, dtype=np.int64), x, np.ones(n), {"all": (0, 3)})


def probe_problem(seed: int, n: int = 700, d: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """A probe design ``[rep, 1]`` with noisy logistic 0/1 labels."""
    gen = spawn(seed, 55)
    rep = np.maximum(gen.normal(size=(n, d)), 0.0)
    logit = rep @ gen.normal(size=d) - 1.0
    labels = (gen.uniform(size=n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return np.column_stack([rep, np.ones(n)]), labels


def probe_gradient(a: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of the probe objective: mean cross-entropy + 1e-4 ||w||^2, bias unpenalized."""
    p = 1.0 / (1.0 + np.exp(-(a @ w)))
    return a.T @ (p - labels) / len(a) + 2e-4 * np.append(w[:-1], 0.0)


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

    @pytest.mark.parametrize("bad", [1e-160, 1e-300, 1e200])
    def test_bandwidth_whose_square_leaves_the_normal_floats_rejected(self, bad):
        # a square below the normal floats makes 1 / h^2 inf or divide by zero; an inf square
        # makes every kernel entry 1 and the penalty silently 0
        a = np.array([0.1, 0.4, 0.9])
        spec = TrainSpec(mmd=MmdPenalty("marginal", 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="bandwidth must be finite and positive"):
                MmdPenalty("marginal", 1.0, bandwidth=bad)
            with pytest.raises(ArgumentError, match="bandwidth must be finite and positive"):
                mmd2(a, a, bad)
            with pytest.raises(ArgumentError, match="bandwidth must be finite and positive"):
                loss(random_params(0), toy_dataset(0), spec, bandwidth=bad)

    def test_bandwidths_at_the_edges_of_the_rule_accepted(self):
        tiny, a = np.finfo(float).tiny, np.array([0.1, 0.4, 0.9])
        edges = (math.sqrt(tiny) * (1 + 1e-15), 1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in edges:
                assert MmdPenalty("marginal", 1.0, bandwidth=h).bandwidth == h
                assert math.isfinite(mmd2(a, a + 1.0, h))

    def test_far_apart_pairs_reach_the_kernel_limit_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mmd2([0.0, 1e6, 3.0], [0.5, 2e6, 1e150], 1e-20)
        # every off-diagonal kernel entry is exp(-inf) = 0, so only the diagonal terms remain
        assert value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "call",
        [
            # the Gram product overflows, and its sum of squared norms less it is inf - inf
            lambda: mmd2(np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [2.0, 3.0]]), 1.0),
            # the difference overflows, and the gradient multiplies it by a zero kernel entry
            lambda: mmd2([1e308, -1e308], [0.0, 1.0], 1.0),
            # the squared norm overflows, and the median distance is inf
            lambda: median_bandwidth([1e200, 0.0, 1.0]),
        ],
        ids=["gram", "difference", "median"],
    )
    def test_samples_whose_squared_distances_overflow_rejected(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="squared distances overflow"):
                call()

    def test_samples_of_unequal_widths_rejected(self):
        with pytest.raises(ArgumentError, match="one width"):
            mmd2(np.zeros((3, 1)), np.zeros((3, 2)), 1.0)

    def test_median_bandwidth(self):
        values = np.array([0.0, 1.0, 2.0])
        assert median_bandwidth(values) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        good = np.array([0.1, 0.4, 0.9])
        with pytest.raises(ArgumentError, match="finite"):
            mmd2(good, np.array([0.2, bad, 0.5]), 0.3)
        with pytest.raises(ArgumentError, match="finite"):
            mmd2(np.array([[0.2, 0.1], [bad, 0.3]]), np.ones((2, 2)), 0.3)
        with pytest.raises(ArgumentError, match="finite"):
            median_bandwidth(np.array([0.2, bad, 0.5]))


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


def benchmark_batch(kind: str) -> Dataset:
    """A 128-row batch, the benchmark's batch size, with uneven z sides; or
    with the y = 0 stratum cut to one z = 1 row; or with ten rows whose z is 2."""
    gen = spawn(23, 57)
    n = 128
    y = gen.integers(0, 2, n)
    z = (gen.uniform(size=n) < 0.25).astype(np.int64)
    if kind == "one_row_side":
        z[y == 0] = 0
        z[np.flatnonzero(y == 0)[0]] = 1
    elif kind == "z_two":
        z[gen.choice(n, 10, replace=False)] = 2
    return Dataset(y, z, gen.normal(size=(n, 6)), gen.uniform(0.5, 1.5, n), {"all": (0, 6)})


def init_draw(dim: int, hidden: int, seed: int) -> ModelParams:
    """Weights of ``model._init_params``'s shapes and scales, drawn from
    ``spawn(seed, 0)``, and zero biases: fixed inputs for the checks below."""
    gen = spawn(seed, 0)
    w1 = gen.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden))
    w2 = gen.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, 1))
    return ModelParams([w1, w2], [np.zeros(hidden), np.zeros(1)])


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

    @pytest.mark.parametrize("mode", ["marginal", "conditional"])
    @pytest.mark.parametrize("on_rep", [False, True])
    @pytest.mark.parametrize("kind", ["uneven", "one_row_side", "z_two"])
    def test_batch_shape_matches_double_loop(self, mode, on_rep, kind):
        """128 rows, a 16-unit representation and the median-heuristic
        bandwidth that training uses, for several weight draws.  Each
        gradient array is compared to rtol 1e-12 plus an atol of 1e-12 of its
        largest entry: entries near zero differ by rounding (about 2e-17)
        that is large relative to them on some draws."""
        ds = benchmark_batch(kind)
        for seed in (24, 25, 37):  # 25 and 37 hold near-zero entries that fail an rtol-only test
            params = init_draw(6, 16, seed=seed)
            target = representation(params, ds.x) if on_rep else predict_scores(params, ds.x)[:, None]
            h, strength = median_bandwidth(target), 1.0
            spec = TrainSpec(hidden_dim=16, mmd=MmdPenalty(mode, strength, h, on_representation=on_rep))
            report = loss(params, ds, spec)

            value, grad, skipped = brute_penalty(target, ds.y, ds.z, mode, h)
            plain = loss(params, ds, TrainSpec(hidden_dim=16))
            gw, gb = backprop(params, ds.x, strength * grad, on_rep)

            assert report.skipped_strata == skipped == (kind == "one_row_side" and mode == "conditional")
            assert report.mmd == pytest.approx(value, rel=1e-12)
            got = report.grad_weights + report.grad_biases
            for g, b, extra in zip(got, plain.grad_weights + plain.grad_biases, gw + gb):
                reference = b + extra
                atol = 1e-12 * np.abs(reference).max()
                np.testing.assert_allclose(g, reference, rtol=1e-12, atol=atol, err_msg=f"init seed {seed}")


class TestKnobs:
    @pytest.mark.parametrize("field", ["learning_rate", "l2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_train_spec_rejects_non_finite(self, field, bad):
        with pytest.raises(ArgumentError, match=field):
            TrainSpec(**{field: bad})

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "hidden_dim", "seed"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "3", None])
    def test_train_spec_counts_must_be_integers(self, field, bad):
        with pytest.raises(ArgumentError, match="integers"):
            TrainSpec(**{field: bad})

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "hidden_dim", "seed"])
    def test_train_spec_counts_out_of_range(self, field):
        with pytest.raises(ArgumentError, match="required"):
            TrainSpec(**{field: -1})

    def test_numpy_integer_seed_trains_like_the_plain_int(self):
        data = two_cluster_dataset(8, n=100)
        params = [train(data, TrainSpec(epochs=2, hidden_dim=3, seed=s)).params for s in (np.int64(5), 5)]
        for a, b in zip(params[0].weights + params[0].biases, params[1].weights + params[1].biases):
            assert np.array_equal(a, b)

    def test_train_spec_accepts_numpy_integers(self):
        spec = TrainSpec(epochs=np.int64(2), batch_size=np.int32(64), hidden_dim=np.uint8(3))
        assert len(train(two_cluster_dataset(8, n=100), spec).log) == 2

    @pytest.mark.parametrize("field", ["strength", "bandwidth"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_penalty_rejects_non_finite(self, field, bad):
        knobs = {"strength": 1.0, "bandwidth": 0.3} | {field: bad}
        with pytest.raises(ArgumentError, match=field):
            MmdPenalty("marginal", **knobs)

    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "l2"])
    @pytest.mark.parametrize("bad", [True, False, "0.1", None])
    def test_train_spec_real_knobs_reject_bools_and_non_numbers(self, field, bad):
        with pytest.raises(ArgumentError, match=field):
            TrainSpec(**{field: bad})

    @pytest.mark.parametrize("field", ["strength", "bandwidth"])
    @pytest.mark.parametrize("bad", [True, False, "0.3"])
    def test_penalty_rejects_bools_and_non_numbers(self, field, bad):
        knobs = {"strength": 1.0, "bandwidth": 0.3} | {field: bad}
        with pytest.raises(ArgumentError, match=field):
            MmdPenalty("marginal", **knobs)

    @pytest.mark.parametrize("bad", [True, False, "0.3", None])
    def test_mmd2_bandwidth_rejects_bools_and_non_numbers(self, bad):
        a = np.array([0.1, 0.4, 0.9])
        with pytest.raises(ArgumentError, match="bandwidth must be finite and positive"):
            mmd2(a, a, bad)

    def test_bandwidth_knobs_accept_numpy_and_integer_reals(self):
        a, b = np.array([0.1, 0.4, 0.9]), np.array([0.3, 0.5])
        assert mmd2(a, b, np.float32(0.5)) == mmd2(a, b, 0.5)
        assert mmd2(a, b, 1) == mmd2(a, b, 1.0)

    def test_real_knobs_accept_numpy_and_integer_reals(self):
        penalty = MmdPenalty("marginal", 1, 2)
        spec = TrainSpec(learning_rate=np.float32(0.5), momentum=0, l2=np.float64(0.0), mmd=penalty)
        assert (spec.learning_rate, spec.momentum, spec.mmd.bandwidth) == (0.5, 0, 2)


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

    @pytest.mark.parametrize("hidden", [0, 4])
    def test_divergence_raises_numerics_error_without_warnings(self, hidden):
        data = generate(GenSpec("A", 300, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError):
                train(data, TrainSpec(learning_rate=1e200, l2=0.0, hidden_dim=hidden))
            params = random_params(0, d=3, hidden=hidden)
            params.weights[0] *= 1e300  # the L2 sum overflows
            with pytest.raises(NumericsError):
                loss(params, two_cluster_dataset(1, n=20), TrainSpec())

    def test_overflowing_last_update_is_not_returned(self):
        # one step per epoch: its loss is finite, and the update it makes overflows
        data = two_cluster_dataset(3, n=50)
        with pytest.raises(NumericsError, match="epoch 0"):
            train(data, TrainSpec(epochs=1, batch_size=64, learning_rate=1.7e308, momentum=0.0, l2=0.0))

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
        assert json.loads(json.dumps(result.log)) == list(result.log)

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
    @pytest.mark.parametrize("mmd", [None, MmdPenalty("conditional", 1.0)], ids=["none", "conditional"])
    def test_step_called_through_module_global(self, monkeypatch, mmd):
        ds = two_cluster_dataset(11, n=300)
        spec = TrainSpec(epochs=3, batch_size=64, mmd=mmd)
        seen = []
        real = model._step

        def counting(*args, **kwargs):
            seen.append((len(args[1]), args[4]))
            return real(*args, **kwargs)

        def no_take(*args, **kwargs):
            raise AssertionError("train gathers rows once per epoch, without Dataset.take")

        monkeypatch.setattr(model, "_step", counting)
        monkeypatch.setattr(Dataset, "take", no_take)
        train(ds, spec)
        assert len(seen) == spec.epochs * math.ceil(len(ds) / spec.batch_size)
        assert [rows for rows, _ in seen] == [64, 64, 64, 64, 44] * spec.epochs
        assert all(s is spec for _, s in seen)

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=60),
        st.integers(1, 80),
        st.sampled_from(["marginal", "conditional"]),
    )
    @example(rows=[(0, 0), (1, 2), (1, 1), (0, 1), (1, 0)], size=1, mode="conditional")
    @example(rows=[(0, 0), (1, 2), (1, 1), (0, 1), (1, 0), (0, 2), (1, 1)], size=3, mode="conditional")
    @example(rows=[(0, 1), (1, 2), (1, 0), (0, 0)], size=9, mode="marginal")
    def test_epoch_strata_match_per_batch_sort(self, rows, size, mode):
        """One sort per epoch gives every batch the row order and group
        bounds of its own stable sort by group code."""
        y, z = (np.array(col) for col in zip(*rows))
        strata = model._strata(y, z, mode, size)
        groups = 2 if mode == "marginal" else 4
        assert len(strata) == math.ceil(len(rows) / size)
        for (order, bounds), start in zip(strata, range(0, len(rows), size)):
            yb, zb = y[start : start + size], z[start : start + size]
            code = np.where((zb == 0) | (zb == 1), zb if mode == "marginal" else 2 * yb + zb, groups)
            assert np.array_equal(order, np.argsort(code, kind="stable"))
            assert bounds == [0] + np.cumsum(np.bincount(code, minlength=groups + 1)).tolist()

    def test_trusted_take_is_bit_identical(self):
        """Rows gathered by the trusted ``Dataset.take`` train and probe
        exactly like the same rows built through the validating constructor."""
        ds = generate(GenSpec(graph="C", n=700, seed=12))
        rows = spawn(5, 59).permutation(len(ds))[:500]
        spec = TrainSpec(epochs=3, hidden_dim=4, seed=3)
        runs = []
        for subset in (ds.take(rows), validating_take(ds, rows)):
            result = train(subset, spec)
            runs.append((result, probe_encoding(result.params, subset, "v", seed=4)))
        (fast, fast_acc), (slow, slow_acc) = runs
        for a, b in zip(fast.params.weights + fast.params.biases, slow.params.weights + slow.params.biases):
            assert np.array_equal(a, b)
        assert fast.log == slow.log
        assert fast_acc == slow_acc


def masked_sigmoid(logit: np.ndarray) -> np.ndarray:
    """The logistic function by a boolean mask: 1 / (1 + exp(-l)) where l >= 0,
    exp(l) / (1 + exp(l)) elsewhere."""
    out = np.empty_like(logit, dtype=float)
    pos = logit >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logit[pos]))
    expv = np.exp(logit[~pos])
    out[~pos] = expv / (1.0 + expv)
    return out


def per_layer_train(data: Dataset, spec: TrainSpec) -> tuple[ModelParams, list[dict]]:
    """Unregularized training as a loop of per-batch gathers and a Nesterov
    update per layer array."""
    params = model._init_params(data.x.shape[1], spec)
    velocity_w = [np.zeros_like(w) for w in params.weights]
    velocity_b = [np.zeros_like(b) for b in params.biases]
    mu, lr = spec.momentum, spec.learning_rate
    log = []
    for epoch in range(spec.epochs):
        perm = spawn(spec.seed, model._STREAM_SHUFFLE, epoch).permutation(len(data))
        totals = {"loss": 0.0, "ce": 0.0, "l2": 0.0, "mmd": 0.0}
        skipped = batches = 0
        for start in range(0, len(data), spec.batch_size):
            report = loss(params, data.take(perm[start : start + spec.batch_size]), spec)
            for k in range(len(params.weights)):
                velocity_w[k] = mu * velocity_w[k] + report.grad_weights[k]
                velocity_b[k] = mu * velocity_b[k] + report.grad_biases[k]
                params.weights[k] -= lr * (report.grad_weights[k] + mu * velocity_w[k])
                params.biases[k] -= lr * (report.grad_biases[k] + mu * velocity_b[k])
            for key, value in zip(totals, (report.value, report.ce, report.l2, report.mmd)):
                totals[key] += value
            skipped += report.skipped_strata
            batches += 1
        log.append({k: v / batches for k, v in totals.items()} | {"epoch": epoch, "skipped_strata": skipped})
    return params, log


def scalar_log_step(params: ModelParams, x, y, w, spec: TrainSpec, bandwidth, strata):
    """The step that logged its own batch: weight sum and zero check, scalar
    cross entropy, L2 and total, a finite-total check, and the hidden
    gradient through the rank-1 gemm ``dout @ w2.T``."""
    wsum = float(w.sum())
    if wsum <= 0:
        raise ArgumentError("batch weight is zero")
    scores, logit, hidden = model._forward(params, x)
    ce = float((w * (np.logaddexp(0.0, logit) - y * logit)).sum() / wsum)
    dlogit = w * (scores - y) / wsum
    l2_value = spec.l2 * sum(float((wm**2).sum()) for wm in params.weights)
    mmd_value, skipped, drep = 0.0, 0, None
    if spec.mmd is not None:
        on_rep = spec.mmd.on_representation
        mmd_value, grad, skipped = model._mmd_penalty(hidden if on_rep else scores[:, None], strata, bandwidth)
        grad = grad * spec.mmd.strength
        if on_rep:
            drep = grad
        else:
            dlogit += grad[:, 0] * scores * (1 - scores)
    total = ce + l2_value + (spec.mmd.strength * mmd_value if spec.mmd else 0.0)
    if not math.isfinite(total):
        raise NumericsError(f"non-finite loss: ce={ce}, l2={l2_value}, mmd={mmd_value}")
    dout = dlogit[:, None]
    if params.has_hidden:
        gw2 = hidden.T @ dout + 2.0 * spec.l2 * params.weights[1]
        dhidden = dout @ params.weights[1].T
        if drep is not None:
            dhidden += drep
        dhidden *= hidden > 0
        grads = (x.T @ dhidden + 2.0 * spec.l2 * params.weights[0], gw2, dhidden.sum(axis=0), dout.sum(axis=0))
    else:
        grads = (x.T @ dout + 2.0 * spec.l2 * params.weights[0], dout.sum(axis=0))
    return (float(total), ce, float(l2_value), float(mmd_value)), grads, skipped


def scalar_log_train(data: Dataset, spec: TrainSpec) -> tuple[ModelParams, list[dict], float | None]:
    """Training through ``scalar_log_step``: the log summed one step at a
    time, and a Nesterov update of fresh arrays on the flat parameters."""
    params = model._init_params(data.x.shape[1], spec)
    bandwidth = None if spec.mmd is None else spec.mmd.bandwidth
    if spec.mmd is not None and bandwidth is None:
        head = data.x[: min(spec.batch_size, len(data))]
        probe = representation(params, head) if spec.mmd.on_representation else predict_scores(params, head)
        bandwidth = median_bandwidth(probe)
    arrays = params.weights + params.biases
    flat = np.concatenate([a.ravel() for a in arrays])
    views = [v.reshape(a.shape) for v, a in zip(np.split(flat, np.cumsum([a.size for a in arrays])[:-1]), arrays)]
    layers = len(params.weights)
    params = ModelParams(views[:layers], views[layers:])
    velocity, mu, lr, size = np.zeros_like(flat), spec.momentum, spec.learning_rate, spec.batch_size
    starts, log = range(0, len(data), size), []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(spec.epochs):
            perm = spawn(spec.seed, model._STREAM_SHUFFLE, epoch).permutation(len(data))
            x, y, w = data.x[perm], data.y[perm], data.weights[perm]
            strata = [None] * len(starts) if spec.mmd is None else model._strata(y, data.z[perm], spec.mmd.mode, size)
            totals, skipped = {"loss": 0.0, "ce": 0.0, "l2": 0.0, "mmd": 0.0}, 0
            for start, batch_strata in zip(starts, strata):
                rows = slice(start, start + size)
                parts, grads, lost = scalar_log_step(
                    params, x[rows], y[rows].astype(float), w[rows], spec, bandwidth, batch_strata
                )
                grad = np.concatenate([g.ravel() for g in grads])
                velocity = mu * velocity + grad
                flat -= lr * (grad + mu * velocity)
                for key, value in zip(totals, parts):
                    totals[key] += value
                skipped += lost
            log.append({k: v / len(starts) for k, v in totals.items()} | {"epoch": epoch, "skipped_strata": skipped})
            if not (np.isfinite(log[-1]["loss"]) and np.isfinite(flat).all()):
                raise NumericsError(f"training diverged at epoch {epoch}")
    return params, log, bandwidth


PENALTIES = {
    "none": None,
    "marginal": MmdPenalty("marginal", 1.0),
    "conditional": MmdPenalty("conditional", 0.7),
    "conditional_rep": MmdPenalty("conditional", 1.3, on_representation=True),
    "fixed_bandwidth": MmdPenalty("marginal", 2.0, 0.4),
}
# every penalty with a linear and a hidden-layer model, where it applies
PENALTY_CASES = [(name, hidden) for name in PENALTIES for hidden in (0, 8) if hidden or name != "conditional_rep"]


class TestLeanStep:
    @pytest.mark.parametrize("hidden", [0, 8])
    def test_flat_step_matches_per_layer_loop(self, monkeypatch, hidden):
        data = generate(GenSpec(graph="D", n=700, seed=25))
        data = data.take(np.arange(len(data)), spawn(26, 58).uniform(0.5, 1.5, len(data)))
        spec = TrainSpec(epochs=4, hidden_dim=hidden, seed=27)
        fast = train(data, spec)
        monkeypatch.setattr(model, "_sigmoid", masked_sigmoid)
        params, log = per_layer_train(data, spec)
        for a, b in zip(fast.params.weights + fast.params.biases, params.weights + params.biases):
            assert a.shape == b.shape
            assert np.array_equal(a, b)
        assert list(fast.log) == log

    @pytest.mark.parametrize("penalty, hidden", PENALTY_CASES)
    def test_epoch_log_matches_per_step_log(self, penalty, hidden):
        """Params, log and bandwidth are those of the step that logged its own
        batch, bit for bit: weighted rows, a partial last batch, every penalty."""
        data = generate(GenSpec(graph="C", n=650, seed=28))
        data = data.take(np.arange(len(data)), spawn(29, 58).uniform(0.2, 3.0, len(data)))
        spec = TrainSpec(epochs=3, batch_size=64, hidden_dim=hidden, mmd=PENALTIES[penalty], seed=30)
        fast = train(data, spec)
        params, log, bandwidth = scalar_log_train(data, spec)
        for a, b in zip(fast.params.weights + fast.params.biases, params.weights + params.biases):
            assert a.tobytes() == b.tobytes()
        assert list(fast.log) == log and fast.bandwidth == bandwidth

    @pytest.mark.parametrize("penalty, hidden", PENALTY_CASES)
    def test_loss_report_matches_per_step_parts(self, penalty, hidden):
        data = generate(GenSpec(graph="B", n=300, seed=31))
        data = data.take(np.arange(len(data)), spawn(32, 58).uniform(0.2, 3.0, len(data)))
        params = random_params(33, d=data.x.shape[1], hidden=hidden)
        spec = TrainSpec(hidden_dim=hidden, mmd=PENALTIES[penalty], l2=0.01)
        bandwidth, strata = None, None
        if spec.mmd is not None:
            bandwidth = spec.mmd.bandwidth or 0.25
            strata = model._strata(data.y, data.z, spec.mmd.mode, len(data))[0]
        report = loss(params, data, spec, bandwidth)
        parts, grads, skipped = scalar_log_step(
            params, data.x, data.y.astype(float), data.weights, spec, bandwidth, strata
        )
        assert (report.value, report.ce, report.l2, report.mmd) == parts and report.skipped_strata == skipped
        for a, b in zip(report.grad_weights + report.grad_biases, grads):
            assert np.array_equal(a, b)

    def test_divergence_mid_epoch_names_the_epoch_without_warnings(self, monkeypatch):
        data = generate(GenSpec(graph="A", n=700, seed=1))
        spec = TrainSpec(epochs=4, batch_size=64, learning_rate=1e10, l2=0.0, hidden_dim=4)
        finite, real = [], model._step

        def watching(*args):
            out = real(*args)
            finite.append(bool(np.isfinite(out[0]).all()))
            return out

        monkeypatch.setattr(model, "_step", watching)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="at epoch 1$"):
                train(data, spec)
        steps = math.ceil(len(data) / spec.batch_size)
        first = finite.index(False)
        assert steps < first < 2 * steps - 1  # the logits turned non-finite inside epoch 1
        assert len(finite) == 2 * steps  # and the epoch ran to its end before raising
        with pytest.raises(NumericsError, match="non-finite loss"):
            scalar_log_train(data, spec)

    def test_zero_weight_batch_is_argument_error(self):
        data = generate(GenSpec(graph="A", n=40, seed=2))
        weights = np.ones(len(data))
        perm = spawn(0, model._STREAM_SHUFFLE, 0).permutation(len(data))
        weights[perm[16:32]] = 0.0  # the second batch of epoch 0
        with pytest.raises(ArgumentError, match="batch weight is zero"):
            train(data.take(np.arange(len(data)), weights), TrainSpec(epochs=1, batch_size=16))
        with pytest.raises(ArgumentError, match="batch weight is zero"):
            loss(random_params(0, d=data.x.shape[1]), data.take(perm[16:32], np.zeros(16)), TrainSpec())

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=12,
        )
    )
    def test_sigmoid_matches_masked_form(self, values):
        logit = np.array(values, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._sigmoid(logit)
            want = masked_sigmoid(logit)
        assert np.array_equal(got, want, equal_nan=True)
        number = ~np.isnan(want)  # a NaN's sign bit carries no value
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


class TestProbe:
    def test_constant_representation_scores_majority_rate(self):
        spec = GenSpec(graph="A", n=3000, seed=7)
        ds = generate(spec)
        zero = ModelParams(
            [np.zeros((ds.x.shape[1], 4)), np.zeros((4, 1))],
            [np.zeros(4), np.zeros(1)],
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

    def test_gradient_vanishes_at_returned_weights(self):
        a, labels = probe_problem(13)
        w = model._fit_probe(a, labels)
        assert np.linalg.norm(probe_gradient(a, labels, w)) <= 1e-8

    def test_unconverged_fit_raises(self, monkeypatch):
        a, labels = probe_problem(13)
        monkeypatch.setattr(model, "_PROBE_MAX_STEPS", 1)
        with pytest.raises(NumericsError, match="gradient norm"):
            model._fit_probe(a, labels)

    def test_weights_match_scipy_reference(self):
        a, labels = probe_problem(14)
        pen = np.append(np.full(a.shape[1] - 1, 1e-4), 0.0)

        def objective(w):
            logit = a @ w
            return np.mean(np.logaddexp(0.0, logit) - labels * logit) + pen @ (w * w)

        def hessian(w):
            p = 1.0 / (1.0 + np.exp(-(a @ w)))
            return (a.T * (p * (1 - p))) @ a / len(a) + np.diag(2.0 * pen)

        ref = minimize(
            objective,
            np.zeros(a.shape[1]),
            jac=lambda w: probe_gradient(a, labels, w),
            hess=hessian,
            method="trust-exact",
            options={"gtol": 1e-12},
        )
        assert ref.success
        assert np.max(np.abs(model._fit_probe(a, labels) - ref.x)) <= 1e-6

    def test_separable_representation_is_read_exactly(self):
        gen = spawn(15, 53)
        x = gen.normal(size=(500, 3))
        z = (x[:, 0] > 0).astype(np.int64)
        x[:, 0] += np.where(z == 1, 0.5, -0.5)
        ds = Dataset(np.zeros(500, dtype=np.int64), z, x, np.ones(500), {"all": (0, 3)})
        linear = ModelParams([np.zeros((3, 1))], [np.zeros(1)])
        assert probe_encoding(linear, ds, "z", seed=5) == 1.0

    def test_same_seed_is_bit_identical(self):
        ds = generate(GenSpec(graph="C", n=1500, seed=16))
        params = random_params(17, d=ds.x.shape[1], hidden=8)
        assert probe_encoding(params, ds, "z", seed=6) == probe_encoding(params, ds, "z", seed=6)
        a, labels = probe_problem(18)
        assert np.array_equal(model._fit_probe(a, labels), model._fit_probe(a, labels))

    def test_evaluate_runs_no_training(self, monkeypatch):
        ds = generate(GenSpec(graph="A", n=800, seed=19))
        params = random_params(20, d=ds.x.shape[1], hidden=6)
        calls = []
        for name in ("loss", "train"):
            monkeypatch.setattr(model, name, lambda *args, name=name, **kwargs: calls.append(name))
        report = metrics.evaluate(params, ds, probe_seed=7)
        assert report.encoding is not None
        assert calls == []

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_data_is_degenerate(self, n):
        ds = Dataset(np.zeros(n, dtype=np.int64), np.arange(n) % 2, np.ones((n, 3)), np.ones(n), {"all": (0, 3)})
        params = ModelParams([np.zeros((3, 1))], [np.zeros(1)])
        with pytest.raises(DegenerateTarget):
            probe_encoding(params, ds, "z", seed=0)

    def test_lone_minority_row_in_test_split_is_degenerate(self):
        n, seed = 50, 8
        z = np.zeros(n, dtype=np.int64)
        z[spawn(seed, model._STREAM_PROBE).permutation(n)[-1]] = 1
        ds = Dataset(np.zeros(n, dtype=np.int64), z, spawn(21, 54).normal(size=(n, 3)), np.ones(n), {"all": (0, 3)})
        params = ModelParams([np.zeros((3, 1))], [np.zeros(1)])
        with pytest.raises(DegenerateTarget, match="training split"):
            probe_encoding(params, ds, "z", seed=seed)

    def test_non_binary_target_names_it(self):
        ds = toy_dataset(22, n=30)
        ds = Dataset(ds.y, np.arange(30) % 3, ds.x, ds.weights, ds.channel_slices)
        params = ModelParams([np.zeros((4, 1))], [np.zeros(1)])
        with pytest.raises(ArgumentError, match="target 'z'"):
            probe_encoding(params, ds, "z", seed=0)


class TestSerialization:
    @pytest.mark.parametrize(
        "weight, bias",
        [
            (np.zeros(3), np.zeros(1)),
            (np.zeros((3, 1)), np.zeros((1, 1))),
            (np.full((3, 1), np.nan), np.zeros(1)),
            (np.zeros((3, 1)), np.array([np.inf])),
        ],
    )
    def test_bad_layer_is_argument_error(self, tmp_path, weight, bias):
        with pytest.raises(ArgumentError):
            ModelParams([weight], [bias])
        path = tmp_path / "params"
        with open(path, "wb") as fh:
            meta = {"kind": "ModelParams", "activation": "relu", "layers": 1}
            np.savez(fh, meta=np.array(json.dumps(meta)), weight0=weight, bias0=bias)
        with pytest.raises(ArgumentError):
            artifacts.load(str(path))

    def test_nested_list_layer_is_argument_error(self, tmp_path):
        for layer in (([[0.5], [0.5]], [0.0]), (np.array([[0.5], [0.5]]), [0.0]), ([[0.5], [0.5]], np.zeros(1))):
            with pytest.raises(ArgumentError, match="2-D array"):
                ModelParams([layer[0]], [layer[1]])
        # an artifact stores the same numbers as arrays, which load as a valid layer
        path = tmp_path / "params"
        with open(path, "wb") as fh:
            meta = {"kind": "ModelParams", "activation": "relu", "layers": 1}
            np.savez(fh, meta=np.array(json.dumps(meta)), weight0=[[0.5], [0.5]], bias0=[0.0])
        loaded = artifacts.load(str(path))
        assert loaded.weights[0].tolist() == [[0.5], [0.5]] and loaded.biases[0].tolist() == [0.0]

    def test_header_of_another_activation_is_argument_error(self, tmp_path):
        path = tmp_path / "params"
        with open(path, "wb") as fh:
            meta = {"kind": "ModelParams", "activation": "identity", "layers": 2}
            arrays = dict(weight0=np.ones((1, 2)), weight1=np.ones((2, 1)), bias0=np.zeros(2), bias1=np.zeros(1))
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(ArgumentError, match="always ReLU"):
            artifacts.load(str(path))

    def test_saved_header_names_no_activation(self, tmp_path):
        path = str(tmp_path / "params")
        artifacts.save(random_params(3, d=5, hidden=4), path)
        with np.load(path) as archive:
            assert json.loads(str(archive["meta"])) == {"kind": "ModelParams", "layers": 2}

    def test_round_trip_bitwise(self, tmp_path):
        params = random_params(3, d=5, hidden=4)
        path = str(tmp_path / "params")
        artifacts.save(params, path)
        again = artifacts.load(path)
        for a, b in zip(again.weights + again.biases, params.weights + params.biases):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# finite floats v * 10^k with v in [-10, 10] and k in [-300, 300]
SCALED = st.builds(lambda v, k: v * 10.0**k, st.floats(-10.0, 10.0), st.integers(-300, 300))
BANDWIDTHS = st.builds(lambda v, k: v * 10.0**k, st.floats(0.1, 10.0), st.integers(-300, 300))


@st.composite
def scaled_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    """Two samples of one width, of 2 to 5 rows each."""
    d = draw(st.integers(1, 3))
    return tuple(draw(arrays(float, (draw(st.integers(2, 5)), d), elements=SCALED)) for _ in range(2))


@st.composite
def scaled_models(draw) -> tuple[ModelParams, np.ndarray]:
    """A linear or one-hidden-layer model and 1 to 4 input rows for it."""
    d, hidden = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    dims = [d, hidden, 1] if hidden else [d, 1]
    weights = [draw(arrays(float, (a, b), elements=SCALED)) for a, b in zip(dims, dims[1:])]
    biases = [draw(arrays(float, (b,), elements=SCALED)) for b in dims[1:]]
    return ModelParams(weights, biases), draw(arrays(float, (draw(st.integers(1, 4)), d), elements=SCALED))


# row 0's hidden units overflow to inf, and its logit is inf - inf; row 1's logit is 1e200 - 1e200
OVERFLOWING = (
    ModelParams([np.array([[1e200, 1e200]]), np.array([[1.0], [-1.0]])], [np.zeros(2), np.zeros(1)]),
    np.array([[1e200], [1.0]]),
)


def finite_or_rejected(call):
    """``call()``'s value, which must be finite, or None if it raised a
    BalanceLabError; a RuntimeWarning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = call()
        except BalanceLabError:
            return None
    assert np.all(np.isfinite(value))
    return value


class TestFloatEdges:
    """Finite inputs across the float range give finite values or a BalanceLabError, never a warning."""

    def test_nan_score_from_finite_parameters_is_numerics_error(self):
        params, x = OVERFLOWING
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="NaN"):
                predict_scores(params, x)
            with pytest.raises(NumericsError, match="hidden activation"):
                representation(params, x)
            assert predict_scores(params, x[1:]).tolist() == [0.5]

    def test_overflowing_logits_saturate(self):
        params = ModelParams([np.array([[1e200]])], [np.zeros(1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict_scores(params, np.array([[1e200], [-1e200]])).tolist() == [1.0, 0.0]

    def test_non_finite_rows_rejected(self):
        params = random_params(0, d=2, hidden=3)
        for bad in (np.nan, np.inf):
            for call in (predict_scores, representation):
                with pytest.raises(ArgumentError, match="x must be finite"):
                    call(params, np.array([[0.0, bad]]))

    @given(scaled_pairs(), BANDWIDTHS)
    @example(pair=(np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [2.0, 3.0]])), h=1.0)
    @example(pair=(np.array([[1e308], [-1e308]]), np.array([[0.0], [1.0]])), h=1.0)
    @example(pair=(np.array([[0.0], [1e6], [3.0]]), np.array([[0.5], [2e6], [1e150]])), h=1e-20)
    def test_mmd2(self, pair, h):
        finite_or_rejected(lambda: mmd2(*pair, h))

    @given(arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 3)), elements=SCALED))
    @example(np.array([[1e200], [0.0], [1.0]]))
    def test_median_bandwidth(self, scores):
        h = finite_or_rejected(lambda: median_bandwidth(scores))
        if h is not None:  # a bandwidth the kernel accepts
            assert model._checked_bandwidth(h) == h

    @given(scaled_models())
    @example(model_x=OVERFLOWING)
    def test_scores_and_representation(self, model_x):
        params, x = model_x
        scores = finite_or_rejected(lambda: predict_scores(params, x))
        assert scores is None or np.all((0.0 <= scores) & (scores <= 1.0))
        finite_or_rejected(lambda: representation(params, x))


def test_one_seed_run_draws_each_stream_for_one_purpose(monkeypatch):
    """generate -> balance_batch -> train -> evaluate with the probe, all on
    one seed as a user with a single seed runs them: each spawn path is used
    by one function only, so no two steps share a random stream."""
    import sys

    from balancelab import balancing, bayesnet, checks, datagen, tables, templates
    from balancelab.balancing import BalanceSpec, JointTarget, Mechanism
    from balancelab.tables import SampleBatch, Variable

    users: dict[tuple[int, ...], set[str]] = {}

    def recording_spawn(seed, *path):
        users.setdefault((seed, *path), set()).add(sys._getframe(1).f_code.co_name)
        return spawn(seed, *path)

    for module in (balancing, bayesnet, checks, datagen, model, tables, templates):
        monkeypatch.setattr(module, "spawn", recording_spawn)
    seed = 7
    data = generate(GenSpec("A", 400, seed))
    variables = (Variable("Y", 2), Variable("Z", 2), Variable("row", len(data)))
    batch = SampleBatch(variables, np.column_stack([data.y, data.z, np.arange(len(data))]), data.weights)
    out = balancing.balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.SUBSAMPLE_MAJORITY, seed))
    fit = train(data.take(out.rows[:, 2], weights=out.weights), TrainSpec(epochs=2, hidden_dim=4, seed=seed))
    metrics.evaluate(fit.params, data, probe_seed=seed)
    callers = set().union(*users.values())
    assert {"generate", "balance_batch", "_init_params", "train", "probe_encoding"} <= callers
    assert {path: names for path, names in users.items() if len(names) > 1} == {}

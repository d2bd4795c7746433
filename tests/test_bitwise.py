"""The hot paths against their plain forms, bit for bit.

``plain_penalty``, ``plain_loss``, ``plain_train`` and ``plain_evaluate``
are the straightforward versions that ``model._mmd_penalty``, ``model.loss``,
``model.train`` and ``metrics.evaluate`` replaced: broadcast differences,
fresh temporaries, per-layer gradients joined by ``concatenate`` and masked
stratum sums.  ``plain_search`` is the per-attempt loop that the stacked
counterexample search replaced, ``plain_member`` and ``plain_scored`` the
per-member reweight and marginal that the stacked ``ShiftFamily`` replaced,
and the draw-axis kernels of the exact layer are checked against their
per-table callers.  The fast paths must return the
same bits.  No digest is pinned for them, because gemm rounding depends on
the BLAS kernel; both sides run on the same one.  The source and ideal sets
of ``datagen`` use no gemm, so SHA-256 digests pin their bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from balancelab import model
from balancelab.balancing import BalanceSpec, JointTarget, _balance_pair, _reweight, balance_exact, reweight_marginal
from balancelab.bayesnet import Cbn, Dag, _gaps, _product, broadcast_axes, factorizes_according_to, joint, observed_dag
from balancelab.checks import (
    _COUNTEREXAMPLES,
    GENERIC_GAP,
    ShiftFamily,
    TablePredictor,
    _scored_members,
    bayes_predictor,
    correlation_grid,
    find_nonfactorizing_balance,
)
from balancelab.datagen import Dataset, GenSpec, _key_table, generate, ideal_testset
from balancelab.errors import ArgumentError, CounterexampleNotFound, UnbalanceableSupport
from balancelab.metrics import MetricsReport, evaluate
from balancelab.model import MmdPenalty, ModelParams, TrainSpec, train
from balancelab.rng import spawn
from balancelab.tables import JointTable, Variable, _marginal, _state_gaps, is_independent, marginal_probs, marginalize
from balancelab.templates import _random_rows, random_instance


def plain_forward(params: ModelParams, x: np.ndarray):
    if params.has_hidden:
        pre = x @ params.weights[0] + params.biases[0]
        hidden = np.maximum(pre, 0.0) if params.activation == "relu" else pre
        logit = (hidden @ params.weights[1] + params.biases[1])[:, 0]
        return model._sigmoid(logit), logit, hidden, pre
    logit = (x @ params.weights[0] + params.biases[0])[:, 0]
    return model._sigmoid(logit), logit, None, None


def own_side(a: np.ndarray, m: int) -> np.ndarray:
    return np.concatenate((a[:m, 0], a[m:, 1]))


def plain_penalty(target: np.ndarray, y: np.ndarray, z: np.ndarray, mode: str, bandwidth: float):
    groups = 2 if mode == "marginal" else 4
    code = z if mode == "marginal" else 2 * y + z
    code = np.where((z == 0) | (z == 1), code, groups)
    order = np.argsort(code, kind="stable")
    bounds = [0] + np.cumsum(np.bincount(code, minlength=groups + 1)).tolist()
    h2 = bandwidth * bandwidth
    value, grad, skipped = 0.0, np.zeros_like(target), 0
    for lo, mid, hi in zip(bounds[0:groups:2], bounds[1:groups:2], bounds[2 : groups + 1 : 2]):
        m, n = mid - lo, hi - mid
        if m < 2 or n < 2:
            skipped += 1
            continue
        rows, cross = order[lo:hi], -1.0 / (m * n)
        coef = np.repeat([[1.0 / (m * (m - 1)), cross], [cross, 1.0 / (n * (n - 1))]], (m, n), axis=0)
        t = target[rows]
        if t.shape[1] == 1:
            diff = t - t.T
            kern = np.exp(diff * diff * (-0.5 / h2))
            rowsum = own_side(kern @ coef, m)
            grad[rows, 0] = own_side((kern * diff) @ coef, m)
        else:
            inner = t @ np.ascontiguousarray(t.T)
            sq = inner.diagonal()
            kern = np.exp(np.maximum(sq[:, None] + sq - 2.0 * inner, 0.0) * (-0.5 / h2))
            rowsum = own_side(kern @ coef, m)
            grad[rows] = t * rowsum[:, None] - np.concatenate(
                (kern[:m] @ (coef[:, :1] * t), kern[m:] @ (coef[:, 1:] * t))
            )
        value += rowsum.sum() - 1.0 / (m - 1) - 1.0 / (n - 1)
    return float(value), grad * (-2.0 / h2), skipped


def plain_loss(params: ModelParams, data: Dataset, spec: TrainSpec, bandwidth: float | None = None):
    """(value, ce, l2, mmd, per-layer gradients, skipped strata)."""
    x, y, w = data.x, data.y.astype(float), data.weights
    wsum = float(w.sum())
    scores, logit, hidden, pre = plain_forward(params, x)
    ce = float((w * (np.logaddexp(0.0, logit) - y * logit)).sum() / wsum)
    dlogit = w * (scores - y) / wsum
    l2_value = spec.l2 * sum(float((wm**2).sum()) for wm in params.weights)
    mmd_value, skipped, drep = 0.0, 0, None
    if spec.mmd is not None:
        bandwidth = spec.mmd.bandwidth if bandwidth is None else bandwidth
        on_rep = spec.mmd.on_representation
        target = hidden if on_rep else scores[:, None]
        mmd_value, grad, skipped = plain_penalty(target, data.y, data.z, spec.mmd.mode, bandwidth)
        grad *= spec.mmd.strength
        if on_rep:
            drep = grad
        else:
            dlogit += grad[:, 0] * scores * (1 - scores)
    total = ce + l2_value + (spec.mmd.strength * mmd_value if spec.mmd else 0.0)
    dout = dlogit[:, None]
    if params.has_hidden:
        gw2 = hidden.T @ dout + 2.0 * spec.l2 * params.weights[1]
        gb2 = dout.sum(axis=0)
        dhidden = dout @ params.weights[1].T
        if drep is not None:
            dhidden = dhidden + drep
        mask = (pre > 0).astype(float) if params.activation == "relu" else np.ones_like(pre)
        dpre = dhidden * mask
        grads = [x.T @ dpre + 2.0 * spec.l2 * params.weights[0], gw2, dpre.sum(axis=0), gb2]
    else:
        grads = [x.T @ dout + 2.0 * spec.l2 * params.weights[0], dout.sum(axis=0)]
    return float(total), ce, float(l2_value), float(mmd_value), grads, skipped


def plain_train(data: Dataset, spec: TrainSpec) -> tuple[ModelParams, list[dict], float | None]:
    params = model._init_params(data.x.shape[1], spec)
    bandwidth = None
    if spec.mmd is not None:
        bandwidth = spec.mmd.bandwidth
        if bandwidth is None:
            first = min(spec.batch_size, len(data))
            if spec.mmd.on_representation:
                probe = model.representation(params, data.x[:first])
            else:
                probe = plain_forward(params, data.x[:first])[0]
            bandwidth = model.median_bandwidth(probe)
    arrays = params.weights + params.biases
    flat = np.concatenate([a.ravel() for a in arrays])
    views = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    views = [v.reshape(a.shape) for v, a in zip(views, arrays)]
    layers = len(params.weights)
    params = ModelParams(views[:layers], views[layers:], params.activation)
    velocity = np.zeros_like(flat)
    mu, lr = spec.momentum, spec.learning_rate
    log = []
    for epoch in range(spec.epochs):
        perm = spawn(spec.seed, model._STREAM_SHUFFLE, epoch).permutation(len(data))
        shuffled = data.take(perm)
        totals = {"loss": 0.0, "ce": 0.0, "l2": 0.0, "mmd": 0.0}
        skipped = batches = 0
        for start in range(0, len(data), spec.batch_size):
            value, ce, l2, mmd, grads, sk = plain_loss(
                params, shuffled.take(slice(start, start + spec.batch_size)), spec, bandwidth
            )
            grad = np.concatenate([g.ravel() for g in grads])
            velocity = mu * velocity + grad
            flat -= lr * (grad + mu * velocity)
            for key, v in zip(totals, (value, ce, l2, mmd)):
                totals[key] += v
            skipped += sk
            batches += 1
        log.append({k: v / batches for k, v in totals.items()} | {"epoch": epoch, "skipped_strata": skipped})
    return params, log, bandwidth


def plain_evaluate(
    params: ModelParams, data: Dataset, threshold: float = 0.5, min_stratum: int = 5, pp_bins: int = 10
) -> MetricsReport:
    """``evaluate`` without the probe, by one boolean mask per stratum."""

    def mean(values, weights):
        return float((values * weights).sum() / weights.sum())

    w = data.weights
    scores = plain_forward(params, data.x)[0]
    correct = ((scores >= threshold) == data.y.astype(bool)).astype(float)
    accuracy = mean(correct, w)

    def too_small(idx):
        return int(idx.sum()) < min_stratum or not w[idx].sum() > 0

    excluded, z_accuracy = [], {}
    for z_value in np.unique(data.z):
        idx = data.z == z_value
        if too_small(idx):
            excluded.append(f"z={int(z_value)}")
            continue
        z_accuracy[int(z_value)] = mean(correct[idx], w[idx])
    worst_group = min(z_accuracy.values()) if z_accuracy else accuracy
    eo = 0.0
    for y_value in np.unique(data.y):
        means = []
        for z_value in np.unique(data.z):
            idx = (data.y == y_value) & (data.z == z_value)
            if too_small(idx):
                excluded.append(f"y={int(y_value)},z={int(z_value)}")
                continue
            means.append(mean(scores[idx], w[idx]))
        if len(means) >= 2:
            eo += 0.5 * (max(means) - min(means))
    dp_means = [mean(scores[data.z == z_value], w[data.z == z_value]) for z_value in sorted(z_accuracy)]
    dp_gap = (max(dp_means) - min(dp_means)) if len(dp_means) >= 2 else 0.0
    if len(np.unique(data.y)) < 2:
        pp_gap = None
        excluded.append("pp_gap:single_class_label")
    else:
        edges = np.quantile(scores, np.linspace(0.0, 1.0, pp_bins + 1))
        bins = np.clip(np.searchsorted(edges[1:-1], scores, side="right"), 0, pp_bins - 1)
        pp_gap = 0.0
        for b in range(pp_bins):
            rates = []
            for z_value in np.unique(data.z):
                idx = (bins == b) & (data.z == z_value)
                if not too_small(idx):
                    rates.append(mean(data.y[idx].astype(float), w[idx]))
            if len(rates) >= 2:
                pp_gap = max(pp_gap, max(rates) - min(rates))
    counts = {
        (int(yv), int(zv)): int(((data.y == yv) & (data.z == zv)).sum())
        for yv in np.unique(data.y)
        for zv in np.unique(data.z)
    }
    return MetricsReport(
        accuracy, worst_group, eo, dp_gap, pp_gap, None, counts, z_accuracy, tuple(excluded), threshold
    )


def penalty_batch(kind: str, n: int, d: int, seed: int):
    """A target and its labels: uneven z sides; the y = 0 stratum cut to one
    z = 1 row, so the conditional penalty skips it; or a tenth of the rows
    with z = 2, in no stratum."""
    gen = spawn(seed, 70)
    y = gen.integers(0, 2, n)
    z = (gen.uniform(size=n) < 0.3).astype(np.int64)
    if kind == "one_row_side":
        z[y == 0] = 0
        z[np.flatnonzero(y == 0)[0]] = 1
    elif kind == "z_two":
        z[gen.choice(n, n // 10, replace=False)] = 2
    target = gen.uniform(size=(n, 1)) if d == 1 else np.maximum(gen.normal(size=(n, d)), 0.0)
    return target, y, z


class TestPenalty:
    @pytest.mark.parametrize("mode", ["marginal", "conditional"])
    @pytest.mark.parametrize("d", [1, 16])
    @pytest.mark.parametrize("kind", ["uneven", "one_row_side", "z_two"])
    @pytest.mark.parametrize("n", [9, 80, 128, 200])
    def test_matches_plain_form(self, mode, d, kind, n):
        target, y, z = penalty_batch(kind, n, d, seed=n + d)
        h = model.median_bandwidth(target)
        value, grad, skipped = model._mmd_penalty(target, model._strata(y, z, mode, n)[0], h)
        want_value, want_grad, want_skipped = plain_penalty(target, y, z, mode, h)
        assert value.hex() == want_value.hex()
        assert grad.tobytes() == want_grad.tobytes()
        assert skipped == want_skipped
        if kind == "one_row_side" and mode == "conditional":
            assert skipped >= 1


def weighted(data: Dataset, seed: int) -> Dataset:
    return data.take(np.arange(len(data)), spawn(seed, 71).uniform(0.5, 1.5, len(data)))


REGULARIZERS = {
    "none": None,
    "marginal": MmdPenalty("marginal", 1.0),
    "conditional": MmdPenalty("conditional", 1.0),
    "conditional_rep": MmdPenalty("conditional", 1.0, on_representation=True),
}


# a representation penalty needs a hidden layer
TRAIN_CASES = [(g, r, h) for g in "ABCD" for r in REGULARIZERS for h in (0, 16) if h or r != "conditional_rep"]


class TestTrain:
    @pytest.mark.parametrize("graph,reg,hidden", TRAIN_CASES)
    def test_params_and_log_match_plain_loop(self, graph, reg, hidden):
        data = generate(GenSpec(graph, 400, seed=72))
        if graph in "BD":
            data = weighted(data, 73)
        spec = TrainSpec(epochs=3, batch_size=128, hidden_dim=hidden, mmd=REGULARIZERS[reg], seed=74)
        fit = train(data, spec)
        params, log, bandwidth = plain_train(data, spec)
        for got, want in zip(fit.params.weights + fit.params.biases, params.weights + params.biases):
            assert got.tobytes() == want.tobytes()
        assert list(fit.log) == log
        assert fit.bandwidth == bandwidth


def trained_params(graph: str, hidden: int) -> ModelParams:
    data = generate(GenSpec(graph, 600, seed=75))
    return train(data, TrainSpec(epochs=2, hidden_dim=hidden, seed=76)).params


def assert_same_report(got: MetricsReport, want: MetricsReport) -> None:
    assert got == want
    assert repr(got) == repr(want)  # float reprs round-trip, and show -0.0


class TestEvaluate:
    @pytest.mark.parametrize("graph", ["A", "C"])
    @pytest.mark.parametrize("hidden", [0, 16])
    @pytest.mark.parametrize("threshold", [0.5, 0.3])
    def test_test_sets_match_masked_sums(self, graph, hidden, threshold):
        params = trained_params(graph, hidden)
        spec = GenSpec(graph, 2000, seed=77)
        for data in (ideal_testset(spec, 2000, 78), weighted(generate(spec), 79)):
            got = evaluate(params, data, threshold=threshold)
            assert_same_report(got, plain_evaluate(params, data, threshold=threshold))

    def test_excluded_and_zero_weight_strata(self):
        params = trained_params("B", 16)
        data = ideal_testset(GenSpec("B", 600, seed=80), 600, 81)
        y, z = data.y.copy(), data.z.copy()
        z[(y == 1) & (z == 1)] = 0
        z[np.flatnonzero(y == 1)[:3]] = 1  # three rows: excluded at min_stratum 5
        w = data.weights.copy()
        w[(y == 0) & (z == 1)] = 0.0  # a stratum of zero weight
        z[np.flatnonzero(y == 0)[-40:]] = 2  # a third group
        tweaked = Dataset(y, z, data.x, w, data.channel_slices)
        for min_stratum, pp_bins in ((5, 10), (1, 3), (50, 7)):
            got = evaluate(params, tweaked, min_stratum=min_stratum, pp_bins=pp_bins)
            assert_same_report(got, plain_evaluate(params, tweaked, min_stratum=min_stratum, pp_bins=pp_bins))
            assert got.excluded_strata

    def test_single_class_label(self):
        params = trained_params("D", 0)
        data = ideal_testset(GenSpec("D", 500, seed=82), 500, 83)
        one_class = Dataset(np.ones(len(data), dtype=np.int64), data.z, data.x, data.weights, data.channel_slices)
        got = evaluate(params, one_class)
        assert got.pp_gap is None
        assert_same_report(got, plain_evaluate(params, one_class))


def plain_search(example_id: str, seed: int, retries: int, min_gap: float):
    """The search as one network, joint, balance and report per attempt."""
    nodes, parents, latents, dropped = _COUNTEREXAMPLES[example_id]
    for attempt in range(retries):
        gen = spawn(seed, 61, attempt)
        cpts = {n: _random_rows(gen, (2,) * (len(parents.get(n, ())) + 1)) for n in nodes}
        net = Cbn(tuple(Variable(n, 2) for n in nodes), parents, cpts)
        skeleton = observed_dag(net, latents, dropped)
        observed = marginalize(joint(net), set(net.names) - set(latents)) if latents else joint(net)
        balanced = balance_exact(observed, BalanceSpec(JointTarget("Y", "Z")))
        report = factorizes_according_to(balanced, skeleton, tol=1e-9)
        strong = tuple(v for v in report.violations if v.gap > min_gap)
        if strong:
            return balanced, skeleton, strong, attempt
    raise CounterexampleNotFound(f"no violation above {min_gap} found for {example_id} in {retries} seeded draws")


def outcome(search, *args) -> tuple:
    """Every bit of a search result, or the text of its CounterexampleNotFound."""
    try:
        balanced, skeleton, violations, attempt = search(*args)
    except CounterexampleNotFound as exc:
        return ("not found", str(exc))
    gaps = tuple((v.a, v.b, v.given, v.kind, v.gap.hex()) for v in violations)
    return attempt, balanced.variables, balanced.probs.tobytes(), skeleton.nodes, skeleton.parents, gaps


def stacked_search(example_id: str, seed: int, retries: int, min_gap: float):
    found = find_nonfactorizing_balance(example_id, seed, retries, min_gap)
    assert found.example_id == example_id
    return found.balanced, found.skeleton, found.violations, found.seed_used


class TestSearch:
    # min_gap 0.01 and 0.03 make some attempt-0 draws fail after the screen passes them
    @pytest.mark.parametrize("example_id", list(_COUNTEREXAMPLES))
    @pytest.mark.parametrize("retries", [1, 2, 16])
    @pytest.mark.parametrize("min_gap", [GENERIC_GAP, 0.01, 0.03])
    def test_matches_per_attempt_loop(self, example_id, retries, min_gap):
        later = 0
        for seed in range(30):
            got = outcome(stacked_search, example_id, seed, retries, min_gap)
            assert got == outcome(plain_search, example_id, seed, retries, min_gap), seed
            later += isinstance(got[0], int) and got[0] > 0
        if retries == 16 and min_gap == 0.03 and example_id != "C4":
            assert later  # the second chunk found some


def random_stack(seed: int, draws: int = 4) -> tuple[tuple[Variable, ...], np.ndarray]:
    """Random tables stacked on a leading axis.  Draw 1 has zero cells and
    a state of its last variable without mass."""
    gen = spawn(seed, 96)
    k = int(gen.integers(2, 6))
    cards = tuple(int(c) for c in gen.integers(2, 4, size=k))
    probs = gen.random((draws,) + cards)
    probs[1][probs[1] < 0.3] = 0.0
    probs[1, ..., 0] = 0.0
    probs /= probs.sum(axis=tuple(range(1, k + 1)), keepdims=True)
    return tuple(Variable(f"V{i}", c) for i, c in enumerate(cards)), probs


def split(seed: int, names: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """A random (a, b, given) over a permutation of the names."""
    gen = spawn(seed, 95)
    order = [names[i] for i in gen.permutation(len(names))]
    na = int(gen.integers(1, len(names)))
    nb = int(gen.integers(1, len(names) - na + 1))
    ng = int(gen.integers(0, len(names) - na - nb + 1))
    return tuple(order[:na]), tuple(order[na : na + nb]), tuple(order[na + nb : na + nb + ng])


class TestDrawAxisKernels:
    def test_product_matches_joint_per_draw(self):
        for seed in range(40):
            gen = spawn(seed, 94)
            k = int(gen.integers(1, 6))
            variables = tuple(Variable(f"N{i}", int(gen.integers(2, 4))) for i in range(k))
            parents = {v.name: tuple(p.name for p in variables[:i] if gen.random() < 0.5) for i, v in enumerate(variables)}
            dag = Dag(tuple(v.name for v in variables), parents)
            cards = {v.name: v.cardinality for v in variables}
            stacked = {
                n: np.stack([_random_rows(gen, tuple(cards[p] for p in dag.parents[n]) + (cards[n],)) for _ in range(3)])
                for n in dag.nodes
            }
            probs = _product(dag, stacked, 1)
            for d in range(3):
                net = Cbn(variables, parents, {n: c[d] for n, c in stacked.items()})
                assert probs[d].tobytes() == joint(net).probs.tobytes(), (seed, d)

    def test_marginal_and_gaps_match_per_table(self):
        dead = 0
        for seed in range(60):
            variables, probs = random_stack(seed)
            names = tuple(v.name for v in variables)
            tables = [JointTable(variables, p) for p in probs]
            a, b, given = split(seed, names)
            axes = [names.index(n) for n in a + b + given]
            arr = _marginal(probs, axes, 1)
            live, diff = _state_gaps(arr, len(a), len(b), 1)
            gaps = _gaps(probs, names, (a, b, given), 1)
            for d, table in enumerate(tables):
                want = marginal_probs(table, a + b + given)
                assert arr[d].tobytes() == want.tobytes() and arr[d].shape == want.shape
                want_live, want_diff = _state_gaps(want, len(a), len(b))
                assert live[d].tobytes() == want_live.tobytes(), (seed, d)
                assert diff[d].tobytes() == want_diff.tobytes(), (seed, d)
                assert gaps[d].hex() == is_independent(table, a, b, given).max_gap.hex(), (seed, d)
            dead += not live[1].all()
        assert dead  # draw 1's states without mass left the other draws' gaps as their tables give them

    def test_balance_matches_balance_exact_per_draw(self):
        for seed in range(60):
            variables, probs = random_stack(seed)
            probs[1] = probs[0]  # a defined draw in place of the one with zero cells
            names = tuple(v.name for v in variables)
            y, z = split(seed, names)[0][0], split(seed + 1, names)[0][0]
            if y == z:
                continue
            axes = (names.index(y), names.index(z))
            balanced = _balance_pair(probs, axes, (y, z), 1)
            for d, p in enumerate(probs):
                want = balance_exact(JointTable(variables, p), BalanceSpec(JointTarget(y, z)))
                assert balanced[d].tobytes() == want.probs.tobytes(), (seed, d)

    def test_reweight_matches_reweight_marginal_per_draw(self):
        for seed in range(40):
            variables, probs = random_stack(seed)
            names = tuple(v.name for v in variables)
            pick = split(seed, names)[0]
            axes = [names.index(n) for n in pick]
            targets = spawn(seed, 93).random((len(probs),) + tuple(probs.shape[1 + a] for a in axes))
            targets /= targets.sum(axis=tuple(range(1, targets.ndim)), keepdims=True)
            current = _marginal(probs, axes, 1)
            targets[current == 0] = 0.0  # an empty cell stays empty
            targets /= targets.sum(axis=tuple(range(1, targets.ndim)), keepdims=True)
            got = _reweight(probs, axes, targets, pick, 1)
            for d, p in enumerate(probs):
                want = reweight_marginal(JointTable(variables, p), pick, targets[d])
                assert got[d].tobytes() == want.probs.tobytes(), (seed, d)

    def test_undefined_draw_raises_as_its_table_does(self):
        variables, probs = random_stack(5, draws=3)
        probs[2, 1, 0] = 0.0  # V0=1, V1=0 empty in draw 2 only
        probs[2] /= probs[2].sum()
        names = tuple(v.name for v in variables)
        with pytest.raises(UnbalanceableSupport) as want:
            balance_exact(JointTable(variables, probs[2]), BalanceSpec(JointTarget("V0", "V1")))
        with pytest.raises(UnbalanceableSupport) as got:
            _balance_pair(probs, (0, 1), ("V0", "V1"), 1)
        assert str(got.value) == str(want.value)
        target = np.full((3,) + probs.shape[1:3], 1.0 / (probs.shape[1] * probs.shape[2]))
        target[1] *= 1.5  # draw 1's target sums to 1.5
        with pytest.raises(ArgumentError) as want:
            reweight_marginal(JointTable(variables, probs[1]), ("V0", "V1"), target[1])
        with pytest.raises(ArgumentError) as got:
            _reweight(probs, (0, 1), target, ("V0", "V1"), 1)
        assert str(got.value) == str(want.value)


def plain_member(base: JointTable, entry: np.ndarray) -> JointTable:
    """A shift-family member as one reweight of its own."""
    py = marginal_probs(base, ("Y", "Z")).sum(axis=1, keepdims=True)
    return reweight_marginal(base, ("Y", "Z"), py * entry)


def plain_scored(predictor: TablePredictor, base: JointTable, grid) -> tuple[np.ndarray, np.ndarray]:
    """``_scored_members`` with every member's marginal taken on its own and stacked."""
    covariates = tuple(n for n in base.names if n not in ("Y", "Z"))
    axes = tuple(covariates.index(n) for n in predictor.inputs)
    probs = np.stack([marginal_probs(plain_member(base, g), covariates + ("Y",)) for g in grid])
    others = tuple(i for i in range(len(covariates)) if i not in axes)
    reached = np.transpose(probs.sum(axis=-1).any(axis=0), axes + others)
    reached = reached.reshape(predictor.scores.shape + (-1,)).any(axis=-1)
    assert not (reached & ~predictor.defined).any()
    return probs, broadcast_axes(np.where(reached, predictor.scores, 0.0), axes, len(covariates))


def shift_bases() -> list[tuple[JointTable, tuple[tuple[str, ...], ...]]]:
    """Instances of A-D, their balanced tables and the datagen key tables,
    each with the predictor inputs to score."""
    out = []
    for graph in "ABCD":
        for seed in range(6):
            tpl = random_instance(graph, seed)
            inputs = (tpl.core, tpl.core + tpl.entangled + tpl.spurious)
            observed = tpl.observed()
            out += [(observed, inputs), (balance_exact(observed, BalanceSpec(JointTarget("Y", "Z"))), inputs)]
    specs = [GenSpec(g, 10) for g in "ABCD"] + [GenSpec("A", 10, confounding=(0.9, 0.1)), GenSpec("D", 10, z_marginal=0.2)]
    for spec in specs:
        table = _key_table(spec.law.net)
        covariates = tuple(n for n in table.names if n not in ("Y", "Z"))
        out.append((table, (covariates[:1], covariates)))
    return out


class TestShiftFamily:
    @pytest.mark.parametrize("n_points", [1, 3, 7])
    def test_members_and_scores_match_per_member_loop(self, n_points):
        grids = (correlation_grid(n_points), correlation_grid(n_points, 0.0, 1.0))
        for i, (base, inputs) in enumerate(shift_bases()):
            for grid in grids:
                family = ShiftFamily(base, grid)
                assert family.probs.shape == (n_points,) + base.shape
                for k, entry in enumerate(grid):
                    want = plain_member(base, entry)
                    got = family.member(k)
                    assert got.variables == want.variables and got.probs.tobytes() == want.probs.tobytes(), (i, k)
                for names in inputs:
                    predictor = bayes_predictor(base, names)
                    got, want = _scored_members(predictor, family), plain_scored(predictor, base, grid)
                    for a, b in zip(got, want, strict=True):
                        assert a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes(), (i, names)

    def test_undefined_member_raises_as_its_reweight_does(self):
        base = random_instance("D", 2).observed()
        probs = base.probs.copy()
        cell = [slice(None)] * probs.ndim
        cell[base.axis("Y")], cell[base.axis("Z")] = 1, 0
        probs[tuple(cell)] = 0.0  # the (Y=1, Z=0) cell empty
        base = JointTable(base.variables, probs / probs.sum())
        grid = (np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[0.2, 0.8], [0.0, 1.0]]), np.full((2, 2), 0.5))
        kept = ShiftFamily(base, grid[:2])  # members that keep the empty cell empty are defined
        for k in range(2):
            assert kept.member(k).probs.tobytes() == plain_member(base, grid[k]).probs.tobytes()
        with pytest.raises(UnbalanceableSupport) as want:
            plain_member(base, grid[2])
        with pytest.raises(UnbalanceableSupport) as got:
            ShiftFamily(base, grid)
        assert str(got.value) == str(want.value)


# SHA-256 of y, z, x and v of the source set and an ideal set at seeds 3 and 17
DATASET_DIGESTS = {
    "A": "546c26e4c5e9e0327ac38c43228675df27ab5cd98da58ad56695d9671b71494c",
    "B": "4c4b5d596735571e4740d84f9414efdfcf7db166052ddde5a361171150c6f1d0",
    "C": "fbbc73cfddd42bcf7bfe8c92b7cf51504f42be4770cabbcffef1859541422fe2",
    "D": "817fbe29465205f0fd8d2e54e64af9fe93f708dcdf62fd75bc4134937f339c84",
}


class TestDatasets:
    @pytest.mark.parametrize("graph", "ABCD")
    def test_source_and_ideal_sets_pinned_bit_for_bit(self, graph):
        digest = hashlib.sha256()
        for seed in (3, 17):
            spec = GenSpec(graph, 300, seed)
            for data in (generate(spec), ideal_testset(spec, 250, seed + 1)):
                for col in (data.y, data.z, data.x, data.v):
                    if col is not None:
                        digest.update(col.tobytes())
        assert digest.hexdigest() == DATASET_DIGESTS[graph]

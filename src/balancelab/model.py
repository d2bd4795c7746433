"""A small differentiable classifier trained by mini-batch gradient descent.

Linear or one-hidden-layer logistic models on weighted rows, with optional
marginal or conditional MMD regularization of the scores (or of the hidden
representation), computed from one RBF kernel block per stratum of each
mini-batch, so a conditional penalty never touches pairs across strata.
Each block comes from an exact rank-2 gemm, finished in place, with the bits
of the broadcast form.  All gradients are analytic; finite differences and a
double-loop reference in the tests pin them.  Training is single-threaded,
bit-reproducible for a fixed seed, and computes its loss log once per epoch.
The encoding probe fits its logistic regression by full-batch Newton steps
to a gradient-norm tolerance, not by training.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .datagen import Dataset
from .errors import (
    ArgumentError,
    DegenerateTarget,
    NumericsError,
    SampleSizeError,
)
from .rng import is_int, is_real, spawn

_STREAM_INIT = 4  # not datagen's 0: one seed for data and model must not draw rows and weights alike
_STREAM_SHUFFLE = 1
_STREAM_PROBE = 3
_TINY = np.finfo(float).tiny  # the smallest normal float; a bandwidth's square must reach it
_BANDWIDTH_FLOOR = 1e-3  # the least bandwidth the median heuristic returns


@dataclass
class ModelParams:
    """Weights and biases per layer; the last layer always produces one
    logistic score.  One entry means a linear model; two mean a single
    ReLU hidden layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) not in (1, 2) or len(self.weights) != len(self.biases):
            raise ArgumentError("expected one or two (weight, bias) layers")
        for w, b in zip(self.weights, self.biases):
            if not (isinstance(w, np.ndarray) and isinstance(b, np.ndarray)) or w.ndim != 2 or b.ndim != 1:
                got = [getattr(v, "shape", type(v).__name__) for v in (w, b)]
                raise ArgumentError(f"each weight must be a 2-D array and each bias a 1-D array, got {got}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ArgumentError("weights and biases must be finite")
            if w.shape[1] != b.shape[0]:
                raise ArgumentError(f"bias shape {b.shape} does not chain with weight {w.shape}")
        if self.weights[-1].shape[1] != 1:
            raise ArgumentError("output layer must produce a single score")
        if len(self.weights) == 2 and self.weights[0].shape[1] != self.weights[1].shape[0]:
            raise ArgumentError("layer shapes do not chain")

    @property
    def has_hidden(self) -> bool:
        return len(self.weights) == 2


def _forward(params: ModelParams, x: np.ndarray):
    """Returns (score, logit, hidden activation or None)."""
    hidden = None
    if params.has_hidden:
        x = hidden = x @ params.weights[0]
        hidden += params.biases[0]
        np.maximum(hidden, 0.0, out=hidden)
    logit = (x @ params.weights[-1])[:, 0]
    logit += params.biases[-1]
    return _sigmoid(logit), logit, hidden


def _sigmoid(logit: np.ndarray) -> np.ndarray:
    # exp of -|logit| never overflows; both branches divide by 1 + e
    e = np.exp(-np.abs(logit))
    return np.where(logit >= 0, 1.0, e) / (1.0 + e)


def _checked_x(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise ArgumentError(f"x must have shape (rows, {params.weights[0].shape[0]}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ArgumentError("x must be finite")
    return x


def predict_scores(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Each row's logistic score: 0 or 1 where the logit overflows, NumericsError where it is NaN."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        scores = _forward(params, _checked_x(params, x))[0]
    if np.isnan(scores).any():
        raise NumericsError("a score is NaN: a logit overflowed to inf - inf")
    return scores


def representation(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The frozen representation the encoding probe reads: hidden activations
    for a one-hidden-layer model, the raw inputs for a linear one."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rep = _forward(params, _checked_x(params, x))[2] if params.has_hidden else _checked_x(params, x)
    if not np.all(np.isfinite(rep)):
        raise NumericsError("a hidden activation overflowed")
    return rep


def _checked_bandwidth(value) -> float:
    """``value`` as a float, if it is a positive real whose square is a
    finite normal float, so the kernel's 1 / h^2 is finite; else ArgumentError."""
    h = float(value) if is_real(value) else math.nan
    if not (h > 0 and _TINY <= h * h < math.inf):
        raise ArgumentError(f"bandwidth must be finite and positive, with a finite normal square, got {value!r}")
    return h


def _checked_sample(sample: np.ndarray, name: str) -> np.ndarray:
    """``sample`` as (rows, d) floats, if it is finite and 4 * sum_k max_i a_ik^2 is
    finite, else ArgumentError: that bounds every squared distance and every sum
    of two squared norms that the kernel and the median heuristic form."""
    a = np.atleast_2d(np.asarray(sample, dtype=float).T).T
    with np.errstate(over="ignore"):
        bound = 4.0 * np.square(np.abs(a).max(axis=0, initial=0.0)).sum()
    if not bound < math.inf:  # NaN and inf entries fail it too
        raise ArgumentError(f"{name} must be finite, and not so far apart that squared distances overflow")
    return a


@dataclass(frozen=True)
class MmdPenalty:
    mode: str  # "marginal" (scores split by z) or "conditional" (split by z within each y)
    strength: float
    bandwidth: float | None = None  # None: median pairwise distance on the first batch
    on_representation: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("marginal", "conditional"):
            raise ArgumentError(f"mode must be 'marginal' or 'conditional', got {self.mode!r}")
        if not (is_real(self.strength) and self.strength >= 0):
            raise ArgumentError(f"strength must be finite and >= 0, got {self.strength}")
        if self.bandwidth is not None:
            _checked_bandwidth(self.bandwidth)


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 40
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    l2: float = 1e-4
    hidden_dim: int = 0  # 0 trains a linear model
    mmd: MmdPenalty | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (is_real(self.learning_rate) and self.learning_rate > 0):
            raise ArgumentError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (is_real(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ArgumentError(f"momentum must be a real number in [0, 1), got {self.momentum}")
        if not (is_real(self.l2) and self.l2 >= 0):
            raise ArgumentError(f"l2 must be finite and >= 0, got {self.l2}")
        counts = dict(epochs=self.epochs, batch_size=self.batch_size, hidden_dim=self.hidden_dim, seed=self.seed)
        if not all(is_int(v) for v in counts.values()):
            raise ArgumentError(f"epochs, batch_size, hidden_dim and seed must be integers, got {counts}")
        if self.epochs < 1 or self.batch_size < 1 or self.hidden_dim < 0 or self.seed < 0:
            raise ArgumentError("epochs/batch_size >= 1, hidden_dim/seed >= 0 required")
        if self.mmd is not None and self.mmd.on_representation and self.hidden_dim == 0:
            raise ArgumentError("a representation penalty needs hidden_dim > 0")


def mmd2(sample_a: np.ndarray, sample_b: np.ndarray, bandwidth: float) -> float:
    """Unbiased squared-MMD estimate with an RBF kernel.

    Accepts score vectors or representation rows.  The U-statistic excludes
    diagonal terms, so small negative values are possible.  Pooled samples
    that ``_checked_sample`` rejects raise ArgumentError.
    """
    a, b = (np.atleast_2d(np.asarray(s, dtype=float).T).T for s in (sample_a, sample_b))
    if a.shape[1:] != b.shape[1:]:
        raise ArgumentError(f"samples must have rows of one width, got {a.shape} and {b.shape}")
    pooled = _checked_sample(np.vstack([a, b]), "samples")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise SampleSizeError("both samples need at least 2 rows for the unbiased estimate")
    side = np.repeat([0, 1], [a.shape[0], b.shape[0]])
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the kernel's limit for far-apart pairs
        value, _, _ = _mmd_penalty(pooled, _strata(side, side, "marginal", len(side))[0], bandwidth)
    return value


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, None] + b`` as the gemm [a, 1] @ [1; b], bit for bit (but for the sign
    of -0 + -0): both products are exact and each sum is rounded once."""
    rows = np.empty((3, len(a)))
    rows[0], rows[1], rows[2] = a, 1.0, b
    return rows[:2].T @ rows[1:]


def _own_side(a: np.ndarray, m: int) -> np.ndarray:
    """Column 0 of the first m rows of ``a`` and column 1 of the rest, in place."""
    a[m:, 0] = a[m:, 1]
    return a[:, 0]


def _strata(y: np.ndarray, z: np.ndarray, mode: str, size: int) -> list[tuple[np.ndarray, list[int]]]:
    """The MMD strata of each ``size``-row batch of (y, z): its rows (indices
    within the batch) stably sorted by group, and its group bounds, 0 first.
    Groups are z (marginal) or 2y + z (conditional); groups 2s and 2s + 1 are
    the sides of stratum s, and rows with z other than 0 or 1 are in the last
    group, in no stratum.  One stable sort of batch * (groups + 1) + group and
    one ``bincount`` serve every batch."""
    groups = 2 if mode == "marginal" else 4
    code = np.where((z == 0) | (z == 1), z if mode == "marginal" else 2 * y + z, groups)
    key = np.arange(len(z)) // size * (groups + 1) + code
    counts = np.bincount(key, minlength=-(-len(z) // size) * (groups + 1)).reshape(-1, groups + 1)
    bounds = np.zeros((len(counts), groups + 2), dtype=np.int64)
    np.cumsum(counts, axis=1, out=bounds[:, 1:])
    order = np.argsort(key, kind="stable") % size
    return [(order[start : start + size], b) for start, b in zip(range(0, len(z), size), bounds.tolist())]


def _mmd_penalty(target: np.ndarray, strata: tuple[np.ndarray, list[int]], bandwidth: float):
    """Summed unbiased squared MMD of a batch's strata, its gradient with
    respect to the (B, d) target, and the number of strata skipped.

    ``strata`` is the batch's entry of ``_strata``.  Each stratum with 2 or
    more rows on both sides builds only its own RBF block K (side 0 first)
    and reduces it against W, whose row j holds j's U-statistic coefficients
    toward side 0 and side 1 (1/(m(m-1)) within side 0, 1/(n(n-1)) within
    side 1, -1/(mn) across): row i's weighted sum is entry side(i) of K @ W,
    and the diagonal, where K is 1, adds 1/(m-1) + 1/(n-1) to their total.
    K fills one buffer: ``_outer_sum`` gives a scalar target's differences or
    a representation's squared-norm sums, then K is finished in place."""
    order, bounds = strata
    groups = len(bounds) - 2
    h = _checked_bandwidth(bandwidth)
    h2 = h * h
    value, grad, skipped = 0.0, np.zeros_like(target), 0
    for lo, mid, hi in zip(bounds[0:groups:2], bounds[1:groups:2], bounds[2 : groups + 1 : 2]):
        m, n = mid - lo, hi - mid
        if m < 2 or n < 2:
            skipped += 1
            continue
        rows, cross, coef = order[lo:hi], -1.0 / (m * n), np.empty((hi - lo, 2))
        coef[:m], coef[m:] = (1.0 / (m * (m - 1)), cross), (cross, 1.0 / (n * (n - 1)))
        t = target[rows]
        # d k(u, v) / du = -(u - v) / h^2 * k(u, v); symmetric coefficients double each pair.
        if t.shape[1] == 1:
            diff = _outer_sum(t[:, 0], -t[:, 0])
            kern = np.square(diff)
        else:
            inner = t @ np.ascontiguousarray(t.T)  # NumPy's t @ t.T path is slower at this size
            kern = _outer_sum(inner.diagonal(), inner.diagonal())  # K is exactly 1 on the diagonal
            kern -= 2.0 * inner
            np.maximum(kern, 0.0, out=kern)
        kern *= -0.5 / h2
        rowsum = _own_side(np.exp(kern, out=kern) @ coef, m)
        if t.shape[1] == 1:
            diff *= kern
            grad[rows, 0] = _own_side(diff @ coef, m)
        else:
            side_sums = np.empty_like(t)
            np.matmul(kern[:m], coef[:, :1] * t, out=side_sums[:m])
            np.matmul(kern[m:], coef[:, 1:] * t, out=side_sums[m:])
            grad[rows] = t * rowsum[:, None] - side_sums
        value += rowsum.sum() - 1.0 / (m - 1) - 1.0 / (n - 1)
    grad *= -2.0 / h2
    return float(value), grad, skipped


def median_bandwidth(scores: np.ndarray) -> float:
    """Median pairwise distance between score rows (the bandwidth heuristic), at least ``_BANDWIDTH_FLOOR``."""
    a = _checked_sample(scores, "scores")
    if a.shape[0] < 2:
        return 1.0
    sq = (a**2).sum(axis=1, keepdims=True)
    dists = np.sqrt(np.maximum(sq + sq.T - 2.0 * (a @ a.T), 0.0))
    upper = dists[np.triu_indices(a.shape[0], k=1)]
    return float(max(np.median(upper), _BANDWIDTH_FLOOR))


@dataclass(frozen=True)
class LossReport:
    value: float
    ce: float
    l2: float
    mmd: float
    grad_weights: tuple[np.ndarray, ...]
    grad_biases: tuple[np.ndarray, ...]
    skipped_strata: int


def _step(params: ModelParams, x: np.ndarray, y: np.ndarray, w: np.ndarray, spec: TrainSpec, wsum, bandwidth, strata):
    """One batch's logits, MMD value, gradient arrays (weights, then biases) and skipped strata,
    from float labels ``y`` and the positive weight sum ``wsum``; with a penalty, ``bandwidth`` is
    resolved and ``strata`` comes from ``_strata``.  ``train`` logs the loss once per epoch."""
    scores, logit, hidden = _forward(params, x)
    dlogit = w * (scores - y) / wsum  # of the cross entropy softplus(logit) - y * logit

    mmd_value, skipped, drep = 0.0, 0, None
    if spec.mmd is not None:
        on_rep = spec.mmd.on_representation
        mmd_value, grad, skipped = _mmd_penalty(hidden if on_rep else scores[:, None], strata, bandwidth)
        grad *= spec.mmd.strength
        if on_rep:
            drep = grad
        else:
            dlogit += grad[:, 0] * scores * (1 - scores)

    dout = dlogit[:, None]
    if params.has_hidden:
        gw2 = hidden.T @ dout + 2.0 * spec.l2 * params.weights[1]
        gb2 = dout.sum(axis=0)
        dhidden = dout * params.weights[1].T  # each entry one exact product, the sign of a zero one included
        if drep is not None:
            dhidden += drep
        dhidden *= hidden > 0  # the ReLU's derivative
        grads = (x.T @ dhidden + 2.0 * spec.l2 * params.weights[0], gw2, dhidden.sum(axis=0), gb2)
    else:
        grads = (x.T @ dout + 2.0 * spec.l2 * params.weights[0], dout.sum(axis=0))
    return logit, mmd_value, grads, skipped


def _batch_sums(values: np.ndarray, size: int) -> np.ndarray:
    """Each ``size``-long run's sum (the last run may be shorter), bit for bit its slice's ``sum()``."""
    full = len(values) - len(values) % size
    sums = values[:full].reshape(-1, size).sum(axis=1)
    return np.append(sums, values[full:].sum()) if full < len(values) else sums


def _log_parts(logits, labels, w, wsums, size: int, layer_rows, mmd, spec: TrainSpec):
    """Each step's logged (total, ce, l2, mmd) as arrays, bit for bit the scalar forms: step i read
    the i-th ``size``-row batch of ``logits``, ``labels`` and ``w`` (weight sum ``wsums[i]``), had
    its layers' flat weights in row i of ``layer_rows`` and got the penalty value ``mmd[i]``."""
    # cross entropy via softplus for stability: ce = softplus(logit) - y * logit
    ce = _batch_sums(w * (np.logaddexp(0.0, logits) - labels * logits), size) / wsums
    l2 = spec.l2 * sum(np.square(rows).sum(axis=1) for rows in layer_rows)
    return ce + l2 + (spec.mmd.strength * mmd if spec.mmd else 0.0), ce, l2, mmd


def loss(params: ModelParams, data: Dataset, spec: TrainSpec, bandwidth: float | None = None) -> LossReport:
    """Weighted cross-entropy + L2 + MMD penalty, with exact gradients.

    Penalty strata lacking two rows on either side contribute nothing and are
    counted in ``skipped_strata``.  Raises NumericsError if any component is
    non-finite.
    """
    if len(data) == 0:
        raise ArgumentError("batch is empty")
    strata = None
    if spec.mmd is not None:
        if bandwidth is None:
            bandwidth = spec.mmd.bandwidth
        if bandwidth is None:
            raise ArgumentError("no bandwidth available; train() resolves the heuristic")
        if spec.mmd.on_representation and not params.has_hidden:
            raise ArgumentError("a representation penalty needs a model with a hidden layer")
        strata = _strata(data.y, data.z, spec.mmd.mode, len(data))[0]
    wsum = float(data.weights.sum())
    if wsum <= 0:
        raise ArgumentError("batch weight is zero")
    y, w, layers = data.y.astype(float), data.weights, len(params.weights)
    with np.errstate(over="ignore", invalid="ignore"):  # the finite-total check reports overflow
        logit, mmd_value, grads, skipped = _step(params, data.x, y, w, spec, wsum, bandwidth, strata)
        rows = [wm.reshape(1, -1) for wm in params.weights]  # one step's row per layer
        parts = _log_parts(logit, y, w, np.array([wsum]), len(data), rows, np.array([mmd_value]), spec)
    total, ce, l2_value, mmd_value = (float(part[0]) for part in parts)
    if not math.isfinite(total):
        raise NumericsError(f"non-finite loss: ce={ce}, l2={l2_value}, mmd={mmd_value}")
    return LossReport(total, ce, l2_value, mmd_value, grads[:layers], grads[layers:], skipped)


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    log: tuple[dict, ...]
    bandwidth: float | None


def _init_params(dim: int, spec: TrainSpec) -> ModelParams:
    gen = spawn(spec.seed, _STREAM_INIT)
    widths = (dim, spec.hidden_dim, 1) if spec.hidden_dim > 0 else (dim, 1)
    weights = [gen.normal(0.0, 1.0 / np.sqrt(n), size=(n, m)) for n, m in zip(widths, widths[1:])]
    return ModelParams(weights, [np.zeros(m) for m in widths[1:]])


def train(data: Dataset, spec: TrainSpec) -> TrainResult:
    """Mini-batch SGD with Nesterov momentum; deterministic given the seed.

    Each epoch gathers its shuffled rows, sums its batches' weights and sorts
    its batches' MMD strata once; each batch's ``_step`` reads slices of them.
    The per-epoch log, the averaged loss components and the MMD strata skipped
    for being too small, is computed once per epoch from each step's logits and
    weights.  A diverging run raises NumericsError naming the epoch.
    """
    if len(data) == 0:
        raise ArgumentError("training data is empty")
    params = _init_params(data.x.shape[1], spec)
    bandwidth = None if spec.mmd is None else spec.mmd.bandwidth
    if spec.mmd is not None and bandwidth is None:  # the heuristic on the untrained first batch
        probe = (representation if spec.mmd.on_representation else predict_scores)(params, data.x[: spec.batch_size])
        bandwidth = median_bandwidth(probe)
    # every layer's weights and biases are views of one flat vector, weights
    # first, so the Nesterov step runs in place on preallocated buffers
    arrays = params.weights + params.biases
    flat = np.concatenate([a.ravel() for a in arrays])
    bounds = np.cumsum([a.size for a in arrays])
    views = np.split(flat, bounds[:-1])
    views = [v.reshape(a.shape) for v, a in zip(views, arrays)]
    layers = len(params.weights)
    params = ModelParams(views[:layers], views[layers:])
    velocity = np.zeros_like(flat)
    grad = np.empty_like(flat)
    update = np.empty_like(flat)
    mu, lr, size, starts = spec.momentum, spec.learning_rate, spec.batch_size, range(0, len(data), spec.batch_size)
    # each step's logits, penalty value and weights (the head of ``flat``), for ``_log_parts``
    logits, mmd, weight_rows = np.empty(len(data)), np.empty(len(starts)), np.empty((len(starts), bounds[layers - 1]))
    layer_rows = np.split(weight_rows, bounds[: layers - 1], axis=1)
    log: list[dict] = []
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step raises NumericsError instead
        for epoch in range(spec.epochs):
            perm = spawn(spec.seed, _STREAM_SHUFFLE, epoch).permutation(len(data))
            x, y, w = np.take(data.x, perm, axis=0), data.y[perm], data.weights[perm]
            labels, wsums = y.astype(float), _batch_sums(w, size)
            if not (wsums > 0).all():
                raise ArgumentError("batch weight is zero")
            strata = [None] * len(starts) if spec.mmd is None else _strata(y, data.z[perm], spec.mmd.mode, size)
            skipped = 0
            for i, (start, batch_strata, wsum) in enumerate(zip(starts, strata, wsums.tolist())):
                rows = slice(start, start + size)
                weight_rows[i] = flat[: bounds[layers - 1]]
                logits[rows], mmd[i], grads, lost = _step(
                    params, x[rows], labels[rows], w[rows], spec, wsum, bandwidth, batch_strata
                )
                np.concatenate([g.ravel() for g in grads], out=grad)
                velocity *= mu
                velocity += grad  # velocity = mu * velocity + grad, then flat -= lr * (grad + mu * velocity)
                flat -= np.multiply(np.add(np.multiply(velocity, mu, out=update), grad, out=update), lr, out=update)
                skipped += lost
            parts = _log_parts(logits, labels, w, wsums, size, layer_rows, mmd, spec)
            if not (np.isfinite(parts[0]).all() and np.isfinite(flat).all()):
                raise NumericsError(f"training diverged at epoch {epoch}")
            # each part summed in step order, as the running total of one scalar per step
            means = [reduce(operator.add, part.tolist(), 0.0) / len(starts) for part in parts]
            log.append(dict(zip(("loss", "ce", "l2", "mmd"), means)) | {"epoch": epoch, "skipped_strata": skipped})
    return TrainResult(params, tuple(log), bandwidth)


_PROBE_L2, _PROBE_GTOL, _PROBE_MAX_STEPS = 1e-4, 1e-8, 30


def _fit_probe(a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Weights minimizing mean cross-entropy + 1e-4 * ||w||^2 of a logistic
    regression on ``a``, whose last column is the constant 1 and whose bias
    is not penalized: damped Newton steps of one (d, d) solve each, halved
    until the Armijo condition holds.  Raises NumericsError unless the
    gradient norm reaches 1e-8 within ``_PROBE_MAX_STEPS`` steps."""
    n, d = a.shape
    t = labels.astype(float)
    pen = np.append(np.full(d - 1, _PROBE_L2), 0.0)

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        logit = a @ w
        return float(np.mean(np.logaddexp(0.0, logit) - t * logit) + pen @ (w * w)), logit

    w = np.zeros(d)
    value, logit = objective(w)
    for _ in range(_PROBE_MAX_STEPS):
        p = _sigmoid(logit)
        grad = a.T @ (p - t) / n + 2.0 * pen * w
        if np.linalg.norm(grad) <= _PROBE_GTOL:
            return w
        try:
            step = np.linalg.solve((a.T * (p * (1.0 - p))) @ a / n + np.diag(2.0 * pen), grad)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"probe Hessian is singular: {exc}") from exc
        decrease, scale = float(grad @ step), 1.0  # the squared Newton decrement
        while (trial := objective(w - scale * step))[0] > value - 1e-4 * scale * decrease:
            scale *= 0.5
            if scale < 1e-10:
                raise NumericsError("probe line search found no descent")
        w, (value, logit) = w - scale * step, trial
    raise NumericsError(f"probe fit did not reach gradient norm {_PROBE_GTOL} in {_PROBE_MAX_STEPS} steps")


def probe_encoding(params: ModelParams, data: Dataset, target: str = "z", seed: int = 0) -> float:
    """Held-out accuracy of a logistic regression that reads the 0/1 target
    column off the frozen representation; near the majority rate means the
    representation does not encode it.

    The seed picks only the 70/30 train/test split; the fit is the
    deterministic, convergence-gated Newton solve of ``_fit_probe``.  An
    empty split or a single-class training split raises DegenerateTarget.
    """
    if target not in ("z", "v"):
        raise ArgumentError(f"target must be 'z' or 'v', got {target!r}")
    labels = data.z if target == "z" else data.v
    if labels is None:
        raise ArgumentError("dataset has no v column")
    if not set(np.unique(labels).tolist()) <= {0, 1}:
        raise ArgumentError(f"target {target!r} must take only the values 0 and 1")
    perm = spawn(seed, _STREAM_PROBE).permutation(len(data))
    cut = int(0.7 * len(data))
    train_idx, test_idx = perm[:cut], perm[cut:]
    if len(test_idx) == 0 or len(np.unique(labels[train_idx])) < 2:
        raise DegenerateTarget(f"target {target!r} needs both classes in the probe's training split and a test row")
    a = np.column_stack([representation(params, data.x), np.ones(len(data))])
    w = _fit_probe(a[train_idx], labels[train_idx])
    preds = a[test_idx] @ w >= 0.0
    return float(np.mean(preds == labels[test_idx].astype(bool)))

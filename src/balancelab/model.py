"""A small differentiable classifier trained by mini-batch gradient descent.

Linear or one-hidden-layer logistic models on weighted rows, with optional
marginal or conditional MMD regularization of the scores (or of the hidden
representation), computed from one RBF kernel per mini-batch.  All gradients
are analytic; finite differences and a double-loop reference in the tests pin
them.  Training is single-threaded and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .datagen import Dataset
from .errors import (
    ArgumentError,
    DegenerateTarget,
    NumericsError,
    SampleSizeError,
    text_line,
)
from .rng import spawn

_STREAM_INIT = 0
_STREAM_SHUFFLE = 1
_STREAM_PROBE = 3


@dataclass
class ModelParams:
    """Weights and biases per layer; the last layer always produces one
    logistic score.  One entry means a linear model; two mean a single
    hidden layer with the given activation."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self) -> None:
        if len(self.weights) not in (1, 2) or len(self.weights) != len(self.biases):
            raise ArgumentError("expected one or two (weight, bias) layers")
        if self.activation not in ("relu", "identity"):
            raise ArgumentError(f"activation must be 'relu' or 'identity', got {self.activation!r}")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ArgumentError(f"bias shape {b.shape} does not chain with weight {w.shape}")
        if self.weights[-1].shape[1] != 1:
            raise ArgumentError("output layer must produce a single score")
        if len(self.weights) == 2 and self.weights[0].shape[1] != self.weights[1].shape[0]:
            raise ArgumentError("layer shapes do not chain")

    @property
    def has_hidden(self) -> bool:
        return len(self.weights) == 2

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.activation)


def _act(values: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(values, 0.0) if kind == "relu" else values


def _act_grad(values: np.ndarray, kind: str) -> np.ndarray:
    return (values > 0).astype(float) if kind == "relu" else np.ones_like(values)


def _forward(params: ModelParams, x: np.ndarray):
    """Returns (score, logit, hidden activation or None, hidden pre-activation or None)."""
    if params.has_hidden:
        pre = x @ params.weights[0] + params.biases[0]
        hidden = _act(pre, params.activation)
        logit = (hidden @ params.weights[1] + params.biases[1])[:, 0]
        return _sigmoid(logit), logit, hidden, pre
    logit = (x @ params.weights[0] + params.biases[0])[:, 0]
    return _sigmoid(logit), logit, None, None


def _sigmoid(logit: np.ndarray) -> np.ndarray:
    out = np.empty_like(logit, dtype=float)
    pos = logit >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logit[pos]))
    expv = np.exp(logit[~pos])
    out[~pos] = expv / (1.0 + expv)
    return out


def predict_scores(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return _forward(params, np.asarray(x, dtype=float))[0]


def representation(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The frozen representation the encoding probe reads: hidden activations
    for a one-hidden-layer model, the raw inputs for a linear one."""
    x = np.asarray(x, dtype=float)
    if params.has_hidden:
        return _act(x @ params.weights[0] + params.biases[0], params.activation)
    return x


@dataclass(frozen=True)
class MmdPenalty:
    mode: str  # "marginal" (scores split by z) or "conditional" (split by z within each y)
    strength: float
    bandwidth: float | None = None  # None: median pairwise distance on the first batch
    on_representation: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("marginal", "conditional"):
            raise ArgumentError(f"mode must be 'marginal' or 'conditional', got {self.mode!r}")
        if not (np.isfinite(self.strength) and self.strength >= 0):
            raise ArgumentError(f"strength must be finite and >= 0, got {self.strength}")
        if self.bandwidth is not None and not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ArgumentError(f"bandwidth must be finite and positive, got {self.bandwidth}")


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 40
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    l2: float = 1e-4
    hidden_dim: int = 0  # 0 trains a linear model
    activation: str = "relu"
    mmd: MmdPenalty | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ArgumentError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ArgumentError("momentum must lie in [0, 1)")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ArgumentError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.epochs < 1 or self.batch_size < 1 or self.hidden_dim < 0:
            raise ArgumentError("epochs/batch_size >= 1, hidden_dim >= 0 required")
        if self.mmd is not None and self.mmd.on_representation and self.hidden_dim == 0:
            raise ArgumentError("a representation penalty needs hidden_dim > 0")


def mmd2(sample_a: np.ndarray, sample_b: np.ndarray, bandwidth: float) -> float:
    """Unbiased squared-MMD estimate with an RBF kernel.

    Accepts score vectors or representation rows.  The U-statistic excludes
    diagonal terms, so small negative values are possible.
    """
    a = np.atleast_2d(np.asarray(sample_a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(sample_b, dtype=float).T).T
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise SampleSizeError("both samples need at least 2 rows for the unbiased estimate")
    side = np.repeat([0, 1], [a.shape[0], b.shape[0]])
    value, _, _ = _mmd_penalty(np.vstack([a, b]), side, side, "marginal", bandwidth)
    return value


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a**2).sum(axis=1, keepdims=True)
    bb = (b**2).sum(axis=1, keepdims=True)
    return np.maximum(aa + bb.T - 2.0 * (a @ b.T), 0.0)


def _mmd_penalty(target: np.ndarray, y: np.ndarray, z: np.ndarray, mode: str, bandwidth: float):
    """Summed unbiased squared MMD of a batch's strata, its gradient with
    respect to the (B, d) target, and the number of strata skipped.

    Groups are z (marginal) or 2y + z (conditional); groups 2s and 2s + 1 are
    the sides of stratum s, and rows with z other than 0 or 1 are in none.
    The kernel K over the whole batch times C holds every U-statistic: C is
    1/(m(m-1)) between distinct rows of a group of m, -1/(mn) across a
    stratum's sides, 0 elsewhere and for a skipped stratum (fewer than 2 rows
    on a side)."""
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ArgumentError(f"bandwidth must be finite and positive, got {bandwidth}")
    groups = 2 if mode == "marginal" else 4
    code = z if mode == "marginal" else 2 * y + z
    code = np.where((z == 0) | (z == 1), code, groups)
    size = np.bincount(code, minlength=groups + 1).astype(float)
    m, n = size[0:groups:2], size[1:groups:2]
    live = (m >= 2) & (n >= 2)
    table = np.zeros((groups + 1, groups + 1))
    for s in np.flatnonzero(live):
        a, b = 2 * s, 2 * s + 1
        table[a, a] = 1.0 / (m[s] * (m[s] - 1))
        table[b, b] = 1.0 / (n[s] * (n[s] - 1))
        table[a, b] = table[b, a] = -1.0 / (m[s] * n[s])
    coef = table[code][:, code]
    np.fill_diagonal(coef, 0.0)
    h2 = bandwidth * bandwidth
    # d k(u, v) / du = -(u - v) / h^2 * k(u, v); C's symmetry doubles each pair.
    if target.shape[1] == 1:
        diff = target - target.T
        gram = coef * np.exp(diff * diff * (-0.5 / h2))
        grad = (gram * diff).sum(axis=1, keepdims=True)
    else:
        gram = coef * np.exp(_sq_dists(target, target) * (-0.5 / h2))
        grad = target * gram.sum(axis=1, keepdims=True) - gram @ target
    return float(gram.sum()), grad * (-2.0 / h2), int((~live).sum())


def median_bandwidth(scores: np.ndarray, floor: float = 1e-3) -> float:
    """Median pairwise distance between score rows (the bandwidth heuristic)."""
    a = np.atleast_2d(np.asarray(scores, dtype=float).T).T
    if a.shape[0] < 2:
        return 1.0
    dists = np.sqrt(_sq_dists(a, a))
    upper = dists[np.triu_indices(a.shape[0], k=1)]
    return float(max(np.median(upper), floor))


@dataclass(frozen=True)
class LossReport:
    value: float
    ce: float
    l2: float
    mmd: float
    grad_weights: tuple[np.ndarray, ...]
    grad_biases: tuple[np.ndarray, ...]
    skipped_strata: int


def loss(
    params: ModelParams,
    data: Dataset,
    spec: TrainSpec,
    bandwidth: float | None = None,
) -> LossReport:
    """Weighted cross-entropy + L2 + MMD penalty, with exact gradients.

    Penalty strata lacking two rows on either side contribute nothing and are
    counted in ``skipped_strata``.  Raises NumericsError if any component is
    non-finite.
    """
    x = data.x
    y = data.y.astype(float)
    w = data.weights
    if len(data) == 0:
        raise ArgumentError("batch is empty")
    wsum = float(w.sum())
    if wsum <= 0:
        raise ArgumentError("batch weight is zero")
    scores, logit, hidden, pre = _forward(params, x)

    # cross entropy via softplus for stability: ce = softplus(logit) - y * logit
    ce = float((w * (np.logaddexp(0.0, logit) - y * logit)).sum() / wsum)
    dlogit = w * (scores - y) / wsum

    l2_value = spec.l2 * sum(float((wm**2).sum()) for wm in params.weights)

    mmd_value = 0.0
    skipped = 0
    drep: np.ndarray | None = None
    if spec.mmd is not None:
        if bandwidth is None:
            bandwidth = spec.mmd.bandwidth
        if bandwidth is None:
            raise ArgumentError("no bandwidth available; train() resolves the heuristic")
        on_rep = spec.mmd.on_representation
        if on_rep and hidden is None:
            raise ArgumentError("a representation penalty needs a model with a hidden layer")
        target = hidden if on_rep else scores[:, None]
        mmd_value, grad, skipped = _mmd_penalty(target, data.y, data.z, spec.mmd.mode, bandwidth)
        grad *= spec.mmd.strength
        if on_rep:
            drep = grad
        else:
            dlogit += grad[:, 0] * scores * (1 - scores)

    total = ce + l2_value + (spec.mmd.strength * mmd_value if spec.mmd else 0.0)
    if not np.isfinite(total):
        raise NumericsError(f"non-finite loss: ce={ce}, l2={l2_value}, mmd={mmd_value}")

    grad_w: list[np.ndarray] = []
    grad_b: list[np.ndarray] = []
    if params.has_hidden:
        dout = dlogit[:, None]
        gw2 = hidden.T @ dout + 2.0 * spec.l2 * params.weights[1]
        gb2 = dout.sum(axis=0)
        dhidden = dout @ params.weights[1].T
        if drep is not None:
            dhidden = dhidden + drep
        dpre = dhidden * _act_grad(pre, params.activation)
        gw1 = x.T @ dpre + 2.0 * spec.l2 * params.weights[0]
        gb1 = dpre.sum(axis=0)
        grad_w, grad_b = [gw1, gw2], [gb1, gb2]
    else:
        dout = dlogit[:, None]
        gw1 = x.T @ dout + 2.0 * spec.l2 * params.weights[0]
        gb1 = dout.sum(axis=0)
        grad_w, grad_b = [gw1], [gb1]
    return LossReport(
        value=float(total),
        ce=ce,
        l2=float(l2_value),
        mmd=float(mmd_value),
        grad_weights=tuple(grad_w),
        grad_biases=tuple(grad_b),
        skipped_strata=skipped,
    )


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    log: tuple[dict, ...]
    bandwidth: float | None

    def final(self, key: str) -> float:
        return float(self.log[-1][key])


def _init_params(dim: int, spec: TrainSpec) -> ModelParams:
    gen = spawn(spec.seed, _STREAM_INIT)
    if spec.hidden_dim > 0:
        w1 = gen.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, spec.hidden_dim))
        w2 = gen.normal(0.0, 1.0 / np.sqrt(spec.hidden_dim), size=(spec.hidden_dim, 1))
        return ModelParams([w1, w2], [np.zeros(spec.hidden_dim), np.zeros(1)], spec.activation)
    w1 = gen.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, 1))
    return ModelParams([w1], [np.zeros(1)], spec.activation)


def train(data: Dataset, spec: TrainSpec) -> TrainResult:
    """Mini-batch SGD with Nesterov momentum; deterministic given the seed.

    The per-epoch log records the averaged loss components and how many MMD
    strata were skipped for being too small.
    """
    if len(data) == 0:
        raise ArgumentError("training data is empty")
    params = _init_params(data.x.shape[1], spec)
    bandwidth: float | None = None
    if spec.mmd is not None:
        bandwidth = spec.mmd.bandwidth
        if bandwidth is None:
            first = min(spec.batch_size, len(data))
            if spec.mmd.on_representation:
                probe = representation(params, data.x[:first])
            else:
                probe = predict_scores(params, data.x[:first])
            bandwidth = median_bandwidth(probe)
    velocity_w = [np.zeros_like(w) for w in params.weights]
    velocity_b = [np.zeros_like(b) for b in params.biases]
    log: list[dict] = []
    for epoch in range(spec.epochs):
        perm = spawn(spec.seed, _STREAM_SHUFFLE, epoch).permutation(len(data))
        totals = {"loss": 0.0, "ce": 0.0, "l2": 0.0, "mmd": 0.0}
        skipped = 0
        batches = 0
        for start in range(0, len(data), spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            report = loss(params, data.take(idx), spec, bandwidth)
            mu, lr = spec.momentum, spec.learning_rate
            for k in range(len(params.weights)):
                velocity_w[k] = mu * velocity_w[k] + report.grad_weights[k]
                velocity_b[k] = mu * velocity_b[k] + report.grad_biases[k]
                params.weights[k] -= lr * (report.grad_weights[k] + mu * velocity_w[k])
                params.biases[k] -= lr * (report.grad_biases[k] + mu * velocity_b[k])
            totals["loss"] += report.value
            totals["ce"] += report.ce
            totals["l2"] += report.l2
            totals["mmd"] += report.mmd
            skipped += report.skipped_strata
            batches += 1
        entry = {k: v / batches for k, v in totals.items()}
        entry["epoch"] = epoch
        entry["skipped_strata"] = skipped
        log.append(entry)
        if not np.isfinite(entry["loss"]):
            raise NumericsError(f"training diverged at epoch {epoch}")
    return TrainResult(params, tuple(log), bandwidth)


def probe_encoding(
    params: ModelParams,
    data: Dataset,
    target: str = "z",
    seed: int = 0,
    epochs: int = 40,
    learning_rate: float = 0.2,
) -> float:
    """Held-out accuracy of a fresh linear classifier trained to read the
    target column off the frozen representation; near 0.5 means the
    representation does not encode it."""
    if target == "z":
        labels = data.z
    elif target == "v":
        if data.v is None:
            raise ArgumentError("dataset has no v column")
        labels = data.v
    else:
        raise ArgumentError(f"target must be 'z' or 'v', got {target!r}")
    if len(np.unique(labels)) < 2:
        raise DegenerateTarget(f"target {target!r} has a single class")
    rep = representation(params, data.x)
    perm = spawn(seed, _STREAM_PROBE).permutation(len(data))
    cut = int(0.7 * len(data))
    train_idx, test_idx = perm[:cut], perm[cut:]
    probe_data = Dataset(
        labels[train_idx],
        np.zeros(cut, dtype=np.int64),
        rep[train_idx],
        np.ones(cut),
        {"rep": (0, rep.shape[1])},
    )
    probe_spec = TrainSpec(
        epochs=epochs,
        batch_size=128,
        learning_rate=learning_rate,
        momentum=0.9,
        l2=1e-4,
        hidden_dim=0,
        seed=seed,
    )
    result = train(probe_data, probe_spec)
    preds = predict_scores(result.params, rep[test_idx]) >= 0.5
    return float(np.mean(preds == labels[test_idx].astype(bool)))


# -- Serialization -------------------------------------------------------------

def dumps_params(params: ModelParams) -> str:
    lines = [f"activation {params.activation}", f"layers {len(params.weights)}"]
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"weight {k} {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(repr(float(v)) for v in row) for row in w)
        lines.append(f"bias {k} {b.shape[0]}")
        lines.append(" ".join(repr(float(v)) for v in b))
    return "\n".join(lines) + "\n"


def loads_params(text: str) -> ModelParams:
    lines = iter([(no, ln.split()) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()])
    last = 0

    def record(tag: str | None, size: int, convert=int) -> list:
        """The next line's ``size`` values after its ``tag`` word, if any."""
        nonlocal last
        no, words = next(lines, (None, None))
        what = f"a '{tag}' line" if tag else "a line"
        if words is None:
            raise ArgumentError(f"line {last + 1}: expected {what}, got the end of the text")
        last = no
        head = [tag] if tag else []
        if words[: len(head)] != head or len(words) != len(head) + size:
            raise ArgumentError(f"line {no}: expected {what} with {size} values")
        with text_line(no):
            return [convert(w) for w in words[len(head) :]]

    (activation,) = record("activation", 1, str)
    (n_layers,) = record("layers", 1)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for _ in range(n_layers):
        _, rows, cols = record("weight", 3)
        mat = np.array([record(None, cols, float) for _ in range(rows)])
        if mat.shape != (rows, cols):
            raise ArgumentError(f"weight block has shape {mat.shape}, expected {(rows, cols)}")
        _, size = record("bias", 2)
        weights.append(mat)
        biases.append(np.array(record(None, size, float)))
    return ModelParams(weights, biases, activation)


def save_params(params: ModelParams, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_params(params))


def load_params(path: str) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_params(fh.read())


def log_to_csv(log: Sequence[Mapping]) -> str:
    header = ["epoch", "loss", "ce", "l2", "mmd", "skipped_strata"]
    lines = [",".join(header)]
    for entry in log:
        lines.append(",".join(repr(float(entry[k])) if k != "epoch" and k != "skipped_strata" else str(int(entry[k])) for k in header))
    return "\n".join(lines) + "\n"

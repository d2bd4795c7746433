"""Fairness and robustness metrics over model outputs.

Equalized odds and demographic parity are computed on raw scores (they are
defined through conditional expectations of the score); accuracy and
worst-group use thresholded predictions.  Strata smaller than the minimum
count are excluded and flagged rather than silently averaged.  Every stratum
sum runs over a slice of rows stably sorted by stratum, bit for bit a mask's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import _LOSS_PAIRS
from .datagen import Dataset
from .errors import ArgumentError
from .model import ModelParams, predict_scores, probe_encoding

MIN_STRATUM = 5


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    worst_group: float
    equalized_odds: float
    dp_gap: float
    pp_gap: float | None
    encoding: float | None
    group_counts: dict[tuple[int, int], int]
    z_accuracy: dict[int, float]
    excluded_strata: tuple[str, ...]
    threshold: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "worst_group": self.worst_group,
            "equalized_odds": self.equalized_odds,
            "dp_gap": self.dp_gap,
            "pp_gap": self.pp_gap,
            "encoding": self.encoding,
            "group_counts": {f"y={y},z={z}": c for (y, z), c in self.group_counts.items()},
            "z_accuracy": {str(z): a for z, a in self.z_accuracy.items()},
            "excluded_strata": list(self.excluded_strata),
            "threshold": self.threshold,
        }


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    return float((values * weights).sum() / weights.sum())


def _stratum_means(code: np.ndarray, size: int, w: np.ndarray, min_stratum: int, *values: np.ndarray) -> list:
    """For each stratum code in range(size), the weighted mean of each
    ``values`` array, or None for a stratum with fewer than ``min_stratum``
    rows or with zero weight.

    The rows are stably sorted by code once, so each stratum is a contiguous
    slice holding the products a boolean mask would select, in the same
    order: every sum is the masked sum bit for bit, which the sequential
    sums of ``np.add.reduceat`` are not."""
    # a stable argsort is a radix sort on codes of 16 bits or fewer
    order = np.argsort(code.astype(np.min_scalar_type(size)), kind="stable")
    sorted_w, products = w[order], [(v * w)[order] for v in values]
    out, lo = [], 0
    for hi in np.cumsum(np.bincount(code, minlength=size)).tolist():
        wsum = sorted_w[lo:hi].sum()
        out.append(None if hi - lo < min_stratum or not wsum > 0 else [float(p[lo:hi].sum() / wsum) for p in products])
        lo = hi
    return out


def evaluate(
    params: ModelParams,
    data: Dataset,
    threshold: float = 0.5,
    probe_seed: int | None = None,
    min_stratum: int = MIN_STRATUM,
    pp_bins: int = 10,
) -> MetricsReport:
    """Score the model on one dataset.

    ``probe_seed`` additionally runs the encoding probe for the group factor;
    the seed picks the probe's train/test split, and the probe's fit is a
    deterministic Newton solve gated on convergence.  A stratum with fewer
    than ``min_stratum`` rows or with zero total weight is left out and
    flagged.  A single-class label makes the score-bin parity gap undefined;
    it is reported as None and flagged.
    """
    if len(data) == 0:
        raise ArgumentError("dataset is empty")
    if min_stratum < 1 or pp_bins < 1:
        raise ArgumentError(f"min_stratum and pp_bins must be >= 1, got {min_stratum} and {pp_bins}")
    if not 0.0 <= threshold <= 1.0:
        raise ArgumentError(f"threshold must lie in [0, 1], got {threshold}")
    w = data.weights
    if not w.sum() > 0:
        raise ArgumentError("dataset has zero total weight")
    scores = predict_scores(params, data.x)
    preds = scores >= threshold
    correct = (preds == data.y.astype(bool)).astype(float)
    accuracy = _weighted_mean(correct, w)
    z_values, z_index = np.unique(data.z, return_inverse=True)
    y_values, y_index = np.unique(data.y, return_inverse=True)
    z_values, y_values, nz = z_values.tolist(), y_values.tolist(), len(z_values)

    excluded: list[str] = []
    z_accuracy: dict[int, float] = {}
    dp_means = []
    for z_value, means in zip(z_values, _stratum_means(z_index, nz, w, min_stratum, correct, scores)):
        if means is None:
            excluded.append(f"z={z_value}")
        else:
            z_accuracy[z_value] = means[0]
            dp_means.append(means[1])
    worst_group = min(z_accuracy.values()) if z_accuracy else accuracy
    dp_gap = (max(dp_means) - min(dp_means)) if len(dp_means) >= 2 else 0.0

    # equalized odds: half-sum over label strata of the score-mean spread
    eo = 0.0
    label_code = y_index * nz + z_index
    by_label = _stratum_means(label_code, len(y_values) * nz, w, min_stratum, scores)
    for i, y_value in enumerate(y_values):
        row = by_label[i * nz : (i + 1) * nz]
        excluded += [f"y={y_value},z={z_value}" for z_value, means in zip(z_values, row) if means is None]
        means = [m[0] for m in row if m is not None]
        if len(means) >= 2:
            eo += 0.5 * (max(means) - min(means))
    pairs = [(y_value, z_value) for y_value in y_values for z_value in z_values]
    counts = dict(zip(pairs, np.bincount(label_code, minlength=len(pairs)).tolist()))

    pp_gap: float | None
    if len(y_values) < 2:
        pp_gap = None
        excluded.append("pp_gap:single_class_label")
    else:
        edges = np.quantile(scores, np.linspace(0.0, 1.0, pp_bins + 1))
        bins = np.clip(np.searchsorted(edges[1:-1], scores, side="right"), 0, pp_bins - 1)
        by_bin = _stratum_means(bins * nz + z_index, pp_bins * nz, w, min_stratum, data.y.astype(float))
        pp_gap = 0.0
        for b in range(pp_bins):
            rates = [m[0] for m in by_bin[b * nz : (b + 1) * nz] if m is not None]
            if len(rates) >= 2:
                pp_gap = max(pp_gap, max(rates) - min(rates))

    encoding = None if probe_seed is None else probe_encoding(params, data, "z", seed=probe_seed)

    return MetricsReport(
        accuracy=accuracy,
        worst_group=worst_group,
        equalized_odds=eo,
        dp_gap=dp_gap,
        pp_gap=pp_gap,
        encoding=encoding,
        group_counts=counts,
        z_accuracy=z_accuracy,
        excluded_strata=tuple(excluded),
        threshold=threshold,
    )


@dataclass(frozen=True)
class RiskReport:
    labels: tuple[str, ...]
    risks: tuple[float, ...]
    max_gap: float
    loss: str

    def to_dict(self) -> dict:
        return {
            "risks": {k: v for k, v in zip(self.labels, self.risks)},
            "max_gap": self.max_gap,
            "loss": self.loss,
        }


def risk_invariance_report(
    params: ModelParams,
    testsets: Sequence[tuple[str, Dataset]] | Sequence[Dataset],
    loss: str = "zero_one",
) -> RiskReport:
    """Risk of one model across several test sets plus the largest pairwise gap.

    Each entry is a Dataset, labelled by its position, or a (label, Dataset)
    pair with a str label."""
    if not isinstance(testsets, Sequence):
        raise ArgumentError(f"testsets must be a sequence, got {type(testsets).__name__}")
    if len(testsets) < 2:
        raise ArgumentError("need at least two test sets")
    if loss not in ("zero_one", "logloss"):
        raise ArgumentError(f"loss must be 'zero_one' or 'logloss', got {loss!r}")
    named: list[tuple[str, Dataset]] = []
    for i, entry in enumerate(testsets):
        if isinstance(entry, Dataset):
            named.append((str(i), entry))
        elif isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str) and isinstance(entry[1], Dataset):
            named.append(entry)
        else:
            raise ArgumentError(f"testsets[{i}] must be a Dataset or a (str, Dataset) pair, got {entry!r:.80}")
    risks = []
    for label, ds in named:
        if len(ds) == 0:
            raise ArgumentError(f"test set {label!r} is empty")
        if not ds.weights.sum() > 0:
            raise ArgumentError(f"test set {label!r} has zero total weight")
        loss_y0, loss_y1 = _LOSS_PAIRS[loss](predict_scores(params, ds.x))
        risks.append(_weighted_mean(np.where(ds.y == 1, loss_y1, loss_y0), ds.weights))
    # subtraction is monotone, so this is the largest pairwise |a - b| bit for bit
    return RiskReport(tuple(k for k, _ in named), tuple(risks), max(risks) - min(risks), loss)

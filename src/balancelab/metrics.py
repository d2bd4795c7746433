"""Fairness and robustness metrics over model outputs.

Equalized odds and demographic parity are computed on raw scores (they are
defined through conditional expectations of the score); accuracy and
worst-group use thresholded predictions.  Strata smaller than the minimum
count are excluded and flagged rather than silently averaged.
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
    w = data.weights
    if not w.sum() > 0:
        raise ArgumentError("dataset has zero total weight")
    scores = predict_scores(params, data.x)
    preds = scores >= threshold
    correct = (preds == data.y.astype(bool)).astype(float)
    accuracy = _weighted_mean(correct, w)

    def too_small(idx: np.ndarray) -> bool:
        return int(idx.sum()) < min_stratum or not w[idx].sum() > 0

    excluded: list[str] = []
    z_accuracy: dict[int, float] = {}
    for z_value in np.unique(data.z):
        idx = data.z == z_value
        if too_small(idx):
            excluded.append(f"z={int(z_value)}")
            continue
        z_accuracy[int(z_value)] = _weighted_mean(correct[idx], w[idx])
    worst_group = min(z_accuracy.values()) if z_accuracy else accuracy

    # equalized odds: half-sum over label strata of the score-mean spread
    eo = 0.0
    for y_value in np.unique(data.y):
        means = []
        for z_value in np.unique(data.z):
            idx = (data.y == y_value) & (data.z == z_value)
            if too_small(idx):
                excluded.append(f"y={int(y_value)},z={int(z_value)}")
                continue
            means.append(_weighted_mean(scores[idx], w[idx]))
        if len(means) >= 2:
            eo += 0.5 * (max(means) - min(means))

    dp_means = []
    for z_value in sorted(z_accuracy):
        idx = data.z == z_value
        dp_means.append(_weighted_mean(scores[idx], w[idx]))
    dp_gap = (max(dp_means) - min(dp_means)) if len(dp_means) >= 2 else 0.0

    pp_gap: float | None
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
                if too_small(idx):
                    continue
                rates.append(_weighted_mean(data.y[idx].astype(float), w[idx]))
            if len(rates) >= 2:
                pp_gap = max(pp_gap, max(rates) - min(rates))

    counts: dict[tuple[int, int], int] = {}
    for y_value in np.unique(data.y):
        for z_value in np.unique(data.z):
            counts[(int(y_value), int(z_value))] = int(((data.y == y_value) & (data.z == z_value)).sum())

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
    """Risk of one model across several test sets plus the largest pairwise gap."""
    if len(testsets) < 2:
        raise ArgumentError("need at least two test sets")
    if loss not in ("zero_one", "logloss"):
        raise ArgumentError(f"loss must be 'zero_one' or 'logloss', got {loss!r}")
    named: list[tuple[str, Dataset]] = []
    for i, entry in enumerate(testsets):
        if isinstance(entry, Dataset):
            named.append((str(i), entry))
        else:
            named.append((entry[0], entry[1]))
    risks = []
    for label, ds in named:
        if len(ds) == 0:
            raise ArgumentError(f"test set {label!r} is empty")
        if not ds.weights.sum() > 0:
            raise ArgumentError(f"test set {label!r} has zero total weight")
        loss_y0, loss_y1 = _LOSS_PAIRS[loss](predict_scores(params, ds.x))
        risks.append(_weighted_mean(np.where(ds.y == 1, loss_y1, loss_y0), ds.weights))
    max_gap = max(abs(a - b) for a in risks for b in risks)
    return RiskReport(tuple(k for k, _ in named), tuple(risks), float(max_gap), loss)

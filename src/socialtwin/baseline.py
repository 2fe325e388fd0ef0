"""Non-agentic comparison models: persistence and gradient-boosted trees.

The boosted model is a from-scratch stagewise least-squares ensemble with
histogram-binned split search over lagged policy features (stringency at
0/7/14/21/28 day offsets) plus calendar features. One independent ensemble
is fitted per behavioral category. Rows lacking full lag history are
excluded outright; no lag is ever imputed.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .ingest import ObservationSeries, PolicyRecord

LAG_OFFSETS = (0, 7, 14, 21, 28)
FEATURE_NAMES = tuple(f"stringency_lag_{d}" for d in LAG_OFFSETS) + (
    "day_of_week",
    "month",
    "days_since_start",
)


@dataclass(frozen=True)
class FeatureVector:
    """Model inputs for one date: five policy lags plus calendar features."""

    lags: tuple[float, float, float, float, float]
    day_of_week: int  # Monday = 0
    month: int
    days_since_start: int

    def as_array(self) -> np.ndarray:
        return np.array(
            [*self.lags, self.day_of_week, self.month, self.days_since_start], dtype=float
        )


def build_features(policy: Sequence[PolicyRecord], date: dt.date) -> FeatureVector:
    """Features for one date; raises DataError if any lag is unavailable."""
    if not policy:
        raise DataError("empty policy series")
    by_date = {r.date: r.stringency for r in policy}
    return _lagged_features(by_date, min(r.date for r in policy), date)


def _lagged_features(
    by_date: Mapping[dt.date, float], start: dt.date, date: dt.date
) -> FeatureVector:
    lags = []
    for offset in LAG_OFFSETS:
        lag_date = date - dt.timedelta(days=offset)
        if lag_date not in by_date:
            raise DataError(f"no stringency available {offset} days before {date}")
        lags.append(by_date[lag_date])
    return FeatureVector(
        lags=tuple(lags),
        day_of_week=date.weekday(),
        month=date.month,
        days_since_start=(date - start).days,
    )


def build_feature_matrix(
    policy: Sequence[PolicyRecord], dates: Sequence[dt.date]
) -> tuple[np.ndarray, list[dt.date]]:
    """Feature rows for every date with full lag coverage; others are skipped.

    The date index and the series start are built once per matrix, so the
    cost grows linearly with the number of dates.
    """
    rows = []
    used = []
    if policy:
        by_date = {r.date: r.stringency for r in policy}
        start = min(r.date for r in policy)
        for date in dates:
            try:
                rows.append(_lagged_features(by_date, start, date).as_array())
            except DataError:
                continue
            used.append(date)
    if not rows:
        return np.empty((0, len(FEATURE_NAMES))), []
    return np.vstack(rows), used


def persistence_forecast(
    history: ObservationSeries, target_dates: Sequence[dt.date]
) -> dict[dt.date, dict[str, float]]:
    """Prediction for date t = last observed value strictly before t."""
    records = history.records
    dates = [r.date for r in records]
    predictions: dict[dt.date, dict[str, float]] = {}
    for target in target_dates:
        idx = int(np.searchsorted(dates, target)) - 1
        if idx < 0:
            raise DataError(f"no observation strictly before {target}")
        predictions[target] = dict(records[idx].values)
    return predictions


# ---------------------------------------------------------------------------
# Histogram gradient boosting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbmHyper:
    n_trees: int = 300
    learning_rate: float = 0.1
    max_depth: int = 4
    min_leaf: int = 5
    n_bins: int = 64

    def __post_init__(self):
        if not 0 < self.learning_rate <= 1:
            raise DataError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.n_trees < 0 or self.max_depth < 1 or self.min_leaf < 1 or self.n_bins < 2:
            raise DataError(f"invalid GBM hyperparameters: {self}")


@dataclass
class GbmModel:
    """Per-category tree ensembles. prediction = base + learning_rate * sum(tree outputs)."""

    trees_by_category: dict[str, list[dict]]
    base_by_category: dict[str, float]
    learning_rate: float
    hyper: GbmHyper
    seed: int
    train_loss_by_category: dict[str, list[float]] = field(default_factory=dict)

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(self.trees_by_category.keys())


def _bin_thresholds(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Candidate split thresholds: midpoints for few distinct values, else
    quantile edges."""
    uniq = np.unique(x)
    if len(uniq) <= 1:
        return np.empty(0)
    if len(uniq) <= n_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.quantile(x, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    return np.unique(qs)


def _build_tree(
    bins: np.ndarray,  # (n_samples, n_features) int bin indices
    thresholds: list[np.ndarray],
    residuals: np.ndarray,
    idx: np.ndarray,
    depth: int,
    hyper: GbmHyper,
) -> dict:
    node_sum = float(residuals[idx].sum())
    node_cnt = len(idx)
    if depth >= hyper.max_depth or node_cnt < 2 * hyper.min_leaf:
        return {"value": node_sum / node_cnt}

    best_gain = 1e-12
    best: tuple[int, int] | None = None  # (feature, bin)
    base_score = node_sum**2 / node_cnt
    for j in range(bins.shape[1]):
        n_bins_j = len(thresholds[j])
        if n_bins_j == 0:
            continue
        counts = np.bincount(bins[idx, j], minlength=n_bins_j + 1)
        sums = np.bincount(bins[idx, j], weights=residuals[idx], minlength=n_bins_j + 1)
        left_cnt = np.cumsum(counts)[:-1]
        left_sum = np.cumsum(sums)[:-1]
        right_cnt = node_cnt - left_cnt
        right_sum = node_sum - left_sum
        valid = (left_cnt >= hyper.min_leaf) & (right_cnt >= hyper.min_leaf)
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = np.where(
                valid,
                left_sum**2 / left_cnt + right_sum**2 / right_cnt - base_score,
                -np.inf,
            )
        b = int(np.argmax(gains))
        if gains[b] > best_gain:
            best_gain = float(gains[b])
            best = (j, b)

    if best is None:
        return {"value": node_sum / node_cnt}
    j, b = best
    go_left = bins[idx, j] <= b
    return {
        "feature": j,
        "threshold": float(thresholds[j][b]),
        "left": _build_tree(bins, thresholds, residuals, idx[go_left], depth + 1, hyper),
        "right": _build_tree(bins, thresholds, residuals, idx[~go_left], depth + 1, hyper),
    }


def _tree_predict(tree: dict, row: np.ndarray) -> float:
    node = tree
    while "value" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return float(node["value"])


def _tree_predict_matrix(tree: dict, X: np.ndarray) -> np.ndarray:
    return np.array([_tree_predict(tree, X[i]) for i in range(X.shape[0])])


def fit_gbm(
    features: np.ndarray | Sequence[FeatureVector],
    targets: Mapping[str, Sequence[float]],
    hyper: GbmHyper = GbmHyper(),
    seed: int = 0,
) -> GbmModel:
    """Stagewise least-squares boosting on residuals, one ensemble per category.

    Split search is histogram-binned: thresholds are fixed once from the
    training matrix, then each node scans per-bin (count, residual sum)
    prefix aggregates. Training is deterministic given (data, hyper, seed);
    the per-tree training RMSE curve is kept on the model for inspection.
    """
    X = (
        features
        if isinstance(features, np.ndarray)
        else np.vstack([f.as_array() for f in features])
    )
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty training set")
    thresholds = [_bin_thresholds(X[:, j], hyper.n_bins) for j in range(X.shape[1])]
    bins = np.column_stack(
        [
            np.searchsorted(thresholds[j], X[:, j], side="left")
            for j in range(X.shape[1])
        ]
    )
    all_idx = np.arange(X.shape[0])

    model = GbmModel(
        trees_by_category={},
        base_by_category={},
        learning_rate=hyper.learning_rate,
        hyper=hyper,
        seed=seed,
    )
    for key, y_raw in targets.items():
        y = np.asarray(y_raw, dtype=float)
        if len(y) != X.shape[0]:
            raise DataError(f"category {key!r}: {len(y)} targets for {X.shape[0]} feature rows")
        base = float(np.mean(y))
        current = np.full(len(y), base)
        trees: list[dict] = []
        losses: list[float] = []
        for _ in range(hyper.n_trees):
            tree = _build_tree(bins, thresholds, y - current, all_idx, 0, hyper)
            current = current + hyper.learning_rate * _tree_predict_matrix(tree, X)
            trees.append(tree)
            losses.append(float(np.sqrt(np.mean((y - current) ** 2))))
        model.trees_by_category[key] = trees
        model.base_by_category[key] = base
        model.train_loss_by_category[key] = losses
    return model


def predict_gbm(model: GbmModel, features: FeatureVector) -> dict[str, float]:
    """base + learning_rate-scaled tree sum, per category."""
    row = features.as_array()
    return {
        key: model.base_by_category[key]
        + model.learning_rate * sum(_tree_predict(t, row) for t in model.trees_by_category[key])
        for key in model.trees_by_category
    }


def predict_gbm_matrix(model: GbmModel, X: np.ndarray) -> dict[str, np.ndarray]:
    out = {}
    for key, trees in model.trees_by_category.items():
        total = np.full(X.shape[0], model.base_by_category[key])
        for tree in trees:
            total = total + model.learning_rate * _tree_predict_matrix(tree, X)
        out[key] = total
    return out


def save_gbm(model: GbmModel, path: str | Path) -> None:
    payload = {
        "hyper": {
            "n_trees": model.hyper.n_trees,
            "learning_rate": model.hyper.learning_rate,
            "max_depth": model.hyper.max_depth,
            "min_leaf": model.hyper.min_leaf,
            "n_bins": model.hyper.n_bins,
        },
        "seed": model.seed,
        "learning_rate": model.learning_rate,
        "base": model.base_by_category,
        "trees": model.trees_by_category,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load_gbm(path: str | Path) -> GbmModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return GbmModel(
        trees_by_category=payload["trees"],
        base_by_category={k: float(v) for k, v in payload["base"].items()},
        learning_rate=float(payload["learning_rate"]),
        hyper=GbmHyper(**payload["hyper"]),
        seed=int(payload["seed"]),
    )

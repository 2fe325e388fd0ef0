"""Non-agentic comparison models: persistence and gradient-boosted trees.

The boosted model is a from-scratch stagewise least-squares ensemble with
histogram-binned split search over lagged policy features (stringency at
0/7/14/21/28 day offsets) plus calendar features. One independent ensemble
is fitted per behavioral category. Rows lacking full lag history are
excluded outright; no lag is ever imputed.

Each tree is a ``Tree`` of five parallel node lists: ``feature``,
``threshold``, ``left``, ``right`` and ``value``. Node 0 is the root, and
children are referenced by their index in the same lists. A ``feature`` of
-1 marks a leaf, whose output is its ``value``; an inner node sends a row to
``left`` when ``row[feature] <= threshold`` and to ``right`` otherwise.
``gbm_model.json`` stores these lists as they are (``schema_version`` 2).
"""

from __future__ import annotations

import datetime as dt
import json
from itertools import chain
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .ingest import ObservationSeries, PolicyRecord

LAG_OFFSETS = (0, 7, 14, 21, 28)
FEATURE_NAMES = tuple(f"stringency_lag_{d}" for d in LAG_OFFSETS) + (
    "day_of_week",
    "month",
    "days_since_start",
)


def build_feature_matrix(
    policy: Sequence[PolicyRecord], dates: Sequence[dt.date]
) -> tuple[np.ndarray, list[dt.date]]:
    """Feature rows, in ``FEATURE_NAMES`` order, for every date with full lag
    coverage; a date with any lag missing is skipped, never imputed.

    The date index and the series start are built once per matrix, so the
    cost grows linearly with the number of dates.
    """
    rows = []
    used = []
    if policy:
        by_date = {r.date: r.stringency for r in policy}
        start = min(r.date for r in policy)
        offsets = [dt.timedelta(days=d) for d in LAG_OFFSETS]
        for date in dates:
            lags = [by_date.get(date - offset) for offset in offsets]
            if None in lags:
                continue
            rows.append([*lags, date.weekday(), date.month, (date - start).days])
            used.append(date)
    if not rows:
        return np.empty((0, len(FEATURE_NAMES))), []
    return np.array(rows, dtype=float), used


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


class Tree(NamedTuple):
    """One regression tree as parallel node lists (layout in the module docstring)."""

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]


@dataclass
class GbmModel:
    """Per-category tree ensembles: base + hyper.learning_rate * sum(tree outputs)."""

    trees_by_category: dict[str, list[Tree]]
    base_by_category: dict[str, float]
    hyper: GbmHyper
    seed: int


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


def _best_split(
    node_bins: np.ndarray, residuals: np.ndarray, node_sum: float, width: int, min_leaf: int
) -> tuple[int, int] | None:
    """(feature, bin) of the largest gain above 1e-12, or None.

    Feature j's bins are offset by ``j * width``, so one ``bincount`` of counts
    and one of residual sums give every feature's histogram. Bin b of feature
    j is the split ``x_j <= thresholds[j][b]``; padding bins and each feature's
    last bin leave no row on the right, so they are never valid. The flat
    ``argmax`` takes the first maximum: the lowest feature, then the lowest bin.
    """
    node_cnt, n_features = node_bins.shape
    size, shape = n_features * width, (n_features, width)
    flat = node_bins.ravel()
    left_cnt = np.cumsum(np.bincount(flat, minlength=size).reshape(shape), axis=1)
    sums = np.bincount(flat, weights=np.repeat(residuals, n_features), minlength=size)
    left_sum = np.cumsum(sums.reshape(shape), axis=1)
    right_cnt = node_cnt - left_cnt
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = left_sum**2 / left_cnt + (node_sum - left_sum) ** 2 / right_cnt
    gains = gains - node_sum**2 / node_cnt
    gains[(left_cnt < min_leaf) | (right_cnt < min_leaf)] = -np.inf
    best = int(np.argmax(gains))
    return divmod(best, width) if gains.flat[best] > 1e-12 else None


def _build_tree(
    offset_bins: np.ndarray,  # (n_samples, n_features) bins, feature j offset by j * width
    thresholds: list[np.ndarray],
    residuals: np.ndarray,
    width: int,
    hyper: GbmHyper,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree depth first; also return each training row's leaf value."""
    tree = Tree([], [], [], [], [])
    fitted = np.empty(len(residuals))

    def grow(idx: np.ndarray, depth: int) -> int:
        node = len(tree.feature)
        node_res = residuals[idx]
        node_sum = float(node_res.sum())
        split = None
        if depth < hyper.max_depth and len(idx) >= 2 * hyper.min_leaf:
            split = _best_split(offset_bins[idx], node_res, node_sum, width, hyper.min_leaf)
        for column, blank in zip(tree, (-1, 0.0, -1, -1, 0.0)):  # a leaf until split
            column.append(blank)
        if split is None:
            tree.value[node] = node_sum / len(idx)
            fitted[idx] = tree.value[node]
            return node
        j, b = split
        go_left = offset_bins[idx, j] <= j * width + b
        tree.feature[node] = j
        tree.threshold[node] = float(thresholds[j][b])
        tree.left[node] = grow(idx[go_left], depth + 1)
        tree.right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(len(residuals)), 0)
    return tree, fitted


def _leaf_values(trees: Sequence[Tree], X: np.ndarray) -> np.ndarray:
    """(n_trees, n_rows) output of every tree on every row, all trees walked at once."""
    if not trees:
        return np.empty((0, X.shape[0]))
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    start = np.repeat(roots, sizes)  # children become indices into the joined lists
    joined = (np.array(list(chain.from_iterable(column))) for column in zip(*trees))
    feature, threshold, left, right, value = joined
    left = left + start
    right = right + start
    node = np.repeat(roots[:, None], X.shape[0], axis=1)
    rows = np.arange(X.shape[0])
    inner = feature[node] >= 0
    while inner.any():
        go_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(inner, np.where(go_left, left[node], right[node]), node)
        inner = feature[node] >= 0
    return value[node]


def fit_gbm(
    features: np.ndarray,
    targets: Mapping[str, Sequence[float]],
    hyper: GbmHyper = GbmHyper(),
    seed: int = 0,
) -> GbmModel:
    """Stagewise least-squares boosting on residuals, one ensemble per category.

    Split search is histogram-binned: thresholds are fixed once from the
    training matrix, and each node takes one offset ``bincount`` of counts and
    one of residual sums over all features, then scans their prefix sums (see
    ``_best_split``). Each tree is a flat ``Tree``; building it yields every
    training row's leaf value, which updates the running prediction without a
    second walk. The fit draws no random numbers: ``seed`` is recorded on the
    model, not used.
    """
    X = features
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty training set")
    thresholds = [_bin_thresholds(X[:, j], hyper.n_bins) for j in range(X.shape[1])]
    width = 1 + max(len(t) for t in thresholds)
    offset_bins = np.column_stack(
        [np.searchsorted(t, X[:, j], side="left") + j * width for j, t in enumerate(thresholds)]
    )
    model = GbmModel(trees_by_category={}, base_by_category={}, hyper=hyper, seed=seed)
    for key, y_raw in targets.items():
        y = np.asarray(y_raw, dtype=float)
        if len(y) != X.shape[0]:
            raise DataError(f"category {key!r}: {len(y)} targets for {X.shape[0]} feature rows")
        base = float(np.mean(y))
        current = np.full(len(y), base)
        trees: list[Tree] = []
        for _ in range(hyper.n_trees):
            tree, fitted = _build_tree(offset_bins, thresholds, y - current, width, hyper)
            current = current + hyper.learning_rate * fitted
            trees.append(tree)
        model.trees_by_category[key] = trees
        model.base_by_category[key] = base
    return model


def predict_gbm_matrix(model: GbmModel, X: np.ndarray) -> dict[str, np.ndarray]:
    """base + learning_rate-scaled tree outputs, added in tree order, per category."""
    out = {}
    for key, trees in model.trees_by_category.items():
        steps = model.hyper.learning_rate * _leaf_values(trees, X)
        base = np.full((1, X.shape[0]), model.base_by_category[key])
        out[key] = np.cumsum(np.vstack([base, steps]), axis=0)[-1]
    return out


GBM_SCHEMA_VERSION = 2


def save_gbm(model: GbmModel, path: str | Path) -> None:
    payload = {
        "schema_version": GBM_SCHEMA_VERSION,
        "hyper": asdict(model.hyper),
        "seed": model.seed,
        "base": model.base_by_category,
        "trees": {k: [t._asdict() for t in trees] for k, trees in model.trees_by_category.items()},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

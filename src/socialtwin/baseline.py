"""Non-agentic comparison models: persistence and gradient-boosted trees.

The boosted model is a from-scratch stagewise least-squares ensemble with
histogram-binned split search over lagged policy features (stringency at
0/7/14/21/28 day offsets) plus calendar features. One independent ensemble
is fitted per behavioral category. Rows lacking full lag history are
excluded outright; no lag is ever imputed.

Each boosting round grows the trees of all categories together, one depth
level at a time, as histogram GBMs do (XGBoost's ``hist`` method, LightGBM):
every open node of every category takes one slot of a single pair of
``bincount`` passes per level. The trees are the ones depth-first growth
gives, bit for bit. A node keeps its rows in ascending order, so each
histogram bin adds its residuals in the same order, and a node's residual
sum is one pairwise sum (``ndarray.sum``) over its own rows: a running sum
over the level (``np.add.reduceat``) adds in another order and differs in
the last bits. A node's score and leaf value are computed in Python floats.

Each tree is a ``Tree`` of five parallel node lists: ``feature``,
``threshold``, ``left``, ``right`` and ``value``. Nodes are numbered in
preorder, left subtree first, so node 0 is the root; children are referenced
by their index in the same lists. A ``feature`` of -1 marks a leaf, whose
output is its ``value``; an inner node sends a row to ``left`` when
``row[feature] <= threshold`` and to ``right`` otherwise.
``gbm_model.json`` stores these lists as they are (``schema_version`` 2).
"""

from __future__ import annotations

import bisect
import datetime as dt
import json
from itertools import accumulate, chain
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .ingest import PolicyRecord, Series

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


def persistence_forecast(history: Series, target_dates: Sequence[dt.date]) -> Series:
    """Prediction for date t = last observed value strictly before t; the
    ``history`` dates are ascending."""
    dates = list(history)
    predictions: Series = {}
    for target in target_dates:
        idx = bisect.bisect_left(dates, target) - 1
        if idx < 0:
            raise DataError(f"no observation strictly before {target}")
        predictions[target] = dict(history[dates[idx]])
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


_pairwise_sum = np.add.reduce  # what ``ndarray.sum`` runs, without its Python wrapper


def _best_splits(
    bins: np.ndarray,
    res: np.ndarray,
    node_cnt: np.ndarray,
    node_sum: np.ndarray,
    node_score: np.ndarray,
    width: int,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's best split as a flat index ``feature * width + bin``, and its gain.

    ``bins`` and ``res`` hold the rows of one node after another; the gain of
    a split is its children's ``sum**2 / count`` less the node's, its
    ``node_score``. Node s's bins are offset by ``s * n_features * width``, so
    one ``bincount`` of counts and one of residual sums give every node's
    histogram of every feature. Bin b of feature j is the split
    ``x_j <= thresholds[j][b]``; padding bins and each feature's last bin
    leave no row on the right, so they are never valid. Each node's
    ``argmax`` takes its first maximum: the lowest feature, then the lowest bin.
    """
    n_nodes, n_features = len(node_cnt), bins.shape[1]
    stride = n_features * width
    shape = (n_nodes, n_features, width)
    flat = (bins + np.repeat(np.arange(0, n_nodes * stride, stride), node_cnt)[:, None]).ravel()
    left_cnt = np.cumsum(np.bincount(flat, minlength=n_nodes * stride).reshape(shape), axis=2)
    sums = np.bincount(flat, weights=np.repeat(res, n_features), minlength=n_nodes * stride)
    left_sum = np.cumsum(sums.reshape(shape), axis=2)
    right_cnt = node_cnt[:, None, None] - left_cnt
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = left_sum**2 / left_cnt + (node_sum[:, None, None] - left_sum) ** 2 / right_cnt
    gains = gains - node_score[:, None, None]
    gains[(left_cnt < min_leaf) | (right_cnt < min_leaf)] = -np.inf
    gains = gains.reshape(n_nodes, stride)
    best = gains.argmax(axis=1)
    return best, gains[np.arange(n_nodes), best]


def _grow_round(
    bins: np.ndarray,  # (n_categories * n_samples, n_features): each category's offset bins
    split_thresholds: np.ndarray,  # thresholds[j][b] at j * width + b
    residuals: np.ndarray,  # (n_categories, n_samples)
    width: int,
    hyper: GbmHyper,
    levels: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> np.ndarray:
    """Grow one tree per category, all of them level by level.

    Appends each level's nodes, as ``(feature, threshold, value)`` arrays, to
    ``levels[depth]``: the root of every category, then the children of each
    inner node of the level above, in order, left child first. Returns every
    category's leaf value on every training row, shaped like ``residuals``.
    """
    n_cats, n_rows = residuals.shape
    residuals = residuals.ravel()
    fitted = np.empty_like(residuals)
    entries = np.arange(len(residuals))  # category * n_rows + row, node after node, ascending
    sizes = [n_rows] * n_cats
    for depth in range(hyper.max_depth + 1):
        if depth == len(levels):
            levels.append([])
        res = residuals[entries]
        bounds = [0, *accumulate(sizes)]
        sums = [float(_pairwise_sum(res[a:b])) for a, b in zip(bounds, bounds[1:])]
        values = np.array([s / c for s, c in zip(sums, sizes)])
        node = np.repeat(np.arange(len(sizes)), sizes)
        counts = np.array(sizes)
        split = (counts >= 2 * hyper.min_leaf) & (depth < hyper.max_depth)
        best = np.zeros(len(sizes), dtype=np.int64)
        if split.any():
            open_nodes = np.flatnonzero(split)
            mine = split[node]
            best[open_nodes], gain = _best_splits(
                bins[entries[mine]],
                res[mine],
                counts[open_nodes],
                np.array(sums)[open_nodes],
                np.array([sums[i] ** 2 / sizes[i] for i in open_nodes]),
                width,
                hyper.min_leaf,
            )
            split[open_nodes] = gain > 1e-12
        leaf = ~split[node]
        fitted[entries[leaf]] = values[node[leaf]]
        levels[depth].append(
            (
                np.where(split, best // width, -1),
                np.where(split, split_thresholds[best], 0.0),
                np.where(split, 0.0, values),
            )
        )
        if not split.any():
            break
        node, entries = node[~leaf], entries[~leaf]
        chosen = best[node]
        child = 2 * (np.cumsum(split) - 1)[node] + (bins[entries, chosen // width] > chosen)
        entries = entries[np.argsort(child, kind="stable")]  # each child's rows stay ascending
        sizes = np.bincount(child, minlength=2 * int(split.sum())).tolist()
    return fitted.reshape(n_cats, n_rows)


def _preorder_trees(levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> list[Tree]:
    """The trees whose nodes ``levels`` lists level by level (as ``_grow_round``
    appends them, one array per column), each numbered in preorder, left
    subtree first: a left child sits one after its parent, a right child one
    plus the left subtree's size after it.
    """
    if not levels:
        return []
    inner = [feature >= 0 for feature, _, _ in levels]
    size = [np.ones(len(feature), dtype=np.int64) for feature, _, _ in levels]
    for d in range(len(levels) - 2, -1, -1):
        size[d][inner[d]] += size[d + 1][0::2] + size[d + 1][1::2]
    start = np.concatenate(([0], np.cumsum(size[0])))
    tree = [np.arange(len(size[0]))]
    position = [np.zeros(len(size[0]), dtype=np.int64)]  # within the node's tree
    children = []
    for d in range(len(levels) - 1):
        below = np.empty(len(size[d + 1]), dtype=np.int64)
        below[0::2] = position[d][inner[d]] + 1
        below[1::2] = below[0::2] + size[d + 1][0::2]
        left, right = np.full(len(size[d]), -1), np.full(len(size[d]), -1)
        left[inner[d]], right[inner[d]] = below[0::2], below[1::2]
        children.append((left, right))
        position.append(below)
        tree.append(np.repeat(tree[d][inner[d]], 2))
    children.append((np.full(len(size[-1]), -1),) * 2)
    at = np.concatenate([start[t] + p for t, p in zip(tree, position)])
    columns = []
    for column in zip(*((f, t, l, r, v) for (f, t, v), (l, r) in zip(levels, children))):
        joined = np.concatenate(column)
        placed = np.empty_like(joined)
        placed[at] = joined
        columns.append(placed.tolist())
    bounds = start.tolist()
    return [Tree(*(c[a:b] for c in columns)) for a, b in zip(bounds, bounds[1:])]


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
    training matrix. Each boosting round grows every category's tree at once,
    one depth level at a time: one offset ``bincount`` of counts and one of
    residual sums give the histograms of all open nodes of all categories,
    and one pass over their prefix sums picks each node's split (see
    ``_best_splits``). Growing a tree yields every training row's leaf value,
    which updates the running prediction without a second walk. The fit draws
    no random numbers: ``seed`` is recorded on the model, not used.
    """
    X = features
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty training set")
    Y = np.empty((len(targets), X.shape[0]))
    for k, (key, y_raw) in enumerate(targets.items()):
        y = np.asarray(y_raw, dtype=float)
        if len(y) != X.shape[0]:
            raise DataError(f"category {key!r}: {len(y)} targets for {X.shape[0]} feature rows")
        Y[k] = y
    thresholds = [_bin_thresholds(X[:, j], hyper.n_bins) for j in range(X.shape[1])]
    width = 1 + max(len(t) for t in thresholds)
    offset_bins = np.column_stack(
        [np.searchsorted(t, X[:, j], side="left") + j * width for j, t in enumerate(thresholds)]
    )
    split_thresholds = np.zeros((X.shape[1], width))
    for j, t in enumerate(thresholds):
        split_thresholds[j, : len(t)] = t
    split_thresholds = split_thresholds.ravel()
    bases = [float(np.mean(y)) for y in Y]
    current = np.repeat(np.array(bases)[:, None], X.shape[0], axis=1)
    bins = np.tile(offset_bins, (len(Y), 1))
    levels: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    for _ in range(hyper.n_trees):
        fitted = _grow_round(bins, split_thresholds, Y - current, width, hyper, levels)
        current = current + hyper.learning_rate * fitted
    trees = _preorder_trees([tuple(map(np.concatenate, zip(*level))) for level in levels])
    return GbmModel(
        trees_by_category={key: trees[k :: len(Y)] for k, key in enumerate(targets)},
        base_by_category=dict(zip(targets, bases)),
        hyper=hyper,
        seed=seed,
    )


def predict_gbm_matrix(model: GbmModel, X: np.ndarray) -> dict[str, np.ndarray]:
    """base + learning_rate-scaled tree outputs, added in tree order, per category.

    Every category's trees are walked in one ``_leaf_values`` call.
    """
    steps = model.hyper.learning_rate * _leaf_values(
        list(chain.from_iterable(model.trees_by_category.values())), X
    )
    out = {}
    start = 0
    for key, trees in model.trees_by_category.items():
        base = np.full((1, X.shape[0]), model.base_by_category[key])
        out[key] = np.cumsum(np.vstack([base, steps[start : start + len(trees)]]), axis=0)[-1]
        start += len(trees)
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

"""Test-side readers of a fitted GBM: the ``gbm_model.json`` artifact reader,
which no command needs (nothing reads the artifact back), and the training
loss curve, recomputed from ``predict_gbm_matrix`` over shortened ensembles."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from socialtwin import baseline as bl
from socialtwin.errors import DataError


def _tree_from_dict(raw: dict) -> bl.Tree:
    tree = bl.Tree(**{name: list(raw[name]) for name in bl.Tree._fields})
    if len({len(column) for column in tree}) != 1 or not tree.feature:
        raise DataError(f"tree node lists are empty or differ in length: {[len(c) for c in tree]}")
    n = len(tree.feature)
    for i, (feature, left, right) in enumerate(zip(tree.feature, tree.left, tree.right)):
        if type(feature) is not int or not -1 <= feature < len(bl.FEATURE_NAMES):
            raise DataError(f"node {i} has feature {feature!r}, not in [-1, {len(bl.FEATURE_NAMES)})")
        # children after their parent rule out cycles
        if feature >= 0 and not all(type(c) is int and i < c < n for c in (left, right)):
            raise DataError(f"inner node {i} has children {left!r}, {right!r}, not in ({i}, {n})")
    return tree


def load_gbm(path: str | Path) -> bl.GbmModel:
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing file, JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{p}: GBM artifact is not readable JSON: {exc}") from None
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != bl.GBM_SCHEMA_VERSION:
        raise DataError(f"{p}: unsupported GBM artifact version {version}")
    try:
        return bl.GbmModel(
            trees_by_category={
                k: [_tree_from_dict(t) for t in trees] for k, trees in payload["trees"].items()
            },
            base_by_category={k: float(v) for k, v in payload["base"].items()},
            hyper=bl.GbmHyper(**payload["hyper"]),
            seed=int(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError, DataError) as exc:
        raise DataError(f"{p}: GBM artifact is malformed: {exc}") from None


def train_losses(model: bl.GbmModel, X: np.ndarray, targets: dict, key: str, sizes=None) -> list:
    """The training RMSE of category ``key`` after each of ``sizes`` trees
    (default: after every tree), predicted by the ensemble cut to that size."""
    trees = model.trees_by_category[key]
    y = np.asarray(targets[key], dtype=float)
    losses = []
    for n in sizes or range(1, len(trees) + 1):
        cut = dataclasses.replace(model, trees_by_category={key: trees[:n]})
        prediction = bl.predict_gbm_matrix(cut, X)[key]
        losses.append(float(np.sqrt(np.mean((y - prediction) ** 2))))
    return losses

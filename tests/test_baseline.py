import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialtwin import baseline as bl
from socialtwin.errors import DataError
from socialtwin.ingest import PolicyRecord
from gbm_reference import load_gbm, train_losses
from synthetic import stringency_path

CATS = ("retail", "parks")


def obs_series(start, values_by_day):
    return {
        start + dt.timedelta(days=i): {c: v for c in CATS} for i, v in enumerate(values_by_day)
    }


def constant_policy(start, days, stringency=90.0):
    return [PolicyRecord(start + dt.timedelta(days=i), stringency) for i in range(days)]


# ---------------------------------------------------------------- persistence


def test_persistence_uses_last_prior_value():
    history = obs_series(dt.date(2021, 9, 1), [0.0] * 29 + [-20.0])  # ends 2021-09-30
    predictions = bl.persistence_forecast(history, [dt.date(2021, 10, 1)])
    assert predictions[dt.date(2021, 10, 1)]["retail"] == -20.0


def test_persistence_constant_history_zero_rmse():
    history = obs_series(dt.date(2021, 1, 1), [-7.5] * 40)
    targets = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(10, 40)]
    predictions = bl.persistence_forecast(history, targets)
    errors = [predictions[d]["retail"] - history[d]["retail"] for d in targets]
    assert float(np.sqrt(np.mean(np.square(errors)))) == 0.0


def test_persistence_step_series_predicts_pre_step_value():
    step_day = 20
    values = [-10.0] * step_day + [-50.0] * 10
    history = obs_series(dt.date(2021, 1, 1), values)
    t0 = dt.date(2021, 1, 1) + dt.timedelta(days=step_day)
    predictions = bl.persistence_forecast(history, [t0, t0 + dt.timedelta(days=1)])
    assert predictions[t0]["retail"] == -10.0
    assert predictions[t0 + dt.timedelta(days=1)]["retail"] == -50.0


def test_persistence_no_prior_observation():
    history = obs_series(dt.date(2021, 1, 10), [1.0] * 5)
    with pytest.raises(DataError, match="strictly before"):
        bl.persistence_forecast(history, [dt.date(2021, 1, 10)])


def test_persistence_random_walk_beats_iid_noise():
    rng = np.random.default_rng(0)
    steps = rng.normal(0, 1, 400)
    walk = np.cumsum(steps)
    iid = rng.normal(0, float(np.std(walk)), 400)

    def persistence_rmse(values):
        history = obs_series(dt.date(2020, 1, 1), list(values))
        targets = list(history)[1:]
        predictions = bl.persistence_forecast(history, targets)
        errs = [predictions[d]["retail"] - history[d]["retail"] for d in targets]
        return float(np.sqrt(np.mean(np.square(errs))))

    assert persistence_rmse(walk) < persistence_rmse(iid)


# ------------------------------------------------------------------- features


def test_features_constant_series_all_lags_equal():
    policy = constant_policy(dt.date(2020, 3, 1), 60, stringency=90.0)
    X, _ = bl.build_feature_matrix(policy, [dt.date(2020, 4, 15)])
    lags = dict(zip(bl.FEATURE_NAMES, X[0]))
    assert [lags[f"stringency_lag_{d}"] for d in bl.LAG_OFFSETS] == [90.0] * 5


def test_features_calendar_fields():
    policy = constant_policy(dt.date(2020, 3, 1), 60)
    X, _ = bl.build_feature_matrix(policy, [dt.date(2020, 4, 15)])  # a Wednesday
    row = dict(zip(bl.FEATURE_NAMES, X[0]))
    assert row["day_of_week"] == 2  # Monday = 0
    assert row["month"] == 4
    assert row["days_since_start"] == 45


def test_features_missing_lag_excluded():
    policy = constant_policy(dt.date(2020, 4, 1), 60)
    date_20_days_in = dt.date(2020, 4, 21)
    X, used = bl.build_feature_matrix(policy, [date_20_days_in, dt.date(2020, 4, 29)])
    assert used == [dt.date(2020, 4, 29)]
    assert X.shape == (1, len(bl.FEATURE_NAMES))


# ------------------------------------------------------------------------ gbm


def varied_features(days=365, seed=7):
    policy = stringency_path(dt.date(2020, 3, 4), days + 28, seed=seed)
    dates = [r.date for r in policy][28:]
    return bl.build_feature_matrix(policy, dates)


def test_gbm_constant_targets_predict_constant():
    X, _ = varied_features(days=80)
    model = bl.fit_gbm(X, {"c": np.full(X.shape[0], 42.0)}, bl.GbmHyper(n_trees=25))
    predictions = bl.predict_gbm_matrix(model, X)["c"]
    assert np.allclose(predictions, 42.0, atol=1e-9)


def test_gbm_learns_linear_lag_relationship():
    X, _ = varied_features(days=365)
    y = 2.0 * X[:, 0]
    model = bl.fit_gbm(X, {"c": y}, bl.GbmHyper(n_trees=200, max_depth=2), seed=0)
    train_rmse = train_losses(model, X, {"c": y}, "c", [200])[0]
    assert train_rmse <= 0.05 * float(np.std(y))


def test_gbm_loss_non_increasing_per_ten_tree_checkpoint():
    X, _ = varied_features(days=200)
    y = 2.0 * X[:, 0]
    model = bl.fit_gbm(X, {"c": y}, bl.GbmHyper(n_trees=120), seed=0)
    checkpoints = train_losses(model, X, {"c": y}, "c", range(10, 121, 10))
    assert all(later <= earlier + 1e-9 for earlier, later in zip(checkpoints, checkpoints[1:]))


def single_split_tree():
    """x_0 <= 50 goes to leaf 1 (-10), anything else to leaf 2 (-60)."""
    return bl.Tree(
        feature=[0, -1, -1],
        threshold=[50.0, 0.0, 0.0],
        left=[1, -1, -1],
        right=[2, -1, -1],
        value=[0.0, -10.0, -60.0],
    )


def predict_one(model, row):
    return bl.predict_gbm_matrix(model, np.array([row], dtype=float))


def test_gbm_single_row_returns_base_prediction():
    X = np.array([[90.0, 90.0, 90.0, 90.0, 90.0, 2.0, 4.0, 10.0]])
    model = bl.fit_gbm(X, {"c": [13.0]}, bl.GbmHyper(n_trees=10))
    assert predict_one(model, [1.0, 2.0, 3.0, 4.0, 5.0, 0, 1, 0])["c"][0] == pytest.approx(13.0)


def test_gbm_zero_trees_predicts_base():
    X, _ = varied_features(days=60)
    y = 3.0 * X[:, 0] - 5.0
    model = bl.fit_gbm(X, {"c": y}, bl.GbmHyper(n_trees=0))
    prediction = predict_one(model, [50.0] * 5 + [3, 6, 100])["c"][0]
    assert prediction == pytest.approx(float(np.mean(y)))


def test_gbm_hand_built_single_split_tree():
    model = bl.GbmModel(
        trees_by_category={"c": [single_split_tree()]},
        base_by_category={"c": 0.0},
        hyper=bl.GbmHyper(n_trees=1, learning_rate=1.0),
        seed=0,
    )
    assert predict_one(model, [90.0, 0.0, 0.0, 0.0, 0.0, 0, 1, 0])["c"][0] == -60.0
    assert predict_one(model, [30.0, 0.0, 0.0, 0.0, 0.0, 0, 1, 0])["c"][0] == -10.0
    assert predict_one(model, [50.0, 0.0, 0.0, 0.0, 0.0, 0, 1, 0])["c"][0] == -10.0


def test_gbm_deterministic_given_seed():
    X, _ = varied_features(days=120)
    y = np.sin(X[:, 0] / 10.0) * 30.0
    a = bl.fit_gbm(X, {"c": y}, bl.GbmHyper(n_trees=40), seed=5)
    b = bl.fit_gbm(X, {"c": y}, bl.GbmHyper(n_trees=40), seed=5)
    probe = X[:17]
    assert np.array_equal(bl.predict_gbm_matrix(a, probe)["c"], bl.predict_gbm_matrix(b, probe)["c"])


def test_gbm_empty_training_set_refused():
    with pytest.raises(DataError, match="empty"):
        bl.fit_gbm(np.empty((0, 8)), {"c": []}, bl.GbmHyper(n_trees=5))


def category_targets(X, n_cats):
    """``wave`` splits to any depth; ``flat`` is constant, so its trees are single
    leaves; the rest are noisy lines."""
    rng = np.random.default_rng(n_cats)
    targets = {
        "wave": 30.0 * np.sin(X[:, 0] / 7.0) + rng.normal(0.0, 1.0, len(X)),
        "flat": np.full(len(X), 4.5),
    }
    for k in range(2, n_cats):
        targets[f"line{k}"] = k * X[:, k] + rng.normal(0.0, 10.0, len(X))
    return dict(list(targets.items())[:n_cats])


def fit_together_as_alone(X, targets, hyper):
    """The fit of all ``targets`` at once, after checking that each category's
    trees, base and predictions equal those of its fit alone, bit for bit."""
    together = bl.fit_gbm(X, targets, hyper)
    on_train = bl.predict_gbm_matrix(together, X)
    for key, y in targets.items():
        alone = bl.fit_gbm(X, {key: y}, hyper)
        assert together.trees_by_category[key] == alone.trees_by_category[key]
        assert together.base_by_category[key] == alone.base_by_category[key]
        assert np.array_equal(on_train[key], bl.predict_gbm_matrix(alone, X)[key])
    return together


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


@pytest.mark.parametrize("n_cats", range(1, 7))
def test_gbm_categories_do_not_interact(n_cats):
    X, _ = varied_features(days=60)
    hyper = bl.GbmHyper(n_trees=8, max_depth=3, min_leaf=3)
    model = fit_together_as_alone(X, category_targets(X, n_cats), hyper)
    assert tree_depth(model.trees_by_category["wave"][0]) == hyper.max_depth
    if n_cats > 1:
        assert all(tree.feature == [-1] for tree in model.trees_by_category["flat"])


@pytest.mark.parametrize("n_trees", [0, 5])
@pytest.mark.parametrize("n_cats", [1, 6])
def test_gbm_categories_do_not_interact_in_single_leaf_fits(n_cats, n_trees):
    X, _ = varied_features(days=6)  # fewer rows than 2 * min_leaf: every tree is one leaf
    hyper = bl.GbmHyper(n_trees=n_trees)
    model = fit_together_as_alone(X, category_targets(X, n_cats), hyper)
    for trees in model.trees_by_category.values():
        assert len(trees) == n_trees
        assert all(tree.feature == [-1] for tree in trees)


def test_gbm_target_length_mismatch_names_the_first_bad_category():
    X, _ = varied_features(days=20)
    targets = {"a": np.zeros(20), "b": np.zeros(19), "c": np.zeros(18)}
    with pytest.raises(DataError, match=r"^category 'b': 19 targets for 20 feature rows$"):
        bl.fit_gbm(X, targets, bl.GbmHyper(n_trees=2))


def test_gbm_serialization_roundtrip(tmp_path):
    X, _ = varied_features(days=90)
    y = 2.0 * X[:, 1] + X[:, 5]
    model = bl.fit_gbm(X, {"c": y}, bl.GbmHyper(n_trees=30), seed=1)
    path = tmp_path / "gbm.json"
    bl.save_gbm(model, path)
    loaded = load_gbm(path)
    assert np.array_equal(
        bl.predict_gbm_matrix(model, X)["c"], bl.predict_gbm_matrix(loaded, X)["c"]
    )
    assert loaded.hyper == model.hyper
    assert loaded.trees_by_category == model.trees_by_category

    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 2
    assert set(payload["trees"]["c"][0]) == {"feature", "threshold", "left", "right", "value"}

    def refused(text, message):
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        with pytest.raises(DataError, match=message) as excinfo:
            load_gbm(broken)
        assert str(broken) in str(excinfo.value)

    nested_v1 = dict(payload, trees={"c": [{"value": 1.0}]})
    del nested_v1["schema_version"]
    refused(json.dumps(nested_v1), "unsupported GBM artifact version None")
    refused(json.dumps(dict(payload, schema_version=3)), "unsupported GBM artifact version 3")
    refused(path.read_text()[:100], "not readable JSON")
    refused("[]", "unsupported GBM artifact version")
    ragged = dict(single_split_tree()._asdict(), value=[0.0, -10.0])
    refused(json.dumps(dict(payload, trees={"c": [ragged]})), "differ in length")
    split = single_split_tree()._asdict()
    for column, value, message in [
        ("left", 99, "inner node 0 has children 99, 2"),
        ("left", 0, "inner node 0 has children 0, 2"),
        ("right", 1.5, "inner node 0 has children 1, 1.5"),
        ("feature", len(bl.FEATURE_NAMES), "node 0 has feature 8"),
        ("feature", -2, "node 0 has feature -2"),
    ]:
        broken_tree = dict(split, **{column: [value] + split[column][1:]})
        refused(json.dumps(dict(payload, trees={"c": [broken_tree]})), message)
    cycle = dict(split, feature=[0, -1, 0], left=[1, -1, 1], right=[2, -1, 2])
    refused(json.dumps(dict(payload, trees={"c": [cycle]})), "inner node 2 has children 1, 2")


# ------------------------------------------------ reference: recursive trees
#
# Dict-based trees grown depth first, one category at a time. The level-wise
# fit must reproduce their losses, their predictions and, flattened in
# preorder, their node lists, bit for bit.


def reference_build_tree(bins, thresholds, residuals, idx, depth, hyper):
    node_sum = float(residuals[idx].sum())
    node_cnt = len(idx)
    if depth >= hyper.max_depth or node_cnt < 2 * hyper.min_leaf:
        return {"value": node_sum / node_cnt}
    best_gain = 1e-12
    best = None  # (feature, bin)
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
                valid, left_sum**2 / left_cnt + right_sum**2 / right_cnt - base_score, -np.inf
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
        "left": reference_build_tree(bins, thresholds, residuals, idx[go_left], depth + 1, hyper),
        "right": reference_build_tree(
            bins, thresholds, residuals, idx[~go_left], depth + 1, hyper
        ),
    }


def reference_tree_predict(tree, row):
    node = tree
    while "value" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return float(node["value"])


def reference_fit_predict(X, y, hyper, X_new):
    """(training RMSE per tree, predictions on X_new) of the recursive boosting."""
    thresholds = [bl._bin_thresholds(X[:, j], hyper.n_bins) for j in range(X.shape[1])]
    bins = np.column_stack(
        [np.searchsorted(thresholds[j], X[:, j], side="left") for j in range(X.shape[1])]
    )

    def tree_outputs(tree, rows):
        return np.array([reference_tree_predict(tree, rows[i]) for i in range(rows.shape[0])])

    base = float(np.mean(y))
    current = np.full(len(y), base)
    predictions = np.full(X_new.shape[0], base)
    losses = []
    for _ in range(hyper.n_trees):
        tree = reference_build_tree(bins, thresholds, y - current, np.arange(len(y)), 0, hyper)
        current = current + hyper.learning_rate * tree_outputs(tree, X)
        predictions = predictions + hyper.learning_rate * tree_outputs(tree, X_new)
        losses.append(float(np.sqrt(np.mean((y - current) ** 2))))
    return losses, predictions


def reference_flat_trees(X, y, hyper):
    """The reference's trees, each flattened to node lists in preorder, left
    subtree first: the layout ``gbm_model.json`` stores."""
    thresholds = [bl._bin_thresholds(X[:, j], hyper.n_bins) for j in range(X.shape[1])]
    bins = np.column_stack(
        [np.searchsorted(thresholds[j], X[:, j], side="left") for j in range(X.shape[1])]
    )

    def flatten(node, flat):
        i = len(flat.feature)
        for column, blank in zip(flat, (-1, 0.0, -1, -1, 0.0)):
            column.append(blank)
        if "value" in node:
            flat.value[i] = node["value"]
        else:
            flat.feature[i], flat.threshold[i] = node["feature"], node["threshold"]
            flat.left[i] = flatten(node["left"], flat)
            flat.right[i] = flatten(node["right"], flat)
        return i

    current = np.full(len(y), float(np.mean(y)))
    trees = []
    for _ in range(hyper.n_trees):
        tree = reference_build_tree(bins, thresholds, y - current, np.arange(len(y)), 0, hyper)
        outputs = np.array([reference_tree_predict(tree, row) for row in X])
        current = current + hyper.learning_rate * outputs
        flat = bl.Tree([], [], [], [], [])
        flatten(tree, flat)
        trees.append(flat)
    return trees


@st.composite
def gbm_problems(draw):
    """Small fits with tied and constant columns, 1 row, large min_leaf, and
    bin counts on both sides of the number of distinct values."""
    n_rows = draw(st.integers(1, 30))
    n_features = draw(st.integers(1, 4))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)), dtype=float)

    columns = []
    for _ in range(n_features):
        kind = draw(st.sampled_from(["tied", "constant", "float"]))
        if kind == "constant":
            columns.append(np.full(n_rows, draw(st.floats(-100, 100))))
        elif kind == "tied":
            columns.append(column(st.integers(0, draw(st.integers(1, 6)))))
        else:
            columns.append(column(st.floats(-1e3, 1e3)))
    X = np.column_stack(columns)
    targets = {key: column(st.floats(-100, 100) | st.integers(-3, 3)) for key in ("a", "b")}
    hyper = bl.GbmHyper(
        n_trees=draw(st.integers(0, 6)),
        learning_rate=draw(st.sampled_from([0.1, 0.35, 1.0])),
        max_depth=draw(st.integers(1, 4)),
        min_leaf=draw(st.integers(1, 20)),
        n_bins=draw(st.integers(2, 40)),
    )
    row = st.lists(st.floats(-1e3, 1e3), min_size=n_features, max_size=n_features)
    X_new = np.array(draw(st.lists(row, min_size=1, max_size=5)))
    return X, targets, hyper, X_new


def fixed_problem(columns, **hyper):
    X = np.column_stack(columns).astype(float)
    y = np.arange(len(X)) % 3 * 1.5
    return X, {"a": y, "b": -(y**2)}, bl.GbmHyper(**hyper), X[:2] + 0.5


TIED_CONSTANT_SPREAD = [np.arange(20) % 4, np.full(20, 2.0), np.arange(20) ** 1.5]


@settings(max_examples=150, deadline=None)
@given(gbm_problems())
@example(fixed_problem([[1.0], [5.0]], n_trees=3, min_leaf=1))  # one row
@example(fixed_problem(TIED_CONSTANT_SPREAD, n_trees=0))
@example(fixed_problem(TIED_CONSTANT_SPREAD, n_trees=4, min_leaf=11))  # > half the rows
@example(fixed_problem(TIED_CONSTANT_SPREAD, n_trees=4, min_leaf=2, n_bins=5))  # 4 < 5 < 20
def test_gbm_flat_trees_equal_recursive_reference(problem):
    X, targets, hyper, X_new = problem
    model = bl.fit_gbm(X, targets, hyper)
    on_train = bl.predict_gbm_matrix(model, X)
    on_new = bl.predict_gbm_matrix(model, X_new)
    for key, y in targets.items():
        assert len(model.trees_by_category[key]) == hyper.n_trees
        losses, expected = reference_fit_predict(X, y, hyper, np.vstack([X, X_new]))
        assert train_losses(model, X, targets, key) == losses
        assert np.array_equal(np.concatenate([on_train[key], on_new[key]]), expected)
        assert model.trees_by_category[key] == reference_flat_trees(X, y, hyper)

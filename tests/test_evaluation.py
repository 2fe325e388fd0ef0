import datetime as dt
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socialtwin.errors import DataError
from socialtwin.evaluation import (
    EvalReport,
    compare,
    evaluate_predictions,
    improvement_pct,
    macro_average,
    rmse_with_coverage,
)

# Published per-category error columns used as arithmetic fixtures.
REFERENCE_GBM = {
    "retail_and_recreation": 23.17,
    "grocery_and_pharmacy": 28.31,
    "parks": 28.05,
    "transit_stations": 38.72,
    "workplaces": 70.45,
    "residential": 6.13,
}
REFERENCE_TWIN = {
    "retail_and_recreation": 14.42,
    "grocery_and_pharmacy": 45.67,
    "parks": 18.91,
    "transit_stations": 52.55,
    "workplaces": 7.55,
    "residential": 15.41,
}


def series(values_by_date, categories=("k",)):
    return {d: {c: v for c in categories} for d, v in sorted(values_by_date.items())}


def days(n, start=dt.date(2021, 10, 1)):
    return [start + dt.timedelta(days=i) for i in range(n)]


# ----------------------------------------------------------------------- rmse


def test_rmse_perfect_fit_is_zero():
    dates = days(20)
    obs = series({d: 5.0 for d in dates})
    predictions = {d: {"k": 5.0} for d in dates}
    assert rmse_with_coverage(predictions, obs, "k")[0] == 0.0


def test_rmse_constant_offset():
    dates = days(13)
    obs = series({d: -20.0 for d in dates})
    predictions = {d: {"k": -17.0} for d in dates}
    assert rmse_with_coverage(predictions, obs, "k")[0] == pytest.approx(3.0, abs=1e-12)


def test_rmse_hand_arithmetic():
    d1, d2 = days(2)
    obs = series({d1: 0.0, d2: 0.0})
    predictions = {d1: {"k": 3.0}, d2: {"k": 4.0}}
    value = rmse_with_coverage(predictions, obs, "k")[0]
    assert value == pytest.approx(math.sqrt(12.5), abs=1e-12)


def test_rmse_excludes_and_counts_one_sided_dates():
    dates = days(10)
    obs = series({d: 1.0 for d in dates})
    predictions = {d: {"k": 1.0} for d in dates[:4]}
    predictions[dt.date(2030, 1, 1)] = {"k": 99.0}
    value, n = rmse_with_coverage(predictions, obs, "k")
    assert value == 0.0 and n == 4


def test_rmse_zero_common_dates():
    obs = series({dt.date(2021, 1, 1): 1.0})
    with pytest.raises(DataError, match="no common dates"):
        rmse_with_coverage({dt.date(2022, 1, 1): {"k": 1.0}}, obs, "k")


# ----------------------------------------------------------------- macro/compare


def test_macro_average_reference_columns():
    assert macro_average(REFERENCE_TWIN) == pytest.approx(25.75, abs=0.01)
    assert macro_average(REFERENCE_GBM) == pytest.approx(32.47, abs=0.01)


def test_macro_average_constant():
    assert macro_average({c: 4.2 for c in "abcdef"}) == pytest.approx(4.2)


def test_macro_average_of_no_categories_is_data_error():
    with pytest.raises(DataError, match="empty mapping"):
        macro_average({})


def make_report(per_category, method="m", split="test"):
    return EvalReport(
        method=method,
        split=split,
        per_category_rmse=dict(per_category),
        macro_rmse=macro_average(per_category),
        n_dates=10,
    )


def test_compare_reference_columns():
    result = compare(make_report(REFERENCE_TWIN, "twin"), make_report(REFERENCE_GBM, "gbm"))
    assert result.macro_improvement == pytest.approx(20.7, abs=0.1)
    assert result.improvement["workplaces"] == pytest.approx(89.3, abs=0.1)
    assert result.improvement["residential"] == pytest.approx(-151.4, abs=0.1)


def test_compare_identical_inputs_zero_everywhere():
    result = compare(make_report(REFERENCE_TWIN), make_report(REFERENCE_TWIN))
    assert result.macro_improvement == 0.0
    assert all(v == 0.0 for v in result.improvement.values())


def test_compare_zero_reference_gives_sentinel():
    ours = make_report({"a": 1.0, "b": 1.0})
    ref = make_report({"a": 0.0, "b": 2.0})
    result = compare(ours, ref)
    assert math.isnan(result.improvement["a"])
    assert result.improvement["b"] == pytest.approx(50.0)


def test_compare_mismatched_categories():
    with pytest.raises(DataError, match="different categories"):
        compare(make_report({"a": 1.0}), make_report({"b": 1.0}))


def test_evaluate_predictions_builds_consistent_report():
    dates = days(30)
    obs = series({d: float(i) for i, d in enumerate(dates)}, categories=("x", "y"))
    predictions = {d: {"x": float(i) + 1.0, "y": float(i)} for i, d in enumerate(dates)}
    report = evaluate_predictions("twin", "test", predictions, obs, ("x", "y"))
    assert report.per_category_rmse["x"] == pytest.approx(1.0)
    assert report.per_category_rmse["y"] == 0.0
    assert report.macro_rmse == pytest.approx(0.5)
    assert report.n_dates == 30
    # macro recomputation from the report's own fields
    assert abs(report.macro_rmse - macro_average(report.per_category_rmse)) < 1e-9


# ----------------------------------------------------------------- properties


error_lists = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40
)


@given(error_lists, st.randoms(use_true_random=False))
def test_rmse_invariant_under_date_reordering(errors, rng):
    dates = days(len(errors))
    obs = series({d: 0.0 for d in dates})
    predictions = {d: {"k": e} for d, e in zip(dates, errors)}
    base = rmse_with_coverage(predictions, obs, "k")[0]
    shuffled_dates = list(dates)
    rng.shuffle(shuffled_dates)
    shuffled = {d: predictions[d] for d in shuffled_dates}
    assert rmse_with_coverage(shuffled, obs, "k")[0] == pytest.approx(base, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_rmse_symmetry(pairs):
    dates = days(len(pairs))
    obs_a = series({d: a for d, (a, _) in zip(dates, pairs)})
    obs_b = series({d: b for d, (_, b) in zip(dates, pairs)})
    pred_a = {d: {"k": a} for d, (a, _) in zip(dates, pairs)}
    pred_b = {d: {"k": b} for d, (_, b) in zip(dates, pairs)}
    forward = rmse_with_coverage(pred_b, obs_a, "k")[0]
    assert forward == pytest.approx(rmse_with_coverage(pred_a, obs_b, "k")[0], abs=1e-12)


@given(error_lists, st.floats(min_value=0.01, max_value=50))
def test_rmse_scales_linearly_and_improvement_invariant(errors, scale):
    dates = days(len(errors))
    obs = series({d: 0.0 for d in dates})
    ours = {d: {"k": e} for d, e in zip(dates, errors)}
    ref = {d: {"k": e * 2.0 + 1.0} for d, e in zip(dates, errors)}
    base_ours = rmse_with_coverage(ours, obs, "k")[0]
    base_ref = rmse_with_coverage(ref, obs, "k")[0]
    scaled_ours = {d: {"k": e * scale} for d, e in zip(dates, errors)}
    scaled_ref = {d: {"k": (e * 2.0 + 1.0) * scale} for d, e in zip(dates, errors)}
    scaled_ours_rmse = rmse_with_coverage(scaled_ours, obs, "k")[0]
    assert scaled_ours_rmse == pytest.approx(base_ours * scale, rel=1e-9)
    assert rmse_with_coverage(scaled_ref, obs, "k")[0] == pytest.approx(base_ref * scale, rel=1e-9)
    if base_ref > 0:
        assert improvement_pct(base_ref * scale, base_ours * scale) == pytest.approx(
            improvement_pct(base_ref, base_ours), rel=1e-9, abs=1e-9
        )

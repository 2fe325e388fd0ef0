"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion. Criteria 3-8 substitute synthetic-ground-truth checks for the
published reference numbers, which need a hosted engine and retired data
exports (criterion 2 states this explicitly).
"""

import contextlib
import datetime as dt
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialtwin import baseline as bl
from socialtwin.aggregate import aggregate_mean
from socialtwin.calibrate import (
    CategoryCalibration,
    FitConfig,
    fit_calibration,
    pair_by_date,
)
from socialtwin.cli import main
from socialtwin.cognition import EngineConfig, ResponseCache, build_engine, parse_response
from socialtwin.counterfactual import (
    AblationInputs,
    Scenario,
    check_boundedness,
    check_monotonicity,
    run_ablation_suite,
    run_counterfactuals,
)
from socialtwin.evaluation import compare, improvement_pct, macro_average, rmse_with_coverage
from socialtwin.ingest import DateRange, TemporalSplit
from socialtwin.persona import sample_population
from socialtwin.schema import CategorySchema
from gbm_reference import train_losses
from synthetic import (
    default_oracle_params,
    default_schema,
    make_synthetic_dataset,
    stringency_path,
)
from socialtwin.twin import DigitalTwin

from conftest import SPLIT_18MO, write_run_workspace
from test_counterfactual import sampled_artifacts
from test_evaluation import REFERENCE_GBM, REFERENCE_TWIN, make_report

ALPHA_REL_TOL = 0.01
BETA_RANGE_WIDTH = 400.0  # default search range (-200, 200)
BETA_TOL = 0.01 * BETA_RANGE_WIDTH


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_reference_table_arithmetic():
    with criterion(1, "reference-column macro averages and improvement percentages"):
        assert macro_average(REFERENCE_TWIN) == pytest.approx(25.75, abs=0.01)
        assert macro_average(REFERENCE_GBM) == pytest.approx(32.47, abs=0.01)
        result = compare(make_report(REFERENCE_TWIN, "twin"), make_report(REFERENCE_GBM, "gbm"))
        assert result.macro_improvement == pytest.approx(20.7, abs=0.1)
        assert result.improvement["workplaces"] == pytest.approx(89.3, abs=0.1)


def test_criterion_2_absolute_reference_errors_out_of_desk_scope():
    with criterion(2, "absolute reference errors need a hosted engine; substituted by 3-8"):
        # The reference per-category RMSE levels were produced with a paid
        # hosted model, an unpublished persona specification, and data
        # exports that have since been discontinued. They are not
        # reproducible in this hermetic environment; criteria 3-8 verify the
        # same pipeline properties against synthetic ground truth instead.
        assert True


def test_criterion_3_calibration_recovery():
    with criterion(3, "calibration recovers known affine maps; noisy fit near noise floor"):
        ds = make_synthetic_dataset(days=365)
        pairs = pair_by_date(ds.aggregates, ds.observations)
        assert len(pairs) == 365
        # precondition: clipping never active on the generated data
        for _, obs in pairs:
            for key, value in obs.items():
                assert -100.0 < value < 200.0
        fitted, report = fit_calibration(pairs, FitConfig(trials=200, seed=17))
        for key in ds.schema.keys:
            cal = fitted.per_category[key]
            assert abs(cal.alpha - ds.true_alpha[key]) <= ALPHA_REL_TOL * abs(ds.true_alpha[key])
            assert abs(cal.beta - ds.true_beta[key]) <= BETA_TOL
            assert report.per_category[key].best_loss <= 1e-3

        sigma = 2.0
        noisy = make_synthetic_dataset(days=365, noise_sigma=sigma, noise_seed=31)
        noisy_fit, _ = fit_calibration(
            pair_by_date(noisy.aggregates, noisy.observations), FitConfig(trials=200, seed=17)
        )
        held_out = make_synthetic_dataset(
            days=180, start=dt.date(2021, 4, 2), noise_sigma=sigma, noise_seed=97
        )
        for key in held_out.schema.keys:
            cal = noisy_fit.per_category[key]
            predictions = {
                d: {key: cal.apply(vec[key])} for d, vec in held_out.aggregates.items()
            }
            assert rmse_with_coverage(predictions, held_out.observations, key)[0] <= 1.2 * sigma


@pytest.fixture(scope="module")
def long_dataset():
    return make_synthetic_dataset(days=545)


@pytest.fixture(scope="module")
def eighteen_month_split():
    return TemporalSplit(
        train=DateRange(dt.date(2020, 4, 1), dt.date(2021, 3, 31)),
        validation=DateRange(dt.date(2021, 4, 1), dt.date(2021, 6, 30)),
        test=DateRange(dt.date(2021, 7, 1), dt.date(2021, 9, 27)),
    )


def test_criterion_4_ablation_ordering(long_dataset, eighteen_month_split):
    with criterion(4, "no-calibration >= 2x full macro-RMSE; single-persona >= full"):
        inputs = AblationInputs(
            policy=long_dataset.policy,
            observations=long_dataset.observations,
            split=eighteen_month_split,
            schema=long_dataset.schema,
            population_spec=long_dataset.population_spec,
            template=long_dataset.template,
            fit_config=FitConfig(trials=60, seed=13),
            population_seed=long_dataset.population_seed,
        )
        engine = build_engine(
            EngineConfig(kind="synthetic-oracle", oracle_params=long_dataset.oracle_params),
            long_dataset.schema,
        )
        cache = ResponseCache(None)
        aggregates, calibration = sampled_artifacts(inputs, engine, cache)
        variants = ("full", "no-calibration", "single-persona")
        report = run_ablation_suite(inputs, engine, cache, aggregates, calibration, variants)
        full, raw, single = (report.macro_rmse[v] for v in variants)
        assert raw >= 2.0 * full
        assert single >= full


def test_criterion_5_counterfactual_sanity(long_dataset):
    with criterion(5, "monotone responses for all categories; bounded stay-home response"):
        params = long_dataset.oracle_params
        # saturation precondition: stay-home logistic argument above 1.5 at
        # stringency 90 for every persona (minimum attribute offset -0.25)
        min_offset = sum(
            min(offsets.values()) for offsets in params.attribute_offsets.values()
        )
        assert (
            params.intercepts["stay_home"] + params.slopes["stay_home"] * 0.9 + min_offset
            >= 1.5
        )
        population = sample_population(long_dataset.population_spec, long_dataset.population_seed)
        twin = DigitalTwin(
            population=population,
            engine=build_engine(
                EngineConfig(kind="synthetic-oracle", oracle_params=params),
                long_dataset.schema,
            ),
            cache=ResponseCache(None),
            template=long_dataset.template,
            schema=long_dataset.schema,
        )
        pairs = pair_by_date(long_dataset.aggregates, long_dataset.observations)
        calibration, _ = fit_calibration(pairs[:120], FitConfig(trials=30, seed=3))
        date = dt.date(2020, 4, 15)
        scenarios = [
            Scenario("relaxed", date, 60.0),
            Scenario("baseline", date, 90.0),
            Scenario("extreme", date, 100.0),
        ]
        report = run_counterfactuals(twin, scenarios, calibration)
        for key in long_dataset.schema.keys:
            assert report.monotonic[key] is True, key
        assert report.bounded["stay_home"] is True


def test_criterion_6_baseline_correctness():
    with criterion(6, "persistence and boosted-tree baseline behavior"):
        history = {dt.date(2021, 1, 1) + dt.timedelta(days=i): {"k": -7.0} for i in range(60)}
        targets = list(history)[1:]
        predictions = bl.persistence_forecast(history, targets)
        errors = [predictions[d]["k"] - history[d]["k"] for d in targets]
        assert float(np.sqrt(np.mean(np.square(errors)))) == 0.0

        policy = stringency_path(dt.date(2020, 3, 4), 365 + 28, seed=7)
        dates = [r.date for r in policy][28:]
        X, _ = bl.build_feature_matrix(policy, dates)
        assert X.shape[0] == 365
        y = 2.0 * X[:, 0]
        model = bl.fit_gbm(X, {"k": y}, bl.GbmHyper(n_trees=200, max_depth=2), seed=0)
        checkpoints = train_losses(model, X, {"k": y}, "k", range(10, 201, 10))
        assert checkpoints[-1] <= 0.05 * float(np.std(y))
        assert all(b <= a + 1e-9 for a, b in zip(checkpoints, checkpoints[1:]))


def _run_pipeline(config_path, scenario_path):
    assert main(["simulate", "--config", str(config_path)]) == 0
    assert main(["calibrate", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path)]) == 0
    assert main(
        ["counterfactual", "--config", str(config_path), "--scenarios", str(scenario_path)]
    ) == 0


def test_criterion_7_determinism_and_leakage_guard(long_dataset, tmp_path):
    with criterion(7, "byte-identical reruns on a populated cache; overlap refused upfront"):
        config_path = write_run_workspace(
            tmp_path, long_dataset, SPLIT_18MO, fit_trials=25, gbm_trees=40
        )
        scenario_path = tmp_path / "scenarios.yaml"
        _run_pipeline(config_path, scenario_path)  # priming run populates the cache
        out = tmp_path / "out"

        _run_pipeline(config_path, scenario_path)
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        _run_pipeline(config_path, scenario_path)
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between identical runs"
        # both runs were fully cache-served
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["engine_calls"] == 0

        overlap_dir = tmp_path / "overlap"
        bad_split = {
            "train": {"start": "2020-04-01", "end": "2021-03-31"},
            "validation": {"start": "2021-03-01", "end": "2021-06-30"},
            "test": {"start": "2021-07-01", "end": "2021-09-27"},
        }
        bad_config = write_run_workspace(overlap_dir, long_dataset, bad_split)
        assert main(["simulate", "--config", str(bad_config)]) == 1
        assert not (overlap_dir / "out").exists()


# ------------------------------------------------------------------ criterion 8

SCHEMA = default_schema()
GENEROUS = settings(max_examples=1000, deadline=None)


@st.composite
def vector_batch(draw):
    """Rows of one (profiles x categories) array."""
    n_keys = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return [[draw(unit) for _ in range(n_keys)] for _ in range(n)]


@GENEROUS
@given(vector_batch(), st.randoms(use_true_random=False))
def _prop_aggregation_bounds_and_permutation(rows, rng):
    mean = aggregate_mean(rows, [1] * len(rows))
    for c, value in enumerate(mean):
        column = [row[c] for row in rows]
        assert min(column) <= value <= max(column)
    order = list(range(len(rows)))
    rng.shuffle(order)
    counts = [1 + (i % 3) for i in range(len(rows))]
    shuffled = aggregate_mean([rows[i] for i in order], [counts[i] for i in order])
    assert shuffled == aggregate_mean(rows, counts)


@GENEROUS
@given(
    st.floats(min_value=-500, max_value=500, allow_nan=False),
    st.floats(min_value=-250, max_value=250, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def _prop_clip_idempotent(alpha, beta, p):
    cal = CategoryCalibration(alpha, beta, -100.0, 200.0)
    once = cal.apply(p)
    assert min(cal.y_max, max(cal.y_min, once)) == once
    assert cal.y_min <= once <= cal.y_max


@GENEROUS
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=25,
    ),
    st.floats(min_value=0.01, max_value=40),
)
def _prop_rmse_symmetry_and_scaling(pairs, scale):
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(len(pairs))]
    series_a = {d: {"k": a} for d, (a, _) in zip(dates, pairs)}
    series_b = {d: {"k": b} for d, (_, b) in zip(dates, pairs)}
    forward = rmse_with_coverage(series_b, series_a, "k")[0]
    backward = rmse_with_coverage(series_a, series_b, "k")[0]
    assert forward == pytest.approx(backward, abs=1e-12)
    # scaling both sides scales the RMSE and leaves improvement unchanged
    scaled_obs = {d: {"k": a * scale} for d, (a, _) in zip(dates, pairs)}
    scaled_pred = {d: {"k": b * scale} for d, (_, b) in zip(dates, pairs)}
    scaled = rmse_with_coverage(scaled_pred, scaled_obs, "k")[0]
    assert scaled == pytest.approx(forward * scale, rel=1e-9, abs=1e-9)
    if forward > 0:
        reference = 2.0 * forward + 1.0
        assert improvement_pct(reference * scale, forward * scale) == pytest.approx(
            improvement_pct(reference, forward), rel=1e-9
        )


@GENEROUS
@given(st.text(max_size=200))
def _prop_parse_totality(raw):
    try:
        row = parse_response(raw, SCHEMA)
    except Exception as exc:
        from socialtwin.errors import ParseError

        assert isinstance(exc, ParseError)
        return
    assert len(row) == len(SCHEMA.keys)
    assert all(0.0 <= v <= 1.0 for v in row)


def test_criterion_8_property_suites():
    with criterion(8, "generative property suites at 1000 cases each"):
        _prop_aggregation_bounds_and_permutation()
        _prop_clip_idempotent()
        _prop_rmse_symmetry_and_scaling()
        _prop_parse_totality()

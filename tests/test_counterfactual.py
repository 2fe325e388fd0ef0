import datetime as dt

import pytest

from socialtwin.calibrate import FitConfig, fit_calibration, pair_by_date
from socialtwin.cognition import EngineConfig, ResponseCache, build_engine
from socialtwin.counterfactual import (
    AblationInputs,
    CounterfactualReport,
    Scenario,
    check_boundedness,
    check_monotonicity,
    load_scenarios,
    run_ablation,
    run_counterfactuals,
    run_scenario,
    scenario_series,
)
from socialtwin.errors import ConfigError, DataError
from socialtwin.ingest import DateRange, TemporalSplit
from socialtwin.persona import sample_population
from socialtwin.twin import DigitalTwin

SHOCK_DATE = dt.date(2020, 4, 15)


@pytest.fixture(scope="module")
def fitted_twin(synth_dataset):
    population = sample_population(synth_dataset.population_spec, synth_dataset.population_seed)
    engine = build_engine(
        EngineConfig(kind="synthetic-oracle", oracle_params=synth_dataset.oracle_params),
        synth_dataset.schema,
    )
    twin = DigitalTwin(
        population=population,
        engine=engine,
        cache=ResponseCache(None),
        template=synth_dataset.template,
        schema=synth_dataset.schema,
    )
    pairs = pair_by_date(synth_dataset.aggregates, synth_dataset.observations)
    twin.calibration, _ = fit_calibration(pairs[:120], FitConfig(trials=25, seed=1))
    return twin


# ------------------------------------------------------------------ verdicts


def test_monotonicity_increasing_percentages():
    points = [(60.0, 73.0), (90.0, 93.0), (100.0, 95.0)]
    assert check_monotonicity(points, +1) is True


def test_monotonicity_violation():
    assert check_monotonicity([(60.0, 93.0), (90.0, 73.0), (100.0, 95.0)], +1) is False


def test_monotonicity_non_strict_boundary():
    assert check_monotonicity([(60.0, 80.0), (90.0, 80.0)], +1) is True


def test_monotonicity_needs_two_distinct_stringencies():
    with pytest.raises(DataError, match="distinct"):
        check_monotonicity([(60.0, 1.0), (60.0, 2.0)], +1)


def test_boundedness_diminishing_slopes():
    # secant slopes: 20/30 ~ 0.67 then 2/10 = 0.2
    assert check_boundedness([(60.0, 73.0), (90.0, 93.0), (100.0, 95.0)]) is True


def test_boundedness_linear_response_non_strict():
    assert check_boundedness([(0.0, 0.0), (50.0, 5.0), (100.0, 10.0)]) is True


def test_boundedness_accelerating_response_fails():
    # slopes 0.2 then 0.67
    assert check_boundedness([(60.0, 0.0), (90.0, 6.0), (100.0, 12.7)]) is False


def test_boundedness_degenerate_spacing():
    with pytest.raises(DataError, match="distinct"):
        check_boundedness([(60.0, 1.0), (60.0, 2.0), (90.0, 3.0)])
    with pytest.raises(DataError, match=">= 3"):
        check_boundedness([(60.0, 1.0), (90.0, 2.0)])


# ------------------------------------------------------------------ scenarios


def sweep():
    return [
        Scenario("relaxed", SHOCK_DATE, 60.0),
        Scenario("baseline", SHOCK_DATE, 90.0),
        Scenario("extreme", SHOCK_DATE, 100.0),
    ]


def test_scenario_override_bounds():
    with pytest.raises(ConfigError, match="\\[0, 100\\]"):
        Scenario("bad", SHOCK_DATE, 150.0)


def test_run_scenario_requires_calibration(synth_dataset):
    population = sample_population(synth_dataset.population_spec, 1)
    twin = DigitalTwin(
        population=population,
        engine=build_engine(
            EngineConfig(kind="synthetic-oracle", oracle_params=synth_dataset.oracle_params),
            synth_dataset.schema,
        ),
        cache=ResponseCache(None),
        template=synth_dataset.template,
        schema=synth_dataset.schema,
    )
    with pytest.raises(ConfigError, match="fitted calibration"):
        run_scenario(twin, sweep()[0])


def test_override_equal_to_actual_gives_zero_delta(fitted_twin, synth_dataset):
    actual = next(r for r in synth_dataset.policy if r.date == SHOCK_DATE)
    scenarios = [
        Scenario("baseline", SHOCK_DATE, actual.stringency),
        Scenario("same", SHOCK_DATE, actual.stringency),
    ]
    report = run_counterfactuals(fitted_twin, scenarios, baseline="baseline")
    assert all(v == 0.0 for v in report.metric_deltas["same"].values())
    assert all(v == 0.0 for v in report.aggregate_deltas["baseline"].values())


def test_sweep_monotonic_in_configured_directions(fitted_twin):
    report = run_counterfactuals(fitted_twin, sweep())
    assert report.baseline_name == "baseline"
    assert all(report.monotonic.values())
    assert report.bounded["stay_home"] is True


def test_extreme_pair_has_maximal_stay_home_spread(fitted_twin):
    scenarios = [Scenario(f"s{s}", SHOCK_DATE, float(s)) for s in (0, 25, 50, 75, 100)]
    results = [run_scenario(fitted_twin, s) for s in scenarios]
    values = {r.scenario.stringency_override: r.aggregate["stay_home"] for r in results}
    full_spread = abs(values[100.0] - values[0.0])
    for a in values:
        for b in values:
            assert abs(values[a] - values[b]) <= full_spread + 1e-12


def test_scenario_order_independence(fitted_twin):
    scenarios = sweep()
    forward = run_counterfactuals(fitted_twin, scenarios)
    backward = run_counterfactuals(fitted_twin, list(reversed(scenarios)))
    for fwd, bwd in zip(forward.results, backward.results):
        assert fwd.scenario == bwd.scenario
        assert fwd.aggregate == bwd.aggregate
        assert fwd.metrics == bwd.metrics


def test_delta_antisymmetry(fitted_twin):
    scenarios = sweep()
    vs_relaxed = run_counterfactuals(fitted_twin, scenarios, baseline="relaxed")
    vs_extreme = run_counterfactuals(fitted_twin, scenarios, baseline="extreme")
    d_re = vs_relaxed.metric_deltas["extreme"]
    d_er = vs_extreme.metric_deltas["relaxed"]
    for key in d_re:
        assert d_re[key] == pytest.approx(-d_er[key], abs=1e-12)


def test_report_serializes_both_probability_and_metric_columns(fitted_twin, schema):
    report = run_counterfactuals(fitted_twin, sweep())
    payload = report.to_dict()
    row = payload["scenarios"][0]
    assert "aggregate_probabilities" in row and "calibrated_metrics" in row
    text = report.to_text(schema)
    assert "stay_home" in text and "monotonic" in text


def test_load_scenarios_file(tmp_path):
    path = tmp_path / "scenarios.yaml"
    path.write_text(
        "- {name: relaxed, date: 2020-04-15, stringency_override: 60}\n"
        "- {name: extreme, date: 2020-04-15, stringency_override: 100}\n"
    )
    scenarios = load_scenarios(path)
    assert scenarios[0] == Scenario("relaxed", SHOCK_DATE, 60.0)
    with pytest.raises(DataError):
        load_scenarios(tmp_path / "missing.yaml")


# ------------------------------------------------------------------ ablations


@pytest.fixture(scope="module")
def ablation_inputs(synth_dataset):
    split = TemporalSplit(
        train=DateRange(dt.date(2020, 4, 1), dt.date(2020, 9, 30)),
        validation=DateRange(dt.date(2020, 10, 1), dt.date(2020, 12, 31)),
        test=DateRange(dt.date(2021, 1, 1), dt.date(2021, 3, 31)),
    )
    return AblationInputs(
        policy=synth_dataset.policy,
        observations=synth_dataset.observations,
        split=split,
        schema=synth_dataset.schema,
        population_spec=synth_dataset.population_spec,
        engine_config=EngineConfig(
            kind="synthetic-oracle", oracle_params=synth_dataset.oracle_params
        ),
        template=synth_dataset.template,
        fit_config=FitConfig(trials=25, seed=2),
        population_seed=synth_dataset.population_seed,
    )


def test_ablation_uncalibrated_much_worse_than_full(ablation_inputs):
    full, _ = run_ablation("full", ablation_inputs)
    raw, _ = run_ablation("no-calibration", ablation_inputs)
    assert raw > 2 * full
    assert raw > 1.0  # percent-unit error, not a rounding artifact


def test_ablation_variant_determinism(ablation_inputs):
    a, per_a = run_ablation("single-slope", ablation_inputs)
    b, per_b = run_ablation("single-slope", ablation_inputs)
    assert a == b and per_a == per_b


def test_ablation_unknown_variant(ablation_inputs):
    with pytest.raises(ConfigError, match="unknown ablation variant"):
        run_ablation("no-personas", ablation_inputs)


def test_ablation_single_persona_population_size(ablation_inputs, synth_dataset):
    from socialtwin.counterfactual import _variant_population

    assert len(_variant_population("single-persona", ablation_inputs)) == 1
    uniform = _variant_population("uniform-personas", ablation_inputs)
    assert len(uniform) == synth_dataset.population_spec.population_size
    assert len({tuple(sorted(p.attributes.items())) for p in uniform}) == 1


def test_ablation_suite_simulates_each_population_once(ablation_inputs, monkeypatch):
    from socialtwin.counterfactual import ABLATION_VARIANTS, run_ablation_suite

    expected = {variant: run_ablation(variant, ablation_inputs) for variant in ABLATION_VARIANTS}
    passes = []
    original = DigitalTwin.simulate_contexts

    def counting(self, contexts):
        passes.append(len(self.population))
        return original(self, contexts)

    monkeypatch.setattr(DigitalTwin, "simulate_contexts", counting)
    report = run_ablation_suite(ablation_inputs)
    # sampled (full, no-calibration, no-clipping, single-slope), uniform, single
    size = ablation_inputs.population_spec.population_size
    assert passes == [size, size, 1]
    for variant, (macro, per_category) in expected.items():
        assert report.macro_rmse[variant] == macro
        assert report.per_category[variant] == per_category

import dataclasses
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialtwin import counterfactual
from socialtwin.calibrate import (
    TPE_STARTUP_TRIALS,
    CalibrationParams,
    CategoryCalibration,
    FitConfig,
    _ols_line,
    _widen,
    apply_calibration,
    fit_calibration,
    fit_single_slope,
    pair_by_date,
)
from socialtwin.cognition import EngineConfig, ResponseCache, build_engine
from socialtwin.counterfactual import (
    _POPULATION_BUILDERS,
    ABLATION_VARIANTS,
    AblationInputs,
    AblationReport,
    Scenario,
    check_boundedness,
    check_monotonicity,
    load_scenarios,
    run_ablation,
    run_ablation_suite,
    run_counterfactuals,
)
from socialtwin.errors import ConfigError, DataError
from socialtwin.evaluation import evaluate_predictions
from socialtwin.ingest import DateRange, TemporalSplit
from socialtwin.persona import sample_population
from socialtwin.twin import DigitalTwin, SimulationLog, contexts_from_policy
from test_calibrate import _ref_clipped_rmse, _ref_pairs_from_training, _ref_run_search
from test_cognition import oracle_engine

SHOCK_DATE = dt.date(2020, 4, 15)


@pytest.fixture(scope="module")
def oracle_twin(synth_dataset):
    population = sample_population(synth_dataset.population_spec, synth_dataset.population_seed)
    engine = build_engine(
        EngineConfig(kind="synthetic-oracle", oracle_params=synth_dataset.oracle_params),
        synth_dataset.schema,
    )
    return DigitalTwin(
        population=population,
        engine=engine,
        cache=ResponseCache(None),
        template=synth_dataset.template,
        schema=synth_dataset.schema,
    )


@pytest.fixture(scope="module")
def sweep_calibration(synth_dataset):
    pairs = pair_by_date(synth_dataset.aggregates, synth_dataset.observations)
    return fit_calibration(pairs[:120], FitConfig(trials=25, seed=1))[0]


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


class GarbageEngine:
    replay_only = False
    digest = "model:garbage"
    retry_limit = 0
    call_count = 0

    def respond(self, prompt, persona, context):
        return "no json here"


def test_sweep_names_the_scenario_whose_every_cell_failed(oracle_twin, sweep_calibration):
    twin = dataclasses.replace(oracle_twin, engine=GarbageEngine(), cache=ResponseCache(None))
    with pytest.raises(DataError, match="scenario 'relaxed': every persona cell failed"):
        run_counterfactuals(twin, sweep(), sweep_calibration)


def test_override_equal_to_actual_gives_zero_delta(oracle_twin, sweep_calibration, synth_dataset):
    actual = next(r for r in synth_dataset.policy if r.date == SHOCK_DATE)
    scenarios = [
        Scenario("baseline", SHOCK_DATE, actual.stringency),
        Scenario("same", SHOCK_DATE, actual.stringency),
    ]
    report = run_counterfactuals(oracle_twin, scenarios, sweep_calibration)
    assert all(v == 0.0 for v in report.metric_deltas["same"].values())
    assert all(v == 0.0 for v in report.aggregate_deltas["baseline"].values())


def test_sweep_monotonic_in_configured_directions(oracle_twin, sweep_calibration):
    report = run_counterfactuals(oracle_twin, sweep(), sweep_calibration)
    assert report.baseline_name == "baseline"
    assert all(report.monotonic.values())
    assert report.bounded["stay_home"] is True


def test_extreme_pair_has_maximal_stay_home_spread(oracle_twin, sweep_calibration):
    scenarios = [Scenario(f"s{s}", SHOCK_DATE, float(s)) for s in (0, 25, 50, 75, 100)]
    results = run_counterfactuals(oracle_twin, scenarios, sweep_calibration).results
    values = {r.scenario.stringency_override: r.aggregate["stay_home"] for r in results}
    full_spread = abs(values[100.0] - values[0.0])
    for a in values:
        for b in values:
            assert abs(values[a] - values[b]) <= full_spread + 1e-12


def test_scenario_order_independence(oracle_twin, sweep_calibration):
    scenarios = sweep()
    forward = run_counterfactuals(oracle_twin, scenarios, sweep_calibration)
    backward = run_counterfactuals(oracle_twin, list(reversed(scenarios)), sweep_calibration)
    for fwd, bwd in zip(forward.results, backward.results):
        assert fwd.scenario == bwd.scenario
        assert fwd.aggregate == bwd.aggregate
        assert fwd.metrics == bwd.metrics


class PerScenarioTwin(DigitalTwin):
    """Reference: one simulation pass per scenario, as the sweep ran before
    all its scenarios shared one pass."""

    def simulate_contexts(self, contexts):
        return [DigitalTwin.simulate_contexts(self, [c])[0][0] for c in contexts], SimulationLog()


@settings(max_examples=20, deadline=None)
@given(
    # few dates and stringencies, so scenarios repeat contexts and share dates
    cells=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from([0.0, 45.0, 90.0, 100.0])),
        min_size=1,
        max_size=6,
    ),
    parallelism=st.sampled_from([1, 4]),
)
def test_one_pass_sweep_equals_per_scenario_reference(
    oracle_twin, sweep_calibration, cells, parallelism
):
    scenarios = [
        Scenario(f"s{i}", SHOCK_DATE + dt.timedelta(days=d), s) for i, (d, s) in enumerate(cells)
    ]
    one_pass = dataclasses.replace(oracle_twin, cache=ResponseCache(None), parallelism=parallelism)
    reference = PerScenarioTwin(**dict(vars(one_pass), cache=ResponseCache(None)))
    assert (
        run_counterfactuals(one_pass, scenarios, sweep_calibration).to_dict()
        == run_counterfactuals(reference, scenarios, sweep_calibration).to_dict()
    )


def sweep_with_baseline(name):
    """The relaxed, mid and extreme scenarios; ``name`` is marked the baseline."""
    return [
        Scenario(f"{n} baseline" if n == name else n, SHOCK_DATE, s)
        for n, s in (("relaxed", 60.0), ("mid", 90.0), ("extreme", 100.0))
    ]


def test_delta_antisymmetry(oracle_twin, sweep_calibration):
    vs_relaxed = run_counterfactuals(oracle_twin, sweep_with_baseline("relaxed"), sweep_calibration)
    vs_extreme = run_counterfactuals(oracle_twin, sweep_with_baseline("extreme"), sweep_calibration)
    assert vs_relaxed.baseline_name == "relaxed baseline"
    assert vs_extreme.baseline_name == "extreme baseline"
    d_re = vs_relaxed.metric_deltas["extreme"]
    d_er = vs_extreme.metric_deltas["relaxed"]
    for key in d_re:
        assert d_re[key] == pytest.approx(-d_er[key], abs=1e-12)


def test_sweep_without_a_baseline_name_uses_the_first_scenario_listed(
    oracle_twin, sweep_calibration
):
    scenarios = [s for s in sweep() if s.name != "baseline"][::-1]  # extreme, relaxed
    report = run_counterfactuals(oracle_twin, scenarios, sweep_calibration)
    assert report.baseline_name == "extreme"
    assert [r.scenario.name for r in report.results] == ["relaxed", "extreme"]
    assert all(v == 0.0 for v in report.metric_deltas["extreme"].values())


def test_report_serializes_both_probability_and_metric_columns(
    oracle_twin, sweep_calibration, schema
):
    report = run_counterfactuals(oracle_twin, sweep(), sweep_calibration)
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
        template=synth_dataset.template,
        fit_config=FitConfig(trials=25, seed=2),
        population_seed=synth_dataset.population_seed,
    )


# The suite as it ran before it scored the chain's artifacts: every variant
# population is simulated here, the sampled one included, full fits its own
# calibration and no-clipping searches. The tests compare the suite against it.


def searched_unclipped_fit(train_pairs, config, objective):
    """The unclipped fit as a search finds it: one search per category, as
    ``fit_calibration`` runs, or ("macro-average") one joint search over every
    category's (alpha, beta) on the mean of the per-category RMSEs, with the
    least-squares lines as trial 0."""
    unclipped = dataclasses.replace(config, clip_bounds=(-math.inf, math.inf))
    if objective == "per-category-independent":
        return fit_calibration(train_pairs, unclipped)[0]
    pairs = _ref_pairs_from_training(train_pairs)
    lines = [_ols_line(p, y)[:2] for p, y in pairs.values()]
    bounds = [
        _widen(value, search_range)[0]
        for alpha, beta in lines
        for value, search_range in ((alpha, config.alpha_range), (beta, config.beta_range))
    ]

    def macro_rmse(x):
        return float(np.mean([
            _ref_clipped_rmse(x[2 * i], x[2 * i + 1], p, y, unclipped.clip_bounds)
            for i, (p, y) in enumerate(pairs.values())
        ]))

    best, _, _ = _ref_run_search(
        macro_rmse, bounds, np.ravel(lines), config.trials, np.random.default_rng(config.seed)
    )
    return CalibrationParams({
        key: CategoryCalibration(float(best[2 * i]), float(best[2 * i + 1]), -math.inf, math.inf)
        for i, key in enumerate(pairs)
    })


def reference_run_ablation(variant, inputs, aggregates, objective="per-category-independent"):
    eval_range = inputs.split.test
    train_aggregates = {d: v for d, v in aggregates.items() if inputs.split.train.contains(d)}
    eval_aggregates = {d: v for d, v in aggregates.items() if eval_range.contains(d)}
    train_obs = {d: v for d, v in inputs.observations.items() if inputs.split.train.contains(d)}
    eval_obs = {d: v for d, v in inputs.observations.items() if eval_range.contains(d)}
    if variant == "no-calibration":
        predictions = {
            d: {k: 100.0 * p for k, p in v.items()} for d, v in eval_aggregates.items()
        }
    else:
        train_pairs = pair_by_date(train_aggregates, train_obs)
        if variant == "single-slope":
            params, _ = fit_single_slope(train_pairs, inputs.fit_config)
        elif variant == "no-clipping":
            params = searched_unclipped_fit(train_pairs, inputs.fit_config, objective)
        else:
            params, _ = fit_calibration(train_pairs, inputs.fit_config)
        predictions = {d: apply_calibration(v, params) for d, v in eval_aggregates.items()}
    report = evaluate_predictions(variant, "test", predictions, eval_obs, inputs.schema.keys)
    return report.macro_rmse, report.per_category_rmse


def reference_aggregates(inputs, engine, cache, population):
    """One population's aggregates over the train and test dates."""
    contexts = contexts_from_policy(inputs.policy, [inputs.split.train, inputs.split.test])
    twin = DigitalTwin(
        population=population,
        engine=engine,
        cache=cache,
        template=inputs.template,
        schema=inputs.schema,
    )
    vectors, _ = twin.simulate_contexts(contexts)
    return {c.date: v for c, v in zip(contexts, vectors) if v is not None}


def reference_ablation_suite(inputs, engine, cache, variants=ABLATION_VARIANTS):
    report = AblationReport()
    shared = {}
    for variant in variants:
        builder = _POPULATION_BUILDERS.get(variant, sample_population)
        if builder not in shared:
            population = builder(inputs.population_spec, inputs.population_seed)
            shared[builder] = reference_aggregates(inputs, engine, cache, population)
        macro, per_category = reference_run_ablation(variant, inputs, shared[builder])
        report.macro_rmse[variant] = macro
        report.per_category[variant] = per_category
    return report


def sampled_artifacts(inputs, engine, cache):
    """What ``simulate`` and ``calibrate`` hand the suite: the sampled
    population's aggregates and the full calibration fitted on their train
    dates, both built as the reference builds them."""
    population = sample_population(inputs.population_spec, inputs.population_seed)
    aggregates = reference_aggregates(inputs, engine, cache, population)
    train = {d: v for d, v in aggregates.items() if inputs.split.train.contains(d)}
    train_obs = {d: v for d, v in inputs.observations.items() if inputs.split.train.contains(d)}
    pairs = pair_by_date(train, train_obs)
    calibration, _ = fit_calibration(pairs, inputs.fit_config)
    return aggregates, calibration


def ablate(inputs, *variants):
    """The variants through one fresh oracle engine and in-memory cache."""
    engine, cache = oracle_engine(inputs.schema), ResponseCache(None)
    aggregates, calibration = sampled_artifacts(inputs, engine, cache)
    return run_ablation_suite(inputs, engine, cache, aggregates, calibration, variants)


def test_ablation_uncalibrated_much_worse_than_full(ablation_inputs):
    report = ablate(ablation_inputs, "full", "no-calibration")
    full, raw = report.macro_rmse["full"], report.macro_rmse["no-calibration"]
    assert raw > 2 * full
    assert raw > 1.0  # percent-unit error, not a rounding artifact


def test_ablation_variant_determinism(ablation_inputs):
    a = ablate(ablation_inputs, "single-slope")
    b = ablate(ablation_inputs, "single-slope")
    assert a.macro_rmse == b.macro_rmse and a.per_category == b.per_category


def test_ablation_unknown_variant(ablation_inputs):
    with pytest.raises(ConfigError, match="unknown ablation variant"):
        run_ablation("no-personas", ablation_inputs, {}, None)


def test_ablation_single_persona_population_size(ablation_inputs, synth_dataset):
    spec, seed = ablation_inputs.population_spec, ablation_inputs.population_seed
    assert len(_POPULATION_BUILDERS["single-persona"](spec, seed)) == 1
    uniform = _POPULATION_BUILDERS["uniform-personas"](spec, seed)
    assert len(uniform) == synth_dataset.population_spec.population_size
    assert len({tuple(sorted(p.attributes.items())) for p in uniform}) == 1


def test_ablation_suite_simulates_each_population_once(ablation_inputs, monkeypatch):
    expected = {variant: ablate(ablation_inputs, variant) for variant in ABLATION_VARIANTS}
    engine, cache = oracle_engine(ablation_inputs.schema), ResponseCache(None)
    aggregates, calibration = sampled_artifacts(ablation_inputs, engine, cache)
    passes = []
    fits = []
    original = DigitalTwin.simulate_contexts
    original_fit = counterfactual.fit_calibration

    def counting(self, contexts):
        passes.append((len(self.population), self.engine))
        return original(self, contexts)

    def counting_fit(*args):
        fits.append(args)
        return original_fit(*args)

    monkeypatch.setattr(DigitalTwin, "simulate_contexts", counting)
    monkeypatch.setattr(counterfactual, "fit_calibration", counting_fit)
    report = run_ablation_suite(ablation_inputs, engine, cache, aggregates, calibration)
    # only the uniform and single-persona populations; full keeps its given map
    size = ablation_inputs.population_spec.population_size
    assert passes == [(size, engine), (1, engine)]
    assert len(fits) == 2  # the two persona variants; no-clipping is closed-form
    for variant, alone in expected.items():
        assert report.macro_rmse[variant] == alone.macro_rmse[variant]
        assert report.per_category[variant] == alone.per_category[variant]


@settings(max_examples=10, deadline=None)
@given(
    variants=st.lists(st.sampled_from(ABLATION_VARIANTS), min_size=1, unique=True),
    population_seed=st.integers(0, 2**16),
    fit_seed=st.integers(0, 2**16),
)
def test_ablation_suite_equals_self_simulating_reference(
    ablation_inputs, variants, population_seed, fit_seed
):
    inputs = dataclasses.replace(
        ablation_inputs,
        population_seed=population_seed,
        fit_config=dataclasses.replace(ablation_inputs.fit_config, trials=10, seed=fit_seed),
    )
    engine, cache = oracle_engine(inputs.schema), ResponseCache(None)
    aggregates, calibration = sampled_artifacts(inputs, engine, cache)
    report = run_ablation_suite(inputs, engine, cache, aggregates, calibration, variants)
    reference = reference_ablation_suite(
        inputs, oracle_engine(inputs.schema), ResponseCache(None), variants
    )
    assert list(report.macro_rmse) == variants
    assert report.to_dict() == reference.to_dict()


@pytest.mark.parametrize("objective", ["per-category-independent", "macro-average"])
@pytest.mark.parametrize("sampler", ["tpe-style", "random"])
def test_no_clipping_scores_as_the_searched_fit(ablation_inputs, sampler, objective):
    """no-clipping fits the least-squares line without a search. It scores as
    the unclipped fit that the reference's search finds, whether that search
    ends in its uniform ("random") startup trials or 40 trials take it on into
    density-guided ("tpe-style") ones, and whether it fits each category
    alone or all of them jointly on their macro-average RMSE."""
    trials = {"random": 1 + TPE_STARTUP_TRIALS, "tpe-style": 40}[sampler]
    fit_config = dataclasses.replace(ablation_inputs.fit_config, trials=trials)
    inputs = dataclasses.replace(ablation_inputs, fit_config=fit_config)
    engine, cache = oracle_engine(inputs.schema), ResponseCache(None)
    aggregates, calibration = sampled_artifacts(inputs, engine, cache)
    report = run_ablation_suite(inputs, engine, cache, aggregates, calibration, ["no-clipping"])
    macro, per_category = reference_run_ablation("no-clipping", inputs, aggregates, objective)
    assert report.macro_rmse == {"no-clipping": macro}
    assert report.per_category == {"no-clipping": per_category}


def test_ablation_suite_is_bit_identical_at_any_parallelism(ablation_inputs, monkeypatch):
    engine, cache = oracle_engine(ablation_inputs.schema), ResponseCache(None)
    aggregates, calibration = sampled_artifacts(ablation_inputs, engine, cache)
    workers = []
    original = DigitalTwin.simulate_contexts

    def recording(self, contexts):
        workers.append(self.parallelism)
        return original(self, contexts)

    monkeypatch.setattr(DigitalTwin, "simulate_contexts", recording)
    reports = [
        run_ablation_suite(
            dataclasses.replace(ablation_inputs, parallelism=parallelism),
            oracle_engine(ablation_inputs.schema),
            ResponseCache(None),
            aggregates,
            calibration,
        )
        for parallelism in (1, 3)
    ]
    assert workers == [1, 1, 3, 3]
    assert reports[0] == reports[1]
    assert set(reports[0].simulation_logs) == {"uniform-personas", "single-persona"}


class ProfileBrokenEngine:
    """The oracle's answers, except garbage for one attribute profile on the
    given dates."""

    replay_only = False
    digest = "model:profile-broken"
    retry_limit = 0
    call_count = 0

    def __init__(self, schema, attributes, dates):
        self.oracle = oracle_engine(schema)
        self.attributes = attributes
        self.dates = dates

    def respond(self, prompt, persona, context):
        if persona.attributes == self.attributes and context.date in self.dates:
            return "no json here"
        return self.oracle.respond(prompt, persona, context)


def test_sweep_logs_each_excluded_persona_under_its_own_id(oracle_twin, sweep_calibration):
    attributes = oracle_twin.population[0].attributes
    members = [p.id for p in oracle_twin.population if p.attributes == attributes]
    engine = ProfileBrokenEngine(oracle_twin.schema, attributes, {SHOCK_DATE})
    twin = dataclasses.replace(oracle_twin, engine=engine, cache=ResponseCache(None))
    log = run_counterfactuals(twin, sweep(), sweep_calibration).simulation_log
    # one date, three scenarios: the profile fails in each
    assert [f["persona"] for f in log.failures] == members * 3
    assert {f["date"] for f in log.failures} == {SHOCK_DATE.isoformat()}
    assert [f["stringency"] for f in log.failures] == [
        s.stringency_override for s in sweep() for _ in members
    ]
    assert log.survivors == [(SHOCK_DATE, len(oracle_twin.population) - len(members))] * 3


def test_ablation_logs_each_excluded_persona_under_its_own_id(ablation_inputs):
    spec, seed = ablation_inputs.population_spec, ablation_inputs.population_seed
    broken_date = ablation_inputs.split.train.start
    attributes = spec.modal_persona().attributes
    engine = ProfileBrokenEngine(ablation_inputs.schema, attributes, {broken_date})
    aggregates, calibration = sampled_artifacts(
        ablation_inputs, oracle_engine(ablation_inputs.schema), ResponseCache(None)
    )
    report = run_ablation_suite(
        ablation_inputs, engine, ResponseCache(None), aggregates, calibration
    )
    assert set(report.simulation_logs) == {"uniform-personas", "single-persona"}
    for variant, log in report.simulation_logs.items():
        population = _POPULATION_BUILDERS[variant](spec, seed)
        excluded = [p.id for p in population if p.attributes == attributes]
        assert [f["persona"] for f in log.failures] == excluded, variant
        assert {f["date"] for f in log.failures} <= {broken_date.isoformat()}
        assert log.survivors_by_date[broken_date] == len(population) - len(excluded)
    # every uniform persona is the modal one, each logged under its own id
    uniform = report.simulation_logs["uniform-personas"].failures
    assert len({f["persona"] for f in uniform}) == spec.population_size

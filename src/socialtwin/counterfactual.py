"""What-if policy scenarios, plausibility verdicts, and the ablation matrix.

A scenario replays the normal pipeline on one date with the stringency
replaced by an override; deltas are taken against a designated baseline
scenario. Two verdicts summarize plausibility across a sweep ordered by
stringency: monotonicity (responses move in the configured direction) and
boundedness (per-unit response magnitudes do not grow toward the upper
extreme, operationalized as non-increasing consecutive secant slopes).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .calibrate import FitConfig, apply_calibration, fit_calibration, fit_single_slope, pair_by_date
from .cognition import BehaviorVector, EngineConfig, ResponseCache, SimContext, build_engine
from .config import _load_yaml
from .errors import ConfigError, DataError
from .evaluation import evaluate_predictions
from .ingest import ObservationSeries, PolicyRecord, TemporalSplit
from .persona import DemographicSpec, sample_population, uniform_population
from .schema import CategorySchema
from .twin import DigitalTwin, contexts_from_policy


@dataclass(frozen=True)
class Scenario:
    """A single policy override: run this date as if stringency had been X."""

    name: str
    date: dt.date
    stringency_override: float

    def __post_init__(self):
        if not 0.0 <= self.stringency_override <= 100.0:
            raise ConfigError(
                f"scenario {self.name!r}: stringency_override must be in [0, 100], "
                f"got {self.stringency_override}"
            )


@dataclass
class ScenarioResult:
    scenario: Scenario
    aggregate: BehaviorVector
    metrics: dict[str, float]


def run_scenario(twin: DigitalTwin, scenario: Scenario) -> ScenarioResult:
    """Run the normal pipeline with the stringency override substituted.

    Engine queries are cached under the overridden context like any other,
    so scenario runs are order-independent and replayable.
    """
    if twin.calibration is None:
        raise ConfigError("counterfactual runs need a fitted calibration")
    context = SimContext(date=scenario.date, stringency=scenario.stringency_override)
    aggregate = twin.simulate_context(context)
    if aggregate is None:
        raise DataError(f"scenario {scenario.name!r}: every persona cell failed")
    return ScenarioResult(
        scenario=scenario, aggregate=aggregate, metrics=twin.predict_metrics(aggregate)
    )


def scenario_series(
    results: Sequence[ScenarioResult], category: str, use: str = "aggregate"
) -> list[tuple[float, float]]:
    """(stringency, value) pairs for one category across scenario results."""
    if use == "aggregate":
        return [(r.scenario.stringency_override, r.aggregate[category]) for r in results]
    if use == "metrics":
        return [(r.scenario.stringency_override, r.metrics[category]) for r in results]
    raise ConfigError(f"unknown value source {use!r}")


def check_monotonicity(points: Sequence[tuple[float, float]], expected_direction: int) -> bool:
    """True iff values are non-strictly monotone in stringency in the
    expected direction across all pairs."""
    if expected_direction not in (-1, 1):
        raise ConfigError(f"expected_direction must be +1 or -1, got {expected_direction}")
    if len({s for s, _ in points}) < 2:
        raise DataError("monotonicity needs >= 2 scenarios with distinct stringency")
    ordered = sorted(points, key=lambda sv: sv[0])
    for (_, prev), (_, curr) in zip(ordered, ordered[1:]):
        if expected_direction * (curr - prev) < 0:
            return False
    return True


def check_boundedness(points: Sequence[tuple[float, float]]) -> bool:
    """True iff consecutive secant-slope magnitudes are non-increasing
    toward the upper stringency extreme (diminishing marginal response)."""
    stringencies = [s for s, _ in points]
    if len(set(stringencies)) != len(stringencies):
        raise DataError("boundedness needs pairwise distinct stringencies")
    if len(points) < 3:
        raise DataError("boundedness needs >= 3 scenarios")
    ordered = sorted(points, key=lambda sv: sv[0])
    slopes = [
        (v2 - v1) / (s2 - s1) for (s1, v1), (s2, v2) in zip(ordered, ordered[1:])
    ]
    for prev, curr in zip(slopes, slopes[1:]):
        if abs(curr) > abs(prev) * (1 + 1e-9) + 1e-12:
            return False
    return True


@dataclass
class CounterfactualReport:
    """Scenario sweep outcomes plus per-category verdicts."""

    results: list[ScenarioResult]
    baseline_name: str
    metric_deltas: dict[str, dict[str, float]] = field(default_factory=dict)
    aggregate_deltas: dict[str, dict[str, float]] = field(default_factory=dict)
    monotonic: dict[str, bool] = field(default_factory=dict)
    bounded: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_name,
            "scenarios": [
                {
                    "name": r.scenario.name,
                    "date": r.scenario.date.isoformat(),
                    "stringency": r.scenario.stringency_override,
                    "aggregate_probabilities": r.aggregate.to_dict(),
                    "calibrated_metrics": r.metrics,
                    "metric_delta_vs_baseline": self.metric_deltas.get(r.scenario.name, {}),
                    "aggregate_delta_vs_baseline": self.aggregate_deltas.get(
                        r.scenario.name, {}
                    ),
                }
                for r in self.results
            ],
            "verdicts": {"monotonic": self.monotonic, "bounded": self.bounded},
        }

    def to_text(self, schema: CategorySchema) -> str:
        lines = [f"counterfactual sweep (baseline scenario: {self.baseline_name})", ""]
        keys = [c.key for c in schema]
        header = f"{'scenario':<16} {'stringency':>10}"
        for key in keys:
            header += f" {key + ' %':>22}"
        lines.append(header)
        lines.append("(each cell: aggregated probability x 100 / calibrated metric)")
        for r in self.results:
            row = f"{r.scenario.name:<16} {r.scenario.stringency_override:>10g}"
            for key in keys:
                cell = f"{100 * r.aggregate[key]:.1f} / {r.metrics[key]:.1f}"
                row += f" {cell:>22}"
            lines.append(row)
        lines.append("")
        for key in keys:
            direction = "+" if schema.get(key).direction > 0 else "-"
            monotonic = self.monotonic.get(key, "n/a")
            bounded = self.bounded.get(key, "n/a")
            lines.append(f"{key}: monotonic({direction}) = {monotonic}, bounded = {bounded}")
        return "\n".join(lines)


def run_counterfactuals(
    twin: DigitalTwin, scenarios: Sequence[Scenario], baseline: str | None = None
) -> CounterfactualReport:
    """Run a scenario sweep and assemble deltas and verdicts.

    The baseline scenario is the one named ``baseline`` (case-insensitive
    substring match) unless an explicit name is given; failing both, the
    first scenario listed. Results are ordered by stringency.
    """
    if not scenarios:
        raise ConfigError("no scenarios given")
    results = [run_scenario(twin, s) for s in scenarios]
    results.sort(key=lambda r: r.scenario.stringency_override)

    baseline_result = None
    if baseline is not None:
        for r in results:
            if r.scenario.name == baseline:
                baseline_result = r
        if baseline_result is None:
            raise ConfigError(f"baseline scenario {baseline!r} not in sweep")
    else:
        for r in results:
            if "baseline" in r.scenario.name.lower():
                baseline_result = r
                break
        if baseline_result is None:
            baseline_result = next(
                r for r in results if r.scenario.name == scenarios[0].name
            )

    report = CounterfactualReport(results=results, baseline_name=baseline_result.scenario.name)
    for r in results:
        report.metric_deltas[r.scenario.name] = {
            k: r.metrics[k] - baseline_result.metrics[k] for k in r.metrics
        }
        report.aggregate_deltas[r.scenario.name] = {
            k: r.aggregate[k] - baseline_result.aggregate[k] for k in r.aggregate.categories
        }
    schema_directions = {c.key: c.direction for c in twin.schema}
    distinct = len({r.scenario.stringency_override for r in results})
    for key in twin.schema.keys:
        points = scenario_series(results, key)
        if distinct >= 2:
            report.monotonic[key] = check_monotonicity(points, schema_directions[key])
        if distinct >= 3 and distinct == len(results):
            report.bounded[key] = check_boundedness(points)
    return report


def load_scenarios(path: str | Path) -> list[Scenario]:
    """Read a scenario sweep file: a YAML list of {name, date, stringency_override}."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"scenario file not found: {p}")
    raw = _load_yaml(p)
    if not isinstance(raw, list):
        raise ConfigError(f"{p}: scenario file must be a list of scenarios")

    def field(entry: dict, key: str, parse):
        try:
            return parse(entry[key])
        except KeyError:
            raise ConfigError(f"{p}: scenario entry missing key {key!r}: {entry}") from None
        except (TypeError, ValueError):
            raise ConfigError(f"{p}: scenario entry has invalid {key} {entry[key]!r}") from None

    scenarios = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ConfigError(
                f"{p}: scenario entry must be a mapping of name, date and "
                f"stringency_override, got {entry!r}"
            )
        scenarios.append(
            Scenario(
                name=field(entry, "name", str),
                date=field(
                    entry,
                    "date",
                    lambda v: v if isinstance(v, dt.date) else dt.date.fromisoformat(str(v)),
                ),
                stringency_override=field(entry, "stringency_override", float),
            )
        )
    return scenarios


# ---------------------------------------------------------------------------
# Ablation matrix
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = (
    "full",
    "no-calibration",
    "no-clipping",
    "single-slope",
    "uniform-personas",
    "single-persona",
)


@dataclass
class AblationInputs:
    """Everything one ablation variant needs to run the pipeline end to end."""

    policy: list[PolicyRecord]
    observations: ObservationSeries
    split: TemporalSplit
    schema: CategorySchema
    population_spec: DemographicSpec
    engine_config: EngineConfig
    template: str
    fit_config: FitConfig
    population_seed: int
    aggregation: str = "mean"
    eval_split: str = "test"


@dataclass
class AblationReport:
    macro_rmse: dict[str, float] = field(default_factory=dict)
    per_category: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"macro_rmse": self.macro_rmse, "per_category_rmse": self.per_category}

    def to_text(self) -> str:
        lines = [f"{'configuration':<20} {'macro-RMSE':>12}"]
        for variant in ABLATION_VARIANTS:
            if variant in self.macro_rmse:
                lines.append(f"{variant:<20} {self.macro_rmse[variant]:>12.2f}")
        return "\n".join(lines)


# The population builders of the variants that swap the population; every
# other variant shares the sampled one.
_POPULATION_BUILDERS = {
    "uniform-personas": lambda spec, seed: uniform_population(
        spec.modal_persona(), spec.population_size
    ),
    "single-persona": lambda spec, seed: sample_population(
        DemographicSpec(attributes=spec.attributes, population_size=1), seed
    ),
}


def _population_builder(variant: str):
    return _POPULATION_BUILDERS.get(variant, sample_population)


def _variant_population(variant: str, inputs: AblationInputs):
    return _population_builder(variant)(inputs.population_spec, inputs.population_seed)


def _simulate_variant(
    variant: str, inputs: AblationInputs, cache: ResponseCache | None
) -> dict[dt.date, BehaviorVector]:
    """Aggregates of the variant's population over the train and eval dates."""
    twin = DigitalTwin(
        population=_variant_population(variant, inputs),
        engine=build_engine(inputs.engine_config, inputs.schema),
        cache=cache if cache is not None else ResponseCache(None),
        template=inputs.template,
        schema=inputs.schema,
        aggregation=inputs.aggregation,
    )
    eval_range = inputs.split.range_for(inputs.eval_split)
    contexts = contexts_from_policy(inputs.policy, [inputs.split.train, eval_range])
    aggregates, _ = twin.simulate_contexts(contexts)
    return aggregates


def run_ablation(
    variant: str,
    inputs: AblationInputs,
    cache: ResponseCache | None = None,
    aggregates: dict[dt.date, BehaviorVector] | None = None,
) -> tuple[float, dict[str, float]]:
    """Run one pipeline variant; returns (macro RMSE, per-category RMSE).

    Variant semantics: no-calibration predicts 100 * aggregated probability
    with no fitted map; no-clipping fits the affine map with unbounded clip;
    single-slope shares one (alpha, beta) across categories; the persona
    variants swap the population and keep the full calibration. The
    variant's population is simulated unless its ``aggregates`` are given.
    """
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}; expected {ABLATION_VARIANTS}")
    if aggregates is None:
        aggregates = _simulate_variant(variant, inputs, cache)
    eval_range = inputs.split.range_for(inputs.eval_split)
    train_aggregates = {
        d: v for d, v in aggregates.items() if inputs.split.train.contains(d)
    }
    eval_aggregates = {d: v for d, v in aggregates.items() if eval_range.contains(d)}
    train_obs = inputs.observations.restrict(inputs.split.train)
    eval_obs = inputs.observations.restrict(eval_range)

    if variant == "no-calibration":
        predictions = {
            d: {k: 100.0 * v[k] for k in v.categories} for d, v in eval_aggregates.items()
        }
    else:
        train_pairs = pair_by_date(train_aggregates, train_obs)
        if variant == "single-slope":
            params, _ = fit_single_slope(train_pairs, inputs.fit_config)
        elif variant == "no-clipping":
            unclipped = replace(inputs.fit_config, clip_bounds=(-math.inf, math.inf))
            params, _ = fit_calibration(train_pairs, unclipped)
        else:
            params, _ = fit_calibration(train_pairs, inputs.fit_config)
        predictions = {d: apply_calibration(v, params) for d, v in eval_aggregates.items()}

    report = evaluate_predictions(variant, inputs.eval_split, predictions, eval_obs)
    return report.macro_rmse, report.per_category_rmse


def run_ablation_suite(
    inputs: AblationInputs,
    variants: Sequence[str] = ABLATION_VARIANTS,
    cache: ResponseCache | None = None,
) -> AblationReport:
    """Run each variant; the variants that keep the sampled population share
    one simulation of it."""
    report = AblationReport()
    shared: dict[object, dict[dt.date, BehaviorVector]] = {}
    for variant in variants:
        builder = _population_builder(variant)
        if builder not in shared:
            shared[builder] = _simulate_variant(variant, inputs, cache)
        macro, per_category = run_ablation(variant, inputs, aggregates=shared[builder])
        report.macro_rmse[variant] = macro
        report.per_category[variant] = per_category
    return report

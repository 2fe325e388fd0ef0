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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .calibrate import (
    CalibrationParams,
    FitConfig,
    apply_calibration,
    fit_calibration,
    fit_single_slope,
    fit_unclipped,
    pair_by_date,
)
from .cognition import ResponseCache, SimContext
from .config import _load_yaml
from .errors import ConfigError, DataError
from .evaluation import evaluate_predictions
from .ingest import PolicyRecord, Series, TemporalSplit
from .persona import DemographicSpec, sample_population, uniform_population
from .schema import CategorySchema
from .twin import DigitalTwin, SimulationLog, contexts_from_policy


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
    aggregate: dict[str, float]
    metrics: dict[str, float]


def scenario_series(results: Sequence[ScenarioResult], category: str) -> list[tuple[float, float]]:
    """(stringency, aggregated probability) pairs for one category across
    scenario results."""
    return [(r.scenario.stringency_override, r.aggregate[category]) for r in results]


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
    simulation_log: SimulationLog = field(default_factory=SimulationLog)

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_name,
            "scenarios": [
                {
                    "name": r.scenario.name,
                    "date": r.scenario.date.isoformat(),
                    "stringency": r.scenario.stringency_override,
                    "aggregate_probabilities": r.aggregate,
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
    twin: DigitalTwin, scenarios: Sequence[Scenario], calibration: CalibrationParams
) -> CounterfactualReport:
    """Run a scenario sweep and assemble deltas and verdicts.

    Each scenario replays its date with the stringency override substituted;
    all scenarios go through one simulation pass, and ``calibration`` maps
    each aggregate to metrics. Engine queries are cached under the
    overridden context like any other, so scenario runs are
    order-independent and replayable. The baseline scenario is the first one,
    in stringency order, whose name contains "baseline" (case-insensitive);
    failing that, the first scenario listed. Results are ordered by
    stringency. The pass's log goes into the report's ``simulation_log``.
    """
    if not scenarios:
        raise ConfigError("no scenarios given")
    contexts = [SimContext(date=s.date, stringency=s.stringency_override) for s in scenarios]
    aggregates, log = twin.simulate_contexts(contexts)
    results = []
    for scenario, aggregate in zip(scenarios, aggregates):
        if aggregate is None:
            raise DataError(f"scenario {scenario.name!r}: every persona cell failed")
        metrics = apply_calibration(aggregate, calibration)
        results.append(ScenarioResult(scenario, aggregate, metrics))
    results.sort(key=lambda r: r.scenario.stringency_override)

    baseline_result = next(
        (r for r in results if "baseline" in r.scenario.name.lower()),
        next(r for r in results if r.scenario.name == scenarios[0].name),
    )

    report = CounterfactualReport(
        results=results, baseline_name=baseline_result.scenario.name, simulation_log=log
    )
    for r in results:
        report.metric_deltas[r.scenario.name] = {
            k: r.metrics[k] - baseline_result.metrics[k] for k in r.metrics
        }
        report.aggregate_deltas[r.scenario.name] = {
            k: r.aggregate[k] - baseline_result.aggregate[k] for k in r.aggregate
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
    """Read a scenario sweep file: a YAML list of {name, date, stringency_override}.

    Names must be distinct, because deltas are reported by scenario name.
    """
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
        for key in entry:
            if key not in ("name", "date", "stringency_override"):
                raise ConfigError(f"{p}: scenario entry has unknown key {key!r}: {entry}")
        scenario = Scenario(
            name=field(entry, "name", str),
            date=field(
                entry,
                "date",
                # a YAML timestamp, which carries a time of day, is not a date
                lambda v: v if type(v) is dt.date else dt.date.fromisoformat(str(v)),
            ),
            stringency_override=field(entry, "stringency_override", float),
        )
        if any(s.name == scenario.name for s in scenarios):
            raise ConfigError(f"{p}: scenario name {scenario.name!r} is listed twice")
        scenarios.append(scenario)
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
    """The data and settings every ablation variant shares, the observations
    as the ``Series`` that ``load_observations_csv`` returns; the engine,
    cache, aggregates and calibration are given to ``run_ablation_suite``."""

    policy: list[PolicyRecord]
    observations: Series
    split: TemporalSplit
    schema: CategorySchema
    population_spec: DemographicSpec
    template: str
    fit_config: FitConfig
    population_seed: int
    parallelism: int = DigitalTwin.parallelism


@dataclass
class AblationReport:
    """Scores per variant, and the log of each variant population's pass."""

    macro_rmse: dict[str, float] = field(default_factory=dict)
    per_category: dict[str, dict[str, float]] = field(default_factory=dict)
    simulation_logs: dict[str, SimulationLog] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"macro_rmse": self.macro_rmse, "per_category_rmse": self.per_category}

    def to_text(self) -> str:
        lines = [f"{'configuration':<20} {'macro-RMSE':>12}"]
        for variant in ABLATION_VARIANTS:
            if variant in self.macro_rmse:
                lines.append(f"{variant:<20} {self.macro_rmse[variant]:>12.2f}")
        return "\n".join(lines)


# The population builders of the variants that swap the population; every
# other variant scores the sampled population's aggregates it is given.
_POPULATION_BUILDERS = {
    "uniform-personas": lambda spec, seed: uniform_population(
        spec.modal_persona(), spec.population_size
    ),
    "single-persona": lambda spec, seed: sample_population(
        DemographicSpec(attributes=spec.attributes, population_size=1), seed
    ),
}


def run_ablation(
    variant: str,
    inputs: AblationInputs,
    aggregates: Series,
    calibration: CalibrationParams,
) -> tuple[float, dict[str, float]]:
    """Score one pipeline variant on the test dates of the ``aggregates`` of
    its population; returns (macro RMSE, per-category RMSE).

    Variant semantics: full applies ``calibration``, the map fitted on the
    sampled population's train dates; no-calibration predicts 100 * aggregated
    probability with no fitted map; no-clipping is the unclipped map, each
    category's least-squares line (``fit_unclipped``); single-slope shares
    one (alpha, beta) across categories; the persona variants swap the
    population and fit the full calibration on its aggregates.
    """
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}; expected {ABLATION_VARIANTS}")
    test, train = inputs.split.test, inputs.split.train
    test_aggregates = test.restrict(aggregates)

    if variant == "no-calibration":
        predictions = {
            d: {k: 100.0 * p for k, p in v.items()} for d, v in test_aggregates.items()
        }
    else:
        if variant == "full":
            params = calibration
        else:
            train_pairs = pair_by_date(
                train.restrict(aggregates), train.restrict(inputs.observations)
            )
            if variant == "single-slope":
                params, _ = fit_single_slope(train_pairs, inputs.fit_config)
            elif variant == "no-clipping":
                params = fit_unclipped(train_pairs)
            else:
                params, _ = fit_calibration(train_pairs, inputs.fit_config)
        predictions = {d: apply_calibration(v, params) for d, v in test_aggregates.items()}

    report = evaluate_predictions(
        variant, "test", predictions, test.restrict(inputs.observations), inputs.schema.keys
    )
    return report.macro_rmse, report.per_category_rmse


def run_ablation_suite(
    inputs: AblationInputs,
    engine,
    cache: ResponseCache,
    aggregates: Series,
    calibration: CalibrationParams,
    variants: Sequence[str] = ABLATION_VARIANTS,
) -> AblationReport:
    """Score each variant; the chain's artifacts stand in for the sampled
    population.

    ``aggregates`` is the sampled population's series (``aggregates.json``)
    and ``calibration`` its fitted map (``calibration.json``): full,
    no-calibration, no-clipping and single-slope score those aggregates, and
    full applies that map without refitting it. Only the persona variants
    simulate, one pass each over the train and test dates through ``engine``
    and ``cache``; each pass's log goes into the report's ``simulation_logs``
    under its variant.
    """
    contexts = contexts_from_policy(inputs.policy, [inputs.split.train, inputs.split.test])
    report = AblationReport()
    for variant in variants:
        variant_aggregates = aggregates
        builder = _POPULATION_BUILDERS.get(variant)
        if builder is not None:
            twin = DigitalTwin(
                population=builder(inputs.population_spec, inputs.population_seed),
                engine=engine,
                cache=cache,
                template=inputs.template,
                schema=inputs.schema,
                parallelism=inputs.parallelism,
            )
            vectors, report.simulation_logs[variant] = twin.simulate_contexts(contexts)
            variant_aggregates = {c.date: v for c, v in zip(contexts, vectors) if v is not None}
        macro, per_category = run_ablation(variant, inputs, variant_aggregates, calibration)
        report.macro_rmse[variant] = macro
        report.per_category[variant] = per_category
    return report

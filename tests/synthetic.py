"""Synthetic fixtures with known ground truth.

Builds a varied stringency path, runs it through the deterministic logistic
engine over a sampled population, then maps the aggregated probabilities
through a known affine line (plus optional Gaussian noise) to produce
observations. Because the generating line and the response surface are both
known, recovery and ordering claims can be verified exactly.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from socialtwin.cognition import (
    EngineConfig,
    OracleParams,
    ResponseCache,
    SimContext,
    _oracle_probs,
    build_engine,
)
from socialtwin.config import load_profile, packaged_template
from socialtwin.ingest import PolicyRecord, Series
from socialtwin.persona import DemographicSpec, Persona, sample_population
from socialtwin.schema import CategorySchema
from socialtwin.twin import DigitalTwin, contexts_from_policy

# Ground-truth affine maps chosen so predictions stay strictly inside the
# default clip bounds [-100, 200] for probabilities in (0, 1).
TRUE_ALPHA = {
    "go_work": -120.0,
    "discretionary_outings": -100.0,
    "essentials": -60.0,
    "transit_use": -110.0,
    "outdoor_leisure": -90.0,
    "stay_home": 80.0,
}
TRUE_BETA = {
    "go_work": 30.0,
    "discretionary_outings": 20.0,
    "essentials": 10.0,
    "transit_use": 15.0,
    "outdoor_leisure": 25.0,
    "stay_home": -5.0,
}


def default_schema() -> CategorySchema:
    return CategorySchema.from_dicts(load_profile("pandemic-uae")["categories"])


def default_population_spec(population_size: int = 10) -> DemographicSpec:
    spec = dict(load_profile("pandemic-uae")["population"])
    spec["population_size"] = population_size
    return DemographicSpec.from_dict(spec)


def default_oracle_params(noise_scale: float = 0.0) -> OracleParams:
    """Logistic surface with negative slopes for out-of-home categories and
    a saturated stay-home response (argument stays above 1.4 for stringency
    >= 60, so high-stringency secant slopes shrink)."""
    return OracleParams(
        intercepts={
            "go_work": 0.8,
            "discretionary_outings": -0.2,
            "essentials": 1.0,
            "transit_use": 0.2,
            "outdoor_leisure": 0.5,
            "stay_home": 0.4,
        },
        slopes={
            "go_work": -2.2,
            "discretionary_outings": -2.8,
            "essentials": -1.2,
            "transit_use": -2.5,
            "outdoor_leisure": -1.8,
            "stay_home": 2.2,
        },
        attribute_offsets={
            "risk_perception": {"Low": -0.25, "Medium": 0.0, "High": 0.3},
            "nationality": {"UAE National": 0.1, "Expatriate": 0.0},
        },
        noise_scale=noise_scale,
    )


def oracle_respond(
    params: OracleParams, persona: Persona, context: SimContext
) -> dict[str, float]:
    """The oracle's vector for one persona and context (``_oracle_probs``):
    what the synthetic-oracle engine's reply parses back to."""
    return _oracle_probs(params, persona, context, params.digest())


def stringency_path(
    start: dt.date, days: int, seed: int = 7, low: float = 10.0, high: float = 95.0
) -> list[PolicyRecord]:
    """A wiggly but deterministic daily stringency series in [low, high]."""
    rng = np.random.default_rng(seed)
    jitter = rng.normal(0.0, 4.0, days)
    records = []
    mid = (low + high) / 2
    amp = (high - low) / 2
    for t in range(days):
        s = mid + amp * 0.8 * math.sin(2 * math.pi * t / 90.0) + jitter[t]
        records.append(
            PolicyRecord(
                date=start + dt.timedelta(days=t),
                stringency=float(min(100.0, max(0.0, s))),
            )
        )
    return records


@dataclass
class SyntheticDataset:
    """Generated inputs plus the ground truth that produced them."""

    schema: CategorySchema
    population_spec: DemographicSpec
    oracle_params: OracleParams
    policy: list[PolicyRecord]
    observations: Series
    aggregates: Series  # noiseless truth, per date
    true_alpha: dict[str, float]
    true_beta: dict[str, float]
    template: str
    population_seed: int


def make_synthetic_dataset(
    days: int = 365,
    start: dt.date = dt.date(2020, 4, 1),
    population_size: int = 10,
    population_seed: int = 11,
    path_seed: int = 7,
    noise_sigma: float = 0.0,
    noise_seed: int = 23,
    lead_days: int = 28,
) -> SyntheticDataset:
    """Generate aligned policy and observation series from known ground truth.

    The policy series starts ``lead_days`` before the first observation so
    lagged features are available from the first target date onward.
    """
    schema = default_schema()
    spec = default_population_spec(population_size)
    oracle = default_oracle_params()
    template = packaged_template("pandemic_uae.txt")

    policy = stringency_path(start - dt.timedelta(days=lead_days), days + lead_days, seed=path_seed)
    target_policy = [r for r in policy if r.date >= start]

    population = sample_population(spec, population_seed)
    engine_config = EngineConfig(kind="synthetic-oracle", oracle_params=oracle)
    twin = DigitalTwin(
        population=population,
        engine=build_engine(engine_config, schema),
        cache=ResponseCache(None),
        template=template,
        schema=schema,
    )
    contexts = contexts_from_policy(target_policy)
    vectors, _ = twin.simulate_contexts(contexts)
    aggregates = {c.date: v for c, v in zip(contexts, vectors) if v is not None}

    rng = np.random.default_rng(noise_seed)
    observations = {}
    for date in sorted(aggregates):
        vec = aggregates[date]
        values = {}
        for key in schema.keys:
            y = TRUE_ALPHA[key] * vec[key] + TRUE_BETA[key]
            if noise_sigma > 0:
                y += float(rng.normal(0.0, noise_sigma))
            values[key] = y
        observations[date] = values
    return SyntheticDataset(
        schema=schema,
        population_spec=spec,
        oracle_params=oracle,
        policy=policy,
        observations=observations,
        aggregates=aggregates,
        true_alpha=dict(TRUE_ALPHA),
        true_beta=dict(TRUE_BETA),
        template=template,
        population_seed=population_seed,
    )


def write_observations_csv(
    series: Series,
    categories: Sequence[str],
    path: str | Path,
    category_columns: dict[str, str] | None = None,
    date_column: str = "date",
) -> None:
    """Write a series to CSV, one column per category in ``categories``
    (inverse of ``load_observations_csv``)."""
    colmap = category_columns or {c: c for c in categories}
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([date_column, *(colmap[c] for c in categories)])
        for date, values in series.items():
            writer.writerow([date.isoformat(), *(repr(values[c]) for c in categories)])

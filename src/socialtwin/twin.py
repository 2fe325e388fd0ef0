"""The composed pipeline: population -> cognitive engine -> aggregation,
with an optional fitted calibration on top.

A simulation pass works once per distinct prompt: personas with the same
ordered attributes form a profile, each (profile, context) pair is rendered,
keyed and looked up once, and the misses go to the engine through one worker
pool per pass. A pass takes any list of contexts, such as a command's dates
or a sweep's scenarios (which may share a date), and returns one result per
context in the same order. Aggregation expands each profile's vector back to
its members in persona order, so results are bit-identical at any query
parallelism. A prompt that cannot be parsed after retries excludes every
member of its profile; each is logged under its own id and context, and
the survivor count of every context goes into the run log so exclusions are
auditable.
"""

from __future__ import annotations

import datetime as dt
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .aggregate import aggregate_mean, aggregate_weighted
from .calibrate import CalibrationParams, apply_calibration
from .cognition import (
    BehaviorVector,
    ResponseCache,
    SimContext,
    ask_engine,
    cached_vector,
    render_prompt,
)
from .errors import ConfigError, ParseError
from .persona import Persona
from .schema import CategorySchema


def _group_profiles(population: Sequence[Persona]) -> tuple[list[int], list[Persona]]:
    """Each persona's profile index, and each profile's first member.

    A profile is the ordered attribute items; profiles are numbered in order
    of their first member.
    """
    index: dict[tuple, int] = {}
    profile_of: list[int] = []
    representatives: list[Persona] = []
    for persona in population:
        signature = tuple(persona.attributes.items())
        j = index.get(signature)
        if j is None:
            j = index[signature] = len(representatives)
            representatives.append(persona)
        profile_of.append(j)
    return profile_of, representatives


@dataclass
class SimulationLog:
    """Survivor counts and excluded cells for one simulation pass.

    ``survivors`` holds one (date, survivor count) pair per context, in the
    pass's context order; each failure entry names its date, stringency and
    persona.
    """

    survivors: list[tuple[dt.date, int]] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def survivors_by_date(self) -> dict[dt.date, int]:
        """Survivors per date, for passes whose contexts have distinct dates."""
        return dict(self.survivors)

    def to_dict(self) -> dict:
        return {
            "survivors_by_date": {
                d.isoformat(): n for d, n in sorted(self.survivors_by_date.items())
            },
            "failures": self.failures,
        }


@dataclass
class DigitalTwin:
    """Everything needed to turn a (date, stringency) context into metrics.

    ``aggregation: weighted`` weighs each persona by its ``weight``. Every
    population the CLI builds (``sample_population``, ``uniform_population``)
    has weight 1.0, and a weighted mean with unit weights is bit-identical to
    the plain mean, so from the CLI the two settings give the same aggregates.
    """

    population: list[Persona]
    engine: object
    cache: ResponseCache
    template: str
    schema: CategorySchema
    aggregation: str = "mean"  # or "weighted"
    calibration: CalibrationParams | None = None
    parallelism: int = 1

    def __post_init__(self):
        if self.aggregation not in ("mean", "weighted"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if not self.population:
            raise ConfigError("twin needs a nonempty population")

    def _ask(self, key, prompt, persona, context):
        try:
            return ask_engine(self.engine, key, prompt, persona, context, self.schema, self.cache)
        except ParseError as exc:
            return exc

    def _outcome(self, failed: dict, in_flight: dict, pool, persona: Persona, context: SimContext):
        """The vector, ParseError or Future for one (profile, context) pair.

        ``failed`` maps the cache keys of this pass's failed prompts to their
        ParseError and ``in_flight`` the keys submitted for the current date
        to their Future; answered prompts are found in the cache. Each
        distinct prompt therefore reaches the engine once.
        """
        prompt = render_prompt(persona, context, self.template)
        key = self.cache.make_key(self.engine.digest, prompt.text, self.schema.response_keys)
        outcome = failed.get(key) or in_flight.get(key)
        if outcome is not None:
            return outcome
        cached = self.cache.get(key)
        if cached is not None:
            return cached_vector(cached, self.schema)
        if pool is not None:
            outcome = in_flight[key] = pool.submit(self._ask, key, prompt, persona, context)
        else:
            outcome = self._ask(key, prompt, persona, context)
            if isinstance(outcome, ParseError):
                failed[key] = outcome
        return outcome

    def simulate_context(self, context: SimContext) -> BehaviorVector | None:
        """The aggregate for one context: a one-context ``simulate_contexts``.

        The benchmark's tracer (``perfbench/trace_layers.py``) wraps it by name.
        """
        return self.simulate_contexts([context])[0][0]

    def simulate_contexts(
        self, contexts: Sequence[SimContext]
    ) -> tuple[list[BehaviorVector | None], SimulationLog]:
        """One aggregated vector per context, in context order, and the log.

        A context whose every cell failed gets None (the caller excludes it).
        Contexts may repeat or share a date: results are aligned with the
        contexts, not keyed by date. Parse failures are logged per persona;
        transport or replay errors propagate.
        """
        profile_of, representatives = _group_profiles(self.population)
        log = SimulationLog()
        aggregates: list[BehaviorVector | None] = []
        failed: dict[str, ParseError] = {}
        pool = ThreadPoolExecutor(self.parallelism) if self.parallelism > 1 else None
        try:
            for context in contexts:
                in_flight: dict[str, Future] = {}
                per_profile = [
                    self._outcome(failed, in_flight, pool, p, context) for p in representatives
                ]
                resolved = [o.result() if isinstance(o, Future) else o for o in per_profile]
                # answered prompts are in the cache now; only failures are kept
                for key, future in in_flight.items():
                    if isinstance(future.result(), ParseError):
                        failed[key] = future.result()
                vectors: list[BehaviorVector] = []
                weights: list[float] = []
                for persona, j in zip(self.population, profile_of):
                    outcome = resolved[j]
                    if isinstance(outcome, ParseError):
                        log.failures.append(
                            {
                                "date": context.date.isoformat(),
                                "stringency": context.stringency,
                                "persona": persona.id,
                                "error": str(outcome),
                            }
                        )
                        continue
                    vectors.append(outcome)
                    weights.append(persona.weight)
                log.survivors.append((context.date, len(vectors)))
                if not vectors:
                    aggregates.append(None)
                elif self.aggregation == "weighted":
                    aggregates.append(aggregate_weighted(vectors, weights))
                else:
                    aggregates.append(aggregate_mean(vectors))
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        return aggregates, log

    def predict_metrics(self, aggregate: BehaviorVector) -> dict[str, float]:
        if self.calibration is None:
            raise ConfigError("twin has no fitted calibration; run calibration first")
        return apply_calibration(aggregate, self.calibration)


def contexts_from_policy(policy, date_ranges=None) -> list[SimContext]:
    """Build simulation contexts from policy records, optionally restricted
    to a set of date ranges."""
    contexts = []
    for record in policy:
        if date_ranges is not None and not any(r.contains(record.date) for r in date_ranges):
            continue
        contexts.append(SimContext(date=record.date, stringency=record.stringency))
    return contexts

"""The composed pipeline: population -> cognitive engine -> population
mean.

A simulation pass works once per distinct prompt: personas with the same
ordered attributes form a profile, and each distinct (profile, context)
cell is keyed and looked up once. The pass builds each profile's prompt
skeleton (the template filled in but for ``date`` and ``stringency``)
once, so a cell's key is one join and one hash; only a miss renders its
prompt. A pass takes any list of contexts, such as a command's dates or a
sweep's scenarios (which may share a date), and returns one result per
context in the same order.

The pass sends, then aggregates. It first walks the contexts and looks
each distinct prompt up once; the misses go to one worker pool in order of
first occurrence, at most twice ``parallelism`` outstanding (the pass waits
for the oldest before sending more). After the last reply it aggregates
each context over its profiles (``aggregate``): a profile weighs its member
count, and each result is the exact mean rounded once. Results are
therefore bit-identical at any query parallelism and in any persona order.
A prompt that cannot be parsed after retries excludes every member of its
profile; each is logged under its own id and context, and the survivor
count of every context goes into the run log so exclusions are auditable.
The first engine error, in context order, ends the pass: no request starts
after a request has failed, and queued ones are dropped.
"""

from __future__ import annotations

import datetime as dt
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .aggregate import aggregate_mean
from .cognition import (
    ResponseCache,
    SimContext,
    ask_engine,
    prompt_skeleton,
    render_prompt,
    skeleton_key,
)
from .errors import ConfigError, EngineError, ParseError
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
    """Everything needed to turn a (date, stringency) context into an
    aggregated behavior vector."""

    population: list[Persona]
    engine: object
    cache: ResponseCache
    template: str
    schema: CategorySchema
    parallelism: int = 1

    def __post_init__(self):
        if not self.population:
            raise ConfigError("twin needs a nonempty population")

    def simulate_context(self, context: SimContext) -> dict[str, float] | None:
        """The aggregate for one context: a one-context ``simulate_contexts``.

        The benchmark's tracer (``perfbench/trace_layers.py``) wraps it by name.
        """
        return self.simulate_contexts([context])[0][0]

    def simulate_contexts(
        self, contexts: Sequence[SimContext]
    ) -> tuple[list[dict[str, float] | None], SimulationLog]:
        """One aggregated vector (category -> probability, in schema order)
        per context, in context order, and the log.

        The pass resolves each distinct prompt once, sending its misses in
        order of first occurrence with at most twice ``parallelism``
        outstanding, and aggregates every context after the last reply. A
        context whose every cell failed gets None (the caller excludes it).
        Contexts may repeat or share a date: results are aligned with the
        contexts, not keyed by date. Parse failures are logged per persona;
        the first transport or replay error in context order propagates.
        """
        profile_of, representatives = _group_profiles(self.population)
        keyed = [
            prompt_skeleton(p, self.template).keyed(self.engine.digest, self.schema.response_keys)
            for p in representatives
        ]
        # each distinct prompt's row, ParseError, or the Future of its request
        outcome: dict[str, list[float] | ParseError | Future] = {}
        cells: list[list] = []  # each context's outcomes, by profile
        sent: deque[Future] = deque()
        first_error: list[EngineError] = []

        def ask(key, prompt, persona, context) -> list[float] | ParseError:
            """A miss's row of probabilities, or its ParseError; transport and
            replay errors raise, and no request starts after one has."""
            if first_error:
                raise EngineError(f"not sent after an earlier request failed: {first_error[0]}")
            try:
                return ask_engine(self.engine, key, prompt, persona, context, self.schema, self.cache)
            except ParseError as exc:
                return exc
            except EngineError as exc:
                first_error.append(exc)
                raise

        window = 2 * self.parallelism
        pool = ThreadPoolExecutor(self.parallelism) if self.parallelism > 1 else None
        try:
            for context in contexts:
                values = keyed[0].values(context)  # a template gives all the same slots
                outcomes = []
                for persona, skeleton in zip(representatives, keyed):
                    key = skeleton_key(skeleton, values)
                    resolved = outcome.get(key)
                    if resolved is None:
                        resolved = self.cache.get(key, self.schema)
                        if resolved is None:  # a miss, the only kind of cell that renders its prompt
                            prompt = render_prompt(persona, context, self.template)
                            if pool is None:
                                resolved = ask(key, prompt, persona, context)
                            else:
                                if len(sent) == window:
                                    sent.popleft().result()  # raises its EngineError
                                resolved = pool.submit(ask, key, prompt, persona, context)
                                sent.append(resolved)
                        outcome[key] = resolved
                    outcomes.append(resolved)
                cells.append(outcomes)
            for future in sent:  # in send order: the first error in context order raises
                future.result()
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        sizes = [0] * len(representatives)
        for j in profile_of:
            sizes[j] += 1
        no_row = [0.0] * len(self.schema.keys)
        log = SimulationLog()
        aggregates: list[dict[str, float] | None] = []
        for context, outcomes in zip(contexts, cells):
            outcomes = [o.result() if isinstance(o, Future) else o for o in outcomes]
            dead = {j for j, o in enumerate(outcomes) if isinstance(o, ParseError)}
            if dead:  # log every member of a failed profile, in persona order
                log.failures.extend(
                    {
                        "date": context.date.isoformat(),
                        "stringency": context.stringency,
                        "persona": persona.id,
                        "error": str(outcomes[j]),
                    }
                    for persona, j in zip(self.population, profile_of)
                    if j in dead
                )
            survivors = len(self.population) - sum(sizes[j] for j in dead)
            log.survivors.append((context.date, survivors))
            if not survivors:
                aggregates.append(None)
                continue
            # a failed profile keeps a row of zeros, with count 0
            rows = [no_row if j in dead else o for j, o in enumerate(outcomes)]
            counts = [0 if j in dead else n for j, n in enumerate(sizes)]
            probs = aggregate_mean(rows, counts)
            aggregates.append(dict(zip(self.schema.keys, probs)))
        return aggregates, log


def contexts_from_policy(policy, date_ranges=None) -> list[SimContext]:
    """Build simulation contexts from policy records, optionally restricted
    to a set of date ranges."""
    contexts = []
    for record in policy:
        if date_ranges is not None and not any(r.contains(record.date) for r in date_ranges):
            continue
        contexts.append(SimContext(date=record.date, stringency=record.stringency))
    return contexts

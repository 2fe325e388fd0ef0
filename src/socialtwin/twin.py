"""The composed pipeline: population -> cognitive engine -> population
mean.

A simulation pass works once per distinct prompt: personas with the same
ordered attributes form a profile, and each distinct (profile, context)
cell is looked up once. A pass takes any list of contexts, such as a
command's dates or a sweep's scenarios (which may share a date), and
returns one result per context in the same order.

The pass keys, resolves, then aggregates. It first keys every cell
(``cognition.cell_keys``): each profile's prompt skeleton (the template
filled in but for ``date`` and ``stringency``) is built and its head
hashed once per pass, and a cell hashes only the text from its first slot
on. Each distinct key gets a slot, in order of first occurrence, and a
(contexts x profiles) array holds every cell's slot. The cache then
unpacks the rows of all the pass's file records in one batch. Next the
pass resolves the slots in order: a hit is one ``get``; a miss renders its
prompt and goes to one worker pool, at most twice ``parallelism``
outstanding (the pass waits for the oldest before sending more). After the
last reply, every slot's row sits in one (slots x categories) table, and
each context aggregates its profiles' rows of it (``aggregate``): a
profile weighs its member count, and each result is the exact mean rounded
once. Results are therefore bit-identical at any query parallelism and in
any persona order. A prompt that cannot be parsed after retries excludes
every member of its profile; each is logged under its own id and context,
and the survivor count of every context goes into the run log so
exclusions are auditable. The first engine error, in context order, ends
the pass: no request starts after a request has failed, and queued ones
are dropped.
"""

from __future__ import annotations

import datetime as dt
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .aggregate import aggregate_mean
from .cognition import (
    ResponseCache,
    SimContext,
    ask_engine,
    cell_keys,
    prompt_skeleton,
    render_prompt,
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

        The pass keys every cell first, then resolves each distinct prompt
        once, in order of first occurrence: hits from the cache, misses sent
        with at most twice ``parallelism`` outstanding. After the last reply
        it aggregates every context from one table of the distinct rows. A
        context whose every cell failed gets None (the caller excludes it).
        Contexts may repeat or share a date: results are aligned with the
        contexts, not keyed by date. Parse failures are logged per persona;
        the first transport or replay error in context order propagates, as
        does a damaged cache record when the pass reaches it.
        """
        profile_of, representatives = _group_profiles(self.population)
        keyed = [
            prompt_skeleton(p, self.template).keyed(self.engine.digest, self.schema.response_keys)
            for p in representatives
        ]
        # one slot per distinct prompt, numbered in order of first occurrence,
        # and each cell's slot, by context and profile
        slot_of: dict[str, int] = {}
        cells = [slot_of.setdefault(key, len(slot_of)) for key in cell_keys(keyed, contexts)]
        cell_slots = np.array(cells, dtype=np.intp).reshape(len(contexts), len(keyed))
        first_cell = np.unique(cell_slots, return_index=True)[1].tolist()  # flat, by slot
        self.cache.unpack(slot_of, self.schema)

        no_row = [0.0] * len(self.schema.keys)
        rows = [no_row] * len(slot_of)  # each slot's row; a failed prompt keeps zeros
        failed: dict[int, ParseError] = {}
        sent: deque[Future] = deque()
        first_error: list[EngineError] = []

        def ask(slot, key, prompt, persona, context) -> None:
            """Resolve a miss into ``rows`` or ``failed``; transport and replay
            errors raise, and no request starts after one has."""
            if first_error:
                raise EngineError(f"not sent after an earlier request failed: {first_error[0]}")
            try:
                rows[slot] = ask_engine(self.engine, key, prompt, persona, context, self.schema, self.cache)
            except ParseError as exc:
                failed[slot] = exc
            except EngineError as exc:
                first_error.append(exc)
                raise

        window = 2 * self.parallelism
        pool = ThreadPoolExecutor(self.parallelism) if self.parallelism > 1 else None
        try:
            for slot, key in enumerate(slot_of):
                row = self.cache.get(key, self.schema)
                if row is not None:
                    rows[slot] = row
                    continue
                # a miss, the only kind of cell that renders its prompt
                i, j = divmod(first_cell[slot], len(keyed))
                persona, context = representatives[j], contexts[i]
                prompt = render_prompt(persona, context, self.template)
                if pool is None:
                    ask(slot, key, prompt, persona, context)
                    continue
                if len(sent) == window:
                    sent.popleft().result()  # raises its EngineError
                sent.append(pool.submit(ask, slot, key, prompt, persona, context))
            for future in sent:  # in send order: the first error in context order raises
                future.result()
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        table = np.array(rows, dtype=float)
        dead = np.zeros(len(slot_of), dtype=bool)
        dead[list(failed)] = True
        sizes = np.bincount(profile_of, minlength=len(keyed))
        log = SimulationLog()
        aggregates: list[dict[str, float] | None] = []
        for context, slots in zip(contexts, cell_slots):
            counts = sizes
            if failed and dead[slots].any():  # log every member of a failed profile, in persona order
                lost = dead[slots]
                log.failures.extend(
                    {
                        "date": context.date.isoformat(),
                        "stringency": context.stringency,
                        "persona": persona.id,
                        "error": str(failed[slots[j]]),
                    }
                    for persona, j in zip(self.population, profile_of)
                    if lost[j]
                )
                counts = np.where(lost, 0, sizes)  # a failed profile counts 0
            survivors = int(counts.sum())
            log.survivors.append((context.date, survivors))
            aggregates.append(
                dict(zip(self.schema.keys, aggregate_mean(table[slots], counts))) if survivors else None
            )
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

import dataclasses
import datetime as dt
import json
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialtwin.cognition import (
    EngineConfig,
    OracleParams,
    ResponseCache,
    SimContext,
    build_engine,
    render_prompt,
)
from socialtwin.errors import EngineError
from socialtwin.persona import Persona, sample_population
from socialtwin.schema import CategorySchema
from synthetic import default_oracle_params, default_population_spec, oracle_respond
from socialtwin import twin as twin_module
from socialtwin.twin import DigitalTwin, contexts_from_policy
from socialtwin.ingest import DateRange, PolicyRecord
from test_cognition import query


def make_twin(schema, template, parallelism=1, population=None, engine=None, cache=None):
    population = population or sample_population(default_population_spec(6), seed=2)
    engine = engine or build_engine(
        EngineConfig(kind="synthetic-oracle", oracle_params=default_oracle_params()), schema
    )
    return DigitalTwin(
        population=population,
        engine=engine,
        cache=ResponseCache(None) if cache is None else cache,
        template=template,
        schema=schema,
        parallelism=parallelism,
    )


def test_simulate_context_matches_direct_oracle_mean(schema, pandemic_template):
    twin = make_twin(schema, pandemic_template)
    context = SimContext(dt.date(2020, 5, 1), 75.0)
    aggregate = twin.simulate_context(context)
    params = default_oracle_params()
    expected = {
        key: sum(oracle_respond(params, p, context)[key] for p in twin.population)
        / len(twin.population)
        for key in schema.keys
    }
    for key in schema.keys:
        assert aggregate[key] == pytest.approx(expected[key], abs=1e-12)


def test_simulate_contexts_covers_policy_dates(schema, pandemic_template):
    twin = make_twin(schema, pandemic_template)
    policy = [
        PolicyRecord(dt.date(2020, 5, 1) + dt.timedelta(days=i), 50.0 + i) for i in range(5)
    ]
    contexts = contexts_from_policy(policy)
    aggregates, log = twin.simulate_contexts(contexts)
    assert [c.date for c in contexts] == [r.date for r in policy]
    assert len(aggregates) == len(contexts) and None not in aggregates
    assert log.survivors_by_date == {r.date: 6 for r in policy}


def test_contexts_from_policy_respects_ranges():
    policy = [
        PolicyRecord(dt.date(2020, 1, 1) + dt.timedelta(days=i), 10.0) for i in range(10)
    ]
    window = DateRange(dt.date(2020, 1, 3), dt.date(2020, 1, 5))
    contexts = contexts_from_policy(policy, [window])
    assert [c.date.day for c in contexts] == [3, 4, 5]


class HalfBrokenEngine:
    """Valid JSON for some personas, garbage for others: exercises exclusion."""

    replay_only = False
    digest = "model:half-broken"
    retry_limit = 1

    def __init__(self, schema, broken_ids):
        self.schema = schema
        self.broken_ids = broken_ids
        self.call_count = 0

    def respond(self, prompt, persona, context):
        self.call_count += 1
        if persona.id in self.broken_ids:
            return "no json here"
        return json.dumps({c.response_key: 0.5 for c in self.schema})


def test_failed_cells_excluded_and_logged(schema, pandemic_template):
    # distinct attributes per persona so prompts (and cache keys) differ
    population = [
        Persona(id=f"p{i}", attributes={"nationality": "Expatriate", "employment": f"sector{i}",
                                        "risk_perception": "Medium", "income": "Middle"})
        for i in range(4)
    ]
    engine = HalfBrokenEngine(schema, broken_ids={"p1", "p3"})
    twin = make_twin(schema, pandemic_template, population=population, engine=engine)
    [aggregate], log = twin.simulate_contexts([SimContext(dt.date(2020, 5, 1), 50.0)])
    assert aggregate is not None
    assert log.survivors_by_date[dt.date(2020, 5, 1)] == 2
    assert {f["persona"] for f in log.failures} == {"p1", "p3"}
    # mean over the two survivors only
    assert aggregate["stay_home"] == pytest.approx(0.5)


def test_all_cells_failed_gives_none(schema, pandemic_template):
    population = [
        Persona(id="p0", attributes={"nationality": "a", "employment": "b",
                                     "risk_perception": "c", "income": "d"})
    ]
    engine = HalfBrokenEngine(schema, broken_ids={"p0"})
    twin = make_twin(schema, pandemic_template, population=population, engine=engine)
    [aggregate], log = twin.simulate_contexts([SimContext(dt.date(2020, 5, 1), 50.0)])
    assert aggregate is None
    assert log.survivors_by_date[dt.date(2020, 5, 1)] == 0


def test_parallel_equals_serial(schema, pandemic_template):
    context = SimContext(dt.date(2020, 6, 1), 42.0)
    serial = make_twin(schema, pandemic_template, parallelism=1).simulate_context(context)
    parallel = make_twin(schema, pandemic_template, parallelism=4).simulate_context(context)
    assert serial == parallel


def test_replay_miss_propagates_as_engine_error(schema, pandemic_template):
    engine = build_engine(EngineConfig(kind="replay-cache", model_name="m"), schema)
    twin = make_twin(schema, pandemic_template, engine=engine)
    with pytest.raises(EngineError, match="replay cache miss"):
        twin.simulate_context(SimContext(dt.date(2020, 6, 1), 50.0))


# ------------------------------------------------------------- grouped pass


def _member_vectors(twin, context):
    """One render and query per persona-cell."""
    return [
        query(twin.engine, render_prompt(p, context, twin.template), p, context,
              twin.schema, twin.cache)
        for p in twin.population
    ]


def _naive_simulate(twin, contexts):
    """Reference: per persona-cell vectors, averaged in rationals over the
    members and rounded once."""
    out = []
    for context in contexts:
        vectors = _member_vectors(twin, context)
        out.append({
            key: float(sum(Fraction(v[key]) for v in vectors) / len(vectors))
            for key in twin.schema.keys
        })
    return out


def _sequential_mean(twin, context):
    """The per-persona sum in persona order that aggregation used before it
    became exact."""
    vectors = _member_vectors(twin, context)
    probs = {}
    for key in twin.schema.keys:
        total = 0.0
        for v in vectors:
            total += v[key]
        probs[key] = min(1.0, total / len(vectors))
    return probs


PROFILE_VALUES = {
    "nationality": ["UAE National", "Expatriate"],
    "employment": ["Services", "Construction", "Professional"],
    "risk_perception": ["Low", "High"],
    "income": ["Low", "High"],
}


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*(st.sampled_from(v) for v in PROFILE_VALUES.values())), min_size=1, max_size=25
    ),
    stringencies=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
)
def test_grouped_pass_equals_per_persona_loop_bit_for_bit(
    schema, pandemic_template, rows, stringencies
):
    # few attribute values, so most populations repeat profiles
    population = [
        Persona(id=f"p{i}", attributes=dict(zip(PROFILE_VALUES, values)))
        for i, values in enumerate(rows)
    ]
    params = OracleParams(
        intercepts=default_oracle_params().intercepts,
        slopes=default_oracle_params().slopes,
        attribute_offsets=default_oracle_params().attribute_offsets,
        noise_scale=0.3,
    )
    contexts = [
        SimContext(dt.date(2020, 5, 1) + dt.timedelta(days=i), s)
        for i, s in enumerate(stringencies)
    ]

    def fresh_twin():
        engine = build_engine(EngineConfig(kind="synthetic-oracle", oracle_params=params), schema)
        return make_twin(schema, pandemic_template, population=population, engine=engine)

    grouped, log = fresh_twin().simulate_contexts(contexts)
    expected = _naive_simulate(fresh_twin(), contexts)
    assert grouped == expected
    assert all(n == len(population) for n in log.survivors_by_date.values())


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*(st.sampled_from(v) for v in PROFILE_VALUES.values())), min_size=1, max_size=90
    ),
    stringency=st.floats(0.0, 100.0),
)
def test_exact_mean_within_stated_tolerance_of_the_sequential_sum(
    schema, pandemic_template, rows, stringency
):
    """Exact aggregation moved results off the old persona-order sum by at
    most its rounding error bound: with n members in [0, 1], the sequential
    sum is within (n - 1) * 2**-53 of the exact sum relative to it, and the
    division adds one rounding, so the means differ by at most (n + 1) * 2**-53
    relative."""
    population = [
        Persona(id=f"p{i}", attributes=dict(zip(PROFILE_VALUES, values)))
        for i, values in enumerate(rows)
    ]
    params = dataclasses.replace(default_oracle_params(), noise_scale=0.3)
    engine = build_engine(EngineConfig(kind="synthetic-oracle", oracle_params=params), schema)
    twin = make_twin(schema, pandemic_template, population=population, engine=engine)
    context = SimContext(dt.date(2020, 5, 1), stringency)
    exact = twin.simulate_context(context)
    sequential = _sequential_mean(twin, context)
    tolerance = (len(population) + 1) * 2.0**-53
    for key in schema.keys:
        assert abs(exact[key] - sequential[key]) <= tolerance * exact[key]


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*(st.sampled_from(v) for v in PROFILE_VALUES.values())), min_size=1, max_size=25
    ),
    order=st.randoms(use_true_random=False),
)
def test_shuffled_and_renumbered_population_gives_bit_identical_aggregates(
    schema, pandemic_template, rows, order
):
    # few attribute values, so profiles repeat and carry uneven counts
    population = [
        Persona(id=f"p{i}", attributes=dict(zip(PROFILE_VALUES, values)))
        for i, values in enumerate(rows)
    ]
    shuffled = list(population)
    order.shuffle(shuffled)
    renumbered = [
        Persona(id=f"q{i:03d}", attributes=p.attributes) for i, p in enumerate(shuffled)
    ]
    contexts = [SimContext(dt.date(2020, 5, 1), 35.0), SimContext(dt.date(2020, 5, 2), 80.0)]
    params = dataclasses.replace(default_oracle_params(), noise_scale=0.3)
    results = []
    for members in (population, renumbered):
        engine = build_engine(EngineConfig(kind="synthetic-oracle", oracle_params=params), schema)
        twin = make_twin(schema, pandemic_template, population=members, engine=engine)
        results.append(twin.simulate_contexts(contexts)[0])
    assert results[0] == results[1]


def test_engine_calls_equal_distinct_prompts_at_any_parallelism(schema, pandemic_template):
    population = sample_population(default_population_spec(120), seed=5)
    contexts = [
        SimContext(dt.date(2020, 5, 1) + dt.timedelta(days=i), 20.0 + 3 * i) for i in range(20)
    ]
    distinct = {
        render_prompt(p, c, pandemic_template).text for p in population for c in contexts
    }
    assert len(distinct) < len(population) * len(contexts)  # profiles repeat
    results = []
    for parallelism in (1, 4):
        twin = make_twin(schema, pandemic_template, parallelism=parallelism, population=population)
        aggregates, _ = twin.simulate_contexts(contexts)
        assert twin.engine.call_count == len(distinct)
        assert twin.cache.misses == len(distinct)
        results.append(aggregates)
    assert results[0] == results[1]


class PromptBrokenEngine(HalfBrokenEngine):
    """Garbage for prompts that mention a broken employment value."""

    lock = threading.Lock()

    def respond(self, prompt, persona, context):
        with self.lock:
            self.call_count += 1
        if any(value in prompt.text for value in self.broken_ids):
            return "no json here"
        return json.dumps({c.response_key: 0.25 for c in self.schema})


@pytest.mark.parametrize("parallelism", [1, 3])
def test_failed_profile_excludes_each_member_under_its_own_id(
    schema, pandemic_template, parallelism
):
    employment = ["sector0", "sectorX", "sector0", "sectorX", "sector1"]
    population = [
        Persona(id=f"p{i}", attributes={"nationality": "Expatriate", "employment": e,
                                        "risk_perception": "Medium", "income": "Middle"})
        for i, e in enumerate(employment)
    ]
    engine = PromptBrokenEngine(schema, broken_ids={"sectorX"})
    twin = make_twin(schema, pandemic_template, parallelism=parallelism,
                     population=population, engine=engine)
    contexts = [SimContext(dt.date(2020, 5, 1), 50.0), SimContext(dt.date(2020, 5, 2), 60.0)]
    aggregates, log = twin.simulate_contexts(contexts)
    assert [(f["date"], f["persona"]) for f in log.failures] == [
        ("2020-05-01", "p1"), ("2020-05-01", "p3"), ("2020-05-02", "p1"), ("2020-05-02", "p3"),
    ]
    assert all(n == 3 for n in log.survivors_by_date.values())
    assert aggregates[0]["stay_home"] == 0.25
    # three profiles per date; the broken one is asked 1 + retry_limit times
    assert engine.call_count == 2 * (2 + 1 + engine.retry_limit)


def test_replay_miss_propagates_from_worker_pool(schema, pandemic_template):
    engine = build_engine(EngineConfig(kind="replay-cache", model_name="m"), schema)
    twin = make_twin(schema, pandemic_template, parallelism=4, engine=engine)
    contexts = [SimContext(dt.date(2020, 6, 1) + dt.timedelta(days=i), 50.0) for i in range(5)]
    with pytest.raises(EngineError, match="replay cache miss"):
        twin.simulate_contexts(contexts)


@pytest.mark.parametrize("parallelism", [1, 3])
def test_failed_prompt_is_not_asked_again_later_in_the_pass(
    schema, pandemic_template, parallelism
):
    population = [
        Persona(id=f"p{i}", attributes={"nationality": "Expatriate", "employment": e,
                                        "risk_perception": "Medium", "income": "Middle"})
        for i, e in enumerate(["sector0", "sectorX"])
    ]
    engine = PromptBrokenEngine(schema, broken_ids={"sectorX"})
    twin = make_twin(schema, pandemic_template, parallelism=parallelism,
                     population=population, engine=engine)
    context = SimContext(dt.date(2020, 5, 1), 50.0)
    _, log = twin.simulate_contexts([context, SimContext(dt.date(2020, 5, 2), 60.0), context])
    assert [f["persona"] for f in log.failures] == ["p1", "p1", "p1"]
    # two distinct prompts per profile; a failed prompt keeps its outcome for the pass
    assert engine.call_count == 2 * (1 + 1 + engine.retry_limit)


def test_renamed_category_served_from_warm_cache(schema, pandemic_template):
    """Cache records store each row in response-key order, the order the key
    hashes; a category renamed under the same response key is still a hit,
    with its value in the same place of the row."""
    contexts = [SimContext(dt.date(2020, 5, 1), 75.0), SimContext(dt.date(2020, 5, 2), 40.0)]
    warm = make_twin(schema, pandemic_template)
    before, _ = warm.simulate_contexts(contexts)
    cache = warm.cache
    calls = warm.engine.call_count

    old_key = schema.categories[0].key
    renamed = CategorySchema(
        (dataclasses.replace(schema.categories[0], key="renamed"), *schema.categories[1:])
    )
    twin = make_twin(renamed, pandemic_template, cache=cache, engine=warm.engine)
    after, log = twin.simulate_contexts(contexts)
    persona = twin.population[0]
    vector = query(twin.engine, render_prompt(persona, contexts[0], pandemic_template),
                   persona, contexts[0], renamed, cache)
    assert warm.engine.call_count == calls
    assert not log.failures
    for aggregate, renamed_aggregate in zip(before, after):
        assert renamed_aggregate["renamed"] == aggregate[old_key]
        assert all(renamed_aggregate[k] == aggregate[k] for k in schema.keys if k != old_key)
    assert tuple(vector) == renamed.keys


class PartlyBrokenOracle:
    """The noisy oracle, except garbage for prompts naming a broken value."""

    replay_only = False
    retry_limit = 1

    def __init__(self, schema, broken):
        params = dataclasses.replace(default_oracle_params(), noise_scale=0.3)
        self.oracle = build_engine(EngineConfig(kind="synthetic-oracle", oracle_params=params), schema)
        self.digest = self.oracle.digest
        self.broken = broken

    def respond(self, prompt, persona, context):
        if any(value in prompt.text for value in self.broken):
            return "no json here"
        return self.oracle.respond(prompt, persona, context)


@settings(max_examples=30, deadline=None)
@given(
    employments=st.lists(st.sampled_from(PROFILE_VALUES["employment"]), min_size=1, max_size=12),
    broken=st.sets(st.sampled_from(PROFILE_VALUES["employment"]), max_size=2),
    # few dates and stringencies, so contexts repeat and share dates
    cells=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from([0.0, 37.5, 60.0, 100.0])),
        min_size=1,
        max_size=8,
    ),
    parallelism=st.sampled_from([1, 4]),
)
def test_one_pass_equals_one_pass_per_context_bit_for_bit(
    schema, pandemic_template, employments, broken, cells, parallelism
):
    population = [
        Persona(id=f"p{i}", attributes={"nationality": "Expatriate", "employment": e,
                                        "risk_perception": "High", "income": "Low"})
        for i, e in enumerate(employments)
    ]
    contexts = [SimContext(dt.date(2020, 5, 1) + dt.timedelta(days=d), s) for d, s in cells]

    def fresh_twin():
        return make_twin(schema, pandemic_template, parallelism=parallelism,
                         population=population, engine=PartlyBrokenOracle(schema, broken))

    one_pass, _ = fresh_twin().simulate_contexts(contexts)
    twin = fresh_twin()
    assert one_pass == [twin.simulate_context(c) for c in contexts]
    assert (None in one_pass) == (set(employments) <= broken)


class SlowOracle:
    """The oracle, a few milliseconds late, so a pass has misses outstanding."""

    replay_only = False
    retry_limit = 0
    lock = threading.Lock()

    def __init__(self, schema):
        self.oracle = build_engine(
            EngineConfig(kind="synthetic-oracle", oracle_params=default_oracle_params()), schema
        )
        self.digest = self.oracle.digest
        self.call_count = 0

    def respond(self, prompt, persona, context):
        with self.lock:
            self.call_count += 1
        time.sleep(0.005)
        return self.oracle.respond(prompt, persona, context)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_cache_counts_one_lookup_per_distinct_prompt(schema, pandemic_template, parallelism):
    """A context repeated in one pass, even while its misses are still
    outstanding, reuses their outcomes without looking them up again."""
    population = sample_population(default_population_spec(12), seed=2)
    profiles = len({tuple(p.attributes.items()) for p in population})
    first, second, third = (
        SimContext(dt.date(2020, 5, 1) + dt.timedelta(days=i), 30.0 + i) for i in range(3)
    )
    contexts = [first, second, first, third, second]
    engine = SlowOracle(schema)
    twin = make_twin(schema, pandemic_template, parallelism=parallelism,
                     population=population, engine=engine)
    aggregates, _ = twin.simulate_contexts(contexts)
    hits, misses = twin.cache.hits, twin.cache.misses
    assert hits + misses == misses == engine.call_count == profiles * 3
    assert aggregates[0] == aggregates[2] and aggregates[1] == aggregates[4]


class GatedOracle:
    """The oracle, answering only once ``release`` is set."""

    replay_only = False
    retry_limit = 0
    lock = threading.Lock()

    def __init__(self, schema):
        self.oracle = build_engine(
            EngineConfig(kind="synthetic-oracle", oracle_params=default_oracle_params()), schema
        )
        self.digest = self.oracle.digest
        self.release = threading.Event()
        self.started = 0

    def respond(self, prompt, persona, context):
        with self.lock:
            self.started += 1
        assert self.release.wait(timeout=30)
        return self.oracle.respond(prompt, persona, context)


def test_pass_renders_at_most_its_window_before_the_first_reply(
    schema, pandemic_template, monkeypatch
):
    parallelism = 2
    rendered = []

    def counting_render(persona, context, template):
        rendered.append(persona.id)
        return render_prompt(persona, context, template)

    monkeypatch.setattr(twin_module, "render_prompt", counting_render)
    population = sample_population(default_population_spec(12), seed=2)
    contexts = [SimContext(dt.date(2020, 5, 1) + dt.timedelta(days=i), 40.0) for i in range(3)]
    engine = GatedOracle(schema)
    twin = make_twin(schema, pandemic_template, parallelism=parallelism,
                     population=population, engine=engine)
    results = []
    thread = threading.Thread(target=lambda: results.append(twin.simulate_contexts(contexts)))
    thread.start()
    try:
        deadline = time.monotonic() + 10
        while engine.started < parallelism and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.2)  # room for the pass to run ahead, were it unbounded
        before_reply = len(rendered)
    finally:
        engine.release.set()
        thread.join(timeout=30)
    assert engine.started >= parallelism
    assert 0 < before_reply <= 2 * parallelism + 1
    assert not thread.is_alive()
    [(aggregates, log)] = results
    assert None not in aggregates and not log.failures
    assert len(rendered) == engine.started > 2 * parallelism + 1


class FailsLateFirst:
    """Context 0's request fails 50 ms after it starts; context 1's fails as
    soon as context 0's has started, so it fails first."""

    replay_only = False
    digest = "model:fails-late-first"
    retry_limit = 0

    def __init__(self, first_date):
        self.first_date = first_date
        self.first_started = threading.Event()

    def respond(self, prompt, persona, context):
        if context.date == self.first_date:
            self.first_started.set()
            time.sleep(0.05)
            raise EngineError("first context's request failed")
        assert self.first_started.wait(timeout=30)
        raise EngineError("second context's request failed")


def test_first_engine_error_in_context_order_is_raised(schema, pandemic_template):
    population = [
        Persona(id="p0", attributes={"nationality": "Expatriate", "employment": "Services",
                                     "risk_perception": "Low", "income": "Low"})
    ]
    contexts = [SimContext(dt.date(2020, 5, 1), 40.0), SimContext(dt.date(2020, 5, 2), 60.0)]
    twin = make_twin(schema, pandemic_template, parallelism=2, population=population,
                     engine=FailsLateFirst(contexts[0].date))
    with pytest.raises(EngineError) as raised:
        twin.simulate_contexts(contexts)
    assert "2020-05-01" in str(raised.value)
    assert "first context's request failed" in str(raised.value)

import datetime as dt
import fcntl
import hashlib
import json
import math
import os
import re
import string
import struct
import subprocess
import sys
import threading
import zlib
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socialtwin
from socialtwin.cognition import (
    EngineConfig,
    OracleParams,
    ResponseCache,
    SimContext,
    SyntheticOracleEngine,
    _oracle_probs,
    _record_line,
    ask_engine,
    build_engine,
    logistic,
    parse_response,
    parse_template,
    prompt_skeleton,
    render_prompt,
    skeleton_key,
)
from socialtwin.errors import ConfigError, DataError, EngineError, ParseError
from socialtwin.persona import Persona
from socialtwin.schema import Category, CategorySchema
from synthetic import default_oracle_params, oracle_respond

from conftest import loopback_server

PERSONA = Persona(
    id="p0",
    attributes={
        "nationality": "Expatriate",
        "employment": "Services",
        "risk_perception": "Medium",
        "income": "Middle",
    },
)
CONTEXT = SimContext(date=dt.date(2020, 4, 15), stringency=90.0)
# one category: the schema of the single-value rows the cache tests put
STAY_HOME = CategorySchema((Category("stay_home", "stay_home_prob", "stay", "Stay home", 1),))


def _key(name: str) -> str:
    """A cache key for ``name``: its SHA-256 hex digest, the form of every key
    ``make_key`` gives."""
    return hashlib.sha256(name.encode()).hexdigest()


K0, OTHER = _key("k0"), _key("other")  # the keys of the record tests' two lines


GOOD_JSON = (
    '{"go_work_prob":0.2,"discretionary_outings_prob":0.1,"essentials_prob":0.8,'
    '"transit_use_prob":0.1,"outdoor_leisure_prob":0.1,"stay_home_prob":0.93}'
)


# ------------------------------------------------------------------ rendering


def test_render_pandemic_template_substitutes_context(pandemic_template):
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    assert "Policy Stringency (0-100): 90" in prompt.text
    assert "Date: 2020-04-15" in prompt.text
    for value in PERSONA.attributes.values():
        assert value in prompt.text
    namesake = Persona(id="p9", attributes=dict(PERSONA.attributes))
    assert render_prompt(namesake, CONTEXT, pandemic_template).text == prompt.text


def test_render_without_placeholders_is_identity():
    template = "no placeholders here"
    assert render_prompt(PERSONA, CONTEXT, template).text == template


def test_render_unknown_placeholder_names_it():
    with pytest.raises(ConfigError, match="height"):
        render_prompt(PERSONA, CONTEXT, "persona height: {height}")


def test_render_fractional_stringency_kept_verbatim():
    context = SimContext(date=dt.date(2020, 4, 15), stringency=62.5)
    assert render_prompt(PERSONA, context, "s={stringency}").text == "s=62.5"


def test_render_persona_block_lists_attributes():
    text = render_prompt(PERSONA, CONTEXT, "{persona_block}").text
    assert "- nationality: Expatriate" in text
    assert "- income: Middle" in text


@given(
    attrs=st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        st.text(
            alphabet=st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_render_fidelity_each_value_where_placeholder_stood(attrs):
    persona = Persona(id="p", attributes=attrs)
    names = list(attrs)
    template = "|".join("{" + name + "}" for name in names)
    text = render_prompt(persona, CONTEXT, template).text
    assert text == "|".join(attrs[name] for name in names)


def reference_render(persona, context, template):
    """The text of ``render_prompt`` as it was before prompt skeletons: each
    placeholder resolved in turn, in the order date, stringency, a persona
    attribute, persona_block."""
    out = []
    for literal, name, _, _ in string.Formatter().parse(template):
        out.append(literal)
        if name == "date":
            out.append(context.date.isoformat())
        elif name == "stringency":
            out.append(format(context.stringency, "g"))
        elif name in persona.attributes:
            out.append(persona.attributes[name])
        elif name == "persona_block":
            out.append("\n".join(f"- {a}: {v}" for a, v in persona.attributes.items()))
        elif name is not None:
            raise KeyError(name)
    return "".join(out)


SKELETON_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)  # lone surrogates too
FIELDS = ["date", "stringency", "persona_block", "a", "b"]


@settings(max_examples=300, deadline=None)
@given(
    attrs=st.dictionaries(st.sampled_from(FIELDS), SKELETON_TEXT, min_size=1),
    pieces=st.lists(st.one_of(SKELETON_TEXT, st.sampled_from(FIELDS).map(lambda n: ("field", n)))),
    day=st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31)),
    stringency=st.floats(0.0, 100.0),
    digest=SKELETON_TEXT,
    response_keys=st.lists(SKELETON_TEXT, max_size=3),
)
@example(
    attrs={"date": "attr date", "stringency": "é\ud83d", "a": '{"q"}\n\\'},
    pieces=[("field", "date"), ("field", "date"), "\ude00", ("field", "stringency"),
            ("field", "stringency"), ("field", "persona_block"), ("field", "a"), "\U0001f600"],
    day=dt.date(2020, 4, 15), stringency=62.5, digest="oracle:x", response_keys=["a_prob"],
)
def test_skeleton_text_and_key_equal_the_rendered_prompt(
    attrs, pieces, day, stringency, digest, response_keys
):
    persona = Persona(id="p", attributes=attrs)
    context = SimContext(day, stringency)
    template = "".join(
        "{" + p[1] + "}" if isinstance(p, tuple) else p.replace("{", "{{").replace("}", "}}")
        for p in pieces
    )
    names = [p[1] for p in pieces if isinstance(p, tuple)]
    if set(names) - set(attrs) - {"date", "stringency", "persona_block"}:
        with pytest.raises(ConfigError, match="has no matching persona attribute"):
            prompt_skeleton(persona, template)
        return
    expected = reference_render(persona, context, template)
    assert render_prompt(persona, context, template).text == expected

    skeleton = prompt_skeleton(persona, template)
    assert len(skeleton.constants) == len(skeleton.slots) + 1
    assert list(skeleton.slots) == [n for n in names if n in ("date", "stringency")]
    keyed = skeleton.keyed(digest, tuple(response_keys))
    key = skeleton_key(keyed, skeleton.values(context))
    assert key == ResponseCache.make_key(digest, expected, tuple(response_keys))


def test_prompt_skeleton_is_built_once_per_template_and_profile(pandemic_template):
    namesake = Persona(id="p9", attributes=dict(PERSONA.attributes))
    skeleton = prompt_skeleton(PERSONA, pandemic_template)
    assert prompt_skeleton(namesake, pandemic_template) is skeleton
    assert skeleton.slots == ("date", "stringency")


@pytest.mark.parametrize("template", ["{ oops", "a } b", "{date!r}", "{stringency:.1f}", "{}"])
def test_template_placeholder_that_does_not_parse_is_a_config_error(template):
    with pytest.raises(ConfigError, match="template"):
        parse_template(template)
    with pytest.raises(ConfigError):
        render_prompt(PERSONA, CONTEXT, template)


# -------------------------------------------------------------------- parsing


def _parsed(raw: str, schema: CategorySchema) -> dict[str, float]:
    """The row ``parse_response`` gives, by category key."""
    row = parse_response(raw, schema)
    assert len(row) == len(schema.keys)
    return dict(zip(schema.keys, row))


def test_parse_full_response(schema):
    # the row holds the probabilities in category order
    reply = json.loads(GOOD_JSON)
    assert parse_response(GOOD_JSON, schema) == [reply[k] for k in schema.response_keys]
    assert _parsed(GOOD_JSON, schema)["stay_home"] == 0.93


def test_parse_all_zeros_valid(schema):
    raw = json.dumps({k: 0.0 for k in schema.response_keys})
    assert parse_response(raw, schema) == [0.0] * len(schema.keys)


def test_parse_missing_key_named(schema):
    obj = json.loads(GOOD_JSON)
    del obj["transit_use_prob"]
    with pytest.raises(ParseError, match="transit_use_prob"):
        parse_response(json.dumps(obj), schema)


def test_parse_json_wrapped_in_prose_and_fences(schema):
    raw = f"Sure! Here is my estimate:\n```json\n{GOOD_JSON}\n```\nHope that helps."
    assert _parsed(raw, schema)["stay_home"] == 0.93


def test_parse_picks_first_decodable_object(schema):
    raw = "weights {not json} then " + GOOD_JSON
    assert _parsed(raw, schema)["essentials"] == 0.8


def test_parse_no_json_object(schema):
    with pytest.raises(ParseError, match="no JSON object"):
        parse_response("I refuse to answer.", schema)


def test_parse_non_numeric_value(schema):
    obj = json.loads(GOOD_JSON)
    obj["go_work_prob"] = "high"
    with pytest.raises(ParseError, match="non-numeric"):
        parse_response(json.dumps(obj), schema)


def test_parse_clamps_small_overshoot_rejects_large(schema):
    obj = json.loads(GOOD_JSON)
    obj["go_work_prob"] = 1.0005
    obj["stay_home_prob"] = -0.0004
    probs = _parsed(json.dumps(obj), schema)
    assert probs["go_work"] == 1.0
    assert probs["stay_home"] == 0.0
    obj["go_work_prob"] = 1.01
    with pytest.raises(ParseError, match="outside"):
        parse_response(json.dumps(obj), schema)


def test_parse_rejects_boolean_values(schema):
    obj = json.loads(GOOD_JSON)
    obj["go_work_prob"] = True
    with pytest.raises(ParseError, match="non-numeric"):
        parse_response(json.dumps(obj), schema)


@given(st.text(max_size=300))
def test_parse_totality_never_returns_invalid_vector(schema, raw):
    try:
        row = parse_response(raw, schema)
    except ParseError:
        return
    assert len(row) == len(schema.keys)
    assert all(0.0 <= v <= 1.0 for v in row)


# --------------------------------------------------------------------- oracle


def flat_params(categories, a=0.0, b=1.0):
    signs = {k: (1 if k == "stay_home" else -1) for k in categories}
    return OracleParams(
        intercepts={k: a for k in categories},
        slopes={k: b * signs[k] for k in categories},
    )


def test_oracle_zero_params_give_half(schema):
    params = OracleParams(
        intercepts={k: 0.0 for k in schema.keys},
        slopes={k: 1e-12 * c.direction for k, c in zip(schema.keys, schema)},
    )
    vector = oracle_respond(params, PERSONA, SimContext(dt.date(2020, 1, 1), 0.0))
    assert all(abs(v - 0.5) < 1e-9 for v in vector.values())


def test_oracle_stay_home_slope_three_analytic():
    params = OracleParams(intercepts={"stay_home": 0.0}, slopes={"stay_home": 3.0})
    at_zero = oracle_respond(params, PERSONA, SimContext(dt.date(2020, 1, 1), 0.0))
    at_hundred = oracle_respond(params, PERSONA, SimContext(dt.date(2020, 1, 1), 100.0))
    assert at_zero["stay_home"] == pytest.approx(0.5, abs=1e-12)
    assert at_hundred["stay_home"] == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), abs=1e-12)
    assert at_hundred["stay_home"] == pytest.approx(0.9526, abs=1e-4)


def test_oracle_monotone_in_stringency(oracle_params):
    values = [
        oracle_respond(oracle_params, PERSONA, SimContext(dt.date(2020, 1, 1), s))
        for s in (60.0, 90.0, 100.0)
    ]
    stay = [v["stay_home"] for v in values]
    assert stay[0] < stay[1] < stay[2]
    for key in ("go_work", "transit_use", "outdoor_leisure"):
        outs = [v[key] for v in values]
        assert outs[0] > outs[1] > outs[2]


def test_oracle_attribute_offsets_shift_probabilities(oracle_params):
    low = Persona(id="a", attributes={"risk_perception": "Low"})
    high = Persona(id="b", attributes={"risk_perception": "High"})
    ctx = SimContext(dt.date(2020, 1, 1), 50.0)
    assert (
        oracle_respond(oracle_params, low, ctx)["stay_home"]
        < oracle_respond(oracle_params, high, ctx)["stay_home"]
    )


def test_oracle_noise_deterministic_per_attributes_and_context():
    params = OracleParams(
        intercepts={"stay_home": 0.0}, slopes={"stay_home": 2.0}, noise_scale=0.5
    )
    ctx = SimContext(dt.date(2020, 1, 1), 40.0)
    same_attrs = Persona(id="other", attributes=dict(PERSONA.attributes))
    a = oracle_respond(params, PERSONA, ctx)
    b = oracle_respond(params, same_attrs, ctx)
    assert a == b  # id does not enter the noise seed
    c = oracle_respond(params, PERSONA, SimContext(dt.date(2020, 1, 2), 40.0))
    assert a != c


def test_oracle_direction_validation(schema):
    params = OracleParams(
        intercepts={k: 0.0 for k in schema.keys},
        slopes={k: 1.0 for k in schema.keys},  # wrong sign for out-of-home keys
    )
    with pytest.raises(ConfigError, match="expected sign"):
        params.validate_directions(schema)


def test_logistic_symmetry():
    assert logistic(0.0) == 0.5
    assert logistic(3.0) + logistic(-3.0) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ engines + cache


class ScriptedEngine:
    """Returns queued responses in order; repeats the last one when exhausted."""

    replay_only = False
    digest = "model:scripted"
    retry_limit = 3

    def __init__(self, responses):
        self.responses = list(responses)
        self.call_count = 0

    def respond(self, prompt, persona, context):
        self.call_count += 1
        if len(self.responses) > 1:
            return self.responses.pop(0)
        return self.responses[0]


def query(engine, prompt, persona, context, categories, cache):
    """Reference: resolve one (persona, context) cell through the cache and
    engine, as the twin's grouped pass does once per distinct prompt."""
    key = cache.make_key(engine.digest, prompt.text, categories.response_keys)
    row = cache.get(key, categories)
    if row is None:
        row = ask_engine(engine, key, prompt, persona, context, categories, cache)
    return dict(zip(categories.keys, row))


def oracle_engine(schema, params=None):
    config = EngineConfig(
        kind="synthetic-oracle", oracle_params=params or default_oracle_params()
    )
    return build_engine(config, schema)


def test_query_second_call_hits_cache(schema, pandemic_template):
    engine = oracle_engine(schema)
    cache = ResponseCache(None)
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    first = query(engine, prompt, PERSONA, CONTEXT, schema, cache)
    calls_after_first = engine.call_count
    second = query(engine, prompt, PERSONA, CONTEXT, schema, cache)
    assert engine.call_count == calls_after_first == 1
    assert first == second
    assert cache.hits == 1


def test_query_oracle_deterministic(schema, pandemic_template):
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    a = query(oracle_engine(schema), prompt, PERSONA, CONTEXT, schema, ResponseCache(None))
    b = query(oracle_engine(schema), prompt, PERSONA, CONTEXT, schema, ResponseCache(None))
    assert a == b


def test_query_replay_empty_cache_misses(schema, pandemic_template):
    config = EngineConfig(kind="replay-cache", model_name="recorded-model")
    engine = build_engine(config, schema)
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    with pytest.raises(EngineError, match="replay cache miss"):
        query(engine, prompt, PERSONA, CONTEXT, schema, ResponseCache(None))


def test_query_replay_served_after_population(schema, pandemic_template, tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    params = default_oracle_params()
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    live = build_engine(
        EngineConfig(kind="synthetic-oracle", oracle_params=params), schema
    )
    with ResponseCache(cache_path) as cache:
        recorded = query(live, prompt, PERSONA, CONTEXT, schema, cache)
    replay = build_engine(EngineConfig(kind="replay-cache", oracle_params=params), schema)
    with ResponseCache(cache_path) as cache:
        replayed = query(replay, prompt, PERSONA, CONTEXT, schema, cache)
    assert replayed == recorded
    assert replay.call_count == 0


def test_query_retries_parse_failures_then_succeeds(schema, pandemic_template):
    engine = ScriptedEngine(["garbage", "still garbage", GOOD_JSON])
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    vector = query(engine, prompt, PERSONA, CONTEXT, schema, ResponseCache(None))
    assert vector["stay_home"] == 0.93
    assert engine.call_count == 3


def test_query_hard_fails_after_retry_limit(schema, pandemic_template):
    engine = ScriptedEngine(["garbage"])
    engine.retry_limit = 2
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    with pytest.raises(ParseError, match="after 3 attempts"):
        query(engine, prompt, PERSONA, CONTEXT, schema, ResponseCache(None))
    assert engine.call_count == 3


class FlakyTransportEngine(ScriptedEngine):
    """Raises transport errors for the first ``failures`` calls."""

    def __init__(self, responses, failures):
        super().__init__(responses)
        self.failures = failures

    def respond(self, prompt, persona, context):
        if self.call_count < self.failures:
            self.call_count += 1
            raise EngineError("connection reset")
        return super().respond(prompt, persona, context)


def test_query_retries_transport_failures(schema, pandemic_template):
    engine = FlakyTransportEngine([GOOD_JSON], failures=2)
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    vector = query(engine, prompt, PERSONA, CONTEXT, schema, ResponseCache(None))
    assert vector["stay_home"] == 0.93
    assert engine.call_count == 3


def test_query_transport_failure_after_retries_is_engine_error(schema, pandemic_template):
    engine = FlakyTransportEngine([GOOD_JSON], failures=10)
    engine.retry_limit = 2
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    with pytest.raises(EngineError, match="engine failed after 3 attempts"):
        query(engine, prompt, PERSONA, CONTEXT, schema, ResponseCache(None))


def test_cache_key_changes_with_prompt_and_engine(schema):
    keys = {
        ResponseCache.make_key("model:a", "prompt one", schema.response_keys),
        ResponseCache.make_key("model:a", "prompt two", schema.response_keys),
        ResponseCache.make_key("model:b", "prompt one", schema.response_keys),
        ResponseCache.make_key("model:a", "prompt one", schema.response_keys[:-1]),
    }
    assert len(keys) == 4


ANY_CHAR = st.characters(exclude_categories=())  # surrogates and control characters too


@settings(max_examples=300, deadline=None)
@given(
    digest=st.text(ANY_CHAR, max_size=20),
    text=st.text(ANY_CHAR),
    response_keys=st.lists(st.text(ANY_CHAR, max_size=8), max_size=4),
)
@example(digest="oracle:ab", text='say "hi" \\ \n\t\x00\x7f', response_keys=["a_prob"])
@example(digest='model:"é"', text="\U0001f600 \ud800 \udfff é", response_keys=[])
def test_make_key_equals_json_dumps_payload_digest(digest, text, response_keys):
    payload = json.dumps([digest, text, list(response_keys)])
    expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert ResponseCache.make_key(digest, text, tuple(response_keys)) == expected


def test_cache_persists_across_instances(schema, tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put(_key("k1"), "raw", [0.5])
    with ResponseCache(path) as reopened:
        assert reopened.get(_key("k1"), STAY_HOME) == [0.5]


def test_engine_config_validation():
    with pytest.raises(ConfigError, match="endpoint"):
        EngineConfig(kind="remote-http")
    with pytest.raises(ConfigError, match="oracle_params"):
        EngineConfig(kind="synthetic-oracle")
    with pytest.raises(ConfigError, match="unknown engine kind"):
        EngineConfig(kind="telepathy")


def test_oracle_engine_response_parses_back_exactly(schema, pandemic_template):
    params = default_oracle_params()
    engine = SyntheticOracleEngine(
        EngineConfig(kind="synthetic-oracle", oracle_params=params), schema
    )
    raw = engine.respond(render_prompt(PERSONA, CONTEXT, pandemic_template), PERSONA, CONTEXT)
    assert _parsed(raw, schema) == oracle_respond(params, PERSONA, CONTEXT)


# reply texts of a noisy oracle (noise_scale 0.3), as the json.dumps encoder gave them
NOISY_REPLIES = [
    (PERSONA, SimContext(dt.date(2020, 4, 15), 90.0),
     '{"go_work_prob": 0.290973787188578, "discretionary_outings_prob": 0.07236203779957252, '
     '"essentials_prob": 0.40887120333621824, "transit_use_prob": 0.12238197602555509, '
     '"outdoor_leisure_prob": 0.3095396585642364, "stay_home_prob": 0.9395108279244275}'),
    (PERSONA, SimContext(dt.date(2020, 4, 16), 12.5),
     '{"go_work_prob": 0.5977581636040159, "discretionary_outings_prob": 0.36434831661607703, '
     '"essentials_prob": 0.5907390479758018, "transit_use_prob": 0.5237363394112673, '
     '"outdoor_leisure_prob": 0.5547525930782989, "stay_home_prob": 0.6156391384943601}'),
    (Persona(id="p1", attributes={"risk_perception": "High"}), SimContext(dt.date(2021, 1, 1), 0.0),
     '{"go_work_prob": 0.6645564443453179, "discretionary_outings_prob": 0.5999441788149511, '
     '"essentials_prob": 0.7699516156285742, "transit_use_prob": 0.5639137769860012, '
     '"outdoor_leisure_prob": 0.7172422061734635, "stay_home_prob": 0.6597534327026704}'),
]


def test_noisy_oracle_replies_are_pinned_and_digest_params_once(schema, monkeypatch):
    digests = []
    digest = OracleParams.digest
    monkeypatch.setattr(OracleParams, "digest", lambda self: digests.append(1) or digest(self))
    params = default_oracle_params(noise_scale=0.3)
    engine = oracle_engine(schema, params)
    at_build = len(digests)
    for persona, context, reply in NOISY_REPLIES:
        assert engine.respond(None, persona, context) == reply
        assert _parsed(reply, schema) == oracle_respond(params, persona, context)
    engine.respond(None, PERSONA, CONTEXT)
    assert len(digests) == at_build + len(NOISY_REPLIES)  # only oracle_respond's own


def _oracle_with_response_keys(response_keys, intercepts, offset):
    """An oracle engine whose schema asks for ``response_keys`` (repeats
    allowed); each category's intercept, and one attribute offset."""
    schema = CategorySchema.from_dicts([
        {"key": f"c{i}", "response_key": rk, "observation_column": f"m{i}", "label": f"c{i}",
         "direction": 1}
        for i, rk in enumerate(response_keys)
    ])
    params = OracleParams(
        intercepts={f"c{i}": a for i, a in enumerate(intercepts)},
        slopes={f"c{i}": 0.5 for i in range(len(response_keys))},
        attribute_offsets={"trait": {"x": offset}},
    )
    engine = oracle_engine(schema, params)
    return engine, schema, params


def _oracle_reply_reference(engine, schema, persona, context):
    """The reply as ``json.dumps`` writes the oracle's probabilities."""
    probs = _oracle_probs(engine.params, persona, context, engine.params.digest())
    return json.dumps({c.response_key: probs[c.key] for c in schema})


@settings(max_examples=200, deadline=None)
@given(
    response_keys=st.lists(
        st.text(ANY_CHAR, max_size=6) | st.sampled_from(['"', "\\", "%", "%r", "\U0001f600"]),
        min_size=1, max_size=5,
    ),
    intercept=st.floats(-50, 50),
    offset=st.floats(-50, 50),
)
def test_oracle_reply_equals_json_dumps(response_keys, intercept, offset):
    intercepts = [intercept + i for i in range(len(response_keys))]
    engine, schema, _ = _oracle_with_response_keys(response_keys, intercepts, offset)
    persona = Persona(id="p", attributes={"trait": "x"})
    context = SimContext(dt.date(2020, 4, 15), 37.5)
    assert engine.respond(None, persona, context) == _oracle_reply_reference(
        engine, schema, persona, context
    )


def test_oracle_reply_with_a_nan_probability_equals_json_dumps():
    # an infinite intercept against an infinite offset: a NaN that json.dumps spells NaN
    engine, schema, _ = _oracle_with_response_keys(["a", "b"], [math.inf, 0.0], -math.inf)
    persona = Persona(id="p", attributes={"trait": "x"})
    reply = engine.respond(None, persona, CONTEXT)
    assert reply == _oracle_reply_reference(engine, schema, persona, CONTEXT)
    assert reply.startswith('{"a": NaN, "b": ')


def _cache_bytes(tmp_path, n):
    path = tmp_path / "full.jsonl"
    with ResponseCache(path) as cache:
        for i in range(n):
            cache.put(_key(f"k{i}"), f"raw {i}", [i / n])
    return path.read_bytes()


def test_cache_two_puts_then_reopen_loads_both(tmp_path):
    path = tmp_path / "sub" / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put(_key("k1"), "raw one", [0.25])
        cache.put(_key("k2"), "raw two", [0.75])
        # each record reaches the file before put returns
        assert ResponseCache(path).get(_key("k2"), STAY_HOME) == [0.75]
    reopened = ResponseCache(path)
    assert len(reopened) == 2
    assert reopened.get(_key("k1"), STAY_HOME) == [0.25]
    assert reopened.skipped_lines == 0


@pytest.mark.parametrize(
    "key", ["k0", K0.upper(), K0[:63]], ids=["short", "uppercase", "63 digits"]
)
def test_cache_put_refuses_a_key_that_is_not_a_hex_digest(tmp_path, key):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        with pytest.raises(ValueError, match="64 lowercase hex digits"):
            cache.put(key, "raw", [0.5])
        assert len(cache) == 0
    assert not path.exists()


def _record_reference(key: str, raw: str, row: list[float]) -> bytes:
    """A record line built with ``json.dumps``: ``row`` packed with
    ``struct`` in hex, and the CRC-32 of the text before ``, "crc"``."""
    packed = struct.pack(f"<{len(row)}d", *row).hex()
    text = json.dumps({"key": key, "row": packed, "raw": raw, "crc": "00000000"})
    body = text[: text.rindex(', "crc": ')].encode("ascii")
    return body + b', "crc": "%08x"}\n' % zlib.crc32(body)


KEYS = st.text("0123456789abcdef", min_size=64, max_size=64)  # any hex digest
EDGE_VALUES = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5]
ROWS = st.lists(st.floats(0.0, 1.0) | st.sampled_from(EDGE_VALUES), min_size=1, max_size=8)
RAW_TEXT = (
    st.text(ANY_CHAR)
    | st.lists(
        st.sampled_from(['"', "\\", "\n", "\U0001f600", "\ud800", "\udfff", '"crc"', ', "crc": "', "x"])
    ).map("".join)
)


@settings(max_examples=300, deadline=None)
@given(key=KEYS, raw=RAW_TEXT, row=ROWS)
@example(
    key=K0, raw='{"a_prob": 0.5}\n\\ \U0001f600 \ud83d \ude00 \udfff\ud800 "crc"',
    row=[0.1, 1.0, 5e-324],
)
def test_cache_record_line_equals_json_dumps(key, raw, row):
    line = _record_line(key, raw, row)
    assert line == _record_reference(key, raw, row)
    assert line == json.dumps(json.loads(line)).encode("ascii") + b"\n"


def _categories(n: int) -> CategorySchema:
    """A schema of ``n`` categories: the schema of rows of ``n`` values."""
    return CategorySchema(
        tuple(Category(f"c{i}", f"c{i}_prob", f"col{i}", f"C{i}", 1) for i in range(n))
    )


def _bits(row) -> bytes:
    return struct.pack(f"<{len(row)}d", *row)


@settings(max_examples=200, deadline=None)
@given(key=KEYS, raw=RAW_TEXT, row=ROWS)
@example(key="0" * 64, raw='"crc": "00000000"}\n', row=[5e-324, 1.0 - 2.0**-53])
@example(key="f" * 64, raw="\\\udfff\n", row=[0.0, 1.0] * 4)
def test_cache_record_round_trips_bit_for_bit(tmp_path_factory, key, raw, row):
    path = tmp_path_factory.mktemp("round") / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put(key, raw, row)
    line = path.read_bytes()
    assert line.count(b"\n") == 1
    rec = _record_fields(line)
    # a high surrogate then a low one read back as their pair, as in json.loads
    assert (rec["key"], rec["raw"]) == (key, json.loads(json.dumps(raw)))
    reopened = ResponseCache(path)
    assert len(reopened) == 1
    assert _bits(reopened.get(key, _categories(len(row)))) == _bits(row)


def test_cache_row_of_another_length_is_a_data_error(tmp_path):
    """A row is checked against the length of the schema it is read for."""
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put(K0, "raw 0", [0.25, 0.5])
    for n in (1, 3):
        with pytest.raises(DataError, match=r"cache\.jsonl:1: not a cache record"):
            ResponseCache(path).get(K0, _categories(n))
    assert ResponseCache(path).get(K0, _categories(2)) == [0.25, 0.5]


@settings(max_examples=300, deadline=None)
@given(
    key=KEYS,
    raw=RAW_TEXT.filter(lambda raw: len(raw) < 40),
    row=ROWS,
    data=st.data(),
)
def test_cache_one_changed_byte_never_serves_another_row(tmp_path_factory, key, raw, row, data):
    """A record line with any one byte before its newline changed gives, on
    every lookup, the row put under that key, a miss, or a DataError naming
    the file and line; so does the record that follows it."""
    line = _record_line(key, raw, row)
    at = data.draw(st.integers(0, len(line) - 2))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != line[at]))
    other = _record_line(OTHER, "raw other", [0.375])
    path = tmp_path_factory.mktemp("damage") / "cache.jsonl"
    path.write_bytes(line[:at] + bytes([byte]) + line[at + 1:] + other)
    where = re.compile(re.escape(f"{path}:") + r"[12]: not a cache record")
    try:
        cache = ResponseCache(path)
    except DataError as exc:
        assert where.fullmatch(str(exc))
        return
    expected = {key: _bits(row), OTHER: _bits([0.375])}
    for indexed in list(cache._entries):
        n = len(row) if indexed != OTHER else 1
        try:
            got = cache.get(indexed, _categories(n))
        except DataError as exc:
            assert where.fullmatch(str(exc))
            continue
        assert _bits(got) == expected.get(indexed)


RECORD_ROW = [0.25, 1.0]
RECORD_LINE = _record_line(K0, "ré", RECORD_ROW)
RECORD_BODY = RECORD_LINE[: RECORD_LINE.rindex(b', "crc": "')]
OTHER_LINE = _record_line(OTHER, "raw other", [0.375])
_ROW_HEX = _bits(RECORD_ROW).hex().encode()


def _stamped(body: bytes) -> bytes:
    """``body`` closed with the CRC field of its own bytes: a record any
    writer could have appended, whatever the body holds."""
    return body + b', "crc": "%08x"}\n' % zlib.crc32(body)


def _with_row(row: list[float]) -> bytes:
    return _stamped(RECORD_BODY.replace(_ROW_HEX, _bits(row).hex().encode()))


# a record line of the current layout, as written or damaged, and what the
# cache makes of it as the file's second line: "row" serves the row put under
# K0; "open" and "get" are a DataError naming line 2 when the cache opens or
# on the first get; "torn" skips an unterminated last line; "absent" holds no
# record of K0 at all
DAMAGED_LINES = {
    "as written": (RECORD_LINE, "row"),
    "utf-8 bom": (b"\xef\xbb\xbf" + RECORD_LINE, "open"),
    "two boms": (b"\xef\xbb\xbf\xef\xbb\xbf" + RECORD_LINE, "open"),
    "utf-16-be": (RECORD_LINE.decode().encode("utf-16-be"), "open"),
    "utf-16-le": (RECORD_LINE.decode().encode("utf-16-le"), "open"),
    "utf-32 with bom": (RECORD_LINE.decode().encode("utf-32"), "open"),
    "whitespace line before": (b" \t\r\n" + RECORD_LINE, "row"),
    "leading space": (b" " + RECORD_LINE, "open"),
    "leading form feed": (b"\x0c" + RECORD_LINE, "open"),
    "leading nbsp": (b"\xc2\xa0" + RECORD_LINE, "open"),
    "trailing whitespace": (RECORD_LINE[:-1] + b" \t\r \n", "get"),
    "trailing nbsp": (RECORD_LINE[:-1] + b"\xc2\xa0\n", "get"),
    "trailing garbage": (RECORD_LINE[:-1] + b" x\n", "get"),
    "crlf ending": (RECORD_LINE[:-1] + b"\r\n", "get"),
    "second object": (RECORD_LINE[:-1] + b"{}\n", "get"),
    "second record": (RECORD_LINE[:-1] + OTHER_LINE, "get"),
    "no newline": (RECORD_LINE[:-1], "row"),
    "torn": (RECORD_LINE[:40], "torn"),
    "torn before the newline": (RECORD_LINE[:-2], "torn"),
    "empty": (b"", "absent"),
    "blank": (b"  \n", "absent"),
    "object": (b"{}\n", "open"),
    "array": (b"[" + RECORD_LINE[:-1] + b"]\n", "open"),
    "nul second byte": (b"{\x00" + RECORD_LINE[1:], "open"),
    "key only": (b'{"key": "%s"}\n' % K0.encode(), "open"),
    "row digit changed, crc kept": (RECORD_LINE.replace(_ROW_HEX, b"1" + _ROW_HEX[1:]), "get"),
    "raw changed, crc kept": (RECORD_LINE.replace(b'"r\\u00e9"', b'"R\\u00e9"'), "get"),
    # another key is indexed instead, and refused on its first get
    "key changed, crc kept": (RECORD_LINE.replace(K0.encode(), _key("k1").encode()), "absent"),
    "key one digit short": (_stamped(RECORD_BODY.replace(K0.encode(), K0[1:].encode())), "open"),
    "raw with an escaped lone surrogate": (_stamped(RECORD_BODY.replace(b"r\\u00e9", b"\\ud800")), "row"),
    "raw in utf-8": (_stamped(RECORD_BODY.replace(b"r\\u00e9", "ré\U0001f600".encode())), "row"),
    "raw of invalid utf-8": (_stamped(RECORD_BODY.replace(b"r\\u00e9", b"\xff")), "row"),
    "nan in row": (_with_row([math.nan, 1.0]), "get"),
    "infinity in row": (_with_row([0.25, math.inf]), "get"),
    "above one in row": (_with_row([0.25, 1.0 + 2.0**-52]), "get"),
    "below zero in row": (_with_row([-5e-324, 1.0]), "get"),
    "short row": (_with_row([0.25]), "get"),
    "long row": (_with_row([0.25, 1.0, 0.5]), "get"),
    "non-hex row": (_stamped(RECORD_BODY.replace(_ROW_HEX, b"g" + _ROW_HEX[1:])), "get"),
    "row field renamed": (_stamped(RECORD_BODY.replace(b'"row"', b'"Row"')), "open"),
    "crc field renamed": (RECORD_LINE.replace(b'"crc"', b'"CRC"'), "get"),
    "crc digit dropped": (RECORD_LINE[:-12] + RECORD_LINE[-11:], "get"),
    # JSON reads the key as K0, but json.dumps escapes it otherwise
    "key escaped otherwise": (
        _stamped(RECORD_BODY.replace(K0.encode(), b"\\u%04x" % ord(K0[0]) + K0[1:].encode())),
        "open",
    ),
}


@pytest.mark.parametrize("line, outcome", DAMAGED_LINES.values(), ids=DAMAGED_LINES)
def test_cache_damaged_record_line_serves_its_row_or_fails_by_line(tmp_path, line, outcome):
    """A record of the current layout after a whole one, as written or
    damaged. Only an undamaged record serves its row; a damaged one is a
    DataError naming its file and line, when the cache opens or on its first
    get, or a torn last line the open skips. No line serves any other row,
    and the record before it stays whole."""
    path = tmp_path / "cache.jsonl"
    path.write_bytes(OTHER_LINE + line)
    where = re.escape(f"{path}:2: not a cache record")
    if outcome == "open":
        with pytest.raises(DataError, match=where):
            ResponseCache(path)
        return
    cache = ResponseCache(path)
    assert cache.skipped_lines == (outcome == "torn")
    assert cache.get(OTHER, STAY_HOME) == [0.375]
    if outcome == "get":
        with pytest.raises(DataError, match=where):
            cache.get(K0, _categories(2))
    else:
        got = cache.get(K0, _categories(2))
        assert got == (RECORD_ROW if outcome == "row" else None)
    for key in set(cache._entries) - {K0, OTHER}:
        with pytest.raises(DataError, match=where):
            cache.get(key, _categories(2))


@settings(max_examples=300, deadline=None)
@given(
    at=st.integers(0, len(RECORD_LINE)),
    cut=st.integers(0, 4),
    insert=st.binary(max_size=4) | st.sampled_from([b" ", b"\n", b"\xef\xbb\xbf", b"\x00", b"\\", b'"']),
)
def test_cache_any_edit_of_a_record_never_serves_another_row(tmp_path_factory, at, cut, insert):
    """Up to four bytes cut from a record line and up to four put in their
    place, anywhere, the newline too: every lookup gives the row put under
    that key, a miss, or a DataError naming the file and line."""
    path = tmp_path_factory.mktemp("edit") / "cache.jsonl"
    path.write_bytes(OTHER_LINE + RECORD_LINE[:at] + insert + RECORD_LINE[at + cut:])
    where = re.compile(re.escape(f"{path}:") + r"\d+: not a cache record")
    try:
        cache = ResponseCache(path)
    except DataError as exc:
        assert where.fullmatch(str(exc))
        return
    assert cache.get(OTHER, STAY_HOME) == [0.375]
    for key in list(cache._entries):
        try:
            got = cache.get(key, _categories(2))
        except DataError as exc:
            assert where.fullmatch(str(exc))
            continue
        assert _bits(got) == {K0: _bits(RECORD_ROW), OTHER: _bits([0.375])}.get(key)


# each writer opens the cache, says it is ready, waits for the go line, then
# appends n records of over 4 KiB; writer "a" puts the rows i / 2n under the
# keys _key(f"a{i}"), writer "b" the rows (n + i) / 2n under _key(f"b{i}")
_WRITER = """
import hashlib
import sys
from socialtwin.cognition import ResponseCache

path, tag, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
first = 0 if tag == "a" else n
with ResponseCache(path) as cache:
    print("ready", flush=True)
    sys.stdin.readline()
    for i in range(n):
        name = f"{tag}{i}"
        key = hashlib.sha256(name.encode()).hexdigest()
        cache.put(key, name + " " + tag * 5000, [(first + i) / (2 * n)])
"""


def _record_fields(line: bytes) -> dict:
    """The fields of a record line of the current layout, after checking its
    CRC against the bytes before its CRC field."""
    rec = json.loads(line)
    assert list(rec) == ["key", "row", "raw", "crc"]
    body = line[: line.rindex(b', "crc": "')]
    assert rec["crc"] == "%08x" % zlib.crc32(body)
    return rec


def _two_writers_append(path, n: int, kept: bytes) -> None:
    """Start exactly two writer processes on ``path``; once both have opened
    the cache, each appends ``n`` records at once. Afterwards the file holds
    ``kept``, then every record whole, and a reopen serves every row."""
    src = str(Path(socialtwin.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(path), tag, str(n)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for tag in ("a", "b")
    ]
    try:
        assert [w.stdout.readline() for w in writers] == ["ready\n", "ready\n"]
        for w in writers:  # both start appending at once
            w.stdin.write("go\n")
            w.stdin.close()
        codes = [w.wait(timeout=120) for w in writers]
    finally:
        for w in writers:
            if w.poll() is None:
                w.kill()
                w.wait()
            w.stdin.close()
            w.stdout.close()
    assert codes == [0, 0]
    data = path.read_bytes()
    assert data.startswith(kept)
    lines = data[len(kept):].splitlines(keepends=True)
    assert len(lines) == 2 * n
    records = [_record_fields(line) for line in lines]
    assert all(rec["key"] == _key(rec["raw"].split(" ")[0]) for rec in records)
    reopened = ResponseCache(path)
    assert len(reopened) == 2 * n + kept.count(b"\n")
    assert reopened.skipped_lines == 0
    for first, tag in enumerate(("a", "b")):
        rows = [reopened.get(_key(f"{tag}{i}"), STAY_HOME) for i in range(n)]
        assert rows == [[(first * n + i) / (2 * n)] for i in range(n)]


def test_cache_two_writer_processes_append_whole_records(tmp_path):
    _two_writers_append(tmp_path / "cache" / "responses.jsonl", 500, b"")


def test_cache_two_writer_processes_on_a_torn_file_keep_every_record(tmp_path):
    """Both writers open the file, and see its torn tail, before either
    appends: only the first ``put`` under the lock may cut the tail."""
    full = _cache_bytes(tmp_path, 2)
    kept = full[: full.index(b"\n") + 1]
    path = tmp_path / "cache" / "responses.jsonl"
    path.parent.mkdir()
    path.write_bytes(full[:-10])
    _two_writers_append(path, 500, kept)
    assert ResponseCache(path).get(K0, STAY_HOME) == [0.0]


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    return _cache_bytes(tmp_path_factory.mktemp("cache"), 4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_every_byte_prefix_loads_its_complete_records(cache_file, tmp_path_factory, data):
    cut = data.draw(st.integers(0, len(cache_file)))
    path = tmp_path_factory.mktemp("prefix") / "cut.jsonl"
    path.write_bytes(cache_file[:cut])
    loaded = ResponseCache(path)
    newlines = [i for i, b in enumerate(cache_file) if b == ord("\n")]
    # a record loads once its JSON text is whole, with or without its newline
    expected = {i for i, at in enumerate(newlines) if at <= cut}
    assert len(loaded) == len(expected)
    assert all(loaded.get(_key(f"k{i}"), STAY_HOME) == [i / 4] for i in expected)
    # only a prefix that ends inside a record's JSON text leaves a torn line
    torn = cut > 0 and cut not in newlines and cut - 1 not in newlines
    assert loaded.skipped_lines == int(torn)


def test_cache_append_after_torn_tail_cuts_the_torn_line(tmp_path):
    full = _cache_bytes(tmp_path, 2)
    first = full[: full.index(b"\n") + 1]
    path = tmp_path / "torn.jsonl"
    path.write_bytes(full[:-10])
    with ResponseCache(path) as cache:
        assert len(cache) == 1
        cache.put(_key("k9"), "raw 9", [0.875])
    assert path.read_bytes().startswith(first)
    assert path.read_bytes().count(b"\n") == 2
    reopened = ResponseCache(path)
    assert len(reopened) == 2
    assert reopened.get(K0, STAY_HOME) == [0.0]
    assert reopened.get(_key("k9"), STAY_HOME) == [0.875]
    assert reopened.skipped_lines == 0


def test_cache_torn_tail_is_cut_only_while_it_is_the_files_end(tmp_path):
    """Two caches open one file with a torn tail. A appends two records,
    then B one: B must not cut at the offset its open saw, where A's
    records now are."""
    full = _cache_bytes(tmp_path, 2)
    path = tmp_path / "torn.jsonl"
    path.write_bytes(full[:-10])
    with ResponseCache(path) as a, ResponseCache(path) as b:
        assert a.skipped_lines == b.skipped_lines == 1
        a.put(_key("a1"), "raw a1", [0.125])
        a.put(_key("a2"), "raw a2", [0.25])
        b.put(_key("b1"), "raw b1", [0.375])
    reopened = ResponseCache(path)
    assert reopened.skipped_lines == 0
    rows = {key: reopened.get(_key(key), STAY_HOME) for key in ("k0", "a1", "a2", "b1")}
    assert rows == {"k0": [0.0], "a1": [0.125], "a2": [0.25], "b1": [0.375]}
    assert len(reopened) == 4


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cache_two_openers_of_a_torn_file_keep_every_put(cache_file, tmp_path_factory, data):
    """Cut a file inside its last record, open two caches on it and put from
    both in any order: a reopen indexes every put key and every record that
    was whole before the cut."""
    last = cache_file.rindex(b"\n", 0, len(cache_file) - 1) + 1
    cut = data.draw(st.integers(last + 1, len(cache_file) - 2))
    path = tmp_path_factory.mktemp("torn") / "cache.jsonl"
    path.write_bytes(cache_file[:cut])
    order = data.draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=6))
    with ResponseCache(path) as a, ResponseCache(path) as b:
        assert a.skipped_lines == b.skipped_lines == 1
        for i, opener in enumerate(order):
            (a if opener == "a" else b).put(_key(f"{opener}{i}"), f"raw {i}", [i / 8])
    reopened = ResponseCache(path)
    assert reopened.skipped_lines == 0
    whole = {_key(f"k{i}"): [i / 4] for i in range(3)}
    put = {_key(f"{opener}{i}"): [i / 8] for i, opener in enumerate(order)}
    assert len(reopened) == len(whole) + len(put)
    assert all(reopened.get(key, STAY_HOME) == row for key, row in {**whole, **put}.items())


def test_cache_first_put_waits_for_the_lock_then_checks_the_tail(tmp_path):
    """Another writer holds the lock, cuts the torn tail and appends; the
    first ``put`` waits for the lock, then appends after that record."""
    full = _cache_bytes(tmp_path, 2)
    first = full[: full.index(b"\n") + 1]
    path = tmp_path / "torn.jsonl"
    path.write_bytes(full[:-10])
    theirs = _record_line(_key("o1"), "raw o1", [0.125])
    with ResponseCache(path) as cache:
        with path.open("r+b") as other:
            fcntl.flock(other, fcntl.LOCK_EX)
            put = threading.Thread(target=cache.put, args=(_key("k9"), "raw 9", [0.875]))
            put.start()
            put.join(timeout=0.3)
            assert put.is_alive()  # waiting for the lock
            other.truncate(len(first))
            other.seek(0, os.SEEK_END)
            other.write(theirs)
            other.flush()
            fcntl.flock(other, fcntl.LOCK_UN)
        put.join(timeout=30)
        assert not put.is_alive()
    assert path.read_bytes() == first + theirs + _record_line(_key("k9"), "raw 9", [0.875])


def test_cache_every_put_waits_for_another_writers_append(tmp_path):
    """A put after the first takes the lock too: it waits while another
    writer holds the lock with half a record written, so no first ``put`` of
    a third opener can find that half record at the file's end."""
    path = tmp_path / "cache.jsonl"
    theirs = _record_line(_key("o1"), "raw o1", [0.125])
    with ResponseCache(path) as cache:
        cache.put(K0, "raw 0", [0.0])
        with path.open("ab", buffering=0) as other:
            fcntl.flock(other, fcntl.LOCK_EX)
            other.write(theirs[:20])
            put = threading.Thread(target=cache.put, args=(_key("k1"), "raw 1", [0.5]))
            put.start()
            put.join(timeout=0.3)
            assert put.is_alive()  # waiting for the lock
            other.write(theirs[20:])
            fcntl.flock(other, fcntl.LOCK_UN)
        put.join(timeout=30)
        assert not put.is_alive()
    mine = [_record_line(_key(f"k{i}"), f"raw {i}", [i / 2]) for i in range(2)]
    assert path.read_bytes() == mine[0] + theirs + mine[1]


def test_cache_first_put_after_another_writers_unterminated_append_adds_a_newline(tmp_path):
    """The open saw a whole file; before the first ``put``, another writer
    left a last line without its newline. The record goes on a line of its
    own, and the other line stays."""
    full = _cache_bytes(tmp_path, 2)
    path = tmp_path / "grown.jsonl"
    first = full[: full.index(b"\n") + 1]
    path.write_bytes(first)
    with ResponseCache(path) as cache:
        with path.open("ab") as fh:
            fh.write(full[len(first):-1])
        cache.put(_key("k9"), "raw 9", [0.875])
    assert path.read_bytes() == full + _record_line(_key("k9"), "raw 9", [0.875])


def test_cache_append_after_unterminated_record_keeps_it(tmp_path):
    full = _cache_bytes(tmp_path, 2)
    path = tmp_path / "unterminated.jsonl"
    path.write_bytes(full[:-1])
    with ResponseCache(path) as cache:
        assert len(cache) == 2
        cache.put(_key("k9"), "raw 9", [0.875])
    reopened = ResponseCache(path)
    assert len(reopened) == 3
    rows = [reopened.get(_key(key), STAY_HOME) for key in ("k0", "k1", "k9")]
    assert rows == [[0.0], [0.5], [0.875]]
    assert reopened.skipped_lines == 0


@pytest.mark.parametrize("bad", [b"{not json\n", b"[1, 2]\n", b'{"raw": "no key"}\n'])
def test_cache_bad_line_before_the_end_is_a_data_error(tmp_path, bad):
    full = _cache_bytes(tmp_path, 2)
    first = full[: full.index(b"\n") + 1]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(first + bad + full[len(first):])
    with pytest.raises(DataError, match=r"bad\.jsonl:2: not a cache record"):
        ResponseCache(path)
    # a terminated last line is a whole line, so it must be a record too
    path.write_bytes(full + bad)
    with pytest.raises(DataError, match=r"bad\.jsonl:3: not a cache record"):
        ResponseCache(path)


def _filled_cache(schema, template, path, n_contexts=4):
    """Fill a file cache from the oracle; the (prompt, context, vector) triples."""
    engine = oracle_engine(schema)
    contexts = [
        SimContext(date=dt.date(2020, 4, 1 + i), stringency=20.0 * i) for i in range(n_contexts)
    ]
    prompts = [render_prompt(PERSONA, c, template) for c in contexts]
    with ResponseCache(path) as cache:
        vectors = [query(engine, p, PERSONA, c, schema, cache) for p, c in zip(prompts, contexts)]
    return list(zip(prompts, contexts, vectors))


def test_cache_record_layout_starts_with_key(schema, pandemic_template, tmp_path):
    path = tmp_path / "cache.jsonl"
    answered = _filled_cache(schema, pandemic_template, path, n_contexts=2)
    lines = path.read_bytes().splitlines(keepends=True)
    for line, (_, _, vector) in zip(lines, answered):
        rec = _record_fields(line)
        assert line == json.dumps(rec).encode() + b"\n"
        assert line.startswith(b'{"key": "%s", ' % rec["key"].encode())
        # the row packs the probabilities in response-key order
        assert bytes.fromhex(rec["row"]) == struct.pack("<6d", *vector.values())


@pytest.mark.parametrize(
    "tail",
    [b'{not json\n', b'", "key": "%s", "probs": {}}\n' % OTHER.encode()],
    ids=["undecodable", "second-key"],
)
def test_cache_corrupt_indexed_line_fails_on_first_get(tmp_path, tail):
    """A line with a record's head, ``{"key": "<key>", "row": "``, is
    indexed, whatever follows it."""
    full = _cache_bytes(tmp_path, 3)
    lines = full.splitlines(keepends=True)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(lines[0] + lines[1][:84] + tail + lines[2])
    with ResponseCache(path) as cache:  # indexed lines are decoded on first use
        assert len(cache) == 3
        assert cache.get(K0, STAY_HOME) == [0.0]
        assert cache.get(_key("k2"), STAY_HOME) == [2 / 3]
        with pytest.raises(DataError, match=r"bad\.jsonl:2: not a cache record"):
            cache.get(_key("k1"), STAY_HOME)


def test_cache_corrupt_indexed_line_exits_two(synth_dataset, tmp_path, capsys):
    from socialtwin.cli import main

    from conftest import SPLIT_18MO, write_run_workspace

    config_path = write_run_workspace(tmp_path, synth_dataset, SPLIT_18MO)
    assert main(["simulate", "--config", str(config_path)]) == 0
    path = next((tmp_path / "cache").glob("*.jsonl"))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][: lines[1].index(b'"row": "') + 8] + b"garbage\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["simulate", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: not a cache record" in err and "Traceback" not in err


@pytest.mark.parametrize("layout", ["three-field", "five-field", "sorted-middle", "sorted-last"])
def test_cache_line_of_an_earlier_layout_is_a_data_error(
    synth_dataset, tmp_path, capsys, schema, layout
):
    """Undamaged records of the layouts earlier versions wrote, with a
    ``probs`` mapping by category key, key first or sorted (``created``
    first): each fails when the cache opens."""
    from socialtwin.cli import main

    from conftest import SPLIT_18MO, write_run_workspace

    config_path = write_run_workspace(tmp_path, synth_dataset, SPLIT_18MO)
    assert main(["simulate", "--config", str(config_path)]) == 0
    path = next((tmp_path / "cache").glob("*.jsonl"))
    lines = path.read_bytes().splitlines(keepends=True)
    at = len(lines) - 1 if layout == "sorted-last" else 1
    rec = _record_fields(lines[at])
    row = struct.unpack("<6d", bytes.fromhex(rec["row"]))
    rec = {"key": rec["key"], "probs": dict(zip(schema.keys, row)), "raw": rec["raw"]}
    if layout != "three-field":
        rec.update(engine="oracle:ab", created=1700000000.25)
    lines[at] = json.dumps(rec, sort_keys=layout.startswith("sorted")).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["simulate", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{path}:{at + 1}: not a cache record" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", ["crc-mismatch", "nan", "above-one", "below-zero"])
def test_cache_record_with_a_bad_row_exits_two(synth_dataset, tmp_path, capsys, damage):
    """A record of the current layout whose CRC does not match, or whose row
    holds a value outside [0, 1] under a valid CRC, fails on its first hit."""
    from socialtwin.cli import main

    from conftest import SPLIT_18MO, write_run_workspace

    config_path = write_run_workspace(tmp_path, synth_dataset, SPLIT_18MO)
    assert main(["simulate", "--config", str(config_path)]) == 0
    path = next((tmp_path / "cache").glob("*.jsonl"))
    lines = path.read_bytes().splitlines(keepends=True)
    rec = _record_fields(lines[1])
    row = list(struct.unpack("<6d", bytes.fromhex(rec["row"])))
    if damage == "crc-mismatch":  # one bit of the row flipped, the CRC kept
        at = lines[1].index(b'"row": "') + len(b'"row": "')
        flipped = b"%x" % (int(lines[1][at:at + 1], 16) ^ 1)
        lines[1] = lines[1][:at] + flipped + lines[1][at + 1:]
    else:
        row[2] = {"nan": math.nan, "above-one": 1.0 + 2.0**-52, "below-zero": -5e-324}[damage]
        lines[1] = _record_reference(rec["key"], rec["raw"], row)
        assert _record_fields(lines[1])
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["simulate", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{path}:2: not a cache record" in err
    assert "Traceback" not in err


def test_cache_replays_a_cold_run_and_appends_only_its_misses(synth_dataset, tmp_path):
    """A warm cache serves every prompt with no engine call and gives the
    cold run's ``aggregates.json``; with its last three records gone, three
    engine calls append exactly the cold run's lines again."""
    from socialtwin.cli import main

    from conftest import SPLIT_18MO, write_run_workspace

    config_path = write_run_workspace(tmp_path, synth_dataset, SPLIT_18MO)
    simulate = ["simulate", "--config", str(config_path)]
    out = tmp_path / "out"
    assert main(simulate) == 0
    cold = (out / "aggregates.json").read_bytes()
    path = next((tmp_path / "cache").glob("*.jsonl"))
    lines = path.read_bytes().splitlines(keepends=True)

    def replay(records):
        path.write_bytes(b"".join(records))
        (out / "aggregates.json").unlink()
        assert main(simulate) == 0
        assert (out / "aggregates.json").read_bytes() == cold
        return json.loads((out / "simulate_manifest.json").read_text())["engine_calls"]

    assert replay(lines) == 0
    assert replay(lines[:-3]) == 3
    assert path.read_bytes() == b"".join(lines)


def test_cache_counters_exact_under_threads():
    cache = ResponseCache(None)
    hit = _key("hit")
    cache.put(hit, "raw", [0.5])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def lookups():
            for i in range(2000):
                cache.get(hit if i % 2 else "miss", STAY_HOME)

        threads = [threading.Thread(target=lookups) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert (cache.hits, cache.misses) == (8000, 8000)


# -------------------------------------------------- remote engine, loopback


class _TextHandler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        with self.server.lock:
            self.server.served += 1
        body = b"<html>upstream busy</html>"
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def non_json_endpoint():
    with loopback_server(_TextHandler) as server:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/"


def test_remote_non_json_body_is_retried_engine_error(schema, pandemic_template, non_json_endpoint):
    server, url = non_json_endpoint
    config = EngineConfig(
        kind="remote-http", endpoint=url, model_name="m", retry_limit=2,
        response_text_path="choices.0.text", timeout=10.0,
    )
    engine = build_engine(config, schema)
    prompt = render_prompt(PERSONA, CONTEXT, pandemic_template)
    with pytest.raises(EngineError, match="engine failed after 3 attempts"):
        query(engine, prompt, PERSONA, CONTEXT, schema, ResponseCache(None))
    assert engine.call_count == server.served == 3


def test_remote_non_json_body_exits_three(synth_dataset, tmp_path, non_json_endpoint, capsys):
    from socialtwin.cli import main

    from conftest import SPLIT_18MO, write_run_workspace

    server, url = non_json_endpoint
    engine = {
        "kind": "remote-http", "endpoint": url, "model_name": "m", "retry_limit": 1,
        "response_text_path": "choices.0.text", "timeout": 10.0,
    }
    config_path = write_run_workspace(tmp_path, synth_dataset, SPLIT_18MO, engine=engine)
    assert main(["simulate", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("engine error:") and "Traceback" not in err
    assert server.served == 2

import datetime as dt
import hashlib
import json
import math
import string
import sys
import threading
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialtwin.cognition import (
    BehaviorVector,
    EngineConfig,
    OracleParams,
    ResponseCache,
    SimContext,
    SyntheticOracleEngine,
    _decoded,
    ask_engine,
    build_engine,
    cached_row,
    logistic,
    oracle_respond,
    parse_response,
    parse_template,
    prompt_skeleton,
    render_prompt,
    skeleton_key,
)
from socialtwin.errors import ConfigError, DataError, EngineError, ParseError
from socialtwin.persona import Persona
from synthetic import default_oracle_params

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
    assert prompt.persona_id == "p0"
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


def test_parse_full_response(schema):
    vector = parse_response(GOOD_JSON, schema)
    assert vector["stay_home"] == 0.93
    assert vector["go_work"] == 0.2
    assert vector.categories == schema.keys


def test_parse_all_zeros_valid(schema):
    raw = json.dumps({k: 0.0 for k in schema.response_keys})
    vector = parse_response(raw, schema)
    assert all(v == 0.0 for v in vector.to_dict().values())


def test_parse_missing_key_named(schema):
    obj = json.loads(GOOD_JSON)
    del obj["transit_use_prob"]
    with pytest.raises(ParseError, match="transit_use_prob"):
        parse_response(json.dumps(obj), schema)


def test_parse_json_wrapped_in_prose_and_fences(schema):
    raw = f"Sure! Here is my estimate:\n```json\n{GOOD_JSON}\n```\nHope that helps."
    assert parse_response(raw, schema)["stay_home"] == 0.93


def test_parse_picks_first_decodable_object(schema):
    raw = "weights {not json} then " + GOOD_JSON
    assert parse_response(raw, schema)["essentials"] == 0.8


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
    vector = parse_response(json.dumps(obj), schema)
    assert vector["go_work"] == 1.0
    assert vector["stay_home"] == 0.0
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
        vector = parse_response(raw, schema)
    except ParseError:
        return
    assert vector.categories == schema.keys
    assert all(0.0 <= v <= 1.0 for v in vector.to_dict().values())


def test_behavior_vector_rejects_out_of_range():
    with pytest.raises(ConfigError):
        BehaviorVector({"a": 1.5})


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
    assert all(abs(v - 0.5) < 1e-9 for v in vector.to_dict().values())


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
    cached = cache.get(key)
    if cached is not None:
        return BehaviorVector(dict(zip(categories.keys, cached_row(cached, categories))))
    return ask_engine(engine, key, prompt, persona, context, categories, cache)


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
        cache.put("k1", "raw", {"stay_home": 0.5}, "model:x")
    with ResponseCache(path) as reopened:
        assert reopened.get("k1")["probs"] == {"stay_home": 0.5}


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
    assert parse_response(raw, schema) == oracle_respond(params, PERSONA, CONTEXT)


def _cache_bytes(tmp_path, n):
    path = tmp_path / "full.jsonl"
    with ResponseCache(path) as cache:
        for i in range(n):
            cache.put(f"k{i}", f"raw {i}", {"stay_home": i / n}, "model:x")
    return path.read_bytes()


def test_cache_two_puts_then_reopen_loads_both(tmp_path):
    path = tmp_path / "sub" / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put("k1", "raw one", {"stay_home": 0.25}, "model:x")
        cache.put("k2", "raw two", {"stay_home": 0.75}, "model:x")
        # each record reaches the file before put returns
        assert ResponseCache(path).get("k2")["raw"] == "raw two"
    reopened = ResponseCache(path)
    assert len(reopened) == 2
    assert reopened.get("k1")["probs"] == {"stay_home": 0.25}
    assert reopened.skipped_lines == 0


def test_cache_reopen_finds_keys_that_json_escapes(tmp_path):
    path = tmp_path / "cache.jsonl"
    keys = ["plain", 'quote"d', "back\\slash", "caf\u00e9", ""]
    with ResponseCache(path) as cache:
        for key in keys:
            cache.put(key, f"raw {key}", {"stay_home": 0.5}, "model:x")
    # a record written by another JSON writer, with its key in raw UTF-8
    unescaped = {"key": "naïve", "probs": {"stay_home": 0.5}, "raw": "raw naïve"}
    with path.open("ab") as fh:
        fh.write(json.dumps(unescaped, ensure_ascii=False).encode("utf-8") + b"\n")
    keys.append("naïve")
    reopened = ResponseCache(path)
    assert len(reopened) == len(keys)
    assert [reopened.get(key)["raw"] for key in keys] == [f"raw {key}" for key in keys]


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
    expected = {f"k{i}" for i, at in enumerate(newlines) if at <= cut}
    assert len(loaded) == len(expected)
    assert all(loaded.get(key) is not None for key in expected)
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
        cache.put("k9", "raw 9", {"stay_home": 0.5}, "model:x")
    assert path.read_bytes().startswith(first)
    assert path.read_bytes().count(b"\n") == 2
    reopened = ResponseCache(path)
    assert len(reopened) == 2
    assert reopened.get("k0")["raw"] == "raw 0" and reopened.get("k9")["raw"] == "raw 9"
    assert reopened.skipped_lines == 0


def test_cache_append_after_unterminated_record_keeps_it(tmp_path):
    full = _cache_bytes(tmp_path, 2)
    path = tmp_path / "unterminated.jsonl"
    path.write_bytes(full[:-1])
    with ResponseCache(path) as cache:
        assert len(cache) == 2
        cache.put("k9", "raw 9", {"stay_home": 0.5}, "model:x")
    reopened = ResponseCache(path)
    assert len(reopened) == 3
    assert all(reopened.get(key) is not None for key in ("k0", "k1", "k9"))
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


def _sorted_fields(line: bytes) -> bytes:
    """A record as the older writer laid it out: every field sorted, ``created`` first."""
    return json.dumps(json.loads(line), sort_keys=True).encode() + b"\n"


def test_cache_record_layout_starts_with_key(schema, pandemic_template, tmp_path):
    path = tmp_path / "cache.jsonl"
    _filled_cache(schema, pandemic_template, path, n_contexts=2)
    for line in path.read_bytes().splitlines(keepends=True):
        assert list(json.loads(line)) == ["key", "probs", "raw", "engine", "created"]
        # same fields and separators as the sorted layout, so the same length
        assert len(_sorted_fields(line)) == len(line)


@pytest.mark.parametrize("layout", ["sorted", "mixed"])
def test_cache_serves_sorted_records_without_engine_calls(
    schema, pandemic_template, tmp_path, layout
):
    path = tmp_path / "cache.jsonl"
    answered = _filled_cache(schema, pandemic_template, path)
    lines = path.read_bytes().splitlines(keepends=True)
    if layout == "sorted":
        path.write_bytes(b"".join(_sorted_fields(line) for line in lines))
    else:
        path.write_bytes(
            b"".join(_sorted_fields(line) if i % 2 else line for i, line in enumerate(lines))
        )
    assert path.read_bytes() != b"".join(lines)
    engine = oracle_engine(schema)
    with ResponseCache(path) as cache:
        assert len(cache) == len(answered)
        for prompt, context, vector in answered:
            assert query(engine, prompt, PERSONA, context, schema, cache) == vector
        assert (cache.hits, cache.misses) == (len(answered), 0)
    assert engine.call_count == 0


@pytest.mark.parametrize(
    "tail",
    [b'"probs": {not json\n', b'"key": "other", "probs": {}}\n'],
    ids=["undecodable", "second-key"],
)
def test_cache_corrupt_indexed_line_fails_on_first_get(tmp_path, tail):
    full = _cache_bytes(tmp_path, 3)
    lines = full.splitlines(keepends=True)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(lines[0] + b'{"key": "k1", ' + tail + lines[2])
    with ResponseCache(path) as cache:  # indexed lines are decoded on first use
        assert len(cache) == 3
        assert cache.get("k0")["raw"] == "raw 0"
        assert cache.get("k2")["raw"] == "raw 2"
        with pytest.raises(DataError, match=r"bad\.jsonl:2: not a cache record"):
            cache.get("k1")


def _decoded_reference(line: bytes):
    """``_decoded`` as it was, decoding with ``json.loads(line)``: what that
    reads is validated by ``_decoded`` from its plain JSON text."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    return _decoded(json.dumps(rec).encode()) if isinstance(rec, dict) else None


RECORD_LINE = (
    b'{"key": "k0", "probs": {"stay_home": 0.25, "go_work": 1}, "raw": "r\\u00e9", '
    b'"engine": "model:x", "created": 1.5}\n'
)
DAMAGED_LINES = {
    "as written": RECORD_LINE,
    "utf-8 bom": b"\xef\xbb\xbf" + RECORD_LINE,
    "two boms": b"\xef\xbb\xbf\xef\xbb\xbf" + RECORD_LINE,
    "utf-16-be": RECORD_LINE.decode().encode("utf-16-be"),
    "utf-16-le": RECORD_LINE.decode().encode("utf-16-le"),
    "utf-32 with bom": RECORD_LINE.decode().encode("utf-32"),
    "escaped lone surrogate": RECORD_LINE.replace(b"r\\u00e9", b"\\ud800"),
    "encoded lone surrogate": RECORD_LINE.replace(b"r\\u00e9", b"\xed\xa0\x80"),
    "raw utf-8": RECORD_LINE.replace(b"r\\u00e9", "r\u00e9\U0001f600".encode()),
    "invalid utf-8": RECORD_LINE.replace(b"r\\u00e9", b"\xff"),
    "cut multibyte": RECORD_LINE.replace(b"r\\u00e9", b"\xc3"),
    "leading whitespace": b" \t\r\n" + RECORD_LINE,
    "leading form feed": b"\x0c" + RECORD_LINE,
    "leading nbsp": b"\xc2\xa0" + RECORD_LINE,
    "trailing whitespace": RECORD_LINE[:-1] + b" \t\r \n",
    "trailing nbsp": RECORD_LINE[:-1] + b"\xc2\xa0\n",
    "trailing garbage": RECORD_LINE[:-1] + b" x\n",
    "second object": RECORD_LINE[:-1] + b"{}\n",
    "no newline": RECORD_LINE[:-1],
    "torn": RECORD_LINE[:40],
    "nan probability": RECORD_LINE.replace(b"0.25", b"NaN"),
    "infinite created": RECORD_LINE.replace(b"1.5", b"-Infinity"),
    "bool probability": RECORD_LINE.replace(b"1}", b"true}"),
    "array": b"[" + RECORD_LINE[:-1] + b"]\n",
    "empty": b"",
    "blank": b"  \n",
    "nul second byte": b"{\x00" + RECORD_LINE[1:],
    "object": b"{}\n",
}


@pytest.mark.parametrize("line", DAMAGED_LINES.values(), ids=DAMAGED_LINES)
def test_cache_record_decode_accepts_the_lines_json_loads_accepts(line):
    decoded, reference = _decoded(line), _decoded_reference(line)
    assert (decoded is None) == (reference is None)
    assert json.dumps(decoded) == json.dumps(reference)


@settings(max_examples=300, deadline=None)
@given(
    at=st.integers(0, len(RECORD_LINE)),
    cut=st.integers(0, 4),
    insert=st.binary(max_size=4) | st.sampled_from([b" ", b"\xef\xbb\xbf", b"\x00", b"\\", b'"']),
)
def test_cache_record_decode_agrees_with_json_loads_on_any_edit(at, cut, insert):
    line = RECORD_LINE[:at] + insert + RECORD_LINE[at + cut:]
    assert json.dumps(_decoded(line)) == json.dumps(_decoded_reference(line))


def test_cache_corrupt_indexed_line_exits_two(synth_dataset, tmp_path, capsys):
    from socialtwin.cli import main

    from conftest import SPLIT_18MO, write_run_workspace

    config_path = write_run_workspace(tmp_path, synth_dataset, SPLIT_18MO)
    assert main(["simulate", "--config", str(config_path)]) == 0
    path = next((tmp_path / "cache").glob("*.jsonl"))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][: lines[1].index(b'"probs"')] + b"garbage\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["simulate", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: not a cache record" in err and "Traceback" not in err


@pytest.mark.parametrize("layout", ["indexed", "sorted"])
@pytest.mark.parametrize("damage", ["string", "non-number", "above-one", "nan"])
def test_cache_record_with_malformed_probs_exits_two(
    synth_dataset, tmp_path, capsys, damage, layout
):
    """Sorted records are checked when the cache opens, indexed ones on
    their first hit. A probability outside [0, 1] is damage too."""
    from socialtwin.cli import main

    from conftest import SPLIT_18MO, write_run_workspace

    config_path = write_run_workspace(tmp_path, synth_dataset, SPLIT_18MO)
    assert main(["simulate", "--config", str(config_path)]) == 0
    path = next((tmp_path / "cache").glob("*.jsonl"))
    lines = path.read_bytes().splitlines(keepends=True)
    rec = json.loads(lines[1])
    if damage == "string":
        rec["probs"] = json.dumps(rec["probs"])
    else:
        value = {"non-number": "high", "above-one": 1.5, "nan": math.nan}[damage]
        rec["probs"][next(iter(rec["probs"]))] = value
    lines[1] = json.dumps(rec, sort_keys=layout == "sorted").encode() + b"\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["simulate", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{path}:2: not a cache record" in err


def test_cache_counters_exact_under_threads():
    cache = ResponseCache(None)
    cache.put("hit", "raw", {"stay_home": 0.5}, "model:x")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def lookups():
            for i in range(2000):
                cache.get("hit" if i % 2 else "miss")

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

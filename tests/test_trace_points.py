"""The benchmark's traced run (``perfbench/trace_layers.py``) wraps program
functions by name; a rename that drops one of them must fail here, not only
under ``--trace 1``."""

import datetime as dt
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from socialtwin import aggregate
from socialtwin import baseline as bl
from socialtwin import cognition
from socialtwin import twin as twin_module

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_gbm_trees():
    original_fit = bl.fit_gbm
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert bl.fit_gbm is not original_fit
        X = np.arange(40, dtype=float).reshape(20, 2)
        bl.fit_gbm(X, {"a": X[:, 0] ** 2, "b": -X[:, 1]}, bl.GbmHyper(n_trees=5, min_leaf=2))
        assert tracer.counts["baseline.gbm_trees"] == 10
    finally:
        tracer.uninstall()
    assert bl.fit_gbm is original_fit


def test_tracer_counts_lazily_indexed_cache_records(tmp_path):
    from socialtwin.schema import Category, CategorySchema

    stay_home = CategorySchema((Category("stay_home", "stay_home_prob", "stay", "Stay home", 1),))
    path = tmp_path / "cache.jsonl"
    keys = [hashlib.sha256(b"k%d" % i).hexdigest() for i in range(4)]
    with cognition.ResponseCache(path) as cache:
        for i, key in enumerate(keys):
            cache.put(key, f"raw {i}", [i / 4])
    assert [list(json.loads(line)) for line in path.read_bytes().splitlines()] == [
        ["key", "row", "raw", "crc"]
    ] * 4

    patched = ("__init__", "make_key", "get", "put")
    originals = {name: cognition.ResponseCache.__dict__[name] for name in patched}
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert cognition.ResponseCache.__dict__["get"] is not originals["get"]
        with cognition.ResponseCache(path) as cache:
            assert [cache.get(key, stay_home) for key in keys] == [[i / 4] for i in range(4)]
            assert cache.get("missing", stay_home) is None
            cache.make_key("model:x", "prompt", ("stay_home_prob",))
        metrics = tracer.metrics(rounds=1, wall_s=1.0, cache_bytes_appended=0)
        assert metrics["cognition.cache_records_loaded"]["value"] == 4
        assert metrics["cognition.cache_hits"]["value"] == 4
        assert metrics["cognition.cache_misses"]["value"] == 1
        assert metrics["cognition.key_calls"]["value"] == 1
    finally:
        tracer.uninstall()
    assert all(cognition.ResponseCache.__dict__[name] is originals[name] for name in patched)


def test_tracer_records_render_and_aggregate_spans_of_a_pass(schema, pandemic_template):
    from socialtwin.cognition import EngineConfig, SimContext, build_engine
    from socialtwin.persona import sample_population
    from socialtwin.twin import DigitalTwin
    from synthetic import default_oracle_params, default_population_spec

    population = sample_population(default_population_spec(12), seed=2)
    profiles = {tuple(p.attributes.items()) for p in population}
    original = aggregate.aggregate_mean
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        twin = DigitalTwin(
            population=population,
            engine=build_engine(
                EngineConfig(kind="synthetic-oracle", oracle_params=default_oracle_params()), schema
            ),
            cache=cognition.ResponseCache(None),
            template=pandemic_template,
            schema=schema,
        )
        contexts = [SimContext(dt.date(2020, 5, d), 20.0 * d) for d in (1, 2, 3)]
        twin.simulate_contexts(contexts)
        metrics = tracer.metrics(rounds=1, wall_s=1.0, cache_bytes_appended=0)
        assert metrics["cognition.render_calls"]["value"] == len(contexts) * len(profiles)
        # one span per context: the aggregate function is wrapped once, not twice
        assert metrics["aggregate.calls"]["value"] == len(contexts)
    finally:
        tracer.uninstall()
    assert aggregate.aggregate_mean is original and twin_module.aggregate_mean is original


def test_pass_over_a_filled_cache_renders_no_prompt(schema, pandemic_template):
    """A cache hit is keyed from its profile's prompt skeleton: a second pass
    over the same cells renders no prompt and calls no engine."""
    from socialtwin.cognition import EngineConfig, SimContext, build_engine
    from socialtwin.persona import sample_population
    from socialtwin.twin import DigitalTwin
    from synthetic import default_oracle_params, default_population_spec

    twin = DigitalTwin(
        population=sample_population(default_population_spec(12), seed=2),
        engine=build_engine(
            EngineConfig(kind="synthetic-oracle", oracle_params=default_oracle_params()), schema
        ),
        cache=cognition.ResponseCache(None),
        template=pandemic_template,
        schema=schema,
    )
    contexts = [SimContext(dt.date(2020, 5, d), 20.0 * d) for d in (1, 2, 3)]
    first, _ = twin.simulate_contexts(contexts)
    calls = twin.engine.call_count
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        second, _ = twin.simulate_contexts(contexts)
        metrics = tracer.metrics(rounds=1, wall_s=1.0, cache_bytes_appended=0)
    finally:
        tracer.uninstall()
    assert second == first
    assert twin.engine.call_count == calls
    assert metrics["cognition.render_calls"]["value"] == 0
    assert metrics["cognition.engine_calls"]["value"] == 0
    assert metrics["cognition.cache_hits"]["value"] == calls


def test_tracer_counts_the_rows_both_loaders_keep(tmp_path):
    """``ingest.rows`` is the number of rows the policy and observation
    loaders keep, whatever shape each returns them in."""
    from socialtwin import ingest

    policy = tmp_path / "policy.csv"
    policy.write_text("date,stringency\n2020-04-01,10\n2020-04-02,\n2020-04-03,30\n")
    observations = tmp_path / "observations.csv"
    observations.write_text("date,a,b\n2020-04-01,1,2\n2020-04-02,3,\n2020-04-03,5,6\n2020-04-04,7,8\n")
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        _, policy_report = ingest.load_policy_csv(policy)
        _, obs_report = ingest.load_observations_csv(observations, {"a": "a", "b": "b"})
        metrics = tracer.metrics(rounds=1, wall_s=1.0, cache_bytes_appended=0)
    finally:
        tracer.uninstall()
    assert (policy_report.rows_kept, obs_report.rows_kept) == (2, 3)
    assert metrics["ingest.rows"]["value"] == 5

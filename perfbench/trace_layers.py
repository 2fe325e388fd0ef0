"""Span recorder for the traced run (``--trace 1``).

``Tracer.install`` wraps the public functions of each socialtwin module
where the program looks them up: the defining module and every module that
imported the name (``socialtwin.twin.render_prompt`` as well as
``socialtwin.cognition.render_prompt``), or the class for methods. Each call
records a span (name, start, end, parent span in the same thread) in
in-memory arrays, plus counters. ``metrics`` turns them into the per-layer
metrics at the end of the run, per round. A span's self time is its duration
minus the durations of its child spans. Under ``parallelism`` above 1 the
engine is queried from worker threads, whose spans have no parent, so the
twin's self time there includes waiting on the worker pool.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# name -> unit, in report order
PER_LAYER = {
    "config.load_s": "s",
    "ingest.load_s": "s",
    "ingest.rows": "count",
    "persona.sample_s": "s",
    "persona.personas": "count",
    "cognition.render_s": "s",
    "cognition.render_calls": "count",
    "cognition.key_s": "s",
    "cognition.key_calls": "count",
    "cognition.parse_s": "s",
    "cognition.parse_calls": "count",
    "cognition.cache_open_s": "s",
    "cognition.cache_records_loaded": "count",
    "cognition.cache_get_s": "s",
    "cognition.cache_hits": "count",
    "cognition.cache_misses": "count",
    "cognition.cache_put_s": "s",
    "cognition.cache_puts": "count",
    "cognition.cache_bytes_appended": "bytes",
    "cognition.respond_s": "s",
    "cognition.respond_p50_ms": "ms",
    "cognition.respond_p95_ms": "ms",
    "cognition.engine_calls": "calls",
    "cognition.duplicate_calls": "calls",
    "twin.self_s": "s",
    "twin.cells": "count",
    "twin.distinct_prompts": "count",
    "twin.prompt_share": "ratio",
    "aggregate.s": "s",
    "aggregate.calls": "count",
    "calibrate.fit_s": "s",
    "calibrate.fits": "count",
    "calibrate.trials": "count",
    "baseline.features_s": "s",
    "baseline.gbm_fit_s": "s",
    "baseline.gbm_trees": "count",
    "baseline.gbm_predict_s": "s",
    "baseline.persistence_s": "s",
    "evaluation.score_s": "s",
    "evaluation.reports": "count",
    "counterfactual.sweep_self_s": "s",
    "counterfactual.scenarios": "count",
    "counterfactual.ablation_self_s": "s",
    "counterfactual.variants": "count",
    "cli.artifacts_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.round_s": "s",
}


def _size(path) -> int:
    p = Path(path)
    return p.stat().st_size if p.exists() else 0


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self.sent_prompts: set[str] = set()
        self.rendered: set[str] = set()
        self.lock = threading.Lock()
        self.local = threading.local()
        self.patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, span: str, fn, count=None):
        if span not in self.span_names:
            self.span_names.append(span)
        name_id = self.span_names.index(span)

        def wrapper(*args, **kwargs):
            stack = self.local.__dict__.setdefault("stack", [])
            with self.lock:
                idx = len(self.start)
                self.start.append(0.0)
                self.end.append(0.0)
                self.name.append(name_id)
                self.parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                with self.lock:
                    count(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, span: str, fn, owners, count=None) -> None:
        wrapper = self._wrap(span, fn, count)
        for owner in owners:
            self._patch(owner, fn.__name__, wrapper)

    def install(self) -> None:
        from socialtwin import (
            aggregate,
            baseline,
            calibrate,
            cli,
            cognition,
            config,
            counterfactual,
            evaluation,
            ingest,
            persona,
            twin,
        )

        c = self.counts

        def rows(args, result):
            c["ingest.rows"] += len(result[0])

        def personas(args, result):
            c["persona.personas"] += len(result)

        def rendered(args, result):
            self.rendered.add(result.text)

        def cache_open(args, result):
            c["cognition.cache_records_loaded"] += len(args[0])

        def cache_get(args, result):
            c["cognition.cache_hits" if result is not None else "cognition.cache_misses"] += 1

        def respond(args, result):
            text = args[1].text
            if text in self.sent_prompts:
                c["cognition.duplicate_calls"] += 1
            self.sent_prompts.add(text)

        def fit(args, result):
            c["calibrate.trials"] += args[1].trials

        def gbm(args, result):
            c["baseline.gbm_trees"] += sum(len(t) for t in result.trees_by_category.values())

        def scenarios(args, result):
            c["counterfactual.scenarios"] += len(args[1])

        def artifact_at(position):
            def count(args, result):
                c["cli.artifact_bytes"] += _size(args[position])
            return count

        def aggregates_csv(args, result):
            c["cli.artifact_bytes"] += _size(args[0].output_dir / "aggregates.csv")

        f = self._patch_function
        f("config", config.load_run_config, [config, cli])
        f("ingest", ingest.load_policy_csv, [ingest, cli], rows)
        f("ingest", ingest.load_observations_csv, [ingest, cli], rows)
        f("persona", persona.sample_population, [persona, cli, counterfactual], personas)
        f("render", cognition.render_prompt, [cognition, twin], rendered)
        f("parse", cognition.parse_response, [cognition])
        f("aggregate", aggregate.aggregate_mean, [aggregate, twin])
        f("aggregate", aggregate.aggregate_weighted, [aggregate, twin])
        f("fit", calibrate.fit_calibration, [calibrate, cli, counterfactual], fit)
        f("fit", calibrate.fit_single_slope, [calibrate, counterfactual], fit)
        f("features", baseline.build_feature_matrix, [baseline])
        f("gbm_fit", baseline.fit_gbm, [baseline], gbm)
        f("gbm_predict", baseline.predict_gbm_matrix, [baseline])
        f("persistence", baseline.persistence_forecast, [baseline])
        f("score", evaluation.evaluate_predictions, [evaluation, cli, counterfactual])
        f("sweep", counterfactual.run_counterfactuals, [counterfactual, cli], scenarios)
        f("ablation", counterfactual.run_ablation, [counterfactual])
        f("artifacts", cli._write_json, [cli], artifact_at(0))
        f("artifacts", cli._write_text, [cli], artifact_at(0))
        f("artifacts", cli.write_aggregates, [cli], aggregates_csv)
        f("artifacts", persona.save_population, [persona, cli], artifact_at(1))
        f("artifacts", calibrate.save_calibration, [calibrate, cli], artifact_at(1))
        f("artifacts", baseline.save_gbm, [baseline], artifact_at(1))

        cache = cognition.ResponseCache
        self._patch(cache, "make_key", staticmethod(self._wrap("key", cache.make_key)))
        self._patch(cache, "__init__", self._wrap("cache_open", cache.__init__, cache_open))
        self._patch(cache, "get", self._wrap("cache_get", cache.get, cache_get))
        self._patch(cache, "put", self._wrap("cache_put", cache.put))
        for engine in (cognition.SyntheticOracleEngine, cognition.RemoteHttpEngine):
            self._patch(engine, "respond", self._wrap("respond", engine.respond, respond))
        for method in ("simulate_context", "simulate_contexts"):
            self._patch(twin.DigitalTwin, method, self._wrap("twin", getattr(twin.DigitalTwin, method)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def begin_round(self) -> None:
        """Prompts count as distinct, and engine calls as duplicates, within
        one round of the chain."""
        self.counts["twin.distinct_prompts"] += len(self.rendered)
        self.rendered.clear()
        self.sent_prompts.clear()

    # -- reporting -----------------------------------------------------------

    def metrics(self, rounds: int, wall_s: float, cache_bytes_appended: int) -> dict:
        self.begin_round()
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - children
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)

        def ids(span):
            return self.span_names.index(span) if span in self.span_names else -2

        def inclusive(span):
            """Time in spans of this name that are not nested in one of the same name."""
            mask = (names == ids(span)) & (parent_name != ids(span))
            return float(duration[mask].sum())

        def self_of(span):
            return float(self_time[names == ids(span)].sum())

        def calls(span):
            return int(np.count_nonzero(names == ids(span)))

        respond_ms = duration[names == ids("respond")] * 1000.0
        p50, p95 = (np.percentile(respond_ms, [50, 95]) if len(respond_ms) else (0.0, 0.0))
        c = self.counts
        cells = calls("render")
        totals = {
            "config.load_s": inclusive("config"),
            "ingest.load_s": inclusive("ingest"),
            "ingest.rows": c["ingest.rows"],
            "persona.sample_s": inclusive("persona"),
            "persona.personas": c["persona.personas"],
            "cognition.render_s": inclusive("render"),
            "cognition.render_calls": cells,
            "cognition.key_s": inclusive("key"),
            "cognition.key_calls": calls("key"),
            "cognition.parse_s": inclusive("parse"),
            "cognition.parse_calls": calls("parse"),
            "cognition.cache_open_s": inclusive("cache_open"),
            "cognition.cache_records_loaded": c["cognition.cache_records_loaded"],
            "cognition.cache_get_s": inclusive("cache_get"),
            "cognition.cache_hits": c["cognition.cache_hits"],
            "cognition.cache_misses": c["cognition.cache_misses"],
            "cognition.cache_put_s": inclusive("cache_put"),
            "cognition.cache_puts": calls("cache_put"),
            "cognition.cache_bytes_appended": cache_bytes_appended,
            "cognition.respond_s": inclusive("respond"),
            "cognition.engine_calls": calls("respond"),
            "cognition.duplicate_calls": c["cognition.duplicate_calls"],
            "twin.self_s": self_of("twin"),
            "twin.cells": cells,
            "twin.distinct_prompts": c["twin.distinct_prompts"],
            "aggregate.s": inclusive("aggregate"),
            "aggregate.calls": calls("aggregate"),
            "calibrate.fit_s": inclusive("fit"),
            "calibrate.fits": calls("fit"),
            "calibrate.trials": c["calibrate.trials"],
            "baseline.features_s": inclusive("features"),
            "baseline.gbm_fit_s": inclusive("gbm_fit"),
            "baseline.gbm_trees": c["baseline.gbm_trees"],
            "baseline.gbm_predict_s": inclusive("gbm_predict"),
            "baseline.persistence_s": inclusive("persistence"),
            "evaluation.score_s": inclusive("score"),
            "evaluation.reports": calls("score"),
            "counterfactual.sweep_self_s": self_of("sweep"),
            "counterfactual.scenarios": c["counterfactual.scenarios"],
            "counterfactual.ablation_self_s": self_of("ablation"),
            "counterfactual.variants": calls("ablation"),
            "cli.artifacts_s": inclusive("artifacts"),
            "cli.artifact_bytes": c["cli.artifact_bytes"],
            "trace.round_s": wall_s,
        }
        values = {k: v / rounds for k, v in totals.items()}
        values["cognition.respond_p50_ms"] = float(p50)
        values["cognition.respond_p95_ms"] = float(p95)
        values["twin.prompt_share"] = totals["twin.distinct_prompts"] / cells if cells else 0.0
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

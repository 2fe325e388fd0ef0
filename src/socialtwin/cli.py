"""Command-line pipeline driver.

Subcommands: simulate, calibrate, evaluate, counterfactual, ablate. One
declarative config file drives everything; flags only override config keys.
Every artifact embeds the resolved config hash and commands refuse to mix
artifacts produced under a different hash. Commands only read observation
data from the split their purpose declares (calibrate: train; evaluate: the
split being scored, plus earlier history for the persistence baseline).

Commands read the artifacts that earlier commands wrote to the output
directory under the same config: simulate reads none and writes
aggregates.json; calibrate reads aggregates.json and writes
calibration.json; evaluate and ablate read aggregates.json and
calibration.json; counterfactual reads calibration.json. Run simulate, then
calibrate, before the other three.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 engine error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from . import baseline as bl
from .calibrate import (
    apply_calibration,
    fit_calibration,
    load_calibration,
    pair_by_date,
    save_calibration,
)
from .cognition import ResponseCache, build_engine
from .config import RunConfig, load_run_config
from .counterfactual import (
    ABLATION_VARIANTS,
    AblationInputs,
    load_scenarios,
    run_ablation_suite,
    run_counterfactuals,
)
from .errors import ConfigError, DataError, EngineError
from .evaluation import compare, evaluate_predictions
from .ingest import Series, load_observations_csv, load_policy_csv, read_file
from .persona import sample_population, save_population
from .twin import DigitalTwin, contexts_from_policy


# ---------------------------------------------------------------------------
# artifact IO
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_text(path: Path, body: str, config: RunConfig) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"config_hash: {config.config_hash}\n\n{body}\n", encoding="utf-8")


def _write_manifest(config: RunConfig, command: str, extra: dict) -> Path:
    manifest = {
        "command": command,
        "config_hash": config.config_hash,
        "seeds": config.seeds,
        "engine_kind": config.engine.kind,
        "config": config.semantic,
    }
    manifest.update(extra)
    path = config.output_dir / f"{command}_manifest.json"
    _write_json(path, manifest)
    return path


def _engine_counts(engine, cache: ResponseCache) -> dict:
    """The engine and cache counters every simulating command records."""
    return {
        "engine_calls": engine.call_count,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_lines_skipped": cache.skipped_lines,
    }


def write_aggregates(config: RunConfig, aggregates: Series) -> None:
    rows = [{"date": d.isoformat(), "probs": aggregates[d]} for d in sorted(aggregates)]
    _write_json(
        config.output_dir / "aggregates.json",
        {
            "config_hash": config.config_hash,
            "categories": list(config.schema.keys),
            "rows": rows,
        },
    )
    csv_path = config.output_dir / "aggregates.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *config.schema.keys])
        for row in rows:
            writer.writerow([row["date"], *(repr(row["probs"][k]) for k in config.schema.keys)])


def read_aggregates(config: RunConfig) -> tuple[Series, str]:
    """The aggregated series, and the SHA-256 hex digest of the bytes parsed."""
    path = config.output_dir / "aggregates.json"
    if not path.exists():
        raise DataError(f"aggregated series not found: {path}; run `simulate` first")
    data = read_file(path, text=False)
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: aggregated series is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: aggregated series must be a JSON object")
    if payload.get("config_hash") != config.config_hash:
        raise ConfigError(
            f"{path} was produced under config {str(payload.get('config_hash'))[:12]}..., "
            f"current config is {config.config_hash[:12]}...; refusing to mix artifacts"
        )
    try:
        keys = payload["categories"]
        if keys != list(config.schema.keys):
            raise DataError(
                f"{path}: aggregated series has categories {keys}, "
                f"the config's schema has {list(config.schema.keys)}"
            )
        aggregates = {}
        for row in payload["rows"]:
            probs = {k: float(row["probs"][k]) for k in keys}
            for k, p in probs.items():
                if not 0.0 <= p <= 1.0:  # NaN fails too
                    raise ValueError(f"probability for {k!r} out of [0, 1]: {p}")
            aggregates[dt.date.fromisoformat(row["date"])] = probs
        return aggregates, hashlib.sha256(data).hexdigest()
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: aggregated series is malformed: {exc!r}") from None


def _open_cache(config: RunConfig) -> ResponseCache:
    """The run's response cache, opened once the output and cache directories
    are known to be writable, so that an unusable path is a data error before
    the first engine call rather than after it."""
    for label, directory in (
        ("paths.output_dir", config.output_dir),
        ("paths.cache_dir", config.cache_dir),
    ):
        try:
            directory.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryFile(dir=directory):
                pass
        except OSError as exc:
            raise DataError(f"{label} {directory} is not a writable directory: {exc}") from None
    return ResponseCache(config.cache_path)


def _build_twin(config: RunConfig) -> DigitalTwin:
    return DigitalTwin(
        population=sample_population(config.population_spec, config.seeds["population"]),
        engine=build_engine(config.engine, config.schema),
        cache=_open_cache(config),
        template=config.template,
        schema=config.schema,
        parallelism=config.parallelism,
    )


def _load_inputs(config: RunConfig):
    policy, policy_report = load_policy_csv(config.policy_csv, config.policy_columns)
    observations, obs_report = load_observations_csv(
        config.observations_csv, config.observation_columns, config.observation_date_column
    )
    return policy, policy_report, observations, obs_report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(config: RunConfig) -> None:
    """population -> cognitive engine -> population mean over all split dates."""
    policy, policy_report, _, _ = _load_inputs(config)
    twin = _build_twin(config)
    ranges = [config.split.train, config.split.validation, config.split.test]
    contexts = contexts_from_policy(policy, ranges)
    if not contexts:
        raise DataError("no policy dates fall inside the configured split ranges")
    with twin.cache:
        vectors, sim_log = twin.simulate_contexts(contexts)
    aggregates = {c.date: v for c, v in zip(contexts, vectors) if v is not None}
    config.output_dir.mkdir(parents=True, exist_ok=True)
    save_population(twin.population, config.output_dir / "population.jsonl")
    write_aggregates(config, aggregates)
    _write_manifest(
        config,
        "simulate",
        {
            "engine_digest": twin.engine.digest,
            **_engine_counts(twin.engine, twin.cache),
            "n_dates": len(aggregates),
            "policy_load_report": policy_report.to_dict(),
            "simulation_log": sim_log.to_dict(),
        },
    )


def cmd_calibrate(config: RunConfig) -> None:
    """Fit the per-category clipped affine map on the train split only."""
    aggregates, _ = read_aggregates(config)
    _, _, observations, obs_report = _load_inputs(config)
    train = config.split.train
    train_obs = train.restrict(observations)
    pairs = pair_by_date(train.restrict(aggregates), train_obs)
    params, report = fit_calibration(pairs, config.fit)
    save_calibration(
        params,
        config.output_dir / "calibration.json",
        report=report,
        config_hash=config.config_hash,
    )
    _write_text(config.output_dir / "fit_report.txt", report.to_text(), config)
    _write_manifest(
        config,
        "calibrate",
        {
            "observations_read": {
                "split": "train",
                "start": train.start.isoformat(),
                "end": train.end.isoformat(),
                "n_dates": len(train_obs),
            },
            "observations_load_report": obs_report.to_dict(),
            "n_training_pairs": len(pairs),
            "fit_report": report.to_dict(),
        },
    )


def _gbm_fit_on_train(config: RunConfig, policy, observations):
    train_obs = config.split.train.restrict(observations)
    X, used_dates = bl.build_feature_matrix(policy, list(train_obs))
    if not used_dates:
        raise DataError("no train dates have full lag coverage for the boosted baseline")
    targets = {key: [train_obs[d][key] for d in used_dates] for key in config.schema.keys}
    return bl.fit_gbm(X, targets, config.gbm, seed=config.seeds["gbm"])


def _evaluate_split(config: RunConfig, split_name, policy, observations, aggregates, calibration, gbm_model, calibration_digest):
    split_range = config.split.range_for(split_name)
    obs_split = split_range.restrict(observations)
    if not obs_split:
        raise DataError(f"no observations inside the {split_name} split")
    provenance = {
        "config_hash": config.config_hash,
        "split_range": [split_range.start.isoformat(), split_range.end.isoformat()],
        "population_seed": config.seeds["population"],
        "engine_digest": config.engine.engine_digest(),
        "calibration_artifact_sha256": calibration_digest,
        "improvement_formula": "(reference - ours) / reference * 100",
    }

    twin_predictions = {
        d: apply_calibration(vec, calibration)
        for d, vec in split_range.restrict(aggregates).items()
    }
    if not twin_predictions:
        raise DataError(f"no aggregates available inside the {split_name} split")

    persistence_predictions = bl.persistence_forecast(observations, list(obs_split))

    X_eval, eval_dates = bl.build_feature_matrix(policy, list(obs_split))
    gbm_by_category = bl.predict_gbm_matrix(gbm_model, X_eval)
    gbm_predictions = {
        d: {key: float(gbm_by_category[key][i]) for key in config.schema.keys}
        for i, d in enumerate(eval_dates)
    }

    # all three methods are scored on the dates every one of them predicts
    scored = set(twin_predictions).intersection(gbm_predictions, persistence_predictions)
    if not scored:
        raise DataError(
            f"no date in the {split_name} split has a prediction from the twin, "
            "the boosted baseline and persistence alike"
        )

    def report(method, predictions):
        predictions = {d: p for d, p in predictions.items() if d in scored}
        return evaluate_predictions(
            method, split_name, predictions, obs_split, config.schema.keys, provenance
        )

    twin_report = report("digital-twin", twin_predictions)
    gbm_report = report("gbm", gbm_predictions)
    persistence_report = report("persistence", persistence_predictions)
    twin_vs_gbm = compare(twin_report, gbm_report)

    labels = {c.key: c.label for c in config.schema}
    text = "\n\n".join(
        [
            twin_vs_gbm.to_text(labels),
            gbm_report.to_text(labels),
            persistence_report.to_text(labels),
        ]
    )
    _write_text(config.output_dir / f"eval_{split_name}.txt", text, config)
    _write_json(
        config.output_dir / f"eval_{split_name}.json",
        {
            "config_hash": config.config_hash,
            "split": split_name,
            "digital_twin_vs_gbm": twin_vs_gbm.to_dict(),
            "gbm": gbm_report.to_dict(),
            "persistence": persistence_report.to_dict(),
        },
    )

    plot_path = config.output_dir / f"plot_{split_name}.csv"
    with plot_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "category", "observed", "twin", "gbm", "persistence"])
        for d, observed in obs_split.items():
            for key, value in observed.items():
                def cell(preds):
                    return repr(preds[d][key]) if d in preds else ""
                writer.writerow(
                    [
                        d.isoformat(),
                        key,
                        repr(value),
                        cell(twin_predictions),
                        cell(gbm_predictions),
                        cell(persistence_predictions),
                    ]
                )
    return {
        "twin_macro_rmse": twin_report.macro_rmse,
        "gbm_macro_rmse": gbm_report.macro_rmse,
        "persistence_macro_rmse": persistence_report.macro_rmse,
        "n_dates": twin_report.n_dates,
    }


def cmd_evaluate(config: RunConfig) -> None:
    """Score the twin, boosted, and persistence methods on validation and test."""
    aggregates, _ = read_aggregates(config)
    calibration, calibration_digest = load_calibration(
        config.output_dir / "calibration.json", expected_config_hash=config.config_hash
    )
    policy, _, observations, _ = _load_inputs(config)
    gbm_model = _gbm_fit_on_train(config, policy, observations)
    bl.save_gbm(gbm_model, config.output_dir / "gbm_model.json")
    summary = {}
    for split_name in ("validation", "test"):
        summary[split_name] = _evaluate_split(
            config, split_name, policy, observations, aggregates,
            calibration, gbm_model, calibration_digest,
        )
    _write_manifest(
        config,
        "evaluate",
        {
            "summary": summary,
            "observations_read": {
                "scored_splits": ["validation", "test"],
                "gbm_training_split": "train",
                "persistence_history": "observations strictly before each target date",
            },
        },
    )


def cmd_counterfactual(config: RunConfig, scenario_path: str) -> None:
    """Run a policy-override sweep through the fitted twin."""
    calibration, _ = load_calibration(
        config.output_dir / "calibration.json", expected_config_hash=config.config_hash
    )
    scenarios = load_scenarios(scenario_path)
    twin = _build_twin(config)
    with twin.cache:
        report = run_counterfactuals(twin, scenarios, calibration)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["config_hash"] = config.config_hash
    payload["note"] = (
        "aggregate columns are raw probabilities x 100; calibrated columns are "
        "metric units from the fitted map"
    )
    _write_json(config.output_dir / "counterfactual.json", payload)
    _write_text(config.output_dir / "counterfactual.txt", report.to_text(config.schema), config)
    _write_manifest(
        config,
        "counterfactual",
        {
            "engine_digest": twin.engine.digest,
            **_engine_counts(twin.engine, twin.cache),
            "scenarios": [s.name for s in scenarios],
            "baseline": report.baseline_name,
            "simulation_log": {
                "survivors_by_scenario": {
                    s.name: n for s, (_, n) in zip(scenarios, report.simulation_log.survivors)
                },
                "failures": report.simulation_log.failures,
            },
        },
    )


def cmd_ablate(config: RunConfig) -> None:
    """Score the ablation matrix on the chain's aggregates and calibration and
    report macro-RMSE per variant; only the persona variants simulate."""
    aggregates, aggregates_digest = read_aggregates(config)
    calibration, calibration_digest = load_calibration(
        config.output_dir / "calibration.json", expected_config_hash=config.config_hash
    )
    policy, _, observations, _ = _load_inputs(config)
    inputs = AblationInputs(
        policy=policy,
        observations=observations,
        split=config.split,
        schema=config.schema,
        population_spec=config.population_spec,
        template=config.template,
        fit_config=config.fit,
        population_seed=config.seeds["population"],
        parallelism=config.parallelism,
    )
    engine = build_engine(config.engine, config.schema)
    with _open_cache(config) as cache:
        report = run_ablation_suite(inputs, engine, cache, aggregates, calibration)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["config_hash"] = config.config_hash
    payload["note"] = "no-calibration maps probabilities to percent units as 100 * p"
    _write_json(config.output_dir / "ablation.json", payload)
    _write_text(config.output_dir / "ablation.txt", report.to_text(), config)
    _write_manifest(
        config,
        "ablate",
        {
            **_engine_counts(engine, cache),
            "variants": list(ABLATION_VARIANTS),
            "aggregates_sha256": aggregates_digest,
            "calibration_artifact_sha256": calibration_digest,
            "simulation_log": {
                variant: log.to_dict() for variant, log in report.simulation_logs.items()
            },
        },
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are config errors (exit 1)
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``main`` reuses it."""
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration YAML")
    common.add_argument("--seed-override", type=int, default=None, help="set all seeds to N")
    common.add_argument("--parallelism", type=int, default=None, help="engine query parallelism")
    common.add_argument(
        "--engine", choices=["remote", "oracle", "replay"], default=None,
        help="override the configured engine kind",
    )
    parser = _Parser(prog="socialtwin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="aggregate behavior over all split dates")
    sub.add_parser("calibrate", parents=[common], help="fit the calibration map on train")
    sub.add_parser("evaluate", parents=[common], help="score twin and baselines on val/test")
    p = sub.add_parser("counterfactual", parents=[common], help="run a scenario sweep")
    p.add_argument("--scenarios", required=True, help="scenario sweep YAML file")
    sub.add_parser(
        "ablate", parents=[common],
        help="run the ablation matrix (run simulate and calibrate first)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_run_config(
            args.config,
            engine_override=args.engine,
            seed_override=args.seed_override,
            parallelism_override=args.parallelism,
        )
        if args.command == "simulate":
            cmd_simulate(config)
        elif args.command == "calibrate":
            cmd_calibrate(config)
        elif args.command == "evaluate":
            cmd_evaluate(config)
        elif args.command == "counterfactual":
            cmd_counterfactual(config, args.scenarios)
        elif args.command == "ablate":
            cmd_ablate(config)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

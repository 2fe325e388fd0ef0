import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
import yaml

from socialtwin.cli import main
from socialtwin.config import load_profile, load_run_config
from socialtwin.errors import ConfigError
from synthetic import make_synthetic_dataset

from conftest import SPLIT_18MO, write_run_workspace


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(days=545)


@pytest.fixture()
def workspace(dataset, tmp_path):
    config_path = write_run_workspace(
        tmp_path, dataset, SPLIT_18MO, fit_trials=25, gbm_trees=40
    )
    return tmp_path, config_path


def run(config_path, *args):
    return main([*args, "--config", str(config_path)])


def _set(config: dict, setting: str, value) -> None:
    """Set the dotted ``setting`` of a parsed run config, adding sections."""
    *parents, name = setting.split(".")
    node = config
    for parent in parents:
        node = node.setdefault(parent, {})
    node[name] = value


def test_simulate_success_writes_series_and_manifest(workspace):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    out = root / "out"
    assert (out / "aggregates.json").exists()
    assert (out / "aggregates.csv").exists()
    assert (out / "population.jsonl").exists()
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["n_dates"] > 500
    assert manifest["simulation_log"]["failures"] == []


def test_missing_csv_nonzero_exit_names_path(workspace, capsys):
    root, config_path = workspace
    (root / "policy.csv").unlink()
    assert run(config_path, "simulate") != 0
    assert "policy.csv" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf"])
@pytest.mark.parametrize(
    "csv_name, date",
    [
        ("observations.csv", "2020-06-01"),  # a train row
        ("observations.csv", "2021-08-02"),  # a test row
        ("policy.csv", "2021-08-02"),
    ],
)
def test_non_finite_input_value_exits_two_naming_file_row_and_column(
    workspace, capsys, csv_name, date, raw
):
    """Such a value would reach the fits: NaN test RMSEs in the manifest, or a
    calibration and GBM fitted to it."""
    root, config_path = workspace
    path = root / csv_name
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = next(i for i, line in enumerate(lines) if line.startswith(date))
    lines[row] = ",".join(lines[row].split(",")[:-1] + [raw])
    path.write_text("\n".join(lines) + "\n")
    assert run(config_path, "simulate") == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: row {row + 1}: non-finite number {raw!r} in column {header[-1]!r}\n"
    )


def test_overlapping_split_refused_before_any_computation(dataset, tmp_path, capsys):
    overlapping = {
        "train": {"start": "2020-04-01", "end": "2021-03-31"},
        "validation": {"start": "2021-03-01", "end": "2021-06-30"},  # overlaps train
        "test": {"start": "2021-07-01", "end": "2021-09-27"},
    }
    config_path = write_run_workspace(tmp_path, dataset, overlapping)
    assert run(config_path, "simulate") == 1
    assert "disjoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_full_pipeline_and_replay_uses_zero_engine_calls(workspace):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    assert run(config_path, "evaluate") == 0
    assert run(config_path, "counterfactual", "--scenarios", str(root / "scenarios.yaml")) == 0

    # replay against the populated cache: zero engine calls logged
    assert run(config_path, "simulate", "--engine", "replay") == 0
    manifest = json.loads((root / "out" / "simulate_manifest.json").read_text())
    assert manifest["engine_calls"] == 0
    assert manifest["cache_misses"] == 0

    for name in ("calibration.json", "eval_validation.txt", "eval_test.txt",
                 "plot_test.csv", "counterfactual.txt", "gbm_model.json"):
        assert (root / "out" / name).exists(), name


def test_replay_with_empty_cache_exits_three(workspace, capsys):
    root, config_path = workspace
    assert run(config_path, "simulate", "--engine", "replay") == 3
    assert "replay cache miss" in capsys.readouterr().err


def test_evaluate_before_simulate_is_data_error(workspace, capsys):
    _, config_path = workspace
    assert run(config_path, "evaluate") == 2
    assert "simulate" in capsys.readouterr().err


def test_artifact_config_hash_mismatch_refused(workspace, capsys):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    # change a semantic key: the aggregates on disk no longer match
    config = yaml.safe_load(config_path.read_text())
    config["seeds"]["population"] = 999
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "calibrate") == 1
    assert "refusing to mix" in capsys.readouterr().err


def test_seed_override_changes_config_hash(workspace):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    first = json.loads((root / "out" / "simulate_manifest.json").read_text())["config_hash"]
    assert run(config_path, "simulate", "--seed-override", "77") == 0
    second = json.loads((root / "out" / "simulate_manifest.json").read_text())["config_hash"]
    assert first != second


def test_usage_errors_exit_one(capsys):
    assert main(["simulate"]) == 1  # missing --config
    assert main(["not-a-command", "--config", "x.yaml"]) == 1
    assert main(["simulate", "--config", "/nonexistent/run.yaml"]) == 1


def test_main_builds_its_parser_once(capsys, monkeypatch):
    from socialtwin import cli

    parsers = []
    parse_args = cli._Parser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recorded)
    assert main(["simulate", "--config", "/nonexistent/run.yaml", "--parallelism", "2"]) == 1
    capsys.readouterr()
    assert main(["simulate", "--parallelism", "two"]) == 1  # a usage error on the reused parser
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--parallelism" in err
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_cold_simulate_writes_the_same_cache_each_run(workspace, parallelism):
    """A record holds nothing that changes from run to run: two cold runs
    write the same bytes, in the same order unless requests overlap."""
    root, config_path = workspace
    caches = []
    for _ in range(2):
        for stale in (root / "cache").glob("*.jsonl"):
            stale.unlink()
        assert run(config_path, "simulate", "--parallelism", str(parallelism)) == 0
        caches.append(next((root / "cache").glob("*.jsonl")).read_bytes())
    if parallelism == 1:
        assert caches[0] == caches[1]
    else:
        assert sorted(caches[0].splitlines()) == sorted(caches[1].splitlines())


def test_ablate_writes_all_variants(workspace):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    assert run(config_path, "ablate") == 0
    out = root / "out"
    payload = json.loads((out / "ablation.json").read_text())
    assert set(payload["macro_rmse"]) == {
        "full", "no-calibration", "no-clipping", "single-slope",
        "uniform-personas", "single-persona",
    }
    assert payload["macro_rmse"]["no-calibration"] > payload["macro_rmse"]["full"]
    manifest = json.loads((out / "ablate_manifest.json").read_text())
    for key, name in (("aggregates_sha256", "aggregates.json"),
                      ("calibration_artifact_sha256", "calibration.json")):
        assert manifest[key] == hashlib.sha256((out / name).read_bytes()).hexdigest()
    logs = manifest["simulation_log"]
    assert set(logs) == {"uniform-personas", "single-persona"}
    assert all(log["failures"] == [] and log["survivors_by_date"] for log in logs.values())


def test_ablate_before_simulate_is_data_error(workspace, capsys):
    _, config_path = workspace
    assert run(config_path, "ablate") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "run `simulate` first" in err


def test_ablate_before_calibrate_is_data_error(workspace, capsys):
    _, config_path = workspace
    assert run(config_path, "simulate") == 0
    capsys.readouterr()
    assert run(config_path, "ablate") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "calibration.json" in err


def test_ablate_refuses_artifacts_of_another_config(workspace, capsys):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    config = yaml.safe_load(config_path.read_text())
    config["seeds"]["population"] = 999
    config_path.write_text(yaml.safe_dump(config))
    capsys.readouterr()
    assert run(config_path, "ablate") == 1
    assert "refusing to mix" in capsys.readouterr().err
    assert not (root / "out" / "ablation.json").exists()


def test_calibrate_manifest_declares_train_only_reads(workspace):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    manifest = json.loads((root / "out" / "calibrate_manifest.json").read_text())
    declared = manifest["observations_read"]
    assert declared["split"] == "train"
    assert declared["start"] == SPLIT_18MO["train"]["start"]
    assert declared["end"] == SPLIT_18MO["train"]["end"]


def test_parallelism_flag_gives_same_aggregates(workspace):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    serial = (root / "out" / "aggregates.json").read_bytes()
    assert run(config_path, "simulate", "--parallelism", "4") == 0
    parallel = (root / "out" / "aggregates.json").read_bytes()
    assert serial == parallel


def _use_population_file(config_path, attributes, **dump_options):
    """Point the run config at a population spec file with these attributes."""
    spec_path = config_path.parent / "population.yaml"
    spec = {"population_size": 20, "attributes": attributes}
    spec_path.write_text(yaml.safe_dump(spec, sort_keys=False, **dump_options))
    config = yaml.safe_load(config_path.read_text())
    config["paths"]["population_spec"] = "population.yaml"
    config_path.write_text(yaml.safe_dump(config))
    return spec_path


@pytest.mark.parametrize("broken", ["population", "scenarios"])
def test_invalid_yaml_in_spec_or_scenarios_exits_one(workspace, capsys, broken):
    root, config_path = workspace
    bad = "attributes: [unclosed\n  - {a: 1\n"
    if broken == "population":
        spec_path = _use_population_file(config_path, {"income": {"Low": 1.0}})
        spec_path.write_text(bad)
        code = run(config_path, "simulate")
        name = "population.yaml"
    else:
        assert run(config_path, "simulate") == 0
        assert run(config_path, "calibrate") == 0
        (root / "scenarios.yaml").write_text(bad)
        code = run(config_path, "counterfactual", "--scenarios", str(root / "scenarios.yaml"))
        name = "scenarios.yaml"
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and err.count(name) == 1 and "invalid YAML" in err
    assert len(err.splitlines()) == 1


def test_packaged_profile_is_parsed_once_and_each_caller_gets_its_own_copy(
    workspace, monkeypatch
):
    from socialtwin import config

    _, config_path = workspace
    config._parsed_profile.cache_clear()
    parsed = []
    load_yaml = config._load_yaml
    monkeypatch.setattr(config, "_load_yaml", lambda path: parsed.append(path.name) or load_yaml(path))
    first, second = load_run_config(config_path), load_run_config(config_path)
    assert sorted(parsed) == ["pandemic_uae.yaml", "run.yaml", "run.yaml"]
    assert first.config_hash == second.config_hash

    mine = load_profile("pandemic-uae")
    categories = [dict(c) for c in mine["categories"]]
    mine["categories"][0]["key"] = "changed"
    mine["categories"].pop()
    assert load_profile("pandemic-uae")["categories"] == categories
    for _ in range(2):
        with pytest.raises(ConfigError, match="unknown profile 'no-such'"):
            load_profile("no-such")


def test_config_hash_follows_population_attribute_order(workspace):
    from socialtwin.config import load_run_config

    _, config_path = workspace
    attributes = {
        "nationality": {"UAE National": 0.1, "Expatriate": 0.9},
        "income": {"Low": 0.35, "Middle": 0.45, "High": 0.2},
    }
    _use_population_file(config_path, attributes)
    first = load_run_config(config_path).config_hash
    _use_population_file(config_path, attributes, default_flow_style=True)
    assert load_run_config(config_path).config_hash == first  # same order, new layout
    _use_population_file(config_path, dict(reversed(attributes.items())))
    assert load_run_config(config_path).config_hash != first
    reordered_values = dict(attributes, income={"High": 0.2, "Low": 0.35, "Middle": 0.45})
    _use_population_file(config_path, reordered_values)
    assert load_run_config(config_path).config_hash != first


@pytest.mark.parametrize(
    "broken, text, names",
    [
        ("population", "- population_size: 20\n", "population.yaml"),
        ("population", "population_size: 20\nattributes: [income, nationality]\n", "attributes"),
        ("population", "population_size: twenty\nattributes: {income: {Low: 1.0}}\n", "population_size"),
        ("population", "population_size: 20.7\nattributes: {income: {Low: 1.0}}\n", "population_size"),
        ("population", "population_size: true\nattributes: {income: {Low: 1.0}}\n", "population_size"),
        ("population", "population_size: 20\nattributes: {income: Low}\n", "income"),
        (
            "population",
            "population_size: 3\nattributes: {income: {Low: 1.0}}\nseed: 5\n",
            "population.yaml: population spec has unknown key 'seed'",
        ),
        ("scenarios", "- just a string\n", "scenarios.yaml"),
        ("scenarios", "- {name: a, date: 2021-02-30, stringency_override: 50}\n", "scenarios.yaml"),
        ("scenarios", "- {name: a, date: June 1, stringency_override: 50}\n", "invalid date"),
        ("scenarios", "- {name: a, date: 2020-06-01, stringency_override: high}\n", "stringency_override"),
        (
            "scenarios",
            "- {name: a, date: 2020-04-15, stringency_override: 50, stringncy: 90}\n",
            "scenarios.yaml: scenario entry has unknown key 'stringncy': {'name': 'a'",
        ),
        (
            "scenarios",
            "- {name: dup, date: 2020-04-15, stringency_override: 10}\n"
            "- {name: dup, date: 2020-04-15, stringency_override: 100}\n",
            "scenarios.yaml: scenario name 'dup' is listed twice",
        ),
    ],
    ids=[
        "spec-is-list", "attributes-is-list", "size-not-integer", "size-fractional",
        "size-boolean", "values-not-mapping", "spec-unknown-key",
        "entry-is-string", "impossible-date", "unparseable-date", "stringency-not-number",
        "entry-unknown-key",
        "duplicate-name",
    ],
)
def test_malformed_spec_or_scenarios_exits_one(workspace, capsys, broken, text, names):
    root, config_path = workspace
    if broken == "population":
        _use_population_file(config_path, {"income": {"Low": 1.0}}).write_text(text)
        code = run(config_path, "simulate")
    else:
        assert run(config_path, "simulate") == 0
        assert run(config_path, "calibrate") == 0
        (root / "scenarios.yaml").write_text(text)
        code = run(config_path, "counterfactual", "--scenarios", str(root / "scenarios.yaml"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and names in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "setting, value, key",
    [
        ("engine.retry_limit", "abc", "engine.retry_limit"),
        ("engine.timeout", True, "engine.timeout"),
        ("parallelism", "two", "parallelism"),
        ("parallelism", True, "parallelism"),
        ("fit.trials", "many", "fit.trials"),
        ("fit.trials", float("inf"), "fit.trials"),
        ("fit.alpha_range", ["a", 1.0], "fit.alpha_range[0]"),
        ("fit.beta_range", 5, "fit.beta_range"),
        ("seeds.population", "x", "seeds.population"),
        ("seeds.fit", False, "seeds.fit"),
        ("gbm.n_trees", [1], "gbm.n_trees"),
        ("gbm.learning_rate", "fast", "gbm.learning_rate"),
        ("clip_bounds", ["low", 200.0], "clip_bounds[0]"),
        ("clip_bounds", [0.0], "clip_bounds"),
    ],
)
def test_non_numeric_setting_exits_one(workspace, capsys, setting, value, key):
    _, config_path = workspace
    config = yaml.safe_load(config_path.read_text())
    _set(config, setting, value)
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "simulate") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be") and "Traceback" not in err


@pytest.mark.parametrize(
    "damage, code, message",
    [
        ("null-hash", 1, "records no config hash"),
        ("truncated", 2, "not valid JSON"),
        ("no-categories", 2, "malformed"),
        ("inverted-clip", 2, "malformed"),
    ],
    ids=["null-hash", "truncated", "no-categories", "inverted-clip"],
)
def test_evaluate_rejects_damaged_calibration_artifact(workspace, capsys, damage, code, message):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    path = root / "out" / "calibration.json"
    payload = json.loads(path.read_text())
    if damage == "null-hash":
        payload["config_hash"] = None
    elif damage == "no-categories":
        del payload["categories"]
    elif damage == "inverted-clip":
        for params in payload["categories"].values():
            params["y_min"], params["y_max"] = params["y_max"], params["y_min"]
    path.write_text(json.dumps(payload))
    if damage == "truncated":
        path.write_text(path.read_text()[:-40])
    capsys.readouterr()
    assert run(config_path, "evaluate") == code
    err = capsys.readouterr().err
    assert message in err and "calibration.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["calibrate", "evaluate", "ablate"])
@pytest.mark.parametrize(
    "damage",
    [
        "truncated", "not-object", "no-categories", "no-rows", "bad-date",
        "missing-probability", "non-numeric-probability", "probability-above-one",
    ],
)
def test_damaged_aggregates_artifact_is_data_error(workspace, capsys, command, damage):
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    path = root / "out" / "aggregates.json"
    text = path.read_text()
    payload = json.loads(text)
    row = payload["rows"][0]
    if damage == "truncated":
        text = text[:-40]
    elif damage == "not-object":
        text = json.dumps(payload["rows"])
    else:
        if damage == "no-categories":
            del payload["categories"]
        elif damage == "no-rows":
            del payload["rows"]
        elif damage == "bad-date":
            row["date"] = "2020-13-01"
        elif damage == "missing-probability":
            del row["probs"]["stay_home"]
        elif damage == "non-numeric-probability":
            row["probs"]["stay_home"] = "high"
        else:
            row["probs"]["stay_home"] = 1.85
        text = json.dumps(payload)
    path.write_text(text)
    capsys.readouterr()
    assert run(config_path, command) == 2
    err = capsys.readouterr().err
    message = {"truncated": "not valid JSON", "not-object": "must be a JSON object"}
    assert err.startswith("data error:") and "aggregates.json" in err
    assert message.get(damage, "malformed") in err
    assert "Traceback" not in err


def _chain(root, config_path):
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    assert run(config_path, "counterfactual", "--scenarios", str(root / "scenarios.yaml")) == 0
    assert run(config_path, "ablate") == 0
    return {
        command: json.loads((root / "out" / f"{command}_manifest.json").read_text())
        for command in ("simulate", "counterfactual", "ablate")
    }


def test_counterfactual_is_one_pass_and_ablate_builds_one_engine(workspace, monkeypatch):
    from socialtwin.cognition import SyntheticOracleEngine
    from socialtwin.twin import DigitalTwin

    root, config_path = workspace
    calls = []
    simulate_contexts = DigitalTwin.simulate_contexts
    engine_init = SyntheticOracleEngine.__init__

    def counting_pass(self, contexts):
        calls.append(("pass", len(contexts)))
        return simulate_contexts(self, contexts)

    def counting_engine(self, *args):
        calls.append(("engine",))
        engine_init(self, *args)

    monkeypatch.setattr(DigitalTwin, "simulate_contexts", counting_pass)
    monkeypatch.setattr(SyntheticOracleEngine, "__init__", counting_engine)
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    calls.clear()
    assert run(config_path, "counterfactual", "--scenarios", str(root / "scenarios.yaml")) == 0
    assert calls == [("engine",), ("pass", 3)]
    calls.clear()
    assert run(config_path, "ablate") == 0
    # the uniform and single-persona populations: two passes, one engine
    assert [c[0] for c in calls] == ["engine", "pass", "pass"]


def test_warm_chain_manifests_report_zero_engine_calls(workspace):
    root, config_path = workspace
    cold = _chain(root, config_path)
    warm = _chain(root, config_path)
    assert cold["counterfactual"]["simulation_log"] == {
        "survivors_by_scenario": {"relaxed": 10, "baseline": 10, "extreme": 10},
        "failures": [],
    }
    for command in ("simulate", "counterfactual", "ablate"):
        assert cold[command]["engine_calls"] > 0, command
        assert cold[command]["cache_misses"] == cold[command]["engine_calls"], command
        assert warm[command]["engine_calls"] == 0, command
        assert warm[command]["cache_misses"] == 0, command
        assert warm[command]["cache_hits"] > 0, command
        assert warm[command]["cache_lines_skipped"] == 0, command


def test_weighted_aggregation_writes_the_mean_rows(workspace):
    """A run config that still sets the retired ``aggregation`` key loads,
    hashes as one without it, and writes the same aggregates."""
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    mean = (root / "out" / "aggregates.json").read_bytes()
    config = yaml.safe_load(config_path.read_text())
    config["aggregation"] = "weighted"
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "simulate") == 0
    assert (root / "out" / "aggregates.json").read_bytes() == mean


@pytest.mark.parametrize(
    "setting, value, key",
    [
        ("fit", 5, "fit"),
        ("gbm", "deep", "gbm"),
        ("seeds", [1, 2], "seeds"),
        ("engine", "oops", "engine"),
        ("paths", 7, "paths"),
        ("engine.oracle", 5, "engine.oracle"),
        ("categories", 5, "categories"),
        ("engine.response_text_path", 5, "engine.response_text_path"),
        ("engine.request_fields", {"model": [1]}, "engine.request_fields"),
    ],
)
def test_config_section_of_the_wrong_shape_exits_one(workspace, capsys, setting, value, key):
    _, config_path = workspace
    config = yaml.safe_load(config_path.read_text())
    _set(config, setting, value)
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "simulate") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {key} must be")


@pytest.mark.parametrize("setting", ["output_dir", "cache_dir"])
def test_unusable_output_path_exits_two_before_any_engine_call(
    workspace, capsys, monkeypatch, setting
):
    from socialtwin import cli

    root, config_path = workspace
    (root / "blocker").write_text("a regular file\n")
    config = yaml.safe_load(config_path.read_text())
    config["paths"][setting] = "blocker/sub"
    config_path.write_text(yaml.safe_dump(config))
    engines = []

    def recording_build_engine(*args):
        engines.append(cli_build_engine(*args))
        return engines[-1]

    cli_build_engine = cli.build_engine
    monkeypatch.setattr(cli, "build_engine", recording_build_engine)
    assert run(config_path, "simulate") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: paths.{setting}") and "blocker" in err
    assert [engine.call_count for engine in engines] == [0]


def test_calibration_artifact_records_the_one_fit_method(workspace):
    """The fit block of ``calibration.json`` records no sampler or objective,
    and no trial count per category: every category ran the fit's ``trials``."""
    root, config_path = workspace
    assert run(config_path, "simulate") == 0
    assert run(config_path, "calibrate") == 0
    fit = json.loads((root / "out" / "calibration.json").read_text())["fit"]
    assert sorted(fit) == ["alpha_range", "beta_range", "per_category", "seed", "trials"]
    assert fit["trials"] == 25
    report = (root / "out" / "fit_report.txt").read_text()
    assert "calibration fit: trials=25 seed=3\n" in report
    for record in fit["per_category"].values():
        assert sorted(record) == ["best_loss", "degenerate", "initializer_loss", "range_widened"]


@pytest.mark.parametrize(
    "name, search_range",
    [
        ("alpha", [float("-inf"), float("inf")]),
        ("alpha", [-1e308, 1e308]),  # the width overflows
        ("beta", [0.0, float("inf")]),
    ],
)
def test_search_range_of_infinite_width_exits_one(workspace, capsys, name, search_range):
    """An infinite width would draw NaN trials and write a NaN calibration."""
    root, config_path = workspace
    config = yaml.safe_load(config_path.read_text())
    config["fit"][f"{name}_range"] = search_range
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "simulate") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} search range must have a finite width")
    assert not (root / "out").exists()


@pytest.mark.parametrize(
    "setting",
    [
        "parallelsim",
        "fit.trails",
        "paths.cache",
        "engine.retries",
        "gbm.depth",
        "seeds.engine",
        "split.holdout",
        "split.train.stop",
        "engine.oracle.noise_scal",
    ],
)
def test_unknown_setting_exits_one(workspace, capsys, setting):
    _, config_path = workspace
    config = yaml.safe_load(config_path.read_text())
    _set(config, setting, 2)
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "simulate") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: unknown setting {setting};")


@pytest.mark.parametrize(
    "setting, value",
    [
        ("fit.sampler", "random"),
        ("fit.sampler", "least-squares-init"),
        ("fit.objective", "macro-average"),
        ("aggregation", "median"),
    ],
)
def test_retired_option_with_another_value_exits_one(workspace, capsys, setting, value):
    _, config_path = workspace
    config = yaml.safe_load(config_path.read_text())
    _set(config, setting, value)
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "simulate") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: the {setting} option was removed")


@pytest.mark.parametrize(
    "setting, value",
    [
        ("fit.sampler", "tpe-style"),
        ("fit.objective", "per-category-independent"),
        ("aggregation", "mean"),
    ],
)
def test_retired_option_with_its_current_value_keeps_the_hash(workspace, setting, value):
    _, config_path = workspace
    config = yaml.safe_load(config_path.read_text())
    plain = load_run_config(config_path).config_hash
    _set(config, setting, value)
    config_path.write_text(yaml.safe_dump(config))
    assert load_run_config(config_path).config_hash == plain


@pytest.mark.parametrize(
    "setting",
    ["population", "policy_columns", "observation_columns", "engine.decoding", "engine.request_fields"],
)
@pytest.mark.parametrize("value", [None, {}])
def test_empty_mapping_setting_keeps_the_hash_of_one_left_out(workspace, setting, value):
    """An empty or null mapping takes the default, as it always has."""
    _, config_path = workspace
    plain = load_run_config(config_path).config_hash
    config = yaml.safe_load(config_path.read_text())
    _set(config, setting, value)
    config_path.write_text(yaml.safe_dump(config))
    assert load_run_config(config_path).config_hash == plain


def _bench_workloads(monkeypatch):
    """The benchmark's workspace writer, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_run_config_loads_with_the_hash_of_one_without_its_sampler(
    tmp_path, monkeypatch
):
    """The benchmark's generated run.yaml still writes ``fit.sampler:
    tpe-style``; it hashes as the same config without that key."""
    workloads = _bench_workloads(monkeypatch)
    space = workloads.write_workspace(tmp_path, workloads.WORKLOADS["warm_shared"], 1)
    config = yaml.safe_load(space.config.read_text())
    assert config["fit"]["sampler"] == "tpe-style"
    with_sampler = load_run_config(space.config).config_hash
    del config["fit"]["sampler"]
    space.config.write_text(yaml.safe_dump(config, sort_keys=False))
    assert load_run_config(space.config).config_hash == with_sampler


# Sets every optional key, the retired ones included, with integer-valued
# search ranges and oracle numbers (hashed as written) and an integral float
# for an integer setting.
EVERY_KEY_CONFIG = """
profile: pandemic-uae
aggregation: mean
categories:
  - {key: go_work, response_key: go_work_prob, observation_column: workplaces,
     label: Workplaces, direction: -1}
  - {key: essentials, observation_column: grocery_and_pharmacy}
  - {key: stay_home, response_key: home_prob, observation_column: residential,
     label: Residential, direction: 1}
clip_bounds: [-50, 150.5]
paths:
  policy_csv: policy.csv
  observations_csv: observations.csv
  output_dir: out
  cache_dir: responses
  prompt_template: template.txt
population:
  population_size: 12
  attributes:
    income: {Low: 0.5, High: 0.5}
    risk_perception: {Low: 0.25, Medium: 0.5, High: 0.25}
split:
  train: {start: 2020-04-01, end: 2021-03-31}
  validation: {start: '2021-04-01', end: '2021-06-30'}
  test: {start: 2021-07-01, end: 2021-09-27}
seeds: {population: 4, fit: 7, gbm: 9}
engine:
  kind: remote-http
  endpoint: http://user:pw@127.0.0.1:9/v1
  model_name: every-key-model
  retry_limit: 2
  decoding: {temperature: 0.2, max_tokens: 64}
  request_fields: {model: model_id, prompt: input}
  response_text_path: output.text
  timeout: 12
  oracle:
    intercepts: {go_work: 1, essentials: 0.5, stay_home: -1}
    slopes: {go_work: -2, essentials: -0.25, stay_home: 3}
    attribute_offsets: {income: {Low: 0.1, High: -0.1}}
    noise_scale: 0
fit:
  trials: 30
  alpha_range: [-300, 300]
  beta_range: [-100, 100.5]
  sampler: tpe-style
  objective: per-category-independent
gbm: {n_trees: 50, learning_rate: 0.2, max_depth: 3.0, min_leaf: 4, n_bins: 32}
policy_columns: {date: date, stringency: stringency}
observation_columns: {go_work: workplaces, essentials: grocery_and_pharmacy,
                      stay_home: residential}
observation_date_column: date
parallelism: 2
"""


def test_config_hash_of_configs_that_load_stays_pinned(workspace, tmp_path, monkeypatch):
    """Checking more of a config refuses configs; it changes no hash of one
    that loads."""
    root, config_path = workspace
    assert load_run_config(config_path).config_hash == (
        "ee4f2f7efd00da9c9af144a92ce94379bf27d5e2ca658af0332592a2d1f6d992"
    )
    (root / "template.txt").write_text("Date: {date}\nStringency: {stringency}\n{income}\n")
    (root / "every_key.yaml").write_text(EVERY_KEY_CONFIG)
    assert load_run_config(root / "every_key.yaml").config_hash == (
        "053033c438ca4377cbd649c555dc2666383b3782a3077abcc1b23222502e5614"
    )
    workloads = _bench_workloads(monkeypatch)
    for name, pinned in [
        ("cold_unique", "9a316b72186917abbdef58eb5038d143959df3cd0008e10fe6023b50766daf0b"),
        ("warm_shared", "9811a50c5702f6c39d98391c0111c356aa6d0c8130dda1c0e8e65840f0c06128"),
    ]:
        space = workloads.write_workspace(tmp_path / name, workloads.WORKLOADS[name], 1)
        assert load_run_config(space.config).config_hash == pinned


def test_inline_population_spec_with_an_unknown_key_exits_one(workspace, capsys):
    _, config_path = workspace
    config = yaml.safe_load(config_path.read_text())
    config["population"] = {"population_size": 3, "attributes": {"a": {"x": 1.0}}, "seed": 5}
    config_path.write_text(yaml.safe_dump(config))
    assert run(config_path, "simulate") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: population: ") and "unknown key 'seed'" in err


def test_population_specs_in_use_keep_their_hash(workspace, tmp_path, monkeypatch):
    """The benchmark's and the test workspaces' population specs give only
    ``population_size`` and ``attributes``, so refusing other keys refuses
    none of them and changes no hash."""
    _, config_path = workspace
    workloads = _bench_workloads(monkeypatch)
    pinned = {
        "cold_unique": "9a316b72186917abbdef58eb5038d143959df3cd0008e10fe6023b50766daf0b",
        "warm_shared": "9811a50c5702f6c39d98391c0111c356aa6d0c8130dda1c0e8e65840f0c06128",
        "remote_shared": "b18b26da7cef2bf38ff96949b63fd743cc81971ccba528c70cb075059127b171",
    }
    assert set(pinned) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        space = workloads.write_workspace(
            tmp_path / name, workload, 1, endpoint="http://127.0.0.1:9/v1"
        )
        spec = yaml.safe_load((space.root / "population.yaml").read_text())
        assert set(spec) == {"population_size", "attributes"}
        assert load_run_config(space.config).config_hash == pinned[name]
    # the test workspaces' hashes are pinned in the test below
    assert "population" not in yaml.safe_load(config_path.read_text())
    for spec in (load_profile("pandemic-uae")["population"],
                 yaml.safe_load(EVERY_KEY_CONFIG)["population"]):
        assert set(spec) == {"population_size", "attributes"}


def _use_template(config_path, content: bytes | None) -> Path:
    """Point the run config at ``template.txt`` holding ``content``, or at a
    directory of that name when ``content`` is None."""
    template = config_path.parent / "template.txt"
    if content is None:
        template.mkdir()
    else:
        template.write_bytes(content)
    config = yaml.safe_load(config_path.read_text())
    config["paths"]["prompt_template"] = "template.txt"
    config_path.write_text(yaml.safe_dump(config))
    return template


@pytest.mark.parametrize(
    "content, code, kind",
    [
        (b"Date: {date}\n{ oops", 1, "config error"),
        (b"Date: {date} } {stringency}", 1, "config error"),
        (b"Date: {date:>12}", 1, "config error"),
        (b"Date: {date}\nIncome: \xff{income}\n", 2, "data error"),
        (None, 2, "data error"),
    ],
    ids=["lone-open-brace", "lone-close-brace", "format-spec", "not-utf-8", "directory"],
)
def test_unusable_template_exits_before_any_engine_call(workspace, capsys, content, code, kind):
    root, config_path = workspace
    template = _use_template(config_path, content)
    assert run(config_path, "simulate") == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{kind}: {template}")
    assert not (root / "out").exists()


@pytest.mark.parametrize("flag", [False, True])
def test_parallelism_above_its_bound_exits_one_at_load(workspace, capsys, flag):
    """Checked at load, so no test starts that many worker threads."""
    root, config_path = workspace
    if flag:
        code = run(config_path, "simulate", "--parallelism", "1000000000000")
    else:
        config = yaml.safe_load(config_path.read_text())
        config["parallelism"] = 257
        config_path.write_text(yaml.safe_dump(config))
        code = run(config_path, "simulate")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: parallelism must be in [1, 256]")
    assert not (root / "out").exists()
    assert load_run_config(config_path, parallelism_override=256).parallelism == 256
    with pytest.raises(ConfigError, match="parallelism"):
        load_run_config(config_path, parallelism_override=257)

import json

import pytest
import yaml

from socialtwin.cli import main
from socialtwin.synthetic import make_synthetic_dataset

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


def test_ablate_writes_all_variants(workspace):
    root, config_path = workspace
    assert run(config_path, "ablate") == 0
    payload = json.loads((root / "out" / "ablation.json").read_text())
    assert set(payload["macro_rmse"]) == {
        "full", "no-calibration", "no-clipping", "single-slope",
        "uniform-personas", "single-persona",
    }
    assert payload["macro_rmse"]["no-calibration"] > payload["macro_rmse"]["full"]


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
    assert err.startswith("config error:") and name in err and "invalid YAML" in err
    assert "Traceback" not in err


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
        ("population", "population_size: 20\nattributes: {income: Low}\n", "income"),
        ("scenarios", "- just a string\n", "scenarios.yaml"),
        ("scenarios", "- {name: a, date: 2021-02-30, stringency_override: 50}\n", "scenarios.yaml"),
        ("scenarios", "- {name: a, date: June 1, stringency_override: 50}\n", "invalid date"),
        ("scenarios", "- {name: a, date: 2020-06-01, stringency_override: high}\n", "stringency_override"),
    ],
    ids=[
        "spec-is-list", "attributes-is-list", "size-not-integer", "values-not-mapping",
        "entry-is-string", "impossible-date", "unparseable-date", "stringency-not-number",
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

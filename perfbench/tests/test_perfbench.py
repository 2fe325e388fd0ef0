"""Tests of the benchmark's stub and output checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each check must pass on the program's real output and fail once one value
in that output is perturbed.
"""

import copy
import json
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import checks
import stub
from run import Stub
from socialtwin.cli import main
from workloads import CATEGORIES, Workload, closed_form_means, oracle_dict, persona_offsets, template_text, write_workspace

TINY = Workload("tiny", "oracle", False, 12, 40, 1, False)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One pass of the CLI chain on a tiny shared-profile workspace."""
    root = tmp_path_factory.mktemp("chain")
    space = write_workspace(root, TINY, seed=4)
    for command in ("simulate", "calibrate", "evaluate", "ablate"):
        assert main([command, "--config", str(space.config)]) == 0, command
    assert main(["counterfactual", "--config", str(space.config), "--scenarios", str(space.scenarios)]) == 0
    return space


def read(space, name):
    return json.loads((space.root / "out" / name).read_text())


def test_aggregates_match_closed_form_and_fail_when_perturbed(chain):
    population = checks.read_population(chain.root / "out" / "population.jsonl")
    policy = checks.read_policy(chain.root / "policy.csv")
    aggregates = read(chain, "aggregates.json")
    assert checks.check_aggregates(aggregates, population, policy, TINY.offsets(), 1e-12) == []
    bad = copy.deepcopy(aggregates)
    bad["rows"][7]["probs"]["essentials"] += 1e-9
    assert checks.check_aggregates(bad, population, policy, TINY.offsets(), 1e-12)


def test_distinct_prompts_match_engine_calls_and_change_with_one_persona(chain):
    population = checks.read_population(chain.root / "out" / "population.jsonl")
    dates = [d.isoformat() for d in chain.dates]
    calls = read(chain, "simulate_manifest.json")["engine_calls"]
    assert checks.count_distinct_prompts(population, dates) == calls
    extra = dict(population[0], income="Perturbed")
    assert checks.count_distinct_prompts(population + [extra], dates) == calls + len(dates)


def test_survivors_check_fails_on_a_short_date(chain):
    manifest = read(chain, "simulate_manifest.json")
    assert checks.check_survivors(manifest, TINY.personas, TINY.days) == []
    bad = copy.deepcopy(manifest)
    first = next(iter(bad["simulation_log"]["survivors_by_date"]))
    bad["simulation_log"]["survivors_by_date"][first] -= 1
    assert checks.check_survivors(bad, TINY.personas, TINY.days)


def test_persistence_recomputation_matches_and_fails_when_perturbed(chain):
    dates, values = checks.read_observations(chain.root / "observations.csv")
    test = chain.split["test"]
    expected = checks.persistence_macro_rmse(dates, values, test["start"], test["end"])
    evaluation = read(chain, "eval_test.json")
    assert checks.check_evaluation(evaluation, expected, 1e-3) == []
    bad = copy.deepcopy(evaluation)
    bad["persistence"]["macro_rmse"] += 1e-8
    assert checks.check_evaluation(bad, expected, 1e-3)
    worse_twin = copy.deepcopy(evaluation)
    worse_twin["digital_twin_vs_gbm"]["macro_rmse"] = evaluation["gbm"]["macro_rmse"]
    assert checks.check_evaluation(worse_twin, expected, 1e9)


def test_counterfactual_and_ablation_checks_fail_when_perturbed(chain):
    report = read(chain, "counterfactual.json")
    assert checks.check_counterfactual(report) == []
    bad = copy.deepcopy(report)
    bad["verdicts"]["monotonic"]["stay_home"] = False
    assert checks.check_counterfactual(bad)

    ablation = read(chain, "ablation.json")
    assert checks.check_ablation(ablation) == []
    bad = copy.deepcopy(ablation)
    bad["macro_rmse"]["single-persona"] = bad["macro_rmse"]["full"] / 2
    assert checks.check_ablation(bad)


def test_stub_parses_a_rendered_prompt():
    workload = Workload("unique", "oracle", True, 1, 1, 1, False)
    attrs = {name: next(iter(values)) for name, values in workload.attributes().items()}
    text = template_text(workload).format(**attrs, date="2020-04-01", stringency="37.5")
    parsed, stringency = stub.parse_prompt(text)
    assert parsed == attrs
    assert stringency == 37.5


def test_stub_serves_closed_form_answers_and_counts_them(tmp_path):
    workload = Workload("unique", "remote", True, 1, 1, 1, False)
    oracle_path = tmp_path / "oracle.json"
    oracle_path.write_text(json.dumps(oracle_dict(workload)))
    server = Stub(oracle_path, delay_ms=1.0)
    try:
        assert server.served() == 0
        attrs = {name: list(values)[-1] for name, values in workload.attributes().items()}
        prompt = template_text(workload).format(**attrs, date="2020-05-01", stringency="62.25")
        request = urllib.request.Request(
            server.url,
            data=json.dumps({"model": "m", "prompt": prompt}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            answer = json.load(resp)
        expected = closed_form_means(persona_offsets([attrs], workload.offsets()), np.array([62.25]))
        for key, (response_key, _, _) in CATEGORIES.items():
            assert answer[response_key] == pytest.approx(float(expected[key][0]), abs=1e-15)
        bad = urllib.request.Request(server.url, data=b"not json", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(bad, timeout=10)
        assert server.served() == 1
    finally:
        server.stop()
    assert server.proc.poll() is not None


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cold_unique", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

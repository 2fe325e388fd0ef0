"""Output checks that recompute expected results without the program.

Each check returns a list of problems; an empty list means the output is
correct. The expected values come from the closed-form oracle over
``population.jsonl``, a count of distinct (rendered attributes, date)
prompts, a recomputation of the persistence baseline from
``observations.csv``, and properties the method must have.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from workloads import CATEGORIES, closed_form_means, persona_offsets


def read_population(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line)["attributes"] for line in fh if line.strip()]


def read_policy(path: Path) -> dict[str, float]:
    with path.open(encoding="utf-8", newline="") as fh:
        return {row["date"]: float(row["stringency"]) for row in csv.DictReader(fh)}


def read_observations(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    dates = [row["date"] for row in rows]
    return dates, {
        key: np.array([float(row[col]) for row in rows]) for key, (_, col, _) in CATEGORIES.items()
    }


def count_distinct_prompts(population: list[dict], dates: list[str]) -> int:
    """Distinct (rendered attributes, date) pairs; the date fixes the
    stringency, so this is the number of distinct prompts."""
    profiles = {tuple(sorted(attrs.items())) for attrs in population}
    return len({(profile, d) for profile in profiles for d in dates})


def check_aggregates(aggregates: dict, population: list[dict], policy: dict[str, float],
                     offsets: dict, tolerance: float) -> list[str]:
    """aggregates.json against the closed-form oracle mean over the population."""
    rows = aggregates["rows"]
    dates = [row["date"] for row in rows]
    expected = closed_form_means(
        persona_offsets(population, offsets), np.array([policy[d] for d in dates])
    )
    problems = []
    for key in CATEGORIES:
        got = np.array([row["probs"][key] for row in rows])
        worst = float(np.max(np.abs(got - expected[key]))) if len(got) else 0.0
        if not worst <= tolerance:
            problems.append(f"aggregates {key}: max deviation {worst:.3g} from closed form > {tolerance:g}")
    return problems


def check_survivors(manifest: dict, personas: int, n_dates: int) -> list[str]:
    log = manifest["simulation_log"]
    problems = []
    if log["failures"]:
        problems.append(f"{len(log['failures'])} persona-cells excluded")
    survivors = log["survivors_by_date"]
    if len(survivors) != n_dates:
        problems.append(f"{len(survivors)} dates simulated, expected {n_dates}")
    short = [d for d, n in survivors.items() if n != personas]
    if short:
        problems.append(f"{len(short)} dates with fewer than {personas} survivors")
    return problems


def persistence_macro_rmse(dates: list[str], values: dict[str, np.ndarray], start: str, end: str) -> float:
    """Persistence forecast (last observation strictly before the date)
    scored over [start, end]. Observations are daily and sorted."""
    idx = [i for i, d in enumerate(dates) if start <= d <= end]
    if not idx or idx[0] == 0:
        raise ValueError("persistence needs an observation before the scored range")
    rmses = []
    for key in CATEGORIES:
        y = values[key]
        errors = y[np.array(idx) - 1] - y[np.array(idx)]
        rmses.append(float(np.sqrt(np.mean(errors**2))))
    return float(np.mean(rmses))


def check_evaluation(evaluation: dict, expected_persistence: float, twin_tolerance: float) -> list[str]:
    problems = []
    twin = evaluation["digital_twin_vs_gbm"]["macro_rmse"]
    gbm = evaluation["gbm"]["macro_rmse"]
    persistence = evaluation["persistence"]["macro_rmse"]
    if not twin <= twin_tolerance:
        problems.append(f"twin macro RMSE {twin:.3g} not near zero")
    if not twin < gbm:
        problems.append(f"twin macro RMSE {twin:.3g} not below GBM {gbm:.3g}")
    if not abs(persistence - expected_persistence) <= 1e-9:
        problems.append(f"persistence macro RMSE {persistence!r} != recomputed {expected_persistence!r}")
    return problems


def check_counterfactual(report: dict) -> list[str]:
    monotonic = report["verdicts"]["monotonic"]
    bad = [k for k in CATEGORIES if monotonic.get(k) is not True]
    return [f"counterfactual not monotonic for {bad}"] if bad else []


def check_ablation(report: dict) -> list[str]:
    macro = report["macro_rmse"]
    problems = []
    if not macro["no-calibration"] >= 2 * macro["full"]:
        problems.append(f"no-calibration {macro['no-calibration']:.3g} < 2 x full {macro['full']:.3g}")
    if not macro["single-persona"] >= macro["full"]:
        problems.append(f"single-persona {macro['single-persona']:.3g} < full {macro['full']:.3g}")
    return problems

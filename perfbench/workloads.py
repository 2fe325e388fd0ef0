"""Generated inputs for the benchmark workloads.

Every input the program reads is written here from the workload seed: the
policy and observation CSVs, the run YAML, the prompt template, the
population spec and the counterfactual scenario file. The oracle surface and
the affine map that turns aggregated probabilities into observations are the
benchmark's own constants, so the checks in ``checks.py`` can recompute the
expected outputs without calling the program.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# category key -> (response key, observation column, direction)
CATEGORIES = {
    "go_work": ("go_work_prob", "workplaces", -1),
    "discretionary_outings": ("discretionary_outings_prob", "retail_and_recreation", -1),
    "essentials": ("essentials_prob", "grocery_and_pharmacy", -1),
    "transit_use": ("transit_use_prob", "transit_stations", -1),
    "outdoor_leisure": ("outdoor_leisure_prob", "parks", -1),
    "stay_home": ("stay_home_prob", "residential", 1),
}

INTERCEPTS = {
    "go_work": 0.8,
    "discretionary_outings": -0.2,
    "essentials": 1.0,
    "transit_use": 0.2,
    "outdoor_leisure": 0.5,
    "stay_home": 0.4,
}
SLOPES = {
    "go_work": -2.2,
    "discretionary_outings": -2.8,
    "essentials": -1.2,
    "transit_use": -2.5,
    "outdoor_leisure": -1.8,
    "stay_home": 2.2,
}

# Observation = ALPHA * aggregated probability + BETA; stays inside the
# program's default clip bounds [-100, 200] for every probability in (0, 1).
ALPHA = {
    "go_work": -120.0,
    "discretionary_outings": -100.0,
    "essentials": -60.0,
    "transit_use": -110.0,
    "outdoor_leisure": -90.0,
    "stay_home": 80.0,
}
BETA = {
    "go_work": 30.0,
    "discretionary_outings": 20.0,
    "essentials": 10.0,
    "transit_use": 15.0,
    "outdoor_leisure": 25.0,
    "stay_home": -5.0,
}

# The pandemic profile's marginals: 2 * 5 * 3 * 3 = 90 possible profiles.
SHARED_ATTRIBUTES = {
    "nationality": {"UAE National": 0.10, "Expatriate": 0.90},
    "employment": {
        "Construction": 0.25,
        "Services": 0.30,
        "Professional": 0.25,
        "Public Sector": 0.10,
        "Hospitality": 0.10,
    },
    "risk_perception": {"Low": 0.25, "Medium": 0.50, "High": 0.25},
    "income": {"Low": 0.35, "Middle": 0.45, "High": 0.20},
}
SHARED_OFFSETS = {
    "risk_perception": {"Low": -0.25, "Medium": 0.0, "High": 0.3},
    "nationality": {"UAE National": 0.1, "Expatriate": 0.0},
}

# Three more attributes multiply the profile space to 90 * 6 * 5 * 4 = 10,800,
# so almost every persona is a profile of its own.
UNIQUE_EXTRA_ATTRIBUTES = {
    "age_band": {"18-24": 0.15, "25-34": 0.25, "35-44": 0.2, "45-54": 0.15, "55-64": 0.15, "65+": 0.1},
    "household": {"Single": 0.2, "Couple": 0.2, "Family": 0.3, "Shared": 0.2, "Extended": 0.1},
    "vaccination_intent": {"Refuse": 0.1, "Hesitant": 0.2, "Willing": 0.4, "Vaccinated": 0.3},
}
UNIQUE_EXTRA_OFFSETS = {
    "age_band": {"18-24": -0.2, "25-34": -0.1, "35-44": 0.0, "45-54": 0.05, "55-64": 0.15, "65+": 0.3},
    "household": {"Single": -0.1, "Couple": 0.0, "Family": 0.1, "Shared": -0.05, "Extended": 0.15},
    "vaccination_intent": {"Refuse": -0.3, "Hesitant": -0.1, "Willing": 0.05, "Vaccinated": 0.2},
}

# The population seed is fixed, so each workload has the same make-up
# (personas, distinct profiles, cache records) on every --seed; the seed
# varies the policy path, and with it every prompt, the observations, the
# counterfactual dates and the fit and GBM seeds.
POPULATION_SEED = 11

FIRST_DATE = dt.date(2020, 4, 1)
LEAD_DAYS = 28  # policy history before the first observation, for the GBM lags
FIT_TRIALS = 40
GBM_TREES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "oracle" or "remote"
    unique: bool  # extra attributes so almost every cell is a distinct prompt
    personas: int
    days: int
    parallelism: int
    warm: bool  # cache filled by an untimed cold simulate before timing
    stub_delay_ms: float = 0.0

    def attributes(self) -> dict:
        attrs = dict(SHARED_ATTRIBUTES)
        if self.unique:
            attrs.update(UNIQUE_EXTRA_ATTRIBUTES)
        return attrs

    def offsets(self) -> dict:
        offsets = dict(SHARED_OFFSETS)
        if self.unique:
            offsets.update(UNIQUE_EXTRA_OFFSETS)
        return offsets


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_unique", "oracle", True, 30, 60, 1, False),
        Workload("warm_shared", "oracle", False, 80, 40, 1, True),
        Workload("remote_shared", "remote", False, 24, 10, 2, False, stub_delay_ms=5.0),
    )
}


def oracle_dict(workload: Workload) -> dict:
    return {
        "intercepts": dict(INTERCEPTS),
        "slopes": dict(SLOPES),
        "attribute_offsets": workload.offsets(),
        "noise_scale": 0.0,
    }


def template_text(workload: Workload) -> str:
    """One ``- name: value`` line per attribute, so the stub can parse the
    persona back out of the prompt."""
    persona = "\n".join(f"- {name}: {{{name}}}" for name in workload.attributes())
    keys = "\n".join(f'- "{resp}"' for resp, _, _ in CATEGORIES.values())
    return (
        "You are simulating one resident during a pandemic.\n\n"
        f"Persona:\n{persona}\n\n"
        "Situation:\n- date: {date}\n- stringency: {stringency}\n\n"
        f"Estimate the probability (0.0 to 1.0) of:\n{keys}\n\n"
        "Return ONLY a JSON object.\n"
    )


def stringency_path(days: int, seed: int) -> list[float]:
    """A wiggly daily stringency series in [5, 98], drawn from ``seed``."""
    rng = np.random.default_rng([seed, 1])
    phase = rng.uniform(0.0, 2 * math.pi)
    jitter = rng.normal(0.0, 4.0, days)
    return [
        float(min(98.0, max(5.0, 52.0 + 36.0 * math.sin(phase + 2 * math.pi * t / 90.0) + jitter[t])))
        for t in range(days)
    ]


def logistic(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def closed_form_means(offsets: np.ndarray, stringencies: np.ndarray) -> dict[str, np.ndarray]:
    """Mean oracle probability per category and date over personas whose
    summed attribute offsets are ``offsets``."""
    s = np.asarray(stringencies, dtype=float)[:, None] / 100.0
    off = np.asarray(offsets, dtype=float)[None, :]
    return {
        key: logistic(INTERCEPTS[key] + SLOPES[key] * s + off).mean(axis=1) for key in CATEGORIES
    }


def persona_offsets(attribute_rows: list[dict], offsets: dict) -> np.ndarray:
    return np.array(
        [sum(offsets.get(a, {}).get(v, 0.0) for a, v in row.items()) for row in attribute_rows]
    )


@dataclass
class Workspace:
    root: Path
    config: Path
    scenarios: Path
    dates: list[dt.date]
    split: dict


def split_dates(days: int) -> dict:
    n_train = days * 3 // 5
    n_val = (days - n_train) // 2
    bounds = {
        "train": (0, n_train - 1),
        "validation": (n_train, n_train + n_val - 1),
        "test": (n_train + n_val, days - 1),
    }
    return {
        name: {
            "start": (FIRST_DATE + dt.timedelta(days=a)).isoformat(),
            "end": (FIRST_DATE + dt.timedelta(days=b)).isoformat(),
        }
        for name, (a, b) in bounds.items()
    }


def write_workspace(root: Path, workload: Workload, seed: int, endpoint: str | None = None) -> Workspace:
    """Write every input file of one workload under ``root``.

    The observations are the affine map of the closed-form oracle mean over
    the population the run config asks for. The population is drawn with the
    program's sampler, since the workload must describe the population the
    program will simulate; the checks read it back from ``population.jsonl``.
    """
    from socialtwin.persona import DemographicSpec, sample_population

    root.mkdir(parents=True, exist_ok=True)
    population_seed = POPULATION_SEED
    spec = {"population_size": workload.personas, "attributes": workload.attributes()}
    (root / "population.yaml").write_text(yaml.safe_dump(spec, sort_keys=False), encoding="utf-8")
    (root / "template.txt").write_text(template_text(workload), encoding="utf-8")

    path = stringency_path(workload.days + LEAD_DAYS, seed)
    policy_start = FIRST_DATE - dt.timedelta(days=LEAD_DAYS)
    with (root / "policy.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "stringency"])
        for t, s in enumerate(path):
            writer.writerow([(policy_start + dt.timedelta(days=t)).isoformat(), repr(s)])

    population = sample_population(DemographicSpec.from_dict(spec), population_seed)
    offsets = persona_offsets([p.attributes for p in population], workload.offsets())
    dates = [FIRST_DATE + dt.timedelta(days=t) for t in range(workload.days)]
    means = closed_form_means(offsets, np.array(path[LEAD_DAYS:]))
    with (root / "observations.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *(col for _, col, _ in CATEGORIES.values())])
        for i, d in enumerate(dates):
            writer.writerow(
                [d.isoformat(), *(repr(ALPHA[k] * float(means[k][i]) + BETA[k]) for k in CATEGORIES)]
            )

    if workload.engine == "oracle":
        engine = {"kind": "synthetic-oracle", "retry_limit": 1, "oracle": oracle_dict(workload)}
    else:
        engine = {
            "kind": "remote-http",
            "endpoint": endpoint,
            "model_name": "bench-stub",
            "retry_limit": 1,
            "timeout": 30.0,
        }
    split = split_dates(workload.days)
    config = {
        "profile": "pandemic-uae",
        "categories": [
            {
                "key": key,
                "response_key": resp,
                "observation_column": col,
                "label": key,
                "direction": direction,
            }
            for key, (resp, col, direction) in CATEGORIES.items()
        ],
        "paths": {
            "policy_csv": "policy.csv",
            "observations_csv": "observations.csv",
            "cache_dir": "cache",
            "output_dir": "out",
            "prompt_template": "template.txt",
            "population_spec": "population.yaml",
        },
        "split": split,
        "engine": engine,
        "fit": {"trials": FIT_TRIALS, "sampler": "tpe-style"},
        "gbm": {"n_trees": GBM_TREES},
        "seeds": {"population": population_seed, "fit": seed + 1, "gbm": seed + 2},
        "parallelism": workload.parallelism,
    }
    config_path = root / "run.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")

    # A stringency grid on three dates; every override is distinct, so the
    # sweep gets both a monotonicity and a boundedness verdict.
    picks = np.random.default_rng([seed, 2]).choice(len(dates), size=3, replace=False)
    scenario_dates = [dates[i] for i in sorted(picks)]
    scenarios = []
    for i, level in enumerate(np.linspace(10.0, 100.0, 8)):
        scenarios.append(
            {
                "name": "baseline" if i == 4 else f"s{i:02d}",
                "date": scenario_dates[i % 3].isoformat(),
                "stringency_override": float(round(level, 3)),
            }
        )
    scenario_path = root / "scenarios.yaml"
    scenario_path.write_text(yaml.safe_dump(scenarios, sort_keys=False), encoding="utf-8")
    return Workspace(root, config_path, scenario_path, dates, split)

"""Run configuration: one declarative YAML file drives every command.

A named domain profile (category schema, prompt template, column maps,
default population) supplies defaults; the run config overrides them and
adds dataset paths, the temporal split, engine and fitting settings, and
seeds. The resolved configuration is hashed together with the content of
the input files; every artifact embeds that hash so artifacts from
different configurations cannot be silently mixed.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .baseline import GbmHyper
from .calibrate import FitConfig
from .cognition import EngineConfig, OracleParams
from .errors import ConfigError
from .ingest import DateRange, TemporalSplit
from .persona import DemographicSpec
from .schema import CategorySchema

ENGINE_FLAG_KINDS = {
    "remote": "remote-http",
    "oracle": "synthetic-oracle",
    "replay": "replay-cache",
}


# libyaml's parser is several times faster than the pure-Python one and
# builds the same objects through the same safe constructor.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(path):
    """Parse one YAML file (a ``Path`` or packaged resource) safely; invalid
    YAML is a config error naming the file."""
    try:
        return yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date literal like 2021-02-30
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None


def load_profile(name: str) -> dict:
    """Read a packaged domain profile by name (dashes map to underscores)."""
    filename = name.replace("-", "_") + ".yaml"
    ref = resources.files("socialtwin") / "profiles" / filename
    if not ref.is_file():
        raise ConfigError(f"unknown profile {name!r} (no packaged {filename})")
    return _load_yaml(ref)


def packaged_template(filename: str) -> str:
    ref = resources.files("socialtwin") / "templates" / filename
    if not ref.is_file():
        raise ConfigError(f"no packaged template {filename!r}")
    return ref.read_text(encoding="utf-8")


def _as_date(value, label: str) -> dt.date:
    if isinstance(value, dt.date):
        return value
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError:
        raise ConfigError(f"{label}: unparseable date {value!r}") from None


def _split_from_dict(data: dict) -> TemporalSplit:
    try:
        ranges = {
            name: DateRange(
                _as_date(data[name]["start"], f"split.{name}.start"),
                _as_date(data[name]["end"], f"split.{name}.end"),
            )
            for name in ("train", "validation", "test")
        }
    except (KeyError, TypeError):
        raise ConfigError(
            "split config must define train/validation/test ranges with start and end"
        ) from None
    return TemporalSplit(**ranges)


@dataclass
class RunConfig:
    """Fully resolved configuration for one pipeline run."""

    profile_name: str
    schema: CategorySchema
    template: str
    policy_csv: Path
    observations_csv: Path
    cache_dir: Path
    output_dir: Path
    split: TemporalSplit
    engine: EngineConfig
    fit: FitConfig
    gbm: GbmHyper
    population_spec: DemographicSpec
    seeds: dict[str, int]
    policy_columns: dict[str, str]
    observation_columns: dict[str, str]  # category key -> CSV column
    observation_date_column: str
    aggregation: str
    parallelism: int
    config_hash: str = ""
    semantic: dict = field(default_factory=dict)  # hashed view, for manifests

    @property
    def cache_path(self) -> Path:
        return self.cache_dir / "responses.jsonl"


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_path(base: Path, value) -> Path:
    p = Path(str(value))
    return p if p.is_absolute() else (base / p)


def load_run_config(
    path: str | Path,
    engine_override: str | None = None,
    seed_override: int | None = None,
    parallelism_override: int | None = None,
) -> RunConfig:
    """Load, resolve against the profile, apply flag overrides, and hash."""
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    base = config_path.parent
    raw = _load_yaml(config_path) or {}

    profile_name = raw.get("profile", "pandemic-uae")
    profile = load_profile(profile_name)

    schema = CategorySchema.from_dicts(raw.get("categories") or profile["categories"])
    clip = tuple(raw.get("clip_bounds") or profile.get("clip_bounds") or (-100.0, 200.0))

    paths = raw.get("paths") or {}
    for required in ("policy_csv", "observations_csv", "output_dir"):
        if required not in paths:
            raise ConfigError(f"{config_path}: paths.{required} is required")
    policy_csv = _resolve_path(base, paths["policy_csv"])
    observations_csv = _resolve_path(base, paths["observations_csv"])
    output_dir = _resolve_path(base, paths["output_dir"])
    cache_dir = _resolve_path(base, paths.get("cache_dir", "cache"))
    for label, p in (("policy_csv", policy_csv), ("observations_csv", observations_csv)):
        if not p.exists():
            raise ConfigError(f"{config_path}: paths.{label} does not exist: {p}")

    if paths.get("prompt_template"):
        template_path = _resolve_path(base, paths["prompt_template"])
        if not template_path.exists():
            raise ConfigError(f"prompt template not found: {template_path}")
        template = template_path.read_text(encoding="utf-8")
    else:
        template = packaged_template(profile["template"])

    if paths.get("population_spec"):
        spec_path = _resolve_path(base, paths["population_spec"])
        if not spec_path.exists():
            raise ConfigError(f"population spec not found: {spec_path}")
        try:
            population_spec = DemographicSpec.from_dict(_load_yaml(spec_path))
        except ConfigError as exc:
            raise ConfigError(f"{spec_path}: {exc}") from None
    else:
        population_spec = DemographicSpec.from_dict(
            raw.get("population") or profile["population"]
        )

    if "split" not in raw:
        raise ConfigError(f"{config_path}: split is required (train/validation/test ranges)")
    split = _split_from_dict(raw["split"])

    seeds = {"population": 0, "fit": 0, "gbm": 0}
    seeds.update({k: int(v) for k, v in (raw.get("seeds") or {}).items()})
    if seed_override is not None:
        seeds = {k: int(seed_override) for k in seeds}

    engine_raw = dict(raw.get("engine") or {"kind": "synthetic-oracle"})
    if engine_override is not None:
        if engine_override not in ENGINE_FLAG_KINDS:
            raise ConfigError(
                f"--engine must be one of {sorted(ENGINE_FLAG_KINDS)}, got {engine_override!r}"
            )
        engine_raw["kind"] = ENGINE_FLAG_KINDS[engine_override]
    oracle_params = None
    if engine_raw.get("oracle"):
        oracle_params = OracleParams.from_dict(engine_raw["oracle"])
    engine = EngineConfig(
        kind=engine_raw.get("kind", "synthetic-oracle"),
        endpoint=engine_raw.get("endpoint"),
        model_name=engine_raw.get("model_name"),
        retry_limit=int(engine_raw.get("retry_limit", 3)),
        oracle_params=oracle_params,
        decoding=dict(engine_raw.get("decoding") or {}),
        request_fields=dict(engine_raw.get("request_fields") or {"model": "model", "prompt": "prompt"}),
        response_text_path=engine_raw.get("response_text_path"),
        timeout=float(engine_raw.get("timeout", 30.0)),
    )

    fit_raw = raw.get("fit") or {}
    fit = FitConfig(
        trials=int(fit_raw.get("trials", 200)),
        alpha_range=tuple(fit_raw.get("alpha_range", (-400.0, 400.0))),
        beta_range=tuple(fit_raw.get("beta_range", (-200.0, 200.0))),
        seed=seeds["fit"],
        objective=fit_raw.get("objective", "per-category-independent"),
        sampler=fit_raw.get("sampler", "tpe-style"),
        clip_bounds=(float(clip[0]), float(clip[1])),
    )

    gbm_raw = raw.get("gbm") or {}
    gbm = GbmHyper(
        n_trees=int(gbm_raw.get("n_trees", 300)),
        learning_rate=float(gbm_raw.get("learning_rate", 0.1)),
        max_depth=int(gbm_raw.get("max_depth", 4)),
        min_leaf=int(gbm_raw.get("min_leaf", 5)),
        n_bins=int(gbm_raw.get("n_bins", 64)),
    )

    policy_columns = dict(
        raw.get("policy_columns") or profile.get("policy_columns") or {"date": "date", "stringency": "stringency"}
    )
    observation_columns = dict(raw.get("observation_columns") or schema.observation_columns)
    missing = [k for k in schema.keys if k not in observation_columns]
    if missing:
        raise ConfigError(f"observation_columns missing categories {missing}")
    observation_date_column = raw.get(
        "observation_date_column", profile.get("observation_date_column", "date")
    )

    aggregation = raw.get("aggregation", "mean")
    parallelism = int(
        parallelism_override if parallelism_override is not None else raw.get("parallelism", 1)
    )
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")

    semantic = {
        "profile": profile_name,
        "categories": schema.to_dicts(),
        "clip_bounds": list(map(float, clip)),
        "split": {
            name: {"start": r.start.isoformat(), "end": r.end.isoformat()}
            for name, r in (
                ("train", split.train),
                ("validation", split.validation),
                ("test", split.test),
            )
        },
        "engine": {
            "kind": engine.kind,
            "endpoint": engine.endpoint,
            "model_name": engine.model_name,
            "retry_limit": engine.retry_limit,
            "decoding": engine.decoding,
            "request_fields": engine.request_fields,
            "response_text_path": engine.response_text_path,
            "oracle": engine_raw.get("oracle"),
        },
        "fit": {
            "trials": fit.trials,
            "alpha_range": list(fit.alpha_range),
            "beta_range": list(fit.beta_range),
            "objective": fit.objective,
            "sampler": fit.sampler,
        },
        "gbm": {
            "n_trees": gbm.n_trees,
            "learning_rate": gbm.learning_rate,
            "max_depth": gbm.max_depth,
            "min_leaf": gbm.min_leaf,
            "n_bins": gbm.n_bins,
        },
        "seeds": seeds,
        "aggregation": aggregation,
        "policy_columns": policy_columns,
        "observation_columns": observation_columns,
        "observation_date_column": observation_date_column,
        # Ordered lists, not mappings: sampling depends on the order of the
        # attributes and of their values, and sort_keys would hide it.
        "population": {
            "population_size": population_spec.population_size,
            "attributes": [
                [name, [[v, p] for v, p in pairs]]
                for name, pairs in population_spec.attributes.items()
            ],
        },
        "input_digests": {
            "policy_csv": _file_digest(policy_csv),
            "observations_csv": _file_digest(observations_csv),
            "template": hashlib.sha256(template.encode("utf-8")).hexdigest(),
        },
    }
    config_hash = hashlib.sha256(
        json.dumps(semantic, sort_keys=True).encode("utf-8")
    ).hexdigest()

    return RunConfig(
        profile_name=profile_name,
        schema=schema,
        template=template,
        policy_csv=policy_csv,
        observations_csv=observations_csv,
        cache_dir=cache_dir,
        output_dir=output_dir,
        split=split,
        engine=engine,
        fit=fit,
        gbm=gbm,
        population_spec=population_spec,
        seeds=seeds,
        policy_columns=policy_columns,
        observation_columns=observation_columns,
        observation_date_column=observation_date_column,
        aggregation=aggregation,
        parallelism=parallelism,
        config_hash=config_hash,
        semantic=semantic,
    )

"""Run configuration: one declarative YAML file drives every command.

A named domain profile (category schema, prompt template, column maps,
default population) supplies defaults; the run config overrides them and
adds dataset paths, the temporal split, engine and fitting settings, and
seeds. The resolved configuration is hashed together with the content of
the input files; every artifact embeds that hash so artifacts from
different configurations cannot be silently mixed. A key the loader does
not read is a config error, so that a misspelled setting cannot fall back to
its default unnoticed; a removed option is accepted only with a value that
still describes the program, and is left out of the hash.
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
from .cognition import EngineConfig, OracleParams, parse_template, without_userinfo
from .errors import ConfigError, DataError
from .ingest import DateRange, TemporalSplit
from .persona import DemographicSpec
from .schema import CategorySchema

ENGINE_FLAG_KINDS = {
    "remote": "remote-http",
    "oracle": "synthetic-oracle",
    "replay": "replay-cache",
}


# A pass runs one worker thread per unit of parallelism.
MAX_PARALLELISM = 256

# libyaml's parser is several times faster than the pure-Python one and
# builds the same objects through the same safe constructor.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


# The keys each section of a run config may hold ("" is the top level), and
# the removed options: each is accepted only with the values under which the
# program still does what it asked for.
_SETTINGS = {
    "": "profile categories clip_bounds paths population split seeds engine fit gbm "
    "policy_columns observation_columns observation_date_column parallelism",
    "paths": "policy_csv observations_csv output_dir cache_dir prompt_template population_spec",
    "engine": "kind endpoint model_name retry_limit oracle decoding request_fields "
    "response_text_path timeout",
    "engine.oracle": "intercepts slopes attribute_offsets noise_scale",
    "fit": "trials alpha_range beta_range",
    "gbm": "n_trees learning_rate max_depth min_leaf n_bins",
    "seeds": "population fit gbm",
    "split": "train validation test",
    **{f"split.{name}": "start end" for name in ("train", "validation", "test")},
}
_RETIRED = {
    "aggregation": ("mean", "weighted"),
    "fit.sampler": ("tpe-style",),
    "fit.objective": ("per-category-independent",),
}


def _check_keys(section: dict, path: str) -> None:
    """Refuse a key of the ``section`` at ``path`` that is no setting, and a
    removed option with a value the program no longer follows."""
    for key, value in section.items():
        name = f"{path}.{key}" if path else str(key)
        if name in _RETIRED and value not in _RETIRED[name]:
            allowed = " or ".join(_RETIRED[name])
            raise ConfigError(f"the {name} option was removed; it may only be {allowed}, got {value!r}")
        if name not in _RETIRED and key not in _SETTINGS[path].split():
            known = ", ".join(_SETTINGS[path].split())
            raise ConfigError(f"unknown setting {name}; {path or 'the run config'} takes {known}")


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


def _number(value, kind: type, key: str):
    """``kind(value)`` for the int or float setting at ``key``; a value that
    does not convert, or a bool, is a config error naming the key."""
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def _pair(value, key: str) -> tuple:
    """The [low, high] pair at ``key``, as given; anything else is a config
    error naming the key."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{key} must be a [low, high] pair, got {value!r}")
    return tuple(value)


def _range(value, key: str) -> tuple:
    """A search range: a pair of numbers, kept as given, since the config
    hash records an int as an int."""
    pair = _pair(value, key)
    for i, v in enumerate(pair):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{key}[{i}] must be a number, got {v!r}")
    return pair


def _mapping(value, key: str) -> dict:
    """The section at ``key``: a mapping, or empty when absent or null; any
    other shape is a config error naming the key, and so is a key that a
    section of fixed settings does not take."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {type(value).__name__} {value!r}")
    if key in _SETTINGS:
        _check_keys(value, key)
    return value


def _split_from_dict(data) -> TemporalSplit:
    data = _mapping(data, "split")
    try:
        ranges = {}
        for name in ("train", "validation", "test"):
            bounds = _mapping(data[name], f"split.{name}")
            ranges[name] = DateRange(
                _as_date(bounds["start"], f"split.{name}.start"),
                _as_date(bounds["end"], f"split.{name}.end"),
            )
    except KeyError:
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
    raw = _mapping(_load_yaml(config_path), "the run config")
    _check_keys(raw, "")

    profile_name = raw.get("profile", "pandemic-uae")
    profile = load_profile(profile_name)

    categories = raw.get("categories") or profile["categories"]
    if not isinstance(categories, list) or not all(isinstance(c, dict) for c in categories):
        raise ConfigError(f"categories must be a list of mappings, got {categories!r}")
    schema = CategorySchema.from_dicts(categories)
    clip = _pair(
        raw.get("clip_bounds") or profile.get("clip_bounds") or (-100.0, 200.0), "clip_bounds"
    )
    clip = tuple(_number(v, float, f"clip_bounds[{i}]") for i, v in enumerate(clip))

    paths = _mapping(raw.get("paths"), "paths")
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
        try:
            template = template_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # OSError: a directory, say
            raise DataError(f"{template_path}: cannot read the prompt template: {exc}") from None
        try:
            parse_template(template)
        except ConfigError as exc:
            raise ConfigError(f"{template_path}: {exc}") from None
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

    split = _split_from_dict(raw.get("split"))

    seeds = {"population": 0, "fit": 0, "gbm": 0}
    seeds.update(
        {k: _number(v, int, f"seeds.{k}") for k, v in _mapping(raw.get("seeds"), "seeds").items()}
    )
    if seed_override is not None:
        seeds = {k: int(seed_override) for k in seeds}

    engine_raw = dict(_mapping(raw.get("engine"), "engine"))
    if engine_override is not None:
        if engine_override not in ENGINE_FLAG_KINDS:
            raise ConfigError(
                f"--engine must be one of {sorted(ENGINE_FLAG_KINDS)}, got {engine_override!r}"
            )
        engine_raw["kind"] = ENGINE_FLAG_KINDS[engine_override]
    oracle_params = None
    oracle = _mapping(engine_raw.get("oracle"), "engine.oracle")
    if oracle:
        try:
            oracle_params = OracleParams.from_dict(oracle)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ConfigError(f"engine.oracle is malformed: {exc!r}") from None
    fields = _mapping(engine_raw.get("request_fields"), "engine.request_fields")
    if not all(isinstance(x, str) for item in fields.items() for x in item):
        raise ConfigError(f"engine.request_fields must be a str-to-str mapping, got {fields!r}")
    text_path = engine_raw.get("response_text_path")
    if not (text_path is None or isinstance(text_path, str)):
        raise ConfigError(f"engine.response_text_path must be a string or null, got {text_path!r}")
    engine = EngineConfig(
        kind=engine_raw.get("kind", "synthetic-oracle"),
        endpoint=engine_raw.get("endpoint"),
        model_name=engine_raw.get("model_name"),
        retry_limit=_number(engine_raw.get("retry_limit", 3), int, "engine.retry_limit"),
        oracle_params=oracle_params,
        decoding=dict(_mapping(engine_raw.get("decoding"), "engine.decoding")),
        request_fields=dict(fields or {"model": "model", "prompt": "prompt"}),
        response_text_path=text_path,
        timeout=_number(engine_raw.get("timeout", 30.0), float, "engine.timeout"),
    )

    fit_raw = _mapping(raw.get("fit"), "fit")
    fit = FitConfig(
        trials=_number(fit_raw.get("trials", 200), int, "fit.trials"),
        alpha_range=_range(fit_raw.get("alpha_range", (-400.0, 400.0)), "fit.alpha_range"),
        beta_range=_range(fit_raw.get("beta_range", (-200.0, 200.0)), "fit.beta_range"),
        seed=seeds["fit"],
        clip_bounds=clip,
    )

    gbm_raw = _mapping(raw.get("gbm"), "gbm")
    gbm = GbmHyper(
        n_trees=_number(gbm_raw.get("n_trees", 300), int, "gbm.n_trees"),
        learning_rate=_number(gbm_raw.get("learning_rate", 0.1), float, "gbm.learning_rate"),
        max_depth=_number(gbm_raw.get("max_depth", 4), int, "gbm.max_depth"),
        min_leaf=_number(gbm_raw.get("min_leaf", 5), int, "gbm.min_leaf"),
        n_bins=_number(gbm_raw.get("n_bins", 64), int, "gbm.n_bins"),
    )

    policy_columns = dict(
        _mapping(raw.get("policy_columns"), "policy_columns")
        or profile.get("policy_columns")
        or {"date": "date", "stringency": "stringency"}
    )
    observation_columns = dict(
        _mapping(raw.get("observation_columns"), "observation_columns")
        or schema.observation_columns
    )
    missing = [k for k in schema.keys if k not in observation_columns]
    if missing:
        raise ConfigError(f"observation_columns missing categories {missing}")
    observation_date_column = raw.get(
        "observation_date_column", profile.get("observation_date_column", "date")
    )

    parallelism = (
        parallelism_override
        if parallelism_override is not None
        else _number(raw.get("parallelism", 1), int, "parallelism")
    )
    if not 1 <= parallelism <= MAX_PARALLELISM:
        raise ConfigError(f"parallelism must be in [1, {MAX_PARALLELISM}], got {parallelism}")

    semantic = {
        "profile": profile_name,
        "categories": schema.to_dicts(),
        "clip_bounds": list(clip),
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
            "endpoint": without_userinfo(engine.endpoint),  # no credentials in manifests
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
        },
        "gbm": {
            "n_trees": gbm.n_trees,
            "learning_rate": gbm.learning_rate,
            "max_depth": gbm.max_depth,
            "min_leaf": gbm.min_leaf,
            "n_bins": gbm.n_bins,
        },
        "seeds": seeds,
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
        parallelism=parallelism,
        config_hash=config_hash,
        semantic=semantic,
    )

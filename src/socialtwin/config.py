"""Run configuration: one declarative YAML file drives every command.

A named domain profile (category schema, prompt template, column maps,
default population) supplies defaults; the run config overrides them and
adds dataset paths, the temporal split, engine and fitting settings, and
seeds. The resolved configuration is hashed together with the content of
the input files; every artifact embeds that hash so artifacts from
different configurations cannot be silently mixed.

``SETTINGS`` states each key once: its kind and bound, its default and its
view in the hash. Reading, the unknown-key check and the hash derive from
it. A key it does not list is a config error, so that a misspelling cannot
fall back to a default unnoticed; a removed option is accepted only with a
value that still describes the program, and is left out of the hash.
"""

from __future__ import annotations

import copy
import datetime as dt
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from .baseline import GbmHyper
from .calibrate import FitConfig
from .cognition import EngineConfig, OracleParams, parse_template, without_userinfo
from .errors import ConfigError
from .ingest import DateRange, TemporalSplit, read_file
from .persona import DemographicSpec
from .schema import CategorySchema
from .twin import DigitalTwin

ENGINE_FLAG_KINDS = {
    "remote": "remote-http",
    "oracle": "synthetic-oracle",
    "replay": "replay-cache",
}

# libyaml's parser is several times faster than the pure-Python one and
# builds the same objects through the same safe constructor.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_ABSENT = object()  # not given; as a default: left to the object the section builds
_REQUIRED = object()  # as a default: the key must be given


def _kind(noun: str, test: Callable = lambda v: True, convert: Callable = lambda v: v):
    """A reader of a given value: ``convert(value)``, if that succeeds and
    passes ``test``; else, and for a bool, a config error naming the key. A
    reader returns _ABSENT for a value that takes the default."""

    def read(value, key):
        try:
            converted = convert(value)
            if not isinstance(value, bool) and (converted is _ABSENT or test(converted)):
                return converted
        except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
            pass
        raise ConfigError(f"{key} must be {noun}, got {value!r}")

    return read


def _as_int(value) -> int:
    """An int, an integral float or a numeral string, as an int."""
    if isinstance(value, float) and not value.is_integer():
        raise TypeError
    return int(value)


def _at_least(low: int):
    return _kind(f"an integer at least {low}", lambda v: v >= low, _as_int)


def _finite(value) -> bool:
    """A finite int or float, not a bool; an int past float's range raises
    OverflowError, which a reader turns into its config error."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_number = _kind("a number", convert=float)
# kept as written (an int stays an int), since the hash records it so
_number_as_written = _kind("a number", lambda v: isinstance(v, (int, float)) and not math.isnan(v))


def _map(noun: str, valid: Callable, empty_is_default=True):
    """A mapping whose items pass ``valid``; null or empty takes the default,
    unless the mapping is hashed as written."""
    return _kind(
        noun,
        lambda v: isinstance(v, dict) and all(valid(k, x) for k, x in v.items()),
        lambda v: _ABSENT if empty_is_default and (v is None or v == {}) else v,
    )


def _pair(element):
    """A [low, high] pair of ``element`` values, as a tuple."""

    def read(value, key):
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(f"{key} must be a [low, high] pair, got {value!r}")
        return tuple(element(v, f"{key}[{i}]") for i, v in enumerate(value))

    return read


def _retired(*allowed):
    """A removed option, accepted only with the values under which the
    program still does what it asked for; it reads as not given."""

    def read(value, key):
        if value not in allowed:
            raise ConfigError(
                f"the {key} option was removed; it may only be {' or '.join(allowed)}, got {value!r}"
            )
        return _ABSENT

    read.retired = True
    return read


def _entries(value, key):
    if not (isinstance(value, list) and value and all(isinstance(e, dict) for e in value)):
        raise ConfigError(f"{key} must be a non-empty list of mappings, got {value!r}")
    return [_read_section(e, f"{key}[*]", f"{key}[{i}]") for i, e in enumerate(value)]


_str = _kind("a string", lambda v: isinstance(v, str))
_str_or_null = _kind("a string or null", lambda v: v is None or isinstance(v, str))
_path = _kind("a non-empty path", lambda v: isinstance(v, str) and v != "")
_path_or_null = _kind("a non-empty path or null", lambda v: v is None or isinstance(v, str) and v != "")
# a date, or its ISO string; a YAML timestamp, which carries a time of day, is not a date
_date = _kind("an ISO date", convert=lambda v: v if type(v) is dt.date else dt.date.fromisoformat(str(v)))
_any_map = _map("a mapping", lambda k, v: True)
_str_map = _map("a mapping of strings to strings", lambda k, v: all(isinstance(x, str) for x in (k, v)))
_number_map = _map("a mapping of category keys to finite numbers", lambda k, v: _finite(v), False)
_offset_map = _map(
    "a mapping of attributes to mappings of values to finite numbers",
    lambda k, v: isinstance(v, dict) and all(_finite(o) for o in v.values()),
    False,
)


class Setting(NamedTuple):
    """One key of the run config. ``read`` checks a given value (its kind and
    bound); ``default`` stands in for a missing one, and a callable default
    takes the values read so far in its section; ``hashed`` gives the value's
    view in ``semantic`` and the config hash, None leaves it out."""

    read: Callable
    default: object = _REQUIRED
    hashed: Callable | None = lambda v: v


_SEED = Setting(_at_least(0), 0)  # numpy seeds its generators from non-negative ints
_ORACLE = "engine.oracle"

# A key path: "a.b" is key b of section a, "a[*].b" key b of each entry of the
# list a. A default taken from a dataclass is that field's own default. The
# profile's values come before the defaults of the top-level keys.
SETTINGS: dict[str, Setting] = {
    "profile": Setting(_str, "pandemic-uae"),
    "categories": Setting(_entries),
    "categories[*].key": Setting(_str),
    "categories[*].response_key": Setting(_str, lambda c: f"{c['key']}_prob"),
    "categories[*].observation_column": Setting(_str, lambda c: c["key"]),
    "categories[*].label": Setting(_str, lambda c: c["key"]),
    "categories[*].direction": Setting(_kind("-1 or 1", lambda v: v in (-1, 1), _as_int), -1),
    "clip_bounds": Setting(_pair(_number), FitConfig.clip_bounds),
    "paths.policy_csv": Setting(_path, hashed=None),
    "paths.observations_csv": Setting(_path, hashed=None),
    "paths.output_dir": Setting(_path, hashed=None),
    "paths.cache_dir": Setting(_path, "cache", None),
    "paths.prompt_template": Setting(_path_or_null, None, None),
    "paths.population_spec": Setting(_path_or_null, None, None),
    "population": Setting(_any_map, hashed=None),  # hashed as the spec it resolves to
    **{
        f"split.{part}.{end}": Setting(_date, hashed=dt.date.isoformat)
        for part in ("train", "validation", "test")
        for end in ("start", "end")
    },
    **{f"seeds.{name}": _SEED for name in ("population", "fit", "gbm")},
    "engine.kind": Setting(_str, "synthetic-oracle"),
    "engine.endpoint": Setting(_str_or_null, None, without_userinfo),  # no credentials in manifests
    "engine.model_name": Setting(_str_or_null, None),
    "engine.retry_limit": Setting(_at_least(0), EngineConfig.retry_limit),
    "engine.decoding": Setting(_any_map, {}),
    "engine.request_fields": Setting(
        _str_map, EngineConfig.__dataclass_fields__["request_fields"].default_factory()
    ),
    "engine.response_text_path": Setting(_str_or_null, None),
    "engine.timeout": Setting(
        _kind("positive and finite", lambda v: 0 < v < math.inf, float), EngineConfig.timeout, None
    ),
    # hashed as written, None when absent; OracleParams supplies the defaults
    _ORACLE: Setting(lambda v, key: _ABSENT if v is None else _read_section(v, _ORACLE, key), None),
    f"{_ORACLE}.intercepts": Setting(_number_map, hashed=None),
    f"{_ORACLE}.slopes": Setting(_number_map, hashed=None),
    f"{_ORACLE}.attribute_offsets": Setting(_offset_map, _ABSENT, None),
    f"{_ORACLE}.noise_scale": Setting(
        _kind("finite and at least 0", lambda v: _finite(v) and v >= 0), _ABSENT, None
    ),
    "fit.trials": Setting(_at_least(1), FitConfig.trials),
    "fit.alpha_range": Setting(_pair(_number_as_written), FitConfig.alpha_range),
    "fit.beta_range": Setting(_pair(_number_as_written), FitConfig.beta_range),
    "fit.sampler": Setting(_retired("tpe-style"), _ABSENT, None),
    "fit.objective": Setting(_retired("per-category-independent"), _ABSENT, None),
    "aggregation": Setting(_retired("mean", "weighted"), _ABSENT, None),
    "gbm.n_trees": Setting(_at_least(0), GbmHyper.n_trees),
    "gbm.learning_rate": Setting(_kind("in (0, 1]", lambda v: 0 < v <= 1, float), GbmHyper.learning_rate),
    "gbm.max_depth": Setting(_at_least(1), GbmHyper.max_depth),
    "gbm.min_leaf": Setting(_at_least(1), GbmHyper.min_leaf),
    "gbm.n_bins": Setting(_at_least(2), GbmHyper.n_bins),
    "policy_columns": Setting(_str_map, {}),  # {}: the loader's own column names
    "observation_columns": Setting(
        _str_map, lambda top: {c["key"]: c["observation_column"] for c in top["categories"]}
    ),
    "observation_date_column": Setting(_str, "date"),
    # a pass runs one worker thread per unit of parallelism
    "parallelism": Setting(
        _kind("in [1, 256]", lambda v: 1 <= v <= 256, _as_int), DigitalTwin.parallelism, None
    ),
}

# section path -> {key: its key path}; a section without a row reads as a mapping
_SECTIONS: dict[str, dict[str, str]] = {}
for _parts in (key.split(".") for key in SETTINGS):
    for _i, _name in enumerate(_parts):
        if not _name.endswith("[*]"):  # a list's entries belong to the list's row
            _SECTIONS.setdefault(".".join(_parts[:_i]), {})[_name] = ".".join(_parts[: _i + 1])
_RETIRED_KEYS = {key for key, s in SETTINGS.items() if getattr(s.read, "retired", False)}


def _read_section(given, path: str, name: str, fallback: dict | None = None) -> dict:
    """Read the section at table ``path`` (called ``name`` in messages): each
    key's given value, else ``fallback``'s (the profile's), else its default."""
    given = {} if given is None else given
    if not isinstance(given, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(given).__name__} {given!r}")
    keys = _SECTIONS[path]
    for key in given:
        if key not in keys:
            known = ", ".join(k for k, p in keys.items() if p not in _RETIRED_KEYS)
            where = f"{name}.{key}" if name else str(key)
            raise ConfigError(f"unknown setting {where}; {name or 'the run config'} takes {known}")
    read = {}
    for key, child in keys.items():
        where = f"{name}.{key}" if name else key
        setting = SETTINGS.get(child)
        if setting is None:
            read[key] = _read_section(given.get(key), child, where)
            continue
        value = setting.read(given[key], where) if key in given else _ABSENT
        if value is _ABSENT and fallback and key in fallback:
            value = setting.read(fallback[key], where)
        if value is _ABSENT:
            value = setting.default(read) if callable(setting.default) else setting.default
        if value is _REQUIRED:
            raise ConfigError(f"{where} is required")
        if value is not _ABSENT:
            read[key] = value
    return read


def _hashed(read: dict, path: str = "") -> dict:
    """The hashed view of a read section: each hashed key, by its table row."""
    view = {}
    for key, child in _SECTIONS[path].items():
        setting = SETTINGS.get(child)
        if setting is None:
            section = _hashed(read[key], child)
            if section:  # a section without hashed keys, such as paths, is left out
                view[key] = section
        elif setting.hashed is not None:
            view[key] = setting.hashed(read[key])
    return view


def _load_yaml(path):
    """Parse one YAML file (a ``Path`` or packaged resource) safely; invalid
    YAML is a config error naming the file, on one line."""
    try:
        return yaml.load(read_file(path), Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date literal like 2021-02-30
        raise ConfigError(f"{path}: invalid YAML: {' '.join(str(exc).split())}") from None


@functools.cache  # an unknown name raises, and is not cached
def _parsed_profile(name: str) -> dict:
    filename = name.replace("-", "_") + ".yaml"
    ref = resources.files("socialtwin") / "profiles" / filename
    if not ref.is_file():
        raise ConfigError(f"unknown profile {name!r} (no packaged {filename})")
    return _load_yaml(ref)


def load_profile(name: str) -> dict:
    """Read a packaged domain profile by name (dashes map to underscores).

    The packaged file does not change while a process runs, so it is parsed
    once; each caller gets its own copy.
    """
    return copy.deepcopy(_parsed_profile(name))


def packaged_template(filename: str) -> str:
    ref = resources.files("socialtwin") / "templates" / filename
    if not ref.is_file():
        raise ConfigError(f"no packaged template {filename!r}")
    return ref.read_text(encoding="utf-8")


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
    observation_columns: dict[str, str]  # category key -> CSV column, in schema order
    observation_date_column: str
    parallelism: int
    config_hash: str = ""
    semantic: dict = field(default_factory=dict)  # hashed view, for manifests

    @property
    def cache_path(self) -> Path:
        return self.cache_dir / "responses.jsonl"


# the RunConfig fields that hold a read setting as it is
_AS_READ = ("seeds", "policy_columns", "observation_columns", "observation_date_column", "parallelism")


def _floats(value):
    """A number, or a mapping of them at any depth, as floats."""
    return {k: _floats(v) for k, v in value.items()} if isinstance(value, dict) else float(value)


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
    raw = _load_yaml(config_path)
    if not isinstance(raw, dict):
        raise ConfigError(f"the run config must be a mapping, got {type(raw).__name__} {raw!r}")
    profile_setting = SETTINGS["profile"]
    profile = load_profile(profile_setting.read(raw.get("profile", profile_setting.default), "profile"))
    if parallelism_override is not None:
        raw = {**raw, "parallelism": parallelism_override}
    read = _read_section(raw, "", "", fallback=profile)
    if engine_override is not None:  # an unknown kind is EngineConfig's config error
        read["engine"]["kind"] = ENGINE_FLAG_KINDS.get(engine_override, engine_override)
    if seed_override is not None:
        seed = _SEED.read(seed_override, "--seed-override")
        read["seeds"] = {k: seed for k in read["seeds"]}

    paths = {key: value and config_path.parent / value for key, value in read["paths"].items()}
    for key in ("policy_csv", "observations_csv"):
        if not paths[key].exists():
            raise ConfigError(f"{config_path}: paths.{key} does not exist: {paths[key]}")
    template_path = paths["prompt_template"]
    if template_path is None:
        template = packaged_template(profile["template"])
    elif not template_path.exists():
        raise ConfigError(f"prompt template not found: {template_path}")
    else:
        template = read_file(template_path)
        try:
            parse_template(template)
        except ConfigError as exc:
            raise ConfigError(f"{template_path}: {exc}") from None

    population, spec_path = read["population"], paths["population_spec"]
    if spec_path is not None:
        if not spec_path.exists():
            raise ConfigError(f"population spec not found: {spec_path}")
        population = _load_yaml(spec_path)
    try:
        population_spec = DemographicSpec.from_dict(population)
    except ConfigError as exc:
        raise ConfigError(f"{spec_path or 'population'}: {exc}") from None

    schema = CategorySchema.from_dicts(read["categories"])
    columns = read["observation_columns"]
    missing = [k for k in schema.keys if k not in columns]
    if missing:
        raise ConfigError(f"observation_columns missing categories {missing}")
    extra = [k for k in columns if k not in schema.keys]
    if extra:
        raise ConfigError(f"observation_columns names unknown categories {extra}")
    read["observation_columns"] = {k: columns[k] for k in schema.keys}
    engine = dict(read["engine"])
    oracle = engine.pop("oracle")
    oracle_params = None if oracle is None else OracleParams(**_floats(oracle))
    engine = EngineConfig(**engine, oracle_params=oracle_params)

    semantic = _hashed(read)
    semantic["population"] = {  # lists: sampling follows the order of attributes and values
        "population_size": population_spec.population_size,
        "attributes": [[a, [list(vp) for vp in vps]] for a, vps in population_spec.attributes.items()],
    }
    semantic["input_digests"] = {
        "policy_csv": hashlib.sha256(read_file(paths["policy_csv"], text=False)).hexdigest(),
        "observations_csv": hashlib.sha256(read_file(paths["observations_csv"], text=False)).hexdigest(),
        "template": hashlib.sha256(template.encode("utf-8")).hexdigest(),
    }
    return RunConfig(
        profile_name=read["profile"],
        schema=schema,
        template=template,
        split=TemporalSplit(**{n: DateRange(r["start"], r["end"]) for n, r in read["split"].items()}),
        engine=engine,
        fit=FitConfig(**read["fit"], seed=read["seeds"]["fit"], clip_bounds=read["clip_bounds"]),
        gbm=GbmHyper(**read["gbm"]),
        population_spec=population_spec,
        config_hash=hashlib.sha256(json.dumps(semantic, sort_keys=True).encode("utf-8")).hexdigest(),
        semantic=semantic,
        **{key: paths[key] for key in ("policy_csv", "observations_csv", "cache_dir", "output_dir")},
        **{key: read[key] for key in _AS_READ},
    )

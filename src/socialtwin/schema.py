"""Behavioral category schema.

A schema fixes the ordered list of behavioral categories a simulation run
speaks about: the canonical key used throughout the pipeline, the key the
cognitive engine is asked to emit in its JSON response, the column holding
the observed metric, and the expected response direction under a stricter
policy signal (+1 for stay-at-home style behaviors, -1 for out-of-home).
Everything downstream (vectors, calibration, reports) is keyed and ordered
by the schema, never by hardcoded names, so domain profiles other than the
shipped pandemic one need no code changes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class Category:
    """One behavioral dimension."""

    key: str
    response_key: str
    observation_column: str
    label: str
    direction: int  # expected sign of d(prob)/d(stringency): +1 or -1

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ConfigError(
                f"category {self.key!r}: direction must be +1 or -1, got {self.direction}"
            )


@dataclass(frozen=True)
class CategorySchema:
    """Ordered, immutable collection of categories."""

    categories: tuple[Category, ...]

    def __post_init__(self):
        if not self.categories:
            raise ConfigError("category schema must list at least one category")
        keys = [c.key for c in self.categories]
        if len(set(keys)) != len(keys):
            raise ConfigError(f"duplicate category keys in schema: {keys}")

    # built once per schema: the twin and ``query`` read them for every prompt
    @functools.cached_property
    def keys(self) -> tuple[str, ...]:
        return tuple(c.key for c in self.categories)

    @functools.cached_property
    def response_keys(self) -> tuple[str, ...]:
        return tuple(c.response_key for c in self.categories)

    @property
    def observation_columns(self) -> dict[str, str]:
        return {c.key: c.observation_column for c in self.categories}

    def __len__(self) -> int:
        return len(self.categories)

    def __iter__(self):
        return iter(self.categories)

    def get(self, key: str) -> Category:
        for c in self.categories:
            if c.key == key:
                return c
        raise KeyError(key)

    @classmethod
    def from_dicts(cls, entries: list[dict]) -> "CategorySchema":
        """Build a schema from config-file entries.

        Each entry needs at least ``key``; ``response_key`` defaults to
        ``<key>_prob``, ``observation_column`` and ``label`` to the key,
        ``direction`` to -1.
        """
        cats = []
        for entry in entries:
            if "key" not in entry:
                raise ConfigError(f"category entry missing 'key': {entry}")
            key = entry["key"]
            cats.append(
                Category(
                    key=key,
                    response_key=entry.get("response_key", f"{key}_prob"),
                    observation_column=entry.get("observation_column", key),
                    label=entry.get("label", key),
                    direction=int(entry.get("direction", -1)),
                )
            )
        return cls(tuple(cats))

    def to_dicts(self) -> list[dict]:
        return [
            {
                "key": c.key,
                "response_key": c.response_key,
                "observation_column": c.observation_column,
                "label": c.label,
                "direction": c.direction,
            }
            for c in self.categories
        ]

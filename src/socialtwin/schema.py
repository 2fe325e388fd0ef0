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
        """Build a schema from entries that give every field of a category
        (the run config's settings table fills in the defaults)."""
        return cls(tuple(Category(**entry) for entry in entries))

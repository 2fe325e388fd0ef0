"""Synthetic agent population generation.

Populations are sampled attribute-by-attribute from configured marginal
distributions (no joint structure: only marginals are specified). Sampling
is a pure function of (spec, seed), so identical inputs always reproduce the
same population. Two ablation variants live here too: a uniform population
of identical clones, and the degenerate single-agent population.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Persona:
    """One synthetic individual: an id, categorical attributes, and a weight."""

    id: str
    attributes: dict[str, str]
    weight: float = 1.0

    def __post_init__(self):
        if self.weight < 0:
            raise ConfigError(f"persona {self.id}: weight must be nonnegative, got {self.weight}")


@dataclass(frozen=True)
class DemographicSpec:
    """Marginal distributions for each attribute plus the population size."""

    attributes: dict[str, list[tuple[str, float]]]
    population_size: int

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigError(f"population_size must be >= 1, got {self.population_size}")
        if not self.attributes:
            raise ConfigError("demographic spec must define at least one attribute")
        for name, pairs in self.attributes.items():
            if not pairs:
                raise ConfigError(f"attribute {name!r} has an empty value list")
            total = sum(p for _, p in pairs)
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ConfigError(
                    f"attribute {name!r}: probabilities sum to {total!r}, expected 1"
                )
            if any(p < 0 for _, p in pairs):
                raise ConfigError(f"attribute {name!r}: negative probability")

    @classmethod
    def from_dict(cls, data: dict) -> "DemographicSpec":
        """Build from a config mapping: {population_size, attributes: {name: {value: prob}}}."""
        if not isinstance(data, dict):
            raise ConfigError(f"population spec must be a mapping, got {type(data).__name__}")
        try:
            raw_size, raw_attrs = data["population_size"], data["attributes"]
        except KeyError as exc:
            raise ConfigError(f"population spec missing key {exc}") from None
        try:
            size = int(raw_size)
        except (TypeError, ValueError):
            raise ConfigError(f"population_size must be an integer, got {raw_size!r}") from None
        if not isinstance(raw_attrs, dict):
            raise ConfigError(
                f"population spec attributes must map each attribute to its values, "
                f"got {type(raw_attrs).__name__}"
            )
        attrs = {}
        for name, values in raw_attrs.items():
            try:
                if isinstance(values, dict):
                    pairs = [(str(v), float(p)) for v, p in values.items()]
                else:  # list of {value, probability} entries
                    pairs = [(str(e["value"]), float(e["probability"])) for e in values]
            except (KeyError, TypeError, ValueError):
                raise ConfigError(
                    f"attribute {name!r}: values must be a mapping of value to probability "
                    f"or a list of {{value, probability}} entries, got {values!r}"
                ) from None
            attrs[name] = pairs
        return cls(attributes=attrs, population_size=size)

    def modal_persona(self, persona_id: str = "p0") -> Persona:
        """The persona taking each attribute's highest-probability value.

        Used as the clone template for the uniform-population ablation arm.
        Ties break toward the value listed first.
        """
        attributes = {
            name: max(pairs, key=lambda vp: vp[1])[0] for name, pairs in self.attributes.items()
        }
        return Persona(id=persona_id, attributes=attributes)


def _persona_id(index: int, n: int) -> str:
    width = len(str(max(n - 1, 1)))
    return f"p{index:0{width}d}"


def sample_population(spec: DemographicSpec, seed: int) -> list[Persona]:
    """Draw exactly N personas with attributes sampled independently per marginal."""
    rng = np.random.default_rng(seed)
    n = spec.population_size
    columns: dict[str, np.ndarray] = {}
    for name, pairs in spec.attributes.items():
        values = [v for v, _ in pairs]
        probs = np.array([p for _, p in pairs], dtype=float)
        probs = probs / probs.sum()  # renormalize away the <=1e-9 slack
        columns[name] = rng.choice(values, size=n, p=probs)
    return [
        Persona(
            id=_persona_id(i, n),
            attributes={name: str(columns[name][i]) for name in spec.attributes},
        )
        for i in range(n)
    ]


def uniform_population(template: Persona, n: int) -> list[Persona]:
    """n identical copies of the template with distinct ids."""
    if n < 1:
        raise ConfigError(f"population size must be >= 1, got {n}")
    return [
        Persona(id=_persona_id(i, n), attributes=dict(template.attributes), weight=template.weight)
        for i in range(n)
    ]


def save_population(population: list[Persona], path: str | Path) -> None:
    """Write one JSON record per persona (id, attributes, weight)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in population:
            fh.write(
                json.dumps(
                    {"id": p.id, "attributes": p.attributes, "weight": p.weight},
                    sort_keys=True,
                )
                + "\n"
            )


def load_population(path: str | Path) -> list[Persona]:
    personas = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            personas.append(
                Persona(
                    id=rec["id"],
                    attributes={k: str(v) for k, v in rec["attributes"].items()},
                    weight=float(rec.get("weight", 1.0)),
                )
            )
    return personas


def attribute_frequencies(population: list[Persona], attribute: str) -> dict[str, float]:
    """Empirical distribution of one attribute across the population."""
    counts: dict[str, int] = {}
    for p in population:
        value = p.attributes[attribute]
        counts[value] = counts.get(value, 0) + 1
    total = len(population)
    return {v: c / total for v, c in counts.items()}

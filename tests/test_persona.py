import json
import math

import pytest

from socialtwin.errors import ConfigError
from socialtwin.persona import (
    DemographicSpec,
    Persona,
    sample_population,
    save_population,
    uniform_population,
)

def load_population(path):
    """Read back a ``save_population`` file."""
    with open(path, encoding="utf-8") as fh:
        return [
            Persona(id=rec["id"], attributes=rec["attributes"]) for rec in map(json.loads, fh)
        ]


def attribute_frequencies(population, attribute):
    """Empirical distribution of one attribute across the population."""
    counts = {}
    for p in population:
        counts[p.attributes[attribute]] = counts.get(p.attributes[attribute], 0) + 1
    return {v: c / len(population) for v, c in counts.items()}


UAE_SPEC = DemographicSpec(
    attributes={
        "nationality": [("UAE National", 0.10), ("Expatriate", 0.90)],
        "risk_perception": [("Low", 0.25), ("Medium", 0.50), ("High", 0.25)],
    },
    population_size=10,
)


def test_sample_population_exact_size_and_attributes():
    pop = sample_population(UAE_SPEC, seed=1)
    assert len(pop) == 10
    for p in pop:
        assert set(p.attributes) == {"nationality", "risk_perception"}
    assert len({p.id for p in pop}) == 10


def test_large_population_marginals_close_to_spec():
    spec = DemographicSpec(attributes=UAE_SPEC.attributes, population_size=10_000)
    pop = sample_population(spec, seed=42)
    freqs = attribute_frequencies(pop, "nationality")
    assert abs(freqs["UAE National"] - 0.10) < 0.01


def test_marginal_fidelity_within_three_standard_errors():
    spec = DemographicSpec(attributes=UAE_SPEC.attributes, population_size=20_000)
    pop = sample_population(spec, seed=7)
    for attr, pairs in spec.attributes.items():
        freqs = attribute_frequencies(pop, attr)
        for value, prob in pairs:
            se = math.sqrt(prob * (1 - prob) / spec.population_size)
            assert abs(freqs.get(value, 0.0) - prob) <= 3 * se


def test_single_value_spec_gives_identical_personas():
    spec = DemographicSpec(
        attributes={"occupation": [("Services", 1.0)]}, population_size=5
    )
    pop = sample_population(spec, seed=0)
    assert all(p.attributes == {"occupation": "Services"} for p in pop)


def test_same_seed_reproduces_population():
    a = sample_population(UAE_SPEC, seed=123)
    b = sample_population(UAE_SPEC, seed=123)
    assert a == b
    c = sample_population(UAE_SPEC, seed=124)
    assert [p.attributes for p in a] != [p.attributes for p in c]


def test_probabilities_must_sum_to_one():
    with pytest.raises(ConfigError, match="sum"):
        DemographicSpec(attributes={"x": [("a", 0.5), ("b", 0.4)]}, population_size=2)


def test_empty_value_list_refused():
    with pytest.raises(ConfigError, match="empty"):
        DemographicSpec(attributes={"x": []}, population_size=2)


def test_uniform_population_copies_with_distinct_ids():
    template = Persona(id="t", attributes={"nationality": "Expatriate"})
    pop = uniform_population(template, 3)
    assert len(pop) == 3
    assert len({p.id for p in pop}) == 3
    assert all(p.attributes == template.attributes for p in pop)
    # template attribute map is copied, not shared
    pop[0].attributes["nationality"] = "changed"
    assert pop[1].attributes["nationality"] == "Expatriate"


def test_uniform_population_n1_is_single_agent_arm():
    template = Persona(id="t", attributes={"a": "v"})
    assert len(uniform_population(template, 1)) == 1


def test_sampled_population_has_attribute_variance_uniform_does_not():
    spec = DemographicSpec(attributes=UAE_SPEC.attributes, population_size=200)
    sampled = sample_population(spec, seed=5)
    uniform = uniform_population(spec.modal_persona(), 200)

    def entropy(pop, attr):
        freqs = attribute_frequencies(pop, attr)
        return -sum(f * math.log(f) for f in freqs.values() if f > 0)

    assert entropy(sampled, "nationality") > 0.0
    assert entropy(uniform, "nationality") == 0.0


def test_modal_persona_takes_highest_probability_values():
    p = UAE_SPEC.modal_persona()
    assert p.attributes == {"nationality": "Expatriate", "risk_perception": "Medium"}


def test_population_roundtrip_preserves_ids_and_attributes(tmp_path):
    pop = [
        Persona(id="p0", attributes={"a": "x"}),
        Persona(id="p1", attributes={"a": "y"}),
    ]
    path = tmp_path / "pop.jsonl"
    save_population(pop, path)
    assert load_population(path) == pop
    assert [sorted(json.loads(line)) for line in path.read_text().splitlines()] == [
        ["attributes", "id"]
    ] * 2


def test_spec_from_dict_mapping_and_list_forms():
    via_mapping = DemographicSpec.from_dict(
        {"population_size": 3, "attributes": {"x": {"a": 0.5, "b": 0.5}}}
    )
    via_list = DemographicSpec.from_dict(
        {
            "population_size": 3,
            "attributes": {
                "x": [{"value": "a", "probability": 0.5}, {"value": "b", "probability": 0.5}]
            },
        }
    )
    assert via_mapping == via_list

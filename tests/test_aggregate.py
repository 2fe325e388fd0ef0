import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socialtwin.aggregate import aggregate_mean, aggregate_weighted
from socialtwin.cognition import BehaviorVector, SimContext, oracle_respond
from socialtwin.errors import DataError
from socialtwin.persona import DemographicSpec, sample_population
from synthetic import default_oracle_params

KEYS = ("a", "b", "c")


def vec(*values, keys=KEYS):
    return BehaviorVector(dict(zip(keys, values)))


def const_vec(value, keys=KEYS):
    return vec(*([value] * len(keys)), keys=keys)


def test_mean_midpoint():
    assert aggregate_mean([const_vec(0.4), const_vec(0.6)]) == const_vec(0.5)


def test_mean_single_vector_identity():
    v = vec(0.1, 0.2, 0.3)
    assert aggregate_mean([v]) == v


def test_mean_matches_naive_loop_over_oracle_vectors():
    params = default_oracle_params()
    spec = DemographicSpec(
        attributes={
            "risk_perception": [("Low", 0.25), ("Medium", 0.5), ("High", 0.25)],
            "nationality": [("UAE National", 0.1), ("Expatriate", 0.9)],
        },
        population_size=10,
    )
    population = sample_population(spec, seed=3)
    context = SimContext(dt.date(2020, 4, 15), 90.0)
    vectors = [oracle_respond(params, p, context) for p in population]
    result = aggregate_mean(vectors)
    for key in vectors[0].categories:
        total = 0.0
        for v in vectors:
            total += v[key]
        assert result[key] == pytest.approx(total / 10, abs=1e-15)


def test_mean_empty_and_mismatched_schema():
    with pytest.raises(DataError, match="empty"):
        aggregate_mean([])
    with pytest.raises(DataError, match="disagree"):
        aggregate_mean([const_vec(0.5), const_vec(0.5, keys=("x", "y", "z"))])


def test_weighted_equal_weights_reduces_to_mean():
    vectors = [vec(0.1, 0.5, 0.9), vec(0.3, 0.3, 0.3), vec(0.8, 0.2, 0.4)]
    assert aggregate_weighted(vectors, [2.0, 2.0, 2.0]) == aggregate_mean(vectors)


def test_weighted_degenerate_weight_selects_vector():
    first, second = vec(0.1, 0.2, 0.3), vec(0.9, 0.8, 0.7)
    assert aggregate_weighted([first, second], [1.0, 0.0]) == first


def test_weighted_hand_computed():
    vectors = [const_vec(0.0), const_vec(1.0)]
    result = aggregate_weighted(vectors, [1.0, 3.0])
    assert result["a"] == pytest.approx(0.75, abs=1e-15)


def test_weighted_error_cases():
    vectors = [const_vec(0.5), const_vec(0.6)]
    with pytest.raises(DataError, match="all be zero"):
        aggregate_weighted(vectors, [0.0, 0.0])
    with pytest.raises(DataError, match="weights for"):
        aggregate_weighted(vectors, [1.0])
    with pytest.raises(DataError, match="nonnegative"):
        aggregate_weighted(vectors, [1.0, -0.5])


prob_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=8
).map(lambda row: row)


@st.composite
def vector_batches(draw, with_weights=False):
    n_cats = draw(st.integers(min_value=1, max_value=5))
    keys = tuple(f"k{i}" for i in range(n_cats))
    n_vecs = draw(st.integers(min_value=1, max_value=8))
    vectors = [
        BehaviorVector(
            {
                k: draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
                for k in keys
            }
        )
        for _ in range(n_vecs)
    ]
    if not with_weights:
        return vectors
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n_vecs,
            max_size=n_vecs,
        ).filter(lambda ws: sum(ws) > 0)
    )
    return vectors, weights


@given(vector_batches())
def test_mean_bounded_by_min_and_max(vectors):
    result = aggregate_mean(vectors)
    for key in vectors[0].categories:
        column = [v[key] for v in vectors]
        assert min(column) - 1e-12 <= result[key] <= max(column) + 1e-12


@given(vector_batches(with_weights=True), st.randoms(use_true_random=False))
def test_weighted_permutation_invariance(batch, rng):
    vectors, weights = batch
    result = aggregate_weighted(vectors, weights)
    order = list(range(len(vectors)))
    rng.shuffle(order)
    shuffled = aggregate_weighted([vectors[i] for i in order], [weights[i] for i in order])
    for key in result.categories:
        assert result[key] == pytest.approx(shuffled[key], abs=1e-12)


@given(vector_batches())
def test_weighted_uniform_equals_mean_within_1e12(vectors):
    weighted = aggregate_weighted(vectors, [1.0] * len(vectors))
    mean = aggregate_mean(vectors)
    for key in mean.categories:
        assert abs(weighted[key] - mean[key]) <= 1e-12

import datetime as dt
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialtwin.aggregate import aggregate_mean, aggregate_weighted
from socialtwin.cognition import SimContext, oracle_respond
from socialtwin.errors import DataError
from socialtwin.persona import DemographicSpec, sample_population
from synthetic import default_oracle_params


def exact_mean(rows, multiplicities):
    """Reference: sum_j m_j v_j / sum_j m_j in rationals, rounded once."""
    total = sum(map(Fraction, multiplicities))
    return [
        float(sum(Fraction(row[c]) * Fraction(m) for row, m in zip(rows, multiplicities)) / total)
        for c in range(len(rows[0]))
    ]


def test_mean_midpoint():
    assert aggregate_mean([[0.4] * 3, [0.6] * 3], [1, 1]) == [0.5] * 3


def test_mean_single_vector_identity():
    assert aggregate_mean([[0.1, 0.2, 0.3]], [7]) == [0.1, 0.2, 0.3]


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
    keys = vectors[0].categories
    result = aggregate_mean([[v[k] for k in keys] for v in vectors], [1] * 10)
    for i, key in enumerate(keys):
        total = 0.0
        for v in vectors:
            total += v[key]
        assert result[i] == pytest.approx(total / 10, abs=1e-15)


def test_mean_empty_and_mismatched_schema():
    with pytest.raises(DataError, match="profiles x categories"):
        aggregate_mean(np.empty((0, 3)), [])
    with pytest.raises(DataError, match="2 counts for 3 rows"):
        aggregate_mean([[0.5]] * 3, [1, 1])


def test_weighted_equal_weights_reduces_to_mean():
    rows = [[0.1, 0.5, 0.9], [0.3, 0.3, 0.3], [0.8, 0.2, 0.4]]
    assert aggregate_weighted(rows, [2.0, 2.0, 2.0]) == aggregate_mean(rows, [1, 1, 1])


def test_weighted_degenerate_weight_selects_vector():
    first, second = [0.1, 0.2, 0.3], [0.9, 0.8, 0.7]
    assert aggregate_weighted([first, second], [1.0, 0.0]) == first


def test_weighted_hand_computed():
    assert aggregate_weighted([[0.0] * 3, [1.0] * 3], [1.0, 3.0]) == [0.75] * 3


def test_weighted_error_cases():
    rows = [[0.5] * 3, [0.6] * 3]
    with pytest.raises(DataError, match="all be zero"):
        aggregate_weighted(rows, [0.0, 0.0])
    with pytest.raises(DataError, match="weights for"):
        aggregate_weighted(rows, [1.0])
    with pytest.raises(DataError, match="nonnegative"):
        aggregate_weighted(rows, [1.0, -0.5])
    with pytest.raises(DataError, match="finite"):
        aggregate_weighted(rows, [1.0, math.inf])
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        aggregate_weighted([[0.5] * 3, [math.nan] * 3], [1.0, 1.0])


# values and weights of every finite size, subnormals included
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
weight = st.floats(min_value=0.0, max_value=1e308, allow_nan=False)


@st.composite
def profile_batches(draw, with_weights=False):
    n_cats = draw(st.integers(min_value=1, max_value=5))
    n_rows = draw(st.integers(min_value=1, max_value=8))
    rows = [[draw(unit) for _ in range(n_cats)] for _ in range(n_rows)]
    if not with_weights:
        return rows
    weights = draw(
        st.lists(weight, min_size=n_rows, max_size=n_rows).filter(lambda ws: sum(ws) > 0)
    )
    return rows, weights


@given(profile_batches())
def test_mean_bounded_by_min_and_max(rows):
    result = aggregate_mean(rows, [1] * len(rows))
    for c, value in enumerate(result):
        column = [row[c] for row in rows]
        assert min(column) <= value <= max(column)


@given(profile_batches(with_weights=True), st.randoms(use_true_random=False))
def test_weighted_permutation_invariance(batch, rng):
    rows, weights = batch
    result = aggregate_weighted(rows, weights)
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = aggregate_weighted([rows[i] for i in order], [weights[i] for i in order])
    assert shuffled == result


@given(profile_batches())
def test_weighted_uniform_equals_mean_within_1e12(rows):
    assert aggregate_weighted(rows, [1.0] * len(rows)) == aggregate_mean(rows, [1] * len(rows))


# ------------------------------------------------------------ exact results


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(unit, min_size=3, max_size=3), min_size=1, max_size=12),
    data=st.data(),
    weighted=st.booleans(),
)
def test_result_is_the_exact_member_mean_rounded_once(rows, data, weighted):
    """Each profile stands for its members: the result equals the rational
    mean over the expanded members, given each profile's summed weight as a
    ``Fraction``."""
    members = [
        data.draw(st.lists(weight if weighted else st.just(1.0), min_size=1, max_size=6))
        for _ in rows
    ]
    expanded_rows = [row for row, ws in zip(rows, members) for _ in ws]
    expanded_weights = [w for ws in members for w in ws]
    if sum(expanded_weights) == 0:
        return
    expected = exact_mean(expanded_rows, expanded_weights)
    if weighted:
        got = aggregate_weighted(rows, [sum(map(Fraction, ws), Fraction(0)) for ws in members])
    else:
        got = aggregate_mean(rows, [len(ws) for ws in members])
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_results_hold_on_the_double_rounding_cases(counts, seed):
    """Random 53-bit probabilities with uneven counts: the numerator is
    inexact, so dividing its rounded sum would round twice. Counts may come
    as numpy integers too."""
    rows = np.random.default_rng(seed).random((len(counts), 4)).tolist()
    expected = exact_mean(rows, counts)
    assert aggregate_mean(rows, counts) == expected
    assert aggregate_mean(rows, np.array(counts)) == expected
    assert aggregate_mean(rows, [np.int64(n) for n in counts]) == expected

import datetime as dt
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialtwin.aggregate import aggregate_mean
from socialtwin.cognition import SimContext
from socialtwin.errors import DataError
from socialtwin.persona import DemographicSpec, sample_population
from synthetic import default_oracle_params, oracle_respond


def exact_mean(rows, counts):
    """Reference: sum_j n_j v_j / sum_j n_j in rationals, rounded once."""
    total = sum(counts)
    return [
        float(sum(Fraction(row[c]) * n for row, n in zip(rows, counts)) / total)
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
    keys = list(vectors[0])
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
    """Scaling every count by the same factor leaves the count-weighted mean."""
    rows = [[0.1, 0.5, 0.9], [0.3, 0.3, 0.3], [0.8, 0.2, 0.4]]
    assert aggregate_mean(rows, [2, 2, 2]) == aggregate_mean(rows, [1, 1, 1])


def test_weighted_degenerate_weight_selects_vector():
    """A profile counted zero times (every member failed) drops out."""
    first, second = [0.1, 0.2, 0.3], [0.9, 0.8, 0.7]
    assert aggregate_mean([first, second], [1, 0]) == first


def test_weighted_hand_computed():
    assert aggregate_mean([[0.0] * 3, [1.0] * 3], [1, 3]) == [0.75] * 3


def test_weighted_error_cases():
    rows = [[0.5] * 3, [0.6] * 3]
    with pytest.raises(DataError, match="all be zero"):
        aggregate_mean(rows, [0, 0])
    with pytest.raises(DataError, match="1 counts for 2 rows"):
        aggregate_mean(rows, [1])
    with pytest.raises(DataError, match="nonnegative"):
        aggregate_mean(rows, [1, -1])
    with pytest.raises(DataError, match="integers"):
        aggregate_mean(rows, [1.0, 0.5])
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        aggregate_mean([[0.5] * 3, [math.nan] * 3], [1, 1])


# values of every size in [0, 1], subnormals included
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
count = st.integers(min_value=0, max_value=10**6)


@st.composite
def profile_batches(draw, with_counts=False):
    n_cats = draw(st.integers(min_value=1, max_value=5))
    n_rows = draw(st.integers(min_value=1, max_value=8))
    rows = [[draw(unit) for _ in range(n_cats)] for _ in range(n_rows)]
    if not with_counts:
        return rows
    counts = draw(
        st.lists(count, min_size=n_rows, max_size=n_rows).filter(lambda ns: sum(ns) > 0)
    )
    return rows, counts


@given(profile_batches())
def test_mean_bounded_by_min_and_max(rows):
    result = aggregate_mean(rows, [1] * len(rows))
    for c, value in enumerate(result):
        column = [row[c] for row in rows]
        assert min(column) <= value <= max(column)


@given(profile_batches(with_counts=True), st.randoms(use_true_random=False))
def test_weighted_permutation_invariance(batch, rng):
    rows, counts = batch
    result = aggregate_mean(rows, counts)
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = aggregate_mean([rows[i] for i in order], [counts[i] for i in order])
    assert shuffled == result


# ------------------------------------------------------------ exact results


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(unit, min_size=3, max_size=3), min_size=1, max_size=12),
    data=st.data(),
)
def test_result_is_the_exact_member_mean_rounded_once(rows, data):
    """Each profile stands for its members: the result equals the rational
    mean over the expanded members."""
    counts = data.draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    expanded_rows = [row for row, n in zip(rows, counts) for _ in range(n)]
    assert aggregate_mean(rows, counts) == exact_mean(expanded_rows, [1] * len(expanded_rows))


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

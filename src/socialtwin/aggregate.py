"""Reduce per-profile behavior rows to one population-level vector.

Personas with the same attributes share one response, so a population is
aggregated over its profiles: row j of a (profiles x categories) array holds
the vector the members of profile j share, and its multiplicity m_j is what
the profile weighs (its member count, or its members' summed weight). Each
category's result is the float nearest to

    sum_j m_j * v_j / sum_j m_j,

ties to even. The sums are exact integers: every multiplicity (an int, a
float or a ``Fraction``) is an integer over a common denominator, and every
probability an integer times a power of two. One integer division then
rounds the quotient correctly. The result therefore does not depend on the
order of the profiles (or of the personas behind them) nor on the Python
version, and its cost grows with the profiles, not the personas.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def _ratio(rows, multiplicities, noun: str) -> list[float]:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
        raise DataError(f"cannot aggregate a {rows.shape} array: need profiles x categories")
    multiplicities = np.asarray(multiplicities)
    if multiplicities.shape != (rows.shape[0],):
        raise DataError(f"{multiplicities.size} {noun} for {rows.shape[0]} rows")
    try:
        # tolist turns numpy scalars into Python numbers, which have as_integer_ratio
        numerators, denominators = zip(*[m.as_integer_ratio() for m in multiplicities.tolist()])
    except (ValueError, OverflowError):  # NaN or infinite
        raise DataError(f"{noun} must be finite and nonnegative") from None
    if min(numerators) < 0:
        raise DataError(f"{noun} must be finite and nonnegative")
    if not max(numerators) > 0:
        raise DataError(f"{noun} must not all be zero")
    # min and max propagate NaN, which fails every comparison
    if not (rows.min() >= 0.0 and rows.max() <= 1.0):
        raise DataError("behavior probabilities must lie in [0, 1]")
    # Exactly, as Python ints: weights == multiplicities * common, and, since
    # rows == digits * 2**(exponents - 53) with integer digits below 2**53,
    # values == rows * 2**(53 - low)
    common = math.lcm(*denominators)
    weights = [n * (common // d) for n, d in zip(numerators, denominators)]
    mantissas, exponents = np.frexp(rows)
    low = int(exponents.min())
    digits = np.ldexp(mantissas, 53).astype(np.int64)
    values = np.left_shift(digits, exponents - low, dtype=object)
    total = sum(weights) << (53 - low)  # low <= 1: every probability is at most 1
    sums = np.array(weights, dtype=object) @ values
    return [numerator / total for numerator in sums.tolist()]


def aggregate_mean(rows, counts) -> list[float]:
    """Per-category mean over a population: row j's vector counted
    ``counts[j]`` times (its profile's member count)."""
    return _ratio(rows, counts, "counts")


def aggregate_weighted(rows, weights) -> list[float]:
    """Per-category weighted mean: row j weighs ``weights[j]`` (the summed
    weight of its profile's members, exactly, such as a ``Fraction``);
    weights are normalized to sum 1."""
    return _ratio(rows, weights, "weights")

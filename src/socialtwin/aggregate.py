"""Reduce per-profile behavior rows to one population-level vector.

Personas with the same attributes share one response, so a population is
aggregated over its profiles: row j of a (profiles x categories) array holds
the vector the members of profile j share, and its multiplicity m_j is what
the profile weighs (its member count, or its members' summed weight). Each
category's result is the float nearest to

    sum_j m_j * v_j / sum_j m_j,

ties to even, computed exactly: every product is split into two floats whose
sum is the product (Dekker's TwoProduct, with Veltkamp's split, since Python
3.11 has no ``math.fma``), ``math.fsum`` adds the terms exactly, and the sign
of the exact residual of the quotient picks the nearest float. The result
therefore does not depend on the order of the profiles (or of the personas
behind them) nor on the Python version, and its cost grows with the profiles,
not the personas.

Inputs so small or large that a product could underflow or a split overflow
(nonzero values or multiplicities below 2**-300, multiplicities above
2**300, or a result below 2**-600) take an exact rational path instead.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DataError

_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a 53-bit significand
_LOW = 2.0**-300  # nonzero inputs below this take the rational path
_HIGH = 2.0**300  # as do multiplicities above this
_LOWEST_RESULT = 2.0**-600  # and results below this
_CERTAIN = 1.0 - 2.0**-40  # share of half an ulp that a certified residual stays under


def exact_parts(values: Sequence[float]) -> list[float]:
    """Nonnegative floats, largest first, whose sum is exactly the sum of the
    nonnegative ``values``: the binary digits of that sum, cut into pieces of
    53 bits."""
    total = sum(map(Fraction, values), Fraction(0))
    digits, scale = total.numerator, total.denominator  # scale is a power of two
    parts = []
    while digits:
        drop = max(digits.bit_length() - 53, 0)
        top = digits >> drop << drop
        parts.append(top / scale)  # exact: 53 bits above the sum's last bit
        digits -= top
    return parts or [0.0]


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly, for floats or
    elementwise for arrays."""
    p = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _residual(terms: list[float], q: float, h: float, total: list[float]) -> float:
    """sum(terms) - (q + h) * sum(total), correctly rounded, so with its exact
    sign; ``h`` is zero or half an ulp of ``q``, so h * total is exact."""
    negated = []
    for part in total:
        p, e = _two_product(q, part)
        negated += (-p, -e, -h * part)
    return math.fsum(terms + negated)


def _odd(q: float) -> bool:
    return bool(struct.pack("<d", q)[0] & 1)


def _nearest(
    terms: list[float], total: list[float], rounded_total: float, exact_division: bool
) -> float | None:
    """The float nearest to sum(terms) / sum(total), ties to even, or None
    when the quotient is too small for the midpoint checks."""
    numerator = math.fsum(terms)
    first = numerator / rounded_total
    if numerator == 0.0:
        return 0.0
    if first < _LOWEST_RESULT:
        return None
    if exact_division:  # fsum's is then the only rounding
        return first
    # first is within two ulps of the quotient. One Newton step with the
    # exact residual lands on the nearest float, and the residual left after
    # the step, known to about 2**-50 ulps, proves it unless the quotient
    # lies within 2**-40 ulps of a midpoint.
    residual = _residual(terms, first, 0.0, total)
    q = first + residual / rounded_total
    half_ulp = min(math.nextafter(q, math.inf) - q, q - math.nextafter(q, 0.0)) / 2
    left = residual - (q - first) * rounded_total
    if residual == 0.0 or abs(left) < _CERTAIN * half_ulp * rounded_total:
        return q
    # else decide each midpoint by the sign of the exact residual there
    while True:
        up, down = math.nextafter(q, math.inf), math.nextafter(q, 0.0)
        above = _residual(terms, q, (up - q) / 2, total)
        if above > 0.0 or (above == 0.0 and _odd(q)):
            q = up
            continue
        below = _residual(terms, q, (down - q) / 2, total)
        if below < 0.0 or (below == 0.0 and _odd(q)):
            q = down
            continue
        return q


def _rational(column: list[float], multiplicities: list[float]) -> float:
    weights = [Fraction(m) for m in multiplicities]
    return float(sum(Fraction(v) * w for v, w in zip(column, weights)) / sum(weights))


def _rounded_ratio(rows: np.ndarray, multiplicities: np.ndarray, in_range: bool) -> list[float]:
    """The nearest float to sum_j m_j v_j / sum_j m_j, for every column."""
    m = multiplicities.tolist()
    if not in_range:
        return [_rational(column, m) for column in rows.T.tolist()]
    if min(m) == max(m):  # equal multiplicities: the plain mean of the rows
        columns = rows.T.tolist()
        rounded_total = float(len(m))
        total = [rounded_total]
    else:
        p, e = _two_product(rows, multiplicities[:, None])
        columns = np.concatenate([p, e]).T.tolist()
        rounded_total = math.fsum(m)
        # the total as exact parts; counts usually sum exactly to one float
        total = [rounded_total] if math.fsum([*m, -rounded_total]) == 0.0 else exact_parts(m)
    # dividing by a power of two, such as the one member of a single profile,
    # is exact
    exact_division = len(total) == 1 and math.frexp(rounded_total)[0] == 0.5
    results = []
    for column, terms in enumerate(columns):
        q = _nearest(terms, total, rounded_total, exact_division)
        results.append(_rational(rows[:, column].tolist(), m) if q is None else q)
    return results


def _ratio(rows, multiplicities, noun: str) -> list[float]:
    rows = np.asarray(rows, dtype=float)
    multiplicities = np.asarray(multiplicities, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
        raise DataError(f"cannot aggregate a {rows.shape} array: need profiles x categories")
    if multiplicities.shape != (rows.shape[0],):
        raise DataError(f"{multiplicities.size} {noun} for {rows.shape[0]} rows")
    # min and max propagate NaN, which fails every comparison
    low, high = np.minimum.reduce(multiplicities), np.maximum.reduce(multiplicities)
    if not (low >= 0.0 and high < math.inf):
        raise DataError(f"{noun} must be finite and nonnegative")
    if not high > 0.0:
        raise DataError(f"{noun} must not all be zero")
    smallest = np.minimum.reduce(rows, axis=None)
    if not (smallest >= 0.0 and np.maximum.reduce(rows, axis=None) <= 1.0):
        raise DataError("behavior probabilities must lie in [0, 1]")
    in_range = high <= _HIGH and not (
        (smallest < _LOW and np.any((rows > 0.0) & (rows < _LOW)))
        or (low < _LOW and np.any((multiplicities > 0.0) & (multiplicities < _LOW)))
    )
    return _rounded_ratio(rows, multiplicities, in_range)


def aggregate_mean(rows, counts) -> list[float]:
    """Per-category mean over a population: row j's vector counted
    ``counts[j]`` times (its profile's member count)."""
    return _ratio(rows, counts, "counts")


def aggregate_weighted(rows, weights) -> list[float]:
    """Per-category weighted mean: row j weighs ``weights[j]`` (the summed
    weight of its profile's members); weights are normalized to sum 1."""
    return _ratio(rows, weights, "weights")

"""Reduce per-profile behavior rows to one population-level vector.

Personas with the same attributes share one response, so a population is
aggregated over its profiles: row j of a (profiles x categories) array holds
the vector the members of profile j share, and its member count n_j is what
the profile weighs. Each category's result is the float nearest to

    sum_j n_j * v_j / sum_j n_j,

ties to even. The sums are exact integers: every probability is an integer
times a power of two, and every count an integer. One integer division then
rounds the quotient correctly. The result therefore does not depend on the
order of the profiles (or of the personas behind them) nor on the Python
version, and its cost grows with the profiles, not the personas.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def aggregate_mean(rows, counts) -> list[float]:
    """Per-category mean over a population: row j's vector counted
    ``counts[j]`` times (its profile's member count)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
        raise DataError(f"cannot aggregate a {rows.shape} array: need profiles x categories")
    counts = np.asarray(counts)
    if counts.shape != (rows.shape[0],):
        raise DataError(f"{counts.size} counts for {rows.shape[0]} rows")
    if counts.dtype.kind not in "iu":
        raise DataError(f"counts must be integers, got {counts.dtype}")
    counts = counts.tolist()  # Python ints, whose sums do not overflow
    if min(counts) < 0:
        raise DataError("counts must be nonnegative")
    if not max(counts) > 0:
        raise DataError("counts must not all be zero")
    # min and max propagate NaN, which fails every comparison
    if not (rows.min() >= 0.0 and rows.max() <= 1.0):
        raise DataError("behavior probabilities must lie in [0, 1]")
    # Exactly, as Python ints: since rows == digits * 2**(exponents - 53) with
    # integer digits below 2**53, values == rows * 2**(53 - low)
    mantissas, exponents = np.frexp(rows)
    low = int(exponents.min())
    digits = np.ldexp(mantissas, 53).astype(np.int64)
    values = np.left_shift(digits, exponents - low, dtype=object)
    total = sum(counts) << (53 - low)  # low <= 1: every probability is at most 1
    sums = np.array(counts, dtype=object) @ values
    return [numerator / total for numerator in sums.tolist()]


# The benchmark's tracer (perfbench/trace_layers.py) looks up this name.
aggregate_weighted = aggregate_mean

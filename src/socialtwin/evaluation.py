"""Score predictions against observations, both ``ingest.Series`` (date ->
category -> value): per-category RMSE, unweighted macro average, and percent
improvement versus a reference method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DataError
from .ingest import Series


def rmse_with_coverage(
    predictions: Series, observations: Series, category: str
) -> tuple[float, int]:
    """RMSE plus the number of common dates actually scored."""
    common = [d for d in predictions if d in observations]
    if not common:
        raise DataError(
            f"no common dates between predictions ({len(predictions)}) and "
            f"observations ({len(observations)})"
        )
    total = 0.0
    for d in common:
        err = predictions[d][category] - observations[d][category]
        total += err * err
    return math.sqrt(total / len(common)), len(common)


def macro_average(per_category: Mapping[str, float]) -> float:
    """Unweighted mean of per-category values."""
    if not per_category:
        raise DataError("macro average of an empty mapping")
    return sum(per_category.values()) / len(per_category)


def improvement_pct(reference: float, ours: float) -> float:
    """(reference - ours) / reference * 100; NaN when the reference is zero."""
    if reference == 0:
        return math.nan
    return (reference - ours) / reference * 100.0


@dataclass
class EvalReport:
    """Per-category and macro RMSE for one method on one split, optionally
    against a named reference."""

    method: str
    split: str
    per_category_rmse: dict[str, float]
    macro_rmse: float
    n_dates: int
    reference: str | None = None
    improvement: dict[str, float] = field(default_factory=dict)
    macro_improvement: float | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def enc(x):
            return None if x is None or (isinstance(x, float) and math.isnan(x)) else x

        return {
            "method": self.method,
            "split": self.split,
            "n_dates": self.n_dates,
            "per_category_rmse": self.per_category_rmse,
            "macro_rmse": self.macro_rmse,
            "reference": self.reference,
            "improvement_pct": {k: enc(v) for k, v in self.improvement.items()},
            "macro_improvement_pct": enc(self.macro_improvement),
            "provenance": self.provenance,
        }

    def to_text(self, labels: Mapping[str, str] | None = None) -> str:
        labels = labels or {}
        name_width = max(
            [len(labels.get(k, k)) for k in self.per_category_rmse] + [len("macro average")]
        )
        lines = [
            f"method: {self.method}   split: {self.split}   dates scored: {self.n_dates}",
        ]
        if self.reference:
            lines.append(f"improvement is (reference - ours) / reference * 100 vs {self.reference}")
        header = f"{'category':<{name_width}}  {'rmse':>10}"
        if self.reference:
            header += f"  {'improvement':>12}"
        lines.append(header)
        for key, value in self.per_category_rmse.items():
            row = f"{labels.get(key, key):<{name_width}}  {value:>10.2f}"
            if self.reference:
                imp = self.improvement.get(key, math.nan)
                row += f"  {'n/a':>12}" if math.isnan(imp) else f"  {imp:>+11.1f}%"
            lines.append(row)
        row = f"{'macro average':<{name_width}}  {self.macro_rmse:>10.2f}"
        if self.reference and self.macro_improvement is not None:
            row += (
                f"  {'n/a':>12}"
                if math.isnan(self.macro_improvement)
                else f"  {self.macro_improvement:>+11.1f}%"
            )
        lines.append(row)
        return "\n".join(lines)


def evaluate_predictions(
    method: str,
    split: str,
    predictions: Series,
    observations: Series,
    categories: Iterable[str],
    provenance: dict | None = None,
) -> EvalReport:
    """Score one method on one split in each of ``categories``, in that order."""
    per_category = {}
    n_dates = 0
    for key in categories:
        per_category[key], n_dates = rmse_with_coverage(predictions, observations, key)
    return EvalReport(
        method=method,
        split=split,
        per_category_rmse=per_category,
        macro_rmse=macro_average(per_category),
        n_dates=n_dates,
        provenance=provenance or {},
    )


def compare(ours: EvalReport, reference: EvalReport) -> EvalReport:
    """Attach per-category and macro improvement of ``ours`` over ``reference``."""
    if set(ours.per_category_rmse) != set(reference.per_category_rmse):
        raise DataError(
            "cannot compare reports over different categories: "
            f"{sorted(ours.per_category_rmse)} vs {sorted(reference.per_category_rmse)}"
        )
    return EvalReport(
        method=ours.method,
        split=ours.split,
        per_category_rmse=dict(ours.per_category_rmse),
        macro_rmse=ours.macro_rmse,
        n_dates=ours.n_dates,
        reference=reference.method,
        improvement={
            key: improvement_pct(reference.per_category_rmse[key], value)
            for key, value in ours.per_category_rmse.items()
        },
        macro_improvement=improvement_pct(reference.macro_rmse, ours.macro_rmse),
        provenance=dict(ours.provenance),
    )

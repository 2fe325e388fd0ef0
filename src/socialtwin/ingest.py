"""Load, validate, and temporally split policy and observation time series.

CSV layouts are configuration-driven: callers name the columns, so exports
from different trackers load without code changes. Dates are daily ISO-8601
calendar dates; intra-day data is out of scope. The policy loader returns
records and the observations loader a ``Series``, both ascending by date;
both report dropped rows rather than imputing.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, DataError

# A dated series of per-category values: date -> {category key: value}, dates
# ascending. Observations, aggregates and every method's predictions share it.
Series = dict[dt.date, dict[str, float]]


@dataclass(frozen=True)
class PolicyRecord:
    """One day of policy signal."""

    date: dt.date
    stringency: float
    government_response: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.stringency <= 100.0:
            raise DataError(
                f"stringency must be in [0, 100], got {self.stringency} on {self.date}"
            )
        if self.government_response is not None and not 0.0 <= self.government_response <= 100.0:
            raise DataError(
                f"government_response must be in [0, 100], got "
                f"{self.government_response} on {self.date}"
            )


@dataclass(frozen=True)
class DateRange:
    """Inclusive calendar-date range."""

    start: dt.date
    end: dt.date

    def __post_init__(self):
        if self.start > self.end:
            raise ConfigError(f"date range start {self.start} is after end {self.end}")

    def contains(self, date: dt.date) -> bool:
        return self.start <= date <= self.end

    def restrict(self, series: Series) -> Series:
        """The entries of ``series`` dated inside the range, in its order."""
        return {d: v for d, v in series.items() if self.contains(d)}


@dataclass(frozen=True)
class TemporalSplit:
    """Strictly ordered, disjoint train/validation/test date ranges."""

    train: DateRange
    validation: DateRange
    test: DateRange

    def __post_init__(self):
        if not (self.train.end < self.validation.start and self.validation.end < self.test.start):
            raise ConfigError(
                "split ranges must be disjoint and ordered train < validation < test: "
                f"train={self.train}, validation={self.validation}, test={self.test}"
            )

    def range_for(self, name: str) -> DateRange:
        try:
            return {"train": self.train, "validation": self.validation, "test": self.test}[name]
        except KeyError:
            raise ConfigError(f"unknown split name {name!r}") from None


@dataclass
class LoadReport:
    """Counts of rows dropped while loading a CSV."""

    path: str
    rows_read: int = 0
    rows_kept: int = 0
    dropped: list[tuple[int, str]] = field(default_factory=list)  # (row index, reason)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "dropped": [{"row": r, "reason": why} for r, why in self.dropped],
        }


def _parse_date(raw: str, path: str, row: int) -> dt.date:
    try:
        return dt.date.fromisoformat(raw.strip())
    except ValueError:
        raise DataError(f"{path}: row {row}: unparseable date {raw!r}") from None


def _parse_float(raw: str, path: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(
            f"{path}: row {row}: unparseable number {raw!r} in column {column!r}"
        ) from None
    if not math.isfinite(value):  # float() reads nan and inf, which would poison every fit
        raise DataError(f"{path}: row {row}: non-finite number {raw!r} in column {column!r}")
    return value


@contextmanager
def _csv_rows(path: str | Path):
    """A ``csv.DictReader`` over the file; one that is missing, cannot be read
    (a directory, say) or is not UTF-8 is a data error naming it."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"file not found: {p}")
    try:
        with p.open("r", encoding="utf-8", newline="") as fh:
            yield csv.DictReader(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{p}: not UTF-8 text: {exc}") from None
    except (OSError, csv.Error) as exc:
        raise DataError(f"{p}: cannot read the CSV file: {exc}") from None


def read_file(path, text=True):
    """A file's text (or bytes); one that cannot be read (a directory, say)
    or is not UTF-8 is a data error naming it."""
    try:
        data = path.read_bytes()
        return data.decode("utf-8") if text else data
    except OSError as exc:
        raise DataError(f"{path}: cannot read the file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def _refuse_duplicate_dates(dates: Iterable[dt.date], path, what: str) -> None:
    dupes = sorted(d for d, n in Counter(dates).items() if n > 1)
    if dupes:
        raise DataError(f"{path}: duplicate {what} dates {[d.isoformat() for d in dupes]}")


def _require_columns(header: Sequence[str], required: Iterable[str], path: str) -> None:
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}; header has {list(header)}")


def load_policy_csv(
    path: str | Path,
    column_map: dict[str, str] | None = None,
) -> tuple[list[PolicyRecord], LoadReport]:
    """Load a policy-signal CSV into PolicyRecord rows sorted by date.

    ``column_map`` names the columns: keys ``date`` and ``stringency`` are
    required, ``government_response`` optional. Rows with an empty stringency
    cell are dropped and counted in the returned LoadReport; malformed dates
    or numbers, and non-finite ones (``nan``, ``inf``), raise DataError naming
    the offending row.
    """
    cols = {"date": "date", "stringency": "stringency"}
    cols.update(column_map or {})
    report = LoadReport(path=str(path))
    records: list[PolicyRecord] = []
    with _csv_rows(path) as reader:
        if reader.fieldnames is None:
            return [], report
        required = [cols["date"], cols["stringency"]]
        gov_col = cols.get("government_response")
        if gov_col is not None and gov_col not in reader.fieldnames:
            gov_col = None
        _require_columns(reader.fieldnames, required, str(path))
        for i, row in enumerate(reader, start=2):  # row 1 is the header
            report.rows_read += 1
            raw_date = (row.get(cols["date"]) or "").strip()
            raw_str = (row.get(cols["stringency"]) or "").strip()
            if not raw_str:
                report.dropped.append((i, "missing stringency"))
                continue
            date = _parse_date(raw_date, str(path), i)
            stringency = _parse_float(raw_str, str(path), i, cols["stringency"])
            gov = None
            if gov_col:
                raw_gov = (row.get(gov_col) or "").strip()
                if raw_gov:
                    gov = _parse_float(raw_gov, str(path), i, gov_col)
            records.append(PolicyRecord(date=date, stringency=stringency, government_response=gov))
    _refuse_duplicate_dates((r.date for r in records), path, "policy")
    records.sort(key=lambda r: r.date)
    report.rows_kept = len(records)
    return records, report


def load_observations_csv(
    path: str | Path,
    category_columns: dict[str, str],
    date_column: str = "date",
) -> tuple[Series, LoadReport]:
    """Load an observations CSV into a ``Series``: dates ascending, each
    date's values in the order of ``category_columns``.

    ``category_columns`` maps each category key to its CSV column. Rows
    missing any category value are excluded whole (per-category imputation
    would contaminate downstream error metrics) and counted in the report.
    Duplicate dates are an error naming the date; a malformed or non-finite
    value is an error naming its row and column.
    """
    report = LoadReport(path=str(path))
    rows: list[tuple[dt.date, dict[str, float]]] = []
    with _csv_rows(path) as reader:
        if reader.fieldnames is None:
            return {}, report
        _require_columns(reader.fieldnames, [date_column, *category_columns.values()], str(path))
        for i, row in enumerate(reader, start=2):
            report.rows_read += 1
            date = _parse_date((row.get(date_column) or "").strip(), str(path), i)
            raw_values = {key: (row.get(col) or "").strip() for key, col in category_columns.items()}
            missing = [key for key, raw in raw_values.items() if not raw]
            if missing:
                report.dropped.append((i, f"missing values for {missing}"))
                continue
            values = {
                key: _parse_float(raw, str(path), i, category_columns[key])
                for key, raw in raw_values.items()
            }
            rows.append((date, values))
    _refuse_duplicate_dates((d for d, _ in rows), path, "observation")
    report.rows_kept = len(rows)
    return dict(sorted(rows, key=lambda row: row[0])), report

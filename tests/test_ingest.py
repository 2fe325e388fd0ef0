import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socialtwin.errors import ConfigError, DataError
from socialtwin.ingest import (
    DateRange,
    PolicyRecord,
    TemporalSplit,
    load_observations_csv,
    load_policy_csv,
)
from synthetic import write_observations_csv

CATS = ("a", "b", "c", "d", "e", "f")


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------- policy csv


def test_load_policy_row(tmp_path):
    path = write_csv(tmp_path / "p.csv", ["date", "stringency"], [["2020-04-15", "90.0"]])
    records, report = load_policy_csv(path)
    assert records == [PolicyRecord(dt.date(2020, 4, 15), 90.0)]
    assert len(report.dropped) == 0


def test_load_policy_empty_data_section(tmp_path):
    path = write_csv(tmp_path / "p.csv", ["date", "stringency"], [])
    records, report = load_policy_csv(path)
    assert records == []
    assert len(report.dropped) == 0


def test_load_policy_malformed_number_names_row(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["date", "stringency"],
        [["2020-04-15", "90.0"], ["2020-04-16", "abc"]],
    )
    with pytest.raises(DataError, match="row 3"):
        load_policy_csv(path)


def test_load_policy_missing_stringency_dropped_and_counted(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["date", "stringency"],
        [["2020-04-16", "50"], ["2020-04-15", ""], ["2020-04-17", "60"]],
    )
    records, report = load_policy_csv(path)
    assert [r.date.day for r in records] == [16, 17]
    assert len(report.dropped) == 1 and report.dropped[0][0] == 3


def test_load_policy_sorted_and_column_mapped(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["Day", "SI", "GRI"],
        [["2020-04-17", "60", "55"], ["2020-04-15", "90", ""]],
    )
    records, _ = load_policy_csv(
        path, {"date": "Day", "stringency": "SI", "government_response": "GRI"}
    )
    assert [r.date.day for r in records] == [15, 17]
    assert records[0].government_response is None
    assert records[1].government_response == 55.0


def test_load_policy_missing_file_and_column(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_policy_csv(tmp_path / "nope.csv")
    path = write_csv(tmp_path / "p.csv", ["date", "other"], [["2020-01-01", "5"]])
    with pytest.raises(DataError, match="stringency"):
        load_policy_csv(path)


def test_policy_record_range_invariant():
    with pytest.raises(DataError):
        PolicyRecord(dt.date(2020, 1, 1), 101.0)
    with pytest.raises(DataError):
        PolicyRecord(dt.date(2020, 1, 1), 50.0, government_response=-1.0)


# ----------------------------------------------------------- observations csv


def obs_csv(tmp_path, rows, header=None):
    header = header or ["date", *CATS]
    return write_csv(tmp_path / "o.csv", header, rows)


def test_load_observations_six_columns(tmp_path):
    path = obs_csv(tmp_path, [["2020-04-15", 1, 2, 3, 4, 5, 6]])
    series, report = load_observations_csv(path, {c: c for c in CATS})
    assert len(series) == 1
    assert series == {dt.date(2020, 4, 15): {c: float(i + 1) for i, c in enumerate(CATS)}}
    assert report.rows_kept == 1


def test_load_observations_duplicate_date_named(tmp_path):
    path = obs_csv(
        tmp_path,
        [["2020-04-15", 1, 2, 3, 4, 5, 6], ["2020-04-15", 1, 2, 3, 4, 5, 6]],
    )
    with pytest.raises(DataError, match="2020-04-15"):
        load_observations_csv(path, {c: c for c in CATS})


@pytest.mark.parametrize("damage", ["directory", "latin-1-header", "latin-1-row"])
@pytest.mark.parametrize("load", ["policy", "observations"])
def test_unreadable_csv_is_a_data_error_naming_it(tmp_path, load, damage):
    """Raised where the loader reads the bytes, not as an OS or decode error."""
    path = tmp_path / "input.csv"
    if damage == "directory":
        path.mkdir()
    else:
        header, row = "date,stringency," + ",".join(CATS), "2020-04-15,90,1,2,3,4,5,6"
        text = header.replace("date", "d\xe4te") if damage == "latin-1-header" else header
        body = row if damage == "latin-1-header" else row.replace("90", "9\xe4")
        path.write_bytes(f"{text}\n{body}\n".encode("latin-1"))
    with pytest.raises(DataError, match="input.csv") as excinfo:
        if load == "policy":
            load_policy_csv(path)
        else:
            load_observations_csv(path, {c: c for c in CATS})
    assert ("cannot read" if damage == "directory" else "not UTF-8") in str(excinfo.value)


def test_load_observations_missing_column(tmp_path):
    path = obs_csv(tmp_path, [], header=["date", "a", "b", "c", "d", "e"])
    with pytest.raises(DataError, match="missing required columns"):
        load_observations_csv(path, {c: c for c in CATS})


def test_load_observations_365_rows(tmp_path):
    start = dt.date(2020, 1, 1)
    rows = [
        [(start + dt.timedelta(days=i)).isoformat(), *range(6)] for i in range(365)
    ]
    path = obs_csv(tmp_path, rows)
    series, report = load_observations_csv(path, {c: c for c in CATS})
    assert len(series) == 365 == report.rows_read


def test_load_observations_partial_row_excluded_whole(tmp_path):
    path = obs_csv(
        tmp_path,
        [["2020-04-15", 1, 2, "", 4, 5, 6], ["2020-04-16", 1, 2, 3, 4, 5, 6]],
    )
    series, report = load_observations_csv(path, {c: c for c in CATS})
    assert len(series) == 1
    assert len(report.dropped) == 1 and "c" in report.dropped[0][1]


def test_observations_roundtrip(tmp_path):
    start = dt.date(2021, 6, 1)
    series = {start + dt.timedelta(days=i): {c: float(i) - 17.25 for c in CATS} for i in range(40)}
    out = tmp_path / "round.csv"
    write_observations_csv(series, CATS, out)
    reloaded, _ = load_observations_csv(out, {c: c for c in reversed(CATS)})
    assert reloaded == series
    assert list(reloaded) == list(series)
    assert all(tuple(values) == CATS[::-1] for values in reloaded.values())


# ----------------------------------------------------------------- splitting


def dated_range(start: dt.date, days: int):
    return [
        PolicyRecord(start + dt.timedelta(days=i), stringency=50.0) for i in range(days)
    ]


def split_by_dates(series, split):
    """Partition dated records into (train, validation, test) lists by the
    split's ranges; records outside all three are left out."""
    parts = ([], [], [])
    for rec in series:
        for part, name in zip(parts, ("train", "validation", "test")):
            if split.range_for(name).contains(rec.date):
                part.append(rec)
    return parts


def paper_split():
    return TemporalSplit(
        train=DateRange(dt.date(2020, 4, 1), dt.date(2021, 3, 31)),
        validation=DateRange(dt.date(2021, 4, 1), dt.date(2021, 9, 30)),
        test=DateRange(dt.date(2021, 10, 1), dt.date(2022, 12, 31)),
    )


def test_split_partitions_without_sharing():
    series = dated_range(dt.date(2020, 1, 1), 365 * 3)
    train, val, test = split_by_dates(series, paper_split())
    assert len(train) == 365  # 2020-04-01 .. 2021-03-31
    assert len(val) == 183
    all_dates = [r.date for part in (train, val, test) for r in part]
    assert len(set(all_dates)) == len(all_dates)
    assert len(train) + len(val) + len(test) <= len(series)


def test_split_excludes_record_before_train():
    series = dated_range(dt.date(2020, 3, 30), 1)
    train, val, test = split_by_dates(series, paper_split())
    assert train == val == test == []


def test_split_overlap_refused():
    r = DateRange(dt.date(2020, 1, 1), dt.date(2020, 6, 30))
    with pytest.raises(ConfigError, match="disjoint"):
        TemporalSplit(train=r, validation=r, test=DateRange(dt.date(2021, 1, 1), dt.date(2021, 2, 1)))


def test_date_range_inverted_refused():
    with pytest.raises(ConfigError):
        DateRange(dt.date(2021, 1, 2), dt.date(2021, 1, 1))


@given(
    offsets=st.lists(st.integers(min_value=0, max_value=1200), min_size=0, max_size=80),
    bounds=st.lists(st.integers(min_value=0, max_value=1200), min_size=4, max_size=4),
)
def test_split_property_disjoint_and_bounded(offsets, bounds):
    base = dt.date(2020, 1, 1)
    b = sorted(bounds)
    # degenerate equal bounds would overlap; nudge them apart
    ranges = []
    lo = 0
    for i in range(3):
        hi = max(b[i + 1], lo)
        ranges.append(DateRange(base + dt.timedelta(days=lo), base + dt.timedelta(days=hi)))
        lo = hi + 1
    split = TemporalSplit(*ranges)
    series = [PolicyRecord(base + dt.timedelta(days=o), 1.0) for o in sorted(set(offsets))]
    train, val, test = split_by_dates(series, split)
    assert len(train) + len(val) + len(test) <= len(series)
    ids = [id(r) for part in (train, val, test) for r in part]
    assert len(set(ids)) == len(ids)
    for part in (train, val, test):
        dates = [r.date for r in part]
        assert dates == sorted(dates)
    # a dated series, its dates in the drawn order: each range's restriction
    # holds exactly its dates, in the series' order, with the same values
    drawn = {base + dt.timedelta(days=o): {"k": float(o)} for o in offsets}
    parts = [r.restrict(drawn) for r in ranges]
    for part, r in zip(parts, ranges):
        assert list(part) == [d for d in drawn if r.contains(d)]
        assert all(part[d] is drawn[d] for d in part)
    assert sum(map(len, parts)) == len(set().union(*parts)) <= len(drawn)

import csv
import datetime as dt
import threading
from contextlib import contextmanager
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest
import yaml

from socialtwin.config import load_profile, packaged_template
from socialtwin.ingest import DateRange, TemporalSplit
from socialtwin.schema import CategorySchema
from synthetic import default_oracle_params, make_synthetic_dataset, write_observations_csv


@pytest.fixture(autouse=True)
def no_pool_worker_left_alive():
    """Fail a test that leaves a thread-pool worker running: a simulation
    pass shuts its pool down whether it ends in results or in an error."""
    before = set(threading.enumerate())
    yield
    left = [
        t.name for t in threading.enumerate()
        if t not in before and t.name.startswith("ThreadPoolExecutor-")
    ]
    if left:
        pytest.fail(f"thread-pool workers left alive: {left}")


@pytest.fixture(scope="session")
def schema() -> CategorySchema:
    return CategorySchema.from_dicts(load_profile("pandemic-uae")["categories"])


@pytest.fixture(scope="session")
def pandemic_template() -> str:
    return packaged_template("pandemic_uae.txt")


@pytest.fixture(scope="session")
def oracle_params():
    return default_oracle_params()


@pytest.fixture(scope="session")
def synth_dataset():
    """One-year zero-noise dataset shared by read-only tests."""
    return make_synthetic_dataset(days=365)


@pytest.fixture(scope="session")
def paper_style_split() -> TemporalSplit:
    return TemporalSplit(
        train=DateRange(dt.date(2020, 4, 1), dt.date(2021, 3, 31)),
        validation=DateRange(dt.date(2021, 4, 1), dt.date(2021, 9, 30)),
        test=DateRange(dt.date(2021, 10, 1), dt.date(2022, 6, 30)),
    )


def write_run_workspace(
    root: Path,
    dataset,
    split: dict,
    fit_trials: int = 40,
    gbm_trees: int = 60,
    engine: dict | None = None,
    seeds: dict | None = None,
) -> Path:
    """Materialize CSVs, a run config, and a scenario file under ``root``.

    Returns the config path. Used by CLI and acceptance tests.
    """
    root.mkdir(parents=True, exist_ok=True)
    with (root / "policy.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "stringency"])
        for rec in dataset.policy:
            writer.writerow([rec.date.isoformat(), repr(rec.stringency)])
    columns = {c.key: c.observation_column for c in dataset.schema}
    write_observations_csv(
        dataset.observations, dataset.schema.keys, root / "observations.csv", columns
    )
    if engine is None:
        engine = {
            "kind": "synthetic-oracle",
            "retry_limit": 3,
            "oracle": {
                "intercepts": dataset.oracle_params.intercepts,
                "slopes": dataset.oracle_params.slopes,
                "attribute_offsets": dataset.oracle_params.attribute_offsets,
                "noise_scale": dataset.oracle_params.noise_scale,
            },
        }
    config = {
        "profile": "pandemic-uae",
        "paths": {
            "policy_csv": "policy.csv",
            "observations_csv": "observations.csv",
            "cache_dir": "cache",
            "output_dir": "out",
        },
        "split": split,
        "engine": engine,
        "fit": {"trials": fit_trials},
        "gbm": {"n_trees": gbm_trees},
        "seeds": seeds or {"population": dataset.population_seed, "fit": 3, "gbm": 5},
    }
    config_path = root / "run.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    scenarios = [
        {"name": "relaxed", "date": "2020-04-15", "stringency_override": 60},
        {"name": "baseline", "date": "2020-04-15", "stringency_override": 90},
        {"name": "extreme", "date": "2020-04-15", "stringency_override": 100},
    ]
    (root / "scenarios.yaml").write_text(yaml.safe_dump(scenarios), encoding="utf-8")
    return config_path


SPLIT_18MO = {
    "train": {"start": "2020-04-01", "end": "2021-03-31"},
    "validation": {"start": "2021-04-01", "end": "2021-06-30"},
    "test": {"start": "2021-07-01", "end": "2021-09-27"},
}


@contextmanager
def loopback_server(handler, tls=None):
    """Serve ``handler`` on a free 127.0.0.1 port from a thread until the
    block ends, over TLS when given a server ``ssl.SSLContext``. Handlers
    update the server's ``served`` POSTs, accepted ``connections`` and
    recorded ``requests`` under its ``lock``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    server.lock = threading.Lock()
    server.served = 0
    server.connections = 0
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()

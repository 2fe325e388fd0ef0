"""A fuzz of the run config and the input files, in-process through ``main``.

Each example changes one thing in a small, fully run workspace: it replaces
one setting of ``run.yaml`` (a leaf of the settings table) with a value of
another kind, damages one input file, or passes a bad flag. Then it runs one
command. Whatever the change, the command exits 0-3, nothing is raised out
of ``main``, and a failure is one stderr line naming its kind. The oracle
engine answers every prompt, so no example opens a socket.
"""

import contextlib
import io
import shutil
import socket
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from socialtwin.cli import main
from socialtwin.config import SETTINGS, load_profile
from synthetic import make_synthetic_dataset

from conftest import write_run_workspace

SPLIT = {
    "train": {"start": "2020-04-01", "end": "2020-04-06"},
    "validation": {"start": "2020-04-07", "end": "2020-04-08"},
    "test": {"start": "2020-04-09", "end": "2020-04-10"},
}
COMMANDS = ("simulate", "calibrate", "evaluate", "counterfactual", "ablate")
INPUT_FILES = ("run.yaml", "policy.csv", "observations.csv", "population.yaml", "scenarios.yaml")
# every leaf of the table, with the first entry standing for a list's entries
LEAVES = sorted(key.replace("[*]", "[0]") for key in SETTINGS)

# Inputs that raised out of ``main`` or loaded although the program cannot
# follow them; each must now exit 1 (config) or 2 (data) from ``simulate``,
# or from the first command that reads the damaged file.
READER = {"observations.csv": "calibrate", "scenarios.yaml": "counterfactual"}
PROBE_CHANGES = [
    ("set", "categories[0].key", 5),
    ("set", "categories[0].direction", "sideways"),
    ("set", "categories[0].direction", -1.5),
    ("set", "categories[0].colour", "red"),
    ("set", "profile", [1]),
    ("set", "seeds.population", -1),
    ("flag", "--seed-override", "-1"),
    ("set", "fit.trials", 40.7),
    ("set", "gbm.n_trees", 20.9),
    ("set", "paths.output_dir", None),
    ("set", "paths.output_dir", ""),
    ("set", "paths.cache_dir", None),
    ("set", "categories", []),
    ("set", "clip_bounds", []),
    ("set", "clip_bounds", [float("nan"), float("nan")]),
    ("set", "clip_bounds", [5, 1]),
    ("set", "engine.oracle.noise_scale", float("nan")),
    *(
        ("damage", name, how, 0)
        for name in ("policy.csv", "observations.csv", "population.yaml", "scenarios.yaml")
        for how in ("directory", "not-utf-8")
    ),
]
PROBES = [
    (READER.get(change[1], "simulate") if change[0] == "damage" else "simulate", change)
    for change in PROBE_CHANGES
]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A workspace with a population spec file, after simulate and calibrate."""
    root = tmp_path_factory.mktemp("pristine")
    config_path = write_run_workspace(
        root, make_synthetic_dataset(days=10), SPLIT, fit_trials=3, gbm_trees=2
    )
    config = yaml.safe_load(config_path.read_text())
    config["paths"]["population_spec"] = "population.yaml"
    config["categories"] = load_profile("pandemic-uae")["categories"]
    config_path.write_text(yaml.safe_dump(config))
    spec = dict(load_profile("pandemic-uae")["population"], population_size=6)
    (root / "population.yaml").write_text(yaml.safe_dump(spec))
    for command in ("simulate", "calibrate"):
        assert main([command, "--config", str(config_path)]) == 0
    return root


def _set(config: dict, path: str, value) -> None:
    """Set the setting at ``path`` ("a.b", "a[0].b"), adding mappings on the way."""
    *parents, name = path.split(".")
    node = config
    for parent in parents:
        key, _, index = parent.partition("[")
        node = node.setdefault(key, {})
        if index:
            node = node[int(index.rstrip("]"))]
    node[name] = value


def _damage(path: Path, how: str, at: int) -> None:
    data = path.read_bytes()
    cut = at % (len(data) + 1)
    if how == "directory":
        path.unlink()
        path.mkdir()
    elif how == "not-utf-8":
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    elif how == "cut":
        path.write_bytes(data[:cut])
    elif how == "empty":
        path.write_bytes(b"")
    else:  # header only
        path.write_bytes(data.split(b"\n", 1)[0] + b"\n")


def run_case(pristine: Path, command: str, change: tuple) -> tuple[int, str]:
    """Apply ``change`` to a copy of the pristine workspace, run ``command``,
    and return its exit code and stderr."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "ws"
        shutil.copytree(pristine, root)
        args = [command, "--config", str(root / "run.yaml")]
        if command == "counterfactual":
            args += ["--scenarios", str(root / "scenarios.yaml")]
        kind, *rest = change
        if kind == "set":
            path, value = rest
            config = yaml.safe_load((root / "run.yaml").read_text())
            _set(config, path, value)
            (root / "run.yaml").write_text(yaml.safe_dump(config))
        elif kind == "damage":
            name, how, at = rest
            _damage(root / name, how, at)
        else:
            args += rest
        err = io.StringIO()
        connect = mock.Mock(side_effect=OSError("the fuzz opens no socket"))
        with contextlib.redirect_stderr(err), mock.patch.object(socket.socket, "connect", connect):
            code = main(args)
        assert not connect.called
    return code, err.getvalue()


values = st.one_of(
    st.text(alphabet="aé{} ", max_size=4),  # never a path out of the workspace, or a URL
    st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.sampled_from(["a", "key"]), st.integers(-1, 1), max_size=2),
    st.sampled_from([None, True, False, -1, float("nan"), 1e309]),
)
changes = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(LEAVES), values),
    st.tuples(
        st.just("damage"),
        st.sampled_from(INPUT_FILES),
        st.sampled_from(["cut", "not-utf-8", "empty", "header-only", "directory"]),
        st.integers(0, 10_000),
    ),
)


def _with_probes(test):
    for command, change in reversed(PROBES):
        test = example(command=command, change=change)(test)
    return test


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@_with_probes
@given(command=st.sampled_from(COMMANDS), change=changes)
def test_any_one_change_exits_with_a_code_and_one_error_line(pristine, command, change):
    # a valid parallelism above 2 would start that many worker threads
    assume(not (change[1] == "parallelism" and type(change[2]) is int and change[2] > 2))
    code, err = run_case(pristine, command, change)
    assert code in (0, 1, 2, 3), err
    if (command, change) in PROBES:
        assert code in (1, 2), (change, err)
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(("config error:", "data error:", "engine error:")), err

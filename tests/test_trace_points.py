"""The benchmark's traced run (``perfbench/trace_layers.py``) wraps program
functions by name; a rename that drops one of them must fail here, not only
under ``--trace 1``."""

import importlib.util
from pathlib import Path

import numpy as np

from socialtwin import baseline as bl

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_gbm_trees():
    original_fit = bl.fit_gbm
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert bl.fit_gbm is not original_fit
        X = np.arange(40, dtype=float).reshape(20, 2)
        bl.fit_gbm(X, {"a": X[:, 0] ** 2, "b": -X[:, 1]}, bl.GbmHyper(n_trees=5, min_leaf=2))
        assert tracer.counts["baseline.gbm_trees"] == 10
    finally:
        tracer.uninstall()
    assert bl.fit_gbm is original_fit

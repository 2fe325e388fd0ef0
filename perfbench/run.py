"""Benchmark of the socialtwin CLI chain on generated workspaces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_unique --seed 1 --seconds 30 --trace 0

Each workload writes its inputs from ``--seed`` under ``.perfbench_work/``,
then runs whole rounds of the CLI chain in-process until ``--seconds`` have
passed: set-up, ``simulate``, ``calibrate``, ``evaluate``,
``counterfactual`` and ``ablate``. Every round's outputs are checked against
recomputations that do not use the program (``checks.py``). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the rounds run under the span recorder
of ``trace_layers.py`` and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, Workspace, oracle_dict, write_workspace  # noqa: E402

# Each round runs every operation until it has taken OP_BUDGET_S of wall
# time, at least once, so that short operations get as much measured time in
# a run as long ones. Every repetition starts from the same cache file.
OP_BUDGET_S = 0.8

# The commands that query the engine.
ENGINE_COMMANDS = ("simulate", "counterfactual", "ablate")

# Host speed reference. A shared host's speed can drift by tens of percent,
# over milliseconds and over seconds, and CPU time drifts with it. The benchmark
# therefore times a fixed reference task, made of the same kind of
# interpreter work as the program (dicts, JSON, hashing, string formatting),
# right before and right after every operation, and reports the operation's
# time in seconds at the reference's nominal duration: raw seconds times
# REFERENCE_NOMINAL_S over the mean of the two reference timings. Each
# reference timing is the mean of REFERENCE_REPEATS runs of about a
# millisecond with the garbage collector off.
REFERENCE_NOMINAL_S = 0.001
REFERENCE_REPEATS = 5


def reference_s() -> float:
    start = time.perf_counter()
    for i in range(100):
        record = {"a": i, "b": str(i) * 3, "c": [i, i + 1]}
        text = json.dumps(record, sort_keys=True)
        json.loads(text)
        hashlib.sha256(text.encode()).hexdigest()
        f"{i:g}-{text[:5]}".split("-")
    return time.perf_counter() - start


def host_reference_s() -> float:
    gc.disable()
    try:
        return statistics.fmean(reference_s() for _ in range(REFERENCE_REPEATS))
    finally:
        gc.enable()


class Timer:
    """Host-normalised timings per operation name; each operation is
    bracketed by the reference timing taken after the previous one, or by a
    fresh one after untimed work, and one taken after it."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.last_reference = host_reference_s()

    def refresh(self) -> None:
        self.last_reference = host_reference_s()

    def time(self, name: str, fn, *args) -> float:
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        before, self.last_reference = self.last_reference, host_reference_s()
        self.raw.setdefault(name, []).append(elapsed)
        self.samples.setdefault(name, []).append(
            elapsed * REFERENCE_NOMINAL_S * 2 / (before + self.last_reference)
        )
        return elapsed

    def median(self, name: str) -> float:
        """Median time of an operation, in seconds at the nominal host speed."""
        return statistics.median(self.samples[name])


def count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return fh.read().count(b"\n")


def file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class Stub:
    """The loopback model endpoint, in its own process."""

    def __init__(self, oracle_path: Path, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--oracle", str(oracle_path), "--delay-ms", str(delay_ms)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("stub did not report its port")
        self.url = f"http://127.0.0.1:{int(line)}/"

    def served(self) -> int:
        import urllib.request

        with urllib.request.urlopen(self.url + "count", timeout=10) as resp:
            return int(json.load(resp)["served"])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One workload's workspace, its rounds, checks and counters."""

    def __init__(self, workload: Workload, seed: int, root: Path, stub: Stub | None, budget_s: float):
        from checks import read_observations, read_policy

        self.workload = workload
        self.stub = stub
        self.budget_s = budget_s
        self.code = 0
        self.served: int | None = None
        self.space: Workspace = write_workspace(root, workload, seed, stub.url if stub else None)
        self.out = root / "out"
        self.cache = root / "cache" / "responses.jsonl"
        self.policy = read_policy(root / "policy.csv")
        self.obs_dates, self.obs_values = read_observations(root / "observations.csv")
        self.timer = Timer()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.engine_calls: list[int] = []
        self.cache_bytes: list[int] = []
        self.appended_bytes = 0
        self.warm_cache_size = 0
        self.warm_aggregates = b""
        if workload.warm:
            self.command("simulate")  # untimed: fills the cache the timed rounds read
            self.problems += self.check_simulate(stub_served=None)
            self.warm_cache_size = file_size(self.cache)
            self.warm_aggregates = (self.out / "aggregates.json").read_bytes()
            self.attempted = self.failed = self.cells = 0

    # -- the program -------------------------------------------------------

    def command(self, command: str, *extra: str) -> None:
        """Run one CLI command in-process; count it, and the persona-cells
        of a simulation, as attempted and failed operations."""
        from socialtwin.cli import main

        self.attempted += 1
        self.code = main([command, "--config", str(self.space.config), *extra])
        if self.code != 0:
            self.failed += 1
            self.problems.append(f"{command} exited with code {self.code}")
        elif command == "simulate":
            log = read_json(self.out / "simulate_manifest.json")["simulation_log"]
            self.cells = sum(log["survivors_by_date"].values()) + len(log["failures"])
            self.attempted += self.cells
            self.failed += len(log["failures"])

    def repeat(self, name: str, fn, *args) -> None:
        """Time ``fn`` until it has taken ``budget_s``, at least once, each
        time from the cache file as it was before the first time."""
        existed, size = self.cache.exists(), file_size(self.cache)
        gc.collect()  # no garbage left by the previous operation
        self.timer.refresh()
        spent = 0.0
        while True:
            if not existed:
                self.cache.unlink(missing_ok=True)
            else:
                with self.cache.open("r+b") as fh:
                    fh.truncate(size)
            counted = self.stub is not None and name in ENGINE_COMMANDS
            served = self.stub.served() if counted else 0
            spent += self.timer.time(name, fn, *args)
            self.served = self.stub.served() - served if counted else None
            if spent >= self.budget_s:
                return

    def setup(self) -> None:
        """What a command does before its first query: load and hash the
        config, ingest both CSVs, sample the population, build the engine
        and open the response cache."""
        from socialtwin import cognition, config, ingest, persona

        cfg = config.load_run_config(self.space.config)
        ingest.load_policy_csv(cfg.policy_csv, cfg.policy_columns)
        ingest.load_observations_csv(
            cfg.observations_csv, cfg.observation_columns, cfg.observation_date_column
        )
        persona.sample_population(cfg.population_spec, cfg.seeds["population"])
        cognition.build_engine(cfg.engine, cfg.schema)
        cognition.ResponseCache(cfg.cache_path)

    def round(self) -> None:
        if self.workload.warm:
            with self.cache.open("r+b") as fh:
                fh.truncate(self.warm_cache_size)
        else:
            self.cache.unlink(missing_ok=True)
        lines_before, size_before = count_lines(self.cache), file_size(self.cache)
        self.repeat("setup", self.setup)

        self.repeat("simulate", self.command, "simulate")
        if self.code == 0:
            self.problems += self.check_simulate(self.served)

        self.repeat("calibrate", self.command, "calibrate")
        self.repeat("evaluate", self.command, "evaluate")
        if self.code == 0:
            self.problems += self.check_evaluate()

        self.repeat("counterfactual", self.command, "counterfactual", "--scenarios", str(self.space.scenarios))
        if self.code == 0:
            from checks import check_counterfactual

            self.problems += check_counterfactual(read_json(self.out / "counterfactual.json"))
            calls = read_json(self.out / "counterfactual_manifest.json")["engine_calls"]
            if self.stub and calls != self.served:
                self.problems.append(f"counterfactual engine_calls {calls} != stub served {self.served}")

        lines = count_lines(self.cache)
        self.repeat("ablate", self.command, "ablate")
        if self.code == 0:
            from checks import check_ablation

            self.problems += check_ablation(read_json(self.out / "ablation.json"))
            if self.stub and count_lines(self.cache) - lines != self.served:
                self.problems.append(f"ablate appended {count_lines(self.cache) - lines} records, stub served {self.served}")

        self.engine_calls.append(count_lines(self.cache) - lines_before)
        self.cache_bytes.append(file_size(self.cache))
        self.appended_bytes += file_size(self.cache) - size_before

    # -- checks --------------------------------------------------------------

    def check_simulate(self, stub_served: int | None) -> list[str]:
        from checks import check_aggregates, check_survivors, count_distinct_prompts, read_population

        w = self.workload
        manifest = read_json(self.out / "simulate_manifest.json")
        population = read_population(self.out / "population.jsonl")
        dates = [d.isoformat() for d in self.space.dates]
        aggregates = read_json(self.out / "aggregates.json")
        tolerance = 1e-6 if w.engine == "remote" else 1e-12
        problems = check_aggregates(aggregates, population, self.policy, w.offsets(), tolerance)
        problems += check_survivors(manifest, w.personas, len(dates))
        if self.cells != w.personas * len(dates):
            problems.append(f"{self.cells} cells, expected {w.personas * len(dates)}")
        distinct = count_distinct_prompts(population, dates)
        if w.warm and self.warm_aggregates:
            if manifest["engine_calls"] != 0 or manifest["cache_misses"] != 0:
                problems.append(f"warm simulate made {manifest['engine_calls']} engine calls")
            if (self.out / "aggregates.json").read_bytes() != self.warm_aggregates:
                problems.append("warm aggregates differ from the cold set-up run")
        elif w.engine == "oracle":
            records = count_lines(self.cache)
            if not manifest["engine_calls"] == records == distinct:
                problems.append(
                    f"engine_calls {manifest['engine_calls']}, cache records {records}, distinct prompts {distinct}"
                )
        if stub_served is not None and manifest["engine_calls"] != stub_served:
            problems.append(f"engine_calls {manifest['engine_calls']} != stub served {stub_served}")
        return problems

    def check_evaluate(self) -> list[str]:
        from checks import check_evaluation, persistence_macro_rmse

        test = self.space.split["test"]
        expected = persistence_macro_rmse(self.obs_dates, self.obs_values, test["start"], test["end"])
        return check_evaluation(read_json(self.out / "eval_test.json"), expected, 1e-3)

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        t = self.timer
        values = {
            "setup_s": (t.median("setup"), "s"),
            "cells_per_s": (self.cells / t.median("simulate"), "cells/s"),
            "calibrate_s": (t.median("calibrate"), "s"),
            "evaluate_s": (t.median("evaluate"), "s"),
            "counterfactual_s": (t.median("counterfactual"), "s"),
            "ablate_s": (t.median("ablate"), "s"),
            "engine_calls": (statistics.median(self.engine_calls), "calls"),
            "cache_bytes": (statistics.median(self.cache_bytes), "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    stub = None
    try:
        if workload.engine == "remote":
            work.mkdir(parents=True, exist_ok=True)
            oracle_path = work / "oracle.json"
            oracle_path.write_text(json.dumps(oracle_dict(workload)), encoding="utf-8")
            stub = Stub(oracle_path, workload.stub_delay_ms)
        # The traced run times each operation once per round, so that its
        # per-layer counts are per pass of the chain.
        bench = Bench(workload, seed, work, stub, 0.0 if trace else OP_BUDGET_S)
        tracer = None
        if trace:
            from trace_layers import Tracer

            tracer = Tracer()
            tracer.install()
        rounds = 0
        start = time.perf_counter()
        try:
            while rounds == 0 or time.perf_counter() - start < seconds:
                if tracer is not None:
                    tracer.begin_round()
                bench.round()
                rounds += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
        print(
            f"{workload.name} seed {seed}: {rounds} rounds in {wall:.1f} s; raw medians "
            + ", ".join(f"{k}={statistics.median(v):.4f}" for k, v in bench.timer.raw.items()),
            file=sys.stderr,
        )
        metrics = tracer.metrics(rounds, wall, bench.appended_bytes) if tracer else bench.end_to_end()
        for problem in dict.fromkeys(bench.problems):
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not bench.problems,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
    finally:
        if stub is not None:
            stub.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "socialtwin" / "cli.py").is_file():
        print(f"socialtwin sources not found under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # not empty: another run's workspace is in use
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

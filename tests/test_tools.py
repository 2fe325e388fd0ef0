"""The repository's tools, run as their users run them: as scripts."""

import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_chain_digests_lists_every_file_of_a_chain_the_same_under_two_hash_seeds():
    """``tools/chain_digests.py`` checks byte identity against another
    checkout: one line per file in ``out/`` and ``cache/``, the same from two
    temporary workspaces under two string-hash seeds, and no workload that
    needs the engine stub."""

    def chain(workload, hash_seed):
        return subprocess.run(
            [sys.executable, str(TOOLS / "chain_digests.py"), "--workload", workload, "--seed", "1"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        )

    first, second = chain("cold_unique", 1), chain("cold_unique", 2)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    names = [line.split("  ")[1] for line in first.stdout.splitlines()]
    assert len(names) == 22 and "cache/responses.jsonl" in names
    for command in ("simulate", "calibrate", "evaluate", "counterfactual", "ablate"):
        assert f"out/{command}_manifest.json" in names
    assert chain("remote_shared", 1).returncode == 2

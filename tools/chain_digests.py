"""Print the SHA-256 of every file one CLI chain leaves in ``out/`` and ``cache/``.

Writes a benchmark workspace (``perfbench/workloads.py``) for one workload and
seed into a temporary directory. Then it runs ``simulate`` twice (the second
run reads a warm cache), ``calibrate``, ``evaluate``, ``counterfactual`` and
``ablate`` through ``socialtwin.cli.main``. Each output line is
``<sha256>  <path>``, the path relative to the workspace. The commands run
from inside the workspace with a relative config path, so no artifact records
where the workspace was. Two checkouts' chains compare with one ``diff``:

    python3 tools/chain_digests.py --workload cold_unique --seed 1 > change.txt
    python3 tools/chain_digests.py --workload cold_unique --seed 1 \\
        --src ../parent/src > parent.txt
    diff parent.txt change.txt

``socialtwin`` is imported from this checkout's ``src/`` unless ``--src``
names another. remote_shared needs the benchmark's HTTP stub and is refused
with exit 2; a command that fails ends the script with exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "simulate", "calibrate", "evaluate", "counterfactual", "ablate")


def digests(root: Path) -> list[str]:
    """``<sha256>  <path>`` of every file under ``root``'s out/ and cache/, by path."""
    files = sorted(p for d in ("out", "cache") for p in (root / d).rglob("*") if p.is_file())
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
        for p in files
    ]


def main(argv=None) -> int:
    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import WORKLOADS, write_workspace

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=REPO / "src", help="the src/ to import socialtwin from")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.engine != "oracle":
        print(f"{workload.name} needs the benchmark's engine stub; use an oracle workload", file=sys.stderr)
        return 2
    src = args.src.resolve()
    if not (src / "socialtwin" / "cli.py").is_file():
        print(f"socialtwin sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from socialtwin.cli import main as socialtwin

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="chain-digests-") as tmp:
        root = Path(tmp)
        space = write_workspace(root, workload, args.seed)
        os.chdir(root)
        try:
            config = ["--config", str(space.config.relative_to(root))]
            scenarios = ["--scenarios", str(space.scenarios.relative_to(root))]
            for command in COMMANDS:
                extra = scenarios if command == "counterfactual" else []
                code = socialtwin([command, *config, *extra])
                if code != 0:
                    print(f"{command} exited with code {code}", file=sys.stderr)
                    return 1
        finally:
            os.chdir(cwd)
        print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the reference outputs in ``expected/`` with node.

The references come from an independent JavaScript engine, never from
the engine under test.  Run from the repository root (needs ``node``):

    python3 perfbench/make_expected.py

Each program is run as a standalone node script; the synthetic library
is run at every corner of its seeded parameter range and must print the
same output at each, which is then stored once.
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import suite  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402
from repro.workloads.synthetic import generate_library  # noqa: E402


def node_output(node: str, source: str) -> str:
    """Console output of ``source`` run as a node script read from stdin."""
    done = subprocess.run(
        [node, "-"], input=source, capture_output=True, text=True, check=True, timeout=120
    )
    return done.stdout


def synthetic_corners():
    ranges = suite.SYNTHETIC_RANGES
    for values in itertools.product(*ranges.values()):
        yield dict(zip(ranges, values))


def main() -> int:
    node = shutil.which("node")
    if node is None:
        print("make_expected: node not found on PATH", file=sys.stderr)
        return 2
    programs = {name: workload.source for name, workload in WORKLOADS.items()}
    programs.update(suite.HOT_PROGRAMS)
    outputs = {name: node_output(node, source) for name, source in programs.items()}
    synthetic = {
        node_output(node, generate_library(**params)) for params in synthetic_corners()
    }
    if len(synthetic) != 1:
        print(f"make_expected: synthetic output varies: {synthetic}", file=sys.stderr)
        return 1
    outputs["synthetic"] = synthetic.pop()
    suite.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, text in sorted(outputs.items()):
        (suite.EXPECTED_DIR / f"{name}.txt").write_text(text)
        print(f"{name}: {len(text.splitlines())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

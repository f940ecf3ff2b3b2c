"""Benchmark entry point: run one workload from a seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-listed --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. ``--trace 1``
prints the per-layer metrics instead of the end-to-end ones. See
``perfbench/README.md`` for the workloads and metrics.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from benchkit.runner import main as run_main

    return run_main()


if __name__ == "__main__":
    sys.exit(main())

"""Entry point of the benchmark; see ``harness.py`` for what it measures.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus|ladder|tables --seed N \
        --seconds S --trace 0|1

semnet is imported from this checkout's ``src`` and nowhere else; without
it the benchmark exits with code 2 and prints no result.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "semnet" / "__init__.py").is_file():
        print(f"error: semnet sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(1, str(SRC))
    import harness
    sys.exit(harness.main(start=START))

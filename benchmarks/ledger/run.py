"""Entry point named by BENCHMARK.json: ``python3 benchmarks/ledger/run.py``.

Runs from a bare checkout (no PYTHONPATH, not a git repository): puts the
checkout root on ``sys.path`` itself (the harness adds ``src/``).
"""

import pathlib
import sys
import time

STARTED = time.perf_counter()
ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=STARTED))

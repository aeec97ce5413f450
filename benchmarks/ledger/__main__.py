"""``PYTHONPATH=src python -m benchmarks.ledger`` — same entry as run.py."""

import sys
import time

STARTED = time.perf_counter()

from .cli import main  # noqa: E402

sys.exit(main(started=STARTED))

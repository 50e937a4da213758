"""Options for the ledger's own tests (``python -m pytest benchmarks/ledger/tests``)."""

from __future__ import annotations

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
for entry in (str(LEDGER.parents[1] / "src"), str(LEDGER)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def pytest_addoption(parser):
    parser.addoption(
        "--scale", type=float, default=0.05,
        help="window length as a share of BENCHMARK.json's run_seconds (smoke: 0.05)",
    )

"""The host fingerprint stamped on the perf ledger's set files
(``benchmarks/ledger``), which imports it from here."""

from __future__ import annotations

import platform

__all__ = ["environment_fingerprint"]


def environment_fingerprint() -> dict[str, str]:
    """The host properties that make wall-clock numbers comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }

"""The host fingerprint the perf ledger stamps on its set files."""

from __future__ import annotations

from repro.bench.continuous import environment_fingerprint


def test_environment_fingerprint_shape():
    env = environment_fingerprint()
    assert set(env) == {"python", "implementation", "machine", "system"}
    assert all(isinstance(v, str) and v for v in env.values())

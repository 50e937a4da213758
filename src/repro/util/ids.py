"""Deterministic identifier generation.

The simulator must be fully replayable, so identifiers are sequential per
namespace rather than random UUIDs. ``IdGenerator`` hands out ids like
``node-0``, ``node-1``, ``msg-0`` ...; each runtime owns one.
"""

from __future__ import annotations

from collections import defaultdict


class IdGenerator:
    """Sequential id factory with one counter per namespace.

    >>> gen = IdGenerator()
    >>> gen.next("node")
    'node-0'
    >>> gen.next("node")
    'node-1'
    >>> gen.next("msg")
    'msg-0'
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = defaultdict(int)

    def next(self, namespace: str) -> str:
        """Return the next id in ``namespace`` (``'<namespace>-<n>'``)."""
        value = self._counters[namespace]
        self._counters[namespace] = value + 1
        return f"{namespace}-{value}"

    def next_int(self, namespace: str) -> int:
        """Return the next integer in ``namespace`` (0, 1, 2, ...)."""
        value = self._counters[namespace]
        self._counters[namespace] = value + 1
        return value

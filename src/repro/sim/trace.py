"""Structured event tracing.

Components emit ``(time, source, event, fields)`` records into a shared
:class:`Tracer`. Tests assert on traces; the benchmark harness derives
latency samples from them (e.g. matching ``sensor.sample`` against
``ml.trained`` records by sample id, exactly how the paper measures
"sensing → training" time).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import SerializationError

__all__ = ["TraceRecord", "Tracer", "render_record", "trace_digest"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace entry."""

    time: float
    source: str
    event: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


def render_record(record: TraceRecord) -> str:
    """A record's canonical line, the unit every trace digest hashes: no
    ids, hashes or wall-clock, so it is stable across processes."""
    return (
        f"{record.time!r}|{record.source}|{record.event}"
        f"|{sorted(record.fields.items())!r}"
    )


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """Canonical SHA-256 fingerprint of a full trace (a tracer or records).

    Two runs are considered byte-identical iff their digests match; each
    record is hashed as its :func:`render_record` line.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{render_record(record)}\n".encode())
    return digest.hexdigest()


class Tracer:
    """Append-only trace log with filtered iteration and live taps.

    Tracing can be disabled wholesale (``enabled=False``) for long benchmark
    runs where only tapped events matter; taps always fire.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: list[TraceRecord] = []
        self._taps: dict[str, list[Callable[[TraceRecord], None]]] = {}

    def wants(self, event: str) -> bool:
        """Whether an ``event`` record would be stored or tapped now.

        An emitter whose fields are costly to build asks first and builds
        nothing when the answer is no (:meth:`emit` asks for itself).
        """
        return self.enabled or event in self._taps

    def emit(
        self, time: float, source: str, event: str, **fields: Any
    ) -> None:
        """Record an event and notify any taps registered for it."""
        if self.enabled or event in self._taps:
            self.emit_fields(time, source, event, fields)

    def emit_fields(
        self, time: float, source: str, event: str, fields: dict[str, Any]
    ) -> None:
        """:meth:`emit` for a caller that already holds the fields dict
        (and asked :meth:`wants` before building it): no ``**`` repack.
        The record keeps ``fields`` itself, not a copy."""
        record = TraceRecord(time, source, event, fields)
        if self.enabled:
            self._records.append(record)
        taps = self._taps.get(event)
        if taps is not None:
            for tap in taps:
                tap(record)

    def tap(self, event: str, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback(record)`` whenever ``event`` is emitted."""
        self._taps.setdefault(event, []).append(callback)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self, event: str | None = None, source: str | None = None
    ) -> list[TraceRecord]:
        """Records matching the given event and/or source."""
        return [
            r
            for r in self._records
            if (event is None or r.event == event)
            and (source is None or r.source == source)
        ]

    def count(self, event: str) -> int:
        return sum(1 for r in self._records if r.event == event)

    def clear(self) -> None:
        self._records.clear()

    # ------------------------------------------------------------------
    # Offline analysis
    # ------------------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> int:
        """Dump the trace as JSON Lines; returns the record count.

        Each line is ``{"t": time, "src": source, "ev": event, "f": fields}``
        with fields recursively encoded: tuples are tagged (so they come
        back as tuples, not lists), dict keys are stringified, and any
        non-JSON value is repr'd — dumping never fails mid-run, and
        :meth:`from_jsonl` reproduces the original field structure for
        everything JSON-representable.
        """
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for record in self._records:
                fh.write(
                    json.dumps(
                        {
                            "t": record.time,
                            "src": record.source,
                            "ev": record.event,
                            "f": {
                                key: _encode_field(value)
                                for key, value in record.fields.items()
                            },
                        },
                        sort_keys=True,
                    )
                )
                fh.write("\n")
        return len(self._records)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Tracer":
        """Rebuild a tracer from a :meth:`to_jsonl` dump.

        Raises :class:`~repro.errors.SerializationError` naming the file
        and line of the first line that is not a ``to_jsonl`` record.
        """
        tracer = cls()
        with Path(path).open("r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SerializationError(
                        f"{path}:{number}: invalid JSON: {exc}"
                    ) from None
                if not _is_record(data):
                    raise SerializationError(
                        f"{path}:{number}: not a trace record; expected "
                        '{"t": number, "src": str, "ev": str, "f": object}'
                    )
                fields = {k: _decode_field(v) for k, v in data["f"].items()}
                tracer.emit(data["t"], data["src"], data["ev"], **fields)
        return tracer


def _is_record(data: Any) -> bool:
    """Is ``data`` one :meth:`Tracer.to_jsonl` line, decoded?"""
    return (
        isinstance(data, dict)
        and data.keys() == {"t", "src", "ev", "f"}
        and isinstance(data["t"], (int, float))
        and not isinstance(data["t"], bool)
        and isinstance(data["src"], str)
        and isinstance(data["ev"], str)
        and isinstance(data["f"], dict)
    )


#: Tag marking an encoded tuple; chosen to be implausible as a real key.
_TUPLE_TAG = "__tuple__"


def _encode_field(value: Any) -> Any:
    """JSON-ready deep copy of one field value (see :meth:`Tracer.to_jsonl`)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_field(v) for v in value]}
    if isinstance(value, list):
        return [_encode_field(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_field(v) for k, v in value.items()}
    return repr(value)


def _decode_field(value: Any) -> Any:
    """Inverse of :func:`_encode_field` (tuples restored from their tag)."""
    if isinstance(value, dict):
        if len(value) == 1 and _TUPLE_TAG in value:
            return tuple(_decode_field(v) for v in value[_TUPLE_TAG])
        return {k: _decode_field(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_field(v) for v in value]
    return value

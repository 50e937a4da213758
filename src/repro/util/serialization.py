"""Compact payload encoding for flow records.

The paper's experiment sends 32-byte sensor samples as MQTT payloads. We
encode payloads as canonical JSON (UTF-8) — dependency-free, deterministic,
and debuggable — and expose :func:`payload_size` so the network model charges
airtime for the *actual* wire size of every message.

Values survive a round trip exactly for: ``None``, ``bool``, ``int``,
``float``, ``str``, and (nested) ``list``/``dict`` of those. Tuples are
encoded as lists (the usual JSON lossy-ness) — callers that care use lists.
Decoding is as strict as encoding: it rejects the non-finite constants
(``NaN``, ``Infinity``), integers over CPython's digit limit and nesting
deeper than the recursion limit, each as :class:`SerializationError`.
"""

from __future__ import annotations

import json
import math
from json.encoder import c_make_encoder, encode_basestring_ascii  # type: ignore[attr-defined]
from typing import Any, NoReturn

from repro.errors import SerializationError

__all__ = ["encode_fragment", "encode_payload", "decode_payload", "payload_size"]

_ALLOWED_SCALARS = (type(None), bool, int, float, str)


def _check_encodable(value: Any, path: str = "$", enclosing: tuple[Any, ...] = ()) -> None:
    """Slow validation pass that names the offending path — error cases only.

    ``enclosing`` holds the containers around ``value``, so a container met
    again inside itself is reported instead of recursed into.
    """
    if isinstance(value, _ALLOWED_SCALARS):
        if isinstance(value, float) and not math.isfinite(value):
            raise SerializationError(f"non-finite float at {path}: {value!r}")
        return
    if isinstance(value, (list, tuple, dict)):
        if any(value is outer for outer in enclosing):
            raise SerializationError(f"circular reference at {path}")
        enclosing = (*enclosing, value)
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_encodable(item, f"{path}[{i}]", enclosing)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"non-string key at {path}: {key!r}")
            _check_encodable(item, f"{path}.{key}", enclosing)
        return
    raise SerializationError(f"unencodable type at {path}: {type(value).__name__}")


def _keys_ok(value: Any) -> bool:
    """Iterative dict-key check, visiting container nodes only.

    ``json.dumps`` itself rejects every other invalid input (unknown
    types raise ``TypeError``, NaN/Inf raise ``ValueError`` under
    ``allow_nan=False``, a cycle raises ``ValueError``) — but it silently
    *stringifies* int/float/bool/None dict keys instead of rejecting them,
    which would corrupt canonical wire bytes. This is the one check the
    encoder cannot make; it runs on what the encoder accepted, so the walk
    never meets a cycle. :func:`encode_fragment` returns before it for a
    flat dict.
    """
    stack = [value]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        if type(node) is dict or isinstance(node, dict):
            for key, item in node.items():
                if type(key) is not str and not isinstance(key, str):
                    return False
                t = type(item)
                if t is dict or t is list or t is tuple:
                    push(item)
        else:
            for item in node:
                t = type(item)
                if t is dict or t is list or t is tuple:
                    push(item)
    return True


#: The canonical encoder, built once: what ``JSONEncoder(separators=(",", ":"),
#: sort_keys=True, allow_nan=False).encode`` builds on every call. Its
#: circular-reference markers are this one dict, empty between calls.
_MARKERS: dict[int, Any] = {}
_ITERENCODE = c_make_encoder(
    _MARKERS, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, False
)


def _ENCODE(value: Any) -> str:
    try:
        return "".join(_ITERENCODE(value, 0))
    except BaseException:
        _MARKERS.clear()  # the C encoder leaves the markers of the containers it was inside
        raise


def encode_fragment(value: Any) -> str:
    """Canonical JSON text of ``value`` (pure ASCII).

    The text can be spliced into a larger canonical document wherever
    ``value`` would appear, which is how :mod:`repro.mqtt.packets`
    encodes a payload once for every hop and copy of a message. Raises
    :class:`~repro.errors.SerializationError` for unsupported types and
    non-finite floats (NaN/Inf are not valid JSON and would silently
    corrupt downstream analysis).
    """
    try:
        text = _ENCODE(value)
        # Every dict writes exactly one "{" outside string literals, so an
        # exact dict with no "{" after its first holds no other dict: its
        # keys are all there is to check, and str.join checks them in C
        # (TypeError on the first that is not a str).
        if type(value) is dict and text.find("{", 1) == -1:
            "".join(value)
            return text
    except (TypeError, ValueError) as exc:
        _check_encodable(value)  # raises with the offending path
        raise SerializationError(str(exc)) from exc
    t = type(value)
    if (t is dict or t is list or t is tuple or isinstance(value, (dict, list, tuple))) and not _keys_ok(value):
        _check_encodable(value)  # raises with the offending path
        raise SerializationError(f"non-string dict key in {value!r}")  # pragma: no cover
    return text


def encode_payload(value: Any) -> bytes:
    """Encode ``value`` to canonical UTF-8 JSON bytes (see :func:`encode_fragment`)."""
    return encode_fragment(value).encode("utf-8")


def _reject_constant(name: str) -> NoReturn:
    raise SerializationError(f"undecodable payload: non-finite constant {name}")


#: ``json.loads``'s decoder, but ``NaN``/``Infinity``/``-Infinity`` raise
#: instead of parsing to floats no encoder here would write.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_payload(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_payload`. Bytes that are not
    UTF-8 JSON, or break a limit the module docstring names, raise
    :class:`~repro.errors.SerializationError`."""
    try:
        return _DECODER.decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, digit limit
        raise SerializationError(f"undecodable payload: {exc}") from exc


def payload_size(value: Any) -> int:
    """Wire size in bytes of ``value`` once encoded."""
    return len(encode_payload(value))

"""Wall-clock spans recorded from outside the program.

:class:`Tracing` replaces the layers' *public* callables with thin
wrappers that record ``(name, start, end, parent)`` per call, and wraps
the callbacks handed to the public registration points
(``SimKernel.schedule*``, ``AsyncioRuntime.call_later``/``call_soon``,
``Component.after``/``every``, ``Node.bind``, ``Node.execute``,
``MqttClient.subscribe``/``subscribe_many``, ``Tracer.tap``) in a span named after the
package that owns the callback. Nothing under ``src/`` is edited; spans
inside the program are a later issue.

Spans nest strictly (one thread, synchronous calls), so a span's self
time is its duration minus the durations of its direct children.
Storage is four ``array`` columns in memory; :meth:`Tracing.write_jsonl`
flushes them when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["PACKAGES", "SPAN_NAMES", "Tracing", "package_of"]

#: Packages a span (and a ``share.<pkg>`` metric) can belong to.
PACKAGES = (
    "sim", "runtime", "net", "mqtt", "util", "core", "ml", "sensors",
    "obs", "prof", "chaos", "harness",
)

#: ``(module, owner, attribute, span)``: public callables wrapped in place.
#: ``owner`` is a class name, or ``None`` for a module-level function.
#: ``attribute`` ``"*name"`` wraps ``name`` on the class and on every
#: subclass that overrides it.
_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.sim.kernel", "SimKernel", "run", "sim.kernel.run"),
    ("repro.sim.resources", "CpuResource", "submit", "sim.cpu.submit"),
    ("repro.sim.trace", "Tracer", "emit", "sim.trace.emit"),
    ("repro.runtime.node", "Node", "send", "runtime.node.send"),
    ("repro.net.medium", "NetworkInterface", "send", "net.iface.send"),
    ("repro.net.medium", "NetworkInterface", "deliver", "net.iface.deliver"),
    ("repro.net.wlan", "WlanMedium", "transmit", "net.medium.transmit"),
    ("repro.net.inproc", "InprocNetwork", "transmit", "net.medium.transmit"),
    ("repro.mqtt.packets", "Packet", "encode", "mqtt.packet.encode"),
    ("repro.mqtt.packets", "Packet", "decode", "mqtt.packet.decode"),
    ("repro.mqtt.client", "MqttClient", "publish", "mqtt.client.publish"),
    ("repro.mqtt.topics", "TopicTree", "match", "mqtt.topics.match"),
    ("repro.mqtt.topics", None, "topic_matches", "mqtt.topics.match"),
    ("repro.util.serialization", None, "encode_payload", "util.payload.encode"),
    ("repro.util.serialization", None, "decode_payload", "util.payload.decode"),
    ("repro.core.operators", "StreamOperator", "*on_record", "core.operator.on_record"),
    ("repro.core.operators", "StreamOperator", "*emit", "core.operator.emit"),
    ("repro.core.flow", "FlowRecord", "to_payload", "core.flow.codec"),
    ("repro.core.flow", "FlowRecord", "from_payload", "core.flow.codec"),
    ("repro.core.management", "ManagementNode", "submit_recipe", "core.mgmt.control"),
    ("repro.core.management", "ManagementNode", "stop_application", "core.mgmt.control"),
    ("repro.core.management", "ManagementNode", "migrate_subtask", "core.mgmt.control"),
    ("repro.ml.classifier", "OnlineClassifier", "train", "ml.train"),
    ("repro.ml.classifier", "OnlineClassifier", "classify", "ml.classify"),
    ("repro.ml.regression", "PARegression", "train", "ml.train"),
    ("repro.ml.regression", "PARegression", "predict", "ml.classify"),
    ("repro.ml.anomaly", "RobustZScore", "add", "ml.train"),
    ("repro.ml.anomaly", "RobustZScore", "calc_score", "ml.classify"),
    ("repro.ml.anomaly", "LofLite", "add", "ml.train"),
    ("repro.ml.anomaly", "LofLite", "calc_score", "ml.classify"),
    ("repro.ml.clustering", "OnlineKMeans", "push", "ml.train"),
    ("repro.ml.clustering", "OnlineKMeans", "nearest", "ml.classify"),
    ("repro.ml.tree", "HoeffdingTreeClassifier", "train", "ml.train"),
    ("repro.ml.tree", "HoeffdingTreeClassifier", "classify", "ml.classify"),
    ("repro.ml.neighbors", "NearestNeighbors", "set_row", "ml.train"),
    ("repro.ml.neighbors", "NearestNeighbors", "classify", "ml.classify"),
    ("repro.sensors.base", "SensorModel", "*sample", "sensors.sample"),
    ("repro.obs.state", "ObsState", "start_span", "obs.span"),
    ("repro.obs.state", "ObsState", "finish", "obs.span"),
    ("repro.prof.profiler", "Profiler", "on_cpu_start", "prof.hooks"),
    ("repro.prof.profiler", "Profiler", "on_cpu_end", "prof.hooks"),
    ("repro.prof.profiler", "Profiler", "on_airtime", "prof.hooks"),
    ("repro.prof.profiler", "Profiler", "event_begin", "prof.hooks"),
)

#: Modules imported only so every ``*`` override above is defined before
#: the class hierarchy is walked.
_SUBCLASS_MODULES = (
    "repro.core.analysis", "repro.core.integration", "repro.sensors.devices",
)

#: ``(module, class, method, position of the callback argument, kind,
#: splice)``: public registration points whose callback is wrapped.
#: Positions count ``self`` as 0. ``splice`` marks the ones that take the
#: callback's own arguments after it: there one shared trampoline and the
#: span id are spliced in before the callback, so registering costs no
#: closure; the others get a closure, once per registration.
_REGISTRATIONS: tuple[tuple[str, str, str, int, str, bool], ...] = (
    ("repro.sim.kernel", "SimKernel", "schedule", 2, "event", True),
    ("repro.sim.kernel", "SimKernel", "schedule_at", 2, "event", True),
    ("repro.sim.kernel", "SimKernel", "call_soon", 1, "event", True),
    ("repro.sim.kernel", "SimKernel", "schedule_epilogue", 1, "event", True),
    ("repro.runtime.real", "AsyncioRuntime", "call_later", 2, "event", True),
    ("repro.runtime.real", "AsyncioRuntime", "call_soon", 1, "event", True),
    ("repro.runtime.component", "Component", "after", 2, "event", True),
    ("repro.runtime.node", "Node", "execute", 2, "receive", True),
    ("repro.runtime.component", "Component", "every", 2, "event", False),
    ("repro.runtime.node", "Node", "bind", 2, "receive", False),
    ("repro.sim.trace", "Tracer", "tap", 2, "tap", False),
    ("repro.mqtt.client", "MqttClient", "subscribe", 2, "event", False),
)

#: Name of the span recorded around each registration call itself.
_REGISTRATION_SPANS = {
    ("SimKernel", "schedule"): "sim.kernel.schedule",
    ("SimKernel", "schedule_at"): "sim.kernel.schedule",
    ("SimKernel", "call_soon"): "sim.kernel.schedule",
    ("SimKernel", "schedule_epilogue"): "sim.kernel.schedule",
    ("Node", "execute"): "runtime.node.execute",
}

#: Control-plane modules of ``repro.core``: their callbacks are the
#: management layer's work, not an operator's.
_CONTROL_MODULES = frozenset(
    {"repro.core.management", "repro.core.healing", "repro.core.discovery"}
)

#: Packages whose scheduled callbacks get a span of their own; any other
#: owner (the benchmark itself, ``repro.bench`` testbed helpers) is
#: ``harness.callback``.
_ON_EVENT = {
    "sim": "sim.on_event", "runtime": "runtime.on_event", "net": "net.on_event",
    "mqtt": "mqtt.on_event", "core": "core.on_event", "obs": "obs.on_event",
    "chaos": "chaos.on_event", "prof": "prof.hooks",
}

SPAN_NAMES: tuple[str, ...] = tuple(
    sorted(
        {target[3] for target in _TARGETS}
        | set(_REGISTRATION_SPANS.values())
        | set(_ON_EVENT.values())
        | {
            "runtime.loop", "mqtt.broker.receive", "mqtt.client.receive",
            "obs.on_tap", "core.mgmt.control", "harness.callback",
        }
    )
)


def package_of(span: str) -> str:
    """The package a span name is charged to (its first dotted part)."""
    return span.split(".", 1)[0]


def _callback_span(module: str | None, kind: str) -> str:
    """Span name for a callback owned by ``module``.

    ``kind`` is where it was registered: ``"event"`` (a timer or
    scheduled event), ``"receive"`` (a bound datagram receiver or work
    deferred through ``Node.execute``) or ``"tap"`` (a tracer tap).
    """
    if module in _CONTROL_MODULES:
        return "core.mgmt.control"
    if kind == "receive" and module == "repro.mqtt.broker":
        return "mqtt.broker.receive"
    if kind == "receive" and module == "repro.mqtt.client":
        return "mqtt.client.receive"
    parts = (module or "").split(".")
    package = parts[1] if len(parts) > 1 and parts[0] == "repro" else "harness"
    if kind == "tap" and package == "obs":
        return "obs.on_tap"
    return _ON_EVENT.get(package, "harness.callback")


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracing:
    """Installs the wrappers, owns the recorded spans, removes the wrappers.

    Recording is off until :meth:`resume`; the harness builds testbeds
    with recording off (callbacks registered meanwhile are still wrapped)
    and switches it on for the timed window only.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._current = -1
        self._on = False
        self._callback_ids: dict[tuple[str | None, str], int] = {}
        #: ``(owner object, attribute, original value)`` for :meth:`uninstall`.
        self._patched: list[tuple[Any, str, Any]] = []
        self.targets_missing: list[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def resume(self) -> None:
        self._on = True

    def pause(self) -> None:
        self._on = False

    def __len__(self) -> int:
        return len(self._start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            if name not in SPAN_NAMES:
                raise ValueError(f"span name {name!r} is not declared in SPAN_NAMES")
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _callback_id(self, callback: Any, kind: str) -> int:
        module = getattr(getattr(callback, "func", callback), "__module__", None)
        key = (module, kind)
        nid = self._callback_ids.get(key)
        if nid is None:
            nid = self._callback_ids[key] = self._name_id(_callback_span(module, kind))
        return nid

    def run_callback(
        self, nid: int, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Record one span ``nid`` around ``callback(*args, **kwargs)``.

        Also the trampoline scheduled in place of a wrapped callback: one
        function for all of them, so registering costs no closure."""
        if not self._on:
            return callback(*args, **kwargs)
        parent = self._current
        starts = self._start
        index = len(starts)
        self._name.append(nid)
        self._parent.append(parent)
        self._end.append(0.0)
        self._current = index
        starts.append(perf_counter())
        try:
            return callback(*args, **kwargs)
        finally:
            self._end[index] = perf_counter()
            self._current = parent

    def _spanned(self, nid: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that each call records one span ``nid``."""
        run = self.run_callback

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return run(nid, fn, *args, **kwargs)

        # Keeps ``__module__``: a wrapped method handed on as a callback
        # (``node.execute(op, node.send, ...)``) is still owned by its layer.
        return functools.update_wrapper(wrapper, fn)

    def span(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span ``name`` (the harness uses it
        for the root of a real-backend window)."""
        return self.run_callback(self._name_id(name), fn, *args)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _wrap_attribute(self, owner: type, attribute: str, nid: int) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            value: Any = classmethod(self._spanned(nid, raw.__func__))
        elif isinstance(raw, staticmethod):
            value = staticmethod(self._spanned(nid, raw.__func__))
        else:
            value = self._spanned(nid, raw)
        self._patch(owner, attribute, value)

    def _wrap_function(self, module: Any, attribute: str, nid: int) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(module, attribute)
        wrapped = self._spanned(nid, original)
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if not name.startswith("repro."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, key, wrapped)

    def install(self) -> "Tracing":
        for name in _SUBCLASS_MODULES:
            importlib.import_module(name)
        for module_name, owner_name, attribute, span in _TARGETS:
            module = importlib.import_module(module_name)
            nid = self._name_id(span)
            overrides = attribute.startswith("*")
            attribute = attribute.lstrip("*")
            if owner_name is None:
                if hasattr(module, attribute):
                    self._wrap_function(module, attribute, nid)
                else:
                    self.targets_missing.append(f"{module_name}.{attribute}")
                continue
            owner = getattr(module, owner_name, None)
            if owner is None or not hasattr(owner, attribute):
                self.targets_missing.append(f"{module_name}.{owner_name}.{attribute}")
                continue
            classes = [owner, *_subclasses(owner)] if overrides else [owner]
            for cls in classes:
                if attribute in cls.__dict__ and not getattr(
                    cls.__dict__[attribute], "__isabstractmethod__", False
                ):
                    self._wrap_attribute(cls, attribute, nid)
        for module_name, owner_name, method, position, kind, splice in _REGISTRATIONS:
            owner = getattr(importlib.import_module(module_name), owner_name, None)
            if owner is None or method not in owner.__dict__:
                self.targets_missing.append(f"{module_name}.{owner_name}.{method}")
                continue
            self._wrap_registration(owner, method, position, kind, splice)
        self._wrap_subscribe_many()
        return self

    def _wrap_registration(
        self, owner: type, method: str, position: int, kind: str, splice: bool
    ) -> None:
        """Replace ``owner.method`` so the callback at ``position`` runs
        inside a span named after its owner (see :data:`_REGISTRATIONS`)."""
        original = owner.__dict__[method]
        run = self.run_callback
        callback_id = self._callback_id
        spanned = self._spanned

        def register(*args: Any, **kwargs: Any) -> Any:
            if len(args) <= position:  # callback passed by keyword: leave it be
                return original(*args, **kwargs)
            callback = args[position]
            nid = callback_id(callback, kind)
            wrapped = (run, nid, callback) if splice else (spanned(nid, callback),)
            return original(*args[:position], *wrapped, *args[position + 1:], **kwargs)

        functools.update_wrapper(register, original)
        span = _REGISTRATION_SPANS.get((owner.__name__, method))
        if span is not None:
            register = self._spanned(self._name_id(span), register)
        self._patch(owner, method, register)

    def _wrap_subscribe_many(self) -> None:
        """``MqttClient.subscribe_many`` takes its callbacks in a list."""
        from repro.mqtt.client import MqttClient

        original = MqttClient.__dict__["subscribe_many"]

        def subscribe_many(client: Any, entries: Any, *args: Any, **kwargs: Any) -> Any:
            wrapped = [
                (topic_filter, self._spanned(self._callback_id(callback, "event"), callback))
                for topic_filter, callback in entries
            ]
            return original(client, wrapped, *args, **kwargs)

        self._patch(MqttClient, "subscribe_many", functools.update_wrapper(subscribe_many, original))

    def uninstall(self) -> None:
        self._on = False
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(name id, parent index, start, end)`` as numpy views."""
        return (
            np.frombuffer(self._name, dtype=np.uint16),
            np.frombuffer(self._parent, dtype=np.intc),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
        )

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus direct children's durations."""
        _names, parents, starts, ends = self.columns()
        durations = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        return durations - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls": n, "self_s": seconds}}`` for every
        declared span name (zeros for the ones never recorded)."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        if len(self) == 0:
            return out
        name_ids = self.columns()[0]
        calls = np.bincount(name_ids, minlength=len(self.names))
        self_s = np.bincount(name_ids, weights=self.self_times(), minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[name] = {"calls": int(calls[nid]), "self_s": float(self_s[nid])}
        return out

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent."""
        _names, parents, starts, ends = self.columns()
        roots = parents < 0
        return float((ends[roots] - starts[roots]).sum())

    def write_jsonl(self, path: Path) -> int:
        """One line per span: ``{"i", "name", "start", "end", "parent"}``,
        ``parent`` being the ``i`` of the enclosing span or ``null``."""
        names = self.names
        with Path(path).open("w", encoding="utf-8") as fh:
            for i, (nid, parent, start, end) in enumerate(
                zip(self._name, self._parent, self._start, self._end)
            ):
                fh.write(
                    json.dumps(
                        {
                            "i": i, "name": names[nid], "start": start, "end": end,
                            "parent": parent if parent >= 0 else None,
                        }
                    )
                )
                fh.write("\n")
        return len(self)

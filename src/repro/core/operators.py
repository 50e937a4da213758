"""Stream operators: the executable vocabulary of recipes.

Every recipe task names an operator from the registry here. An operator is
a :class:`StreamOperator`: it subscribes to its input streams, processes
records on its module's CPU, and publishes results to its output streams.
The analysis and integration mechanisms register their classes
(``train``, ``predict``, ``anomaly``, ``cluster``, ``mix``, ``sensor``,
``actuator``) into the same registry, so the whole Fig. 5 recipe graph is
expressible with one uniform task vocabulary.

Generic operators defined here:

``window``
    Aggregates records into one merged record — the paper's module D
    (``Sub(A,B,C) -> Pub(A,B,C,[data])``, Fig. 9). Modes: ``align`` (one
    record from each expected source), ``count`` (every N records),
    ``time`` (flush every interval).
``map``
    Stateless datum transforms (select / rename / scale / magnitude /
    round) chosen by name — recipes are data, so functions travel by name.
``filter``
    Drops records failing a comparison on a datum value or attribute.
``merge``
    Latest-value fusion across streams: emits a combined record whenever
    any input updates and every input has been seen (sensor fusion for
    state estimation, §III-A-2).
``stat``
    Enriches records with sliding-window statistics of chosen keys.
``command``
    Rule table mapping judgements to actuator commands.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.distribution import PublishClass, SubscribeClass
from repro.core.flow import FlowRecord
from repro.core.recipe import TaskSpec
from repro.core.splitter import SubTask, shard_of
from repro.errors import RecipeError
from repro.ml.features import Datum
from repro.ml.stat import WindowStat
from repro.runtime.component import Component
from repro.runtime.state import StateCell, tracked_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import NeuronModule

__all__ = [
    "PayloadEffect",
    "StreamOperator",
    "register_operator",
    "create_operator",
    "operator_class",
    "registered_operators",
]


@dataclass(frozen=True)
class PayloadEffect:
    """Static payload contract of one operator configuration.

    The recipe payload checker (:mod:`repro.lint.dataflow`) abstract-
    interprets the recipe DAG with these: ``reads*`` are keys the
    operator looks up (a read of a key no upstream can produce is a
    recipe bug), the rest describe how the output schema derives from the
    input schema. Schemas are *may-produce* upper bounds — an ``adds``
    key that only appears on some records still counts as producible.
    """

    #: Datum keys looked up on every record.
    reads: tuple[str, ...] = ()
    #: Attribute keys looked up on every record.
    reads_attrs: tuple[str, ...] = ()
    #: Keys looked up in attributes first, falling back to the datum.
    reads_any: tuple[str, ...] = ()
    #: Datum keys added to (or overwritten in) the output.
    adds: tuple[str, ...] = ()
    #: Attribute keys added to the output.
    adds_attrs: tuple[str, ...] = ()
    #: When set, the output datum is restricted to these keys.
    select: tuple[str, ...] | None = None
    #: Datum key renames applied to the output, as ``(old, new)`` pairs.
    renames: tuple[tuple[str, str], ...] = ()
    #: Output is a key-union fusion of all inputs (window/merge): later
    #: contributors win key conflicts, so collisions are order-sensitive.
    merges_inputs: bool = False
    #: Drops records whose sample id was already seen (clears the
    #: at-least-once duplication taint QoS 1 edges introduce).
    dedups: bool = False
    #: The output schema cannot be derived statically (open schema).
    opaque: bool = False


class StreamOperator(Component):
    """Base class wiring a sub-task to flows and the module CPU.

    Subclasses implement :meth:`on_record` (and optionally
    :meth:`configure` for parameter parsing) and call :meth:`emit`.

    The class attributes and classmethods below are the operator's whole
    static model: placement, the lint engines, the SLO policy and the
    sanitizer read them through :func:`operator_class`, so a subclass
    that overrides what differs from these defaults needs no entry
    anywhere else.
    """

    #: CPU operation charged per processed record (simulation, admission,
    #: placement and latency bounds all price this one name).
    cost_op = "flow.process"
    #: Rate-blind relative cost in "load points": placement's tie-break
    #: where the cost model prices nothing, and the currency of
    #: ``NeuronModule.current_load()`` and the announced ``load`` field.
    load_points = 2.0
    #: Legitimately consumes no stream (a source or a control-plane task).
    source = False
    #: Samples an attached device on its own clock: takes no inputs, and
    #: its ``device`` param names the sensor whose channel keys are the
    #: payload schema.
    samples_device = False
    #: Holds cross-record state: sharding it splits that state across
    #: shards (RCP109), and each instance carries a sanitizer state cell
    #: so record-processing order is race-checked.
    stateful = False
    #: Buffers records between emissions. Sharding is fine — each shard
    #: buffers its own slice — but processing order still mutates state,
    #: so instances carry the sanitizer cell too.
    buffers_records = False
    #: Emits one record per record processed, so a record entering a path
    #: of such operators *must* reach the sink and pending-overdue SLO
    #: tracking is sound. Operators that drop or fold records are
    #: measured latency-only.
    forwards_every_record = False

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        """Static payload contract for this configuration (base:
        pass-through). Overridden per operator; callers must treat a
        raising implementation as opaque (malformed params are RCP1xx's
        job, not this one's)."""
        return PayloadEffect()

    @classmethod
    def redelivery_safe(cls, params: dict[str, Any]) -> bool:
        """Whether a QoS 1 duplicate leaves this configuration's state
        intact (base: yes). False where a redelivered record re-trains
        the model or re-enters the statistic (RCP210)."""
        return True

    @classmethod
    def emit_rate(cls, task: TaskSpec, in_rates: list[float]) -> float:
        """Records/second published per output stream, given the rate of
        each local input stream (base: everything passes — the worst
        case for ``filter``/``delta``)."""
        return sum(in_rates)

    @classmethod
    def hold_time(cls, task: TaskSpec, ingest_hz: float, emit_hz: float) -> float:
        """Fixed time a record can sit inside the operator before
        emission (base: none)."""
        return 0.0

    def __init__(
        self, module: "NeuronModule", application: str, subtask: SubTask
    ) -> None:
        super().__init__(
            module.node,
            f"{subtask.operator}.{application}.{subtask.subtask_id}@{module.name}",
        )
        self.module = module
        self.application = application
        self.subtask = subtask
        self.params = dict(subtask.params)
        qos = int(self.params.get("qos", 0))
        self.publishers: dict[str, PublishClass] = {
            stream: PublishClass(
                module.node, module.client, application, stream, qos=qos
            )
            for stream in subtask.outputs
        }
        self.subscriber: SubscribeClass | None = None
        if subtask.inputs:
            self.subscriber = SubscribeClass(
                module.node,
                module.client,
                application,
                list(subtask.inputs),
                self._dispatch,
                qos=qos,
            )
        self.records_in = 0
        self.records_out = 0
        self.records_skipped = 0
        self.processing_errors = 0
        #: Operators that fail this many times in a row are stopped — a
        #: crash-looping task must not monopolize its module's CPU.
        self.max_consecutive_errors = 25
        self._consecutive_errors = 0
        self._obs_span: Any = None
        self._obs_hist: Any = None
        # Stateful operators mutate cross-record state on every processed
        # record, so record order is schedule-sensitive; the sanitizer
        # cell makes that visible as a write per processing event.
        self._state_cell: StateCell | None = None
        if self.stateful or self.buffers_records:
            self._state_cell = tracked_state(
                self.runtime, f"operator.{self.name}", "state"
            )
        # Live-migration handoff state: while paused the operator buffers
        # inbound records instead of processing them (the MQTT client has
        # already PUBACKed, so pausing must not lose anything); a freshly
        # deployed successor records every sample it processes so replayed
        # buffers and its own live subscription never double-process. Both
        # structures are schedule-sensitive, hence the tracked cell.
        self.paused = False
        self.records_buffered = 0
        self.handoff_skipped = 0
        self._handoff_buffer: list[tuple[str, FlowRecord]] = []
        self._handoff_seen: set[str] | None = None
        self._handoff_cell: StateCell | None = None
        if subtask.inputs:
            self._handoff_cell = tracked_state(
                self.runtime, f"operator.{self.name}", "handoff"
            )
        self.configure()

    def configure(self) -> None:
        """Parse ``self.params``; raise RecipeError on bad configuration."""

    # ------------------------------------------------------------------
    # Record flow
    # ------------------------------------------------------------------

    def _dispatch(self, stream: str, record: FlowRecord) -> None:
        if self.stopped:
            return
        if self.subtask.shard_count > 1:
            if shard_of(record.sample_id, self.subtask.shard_count) != (
                self.subtask.shard_index
            ):
                self.records_skipped += 1
                return
        if self.paused:
            if self._handoff_cell is not None:
                self._handoff_cell.note_write()
            self.records_buffered += 1
            self._handoff_buffer.append((stream, record))
            return
        if self._handoff_seen is not None:
            if self._handoff_cell is not None:
                self._handoff_cell.note_write()
            self._handoff_seen.add(record.sample_id)
        self.records_in += 1
        if self.runtime.obs is not None:
            self.node.execute(
                self.cost_op, self._process_traced, stream, record, self.runtime.now
            )
        else:
            self.node.execute(self.cost_op, self._process, stream, record)

    def _process_traced(
        self, stream: str, record: FlowRecord, enqueued_at: float
    ) -> None:
        """Traced variant of :meth:`_process`: wraps the record in an
        operator span covering CPU queueing + service + handling, and makes
        that span the causal parent of everything :meth:`emit` publishes."""
        obs = self.runtime.obs
        if obs is None:
            self._process(stream, record)
            return
        span = obs.start_span(
            f"op.{self.subtask.operator}",
            self.node,
            parent=record.ctx,
            start=enqueued_at,
            task=self.subtask.task_id,
            sample=record.sample_id,
        )
        self._obs_span = span
        try:
            self._process(stream, record)
        finally:
            self._obs_span = None
            obs.finish(span)
            if obs.metrics is not None:
                hist = self._obs_hist
                if hist is None:
                    hist = self._obs_hist = obs.metrics.histogram(
                        "operator.latency_s",
                        node=self.node.name,
                        operator=self.subtask.operator,
                    )
                hist.add(self.runtime.now - enqueued_at)

    def _process(self, stream: str, record: FlowRecord) -> None:
        if self.stopped:
            return
        if self._state_cell is not None:
            self._state_cell.note_write()
        try:
            self.on_record(stream, record)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            # One bad record (or operator bug) must not take the module
            # down: count it, trace it, and keep the pipeline running.
            self.processing_errors += 1
            self._consecutive_errors += 1
            self.trace(
                "operator.error",
                sample_id=record.sample_id,
                error=f"{type(exc).__name__}: {exc}",
            )
            if self._consecutive_errors >= self.max_consecutive_errors:
                self.trace("operator.crash_loop_stopped")
                self.stop()
            return
        self._consecutive_errors = 0

    def on_record(self, stream: str, record: FlowRecord) -> None:
        """Handle one input record (sources with no inputs never get this)."""
        raise NotImplementedError

    def emit(self, record: FlowRecord, stream: str | None = None) -> None:
        """Publish ``record`` to one output stream (or all, when None)."""
        if stream is None:
            targets = list(self.publishers.values())
        else:
            publisher = self.publishers.get(stream)
            if publisher is None:
                raise RecipeError(
                    f"{self.name}: not a declared output stream: {stream!r}"
                )
            targets = [publisher]
        span = self._obs_span
        if span is not None:
            # Re-parent the outgoing record onto this operator's span. A
            # merge-assigned context (window/merge output) is preserved as
            # a link so no causal chain is dropped.
            if record.ctx is not None and record.ctx.span_id not in (
                span.ctx.span_id,
                span.ctx.parent_id,
            ):
                if record.ctx.span_id not in record.ctx_links:
                    record.ctx_links.append(record.ctx.span_id)
            record.ctx = span.ctx
        self.records_out += 1
        for publisher in targets:
            publisher.publish_record(record)

    # ------------------------------------------------------------------
    # Live migration (pause -> drain -> transfer -> resume)
    # ------------------------------------------------------------------

    def pause(self) -> None:
        """Stop processing; buffer every inbound record for handoff.

        Records that were queued on the CPU before the pause still
        complete (they were dispatched pre-pause); records arriving after
        it land in the handoff buffer untouched.
        """
        if self._handoff_cell is not None:
            self._handoff_cell.note_write()
        self.paused = True

    def take_handoff_buffer(self) -> list[tuple[str, FlowRecord]]:
        """Drain and return everything buffered since :meth:`pause`."""
        if self._handoff_cell is not None:
            self._handoff_cell.note_write()
        buffered, self._handoff_buffer = self._handoff_buffer, []
        return buffered

    def begin_handoff_tracking(self) -> None:
        """Start recording processed sample ids (successor side).

        Called immediately after deploy on the migration target, before
        any live record can arrive, so the skip set in
        :meth:`absorb_handoff` covers the whole overlap window.
        """
        if self._handoff_cell is not None:
            self._handoff_cell.note_write()
        self._handoff_seen = set()

    def absorb_handoff(
        self, buffered: list[tuple[str, FlowRecord]], final: bool = False
    ) -> None:
        """Replay records handed off by a migrating predecessor.

        Samples this instance already processed (via its own live
        subscription or an earlier handoff batch) are skipped, which is
        what makes the pause->drain->transfer->resume protocol
        exactly-once despite source and target being briefly subscribed
        at the same time. ``final=True`` ends tracking (the tail batch).
        """
        if self._handoff_cell is not None:
            self._handoff_cell.note_write()
        seen = self._handoff_seen if self._handoff_seen is not None else set()
        for stream, record in buffered:
            if record.sample_id in seen:
                self.handoff_skipped += 1
                continue
            self._dispatch(stream, record)
        if final:
            self._handoff_seen = None

    def export_state(self) -> dict[str, Any]:
        """Serializable cross-record state for migration (base: none).

        Notes the state cell so the schedule sanitizer can order the
        export against same-instant record processing; overrides must
        call ``super().export_state()`` first to keep that visibility.
        """
        if self._state_cell is not None:
            self._state_cell.note_read()
        return {}

    def import_state(self, state: dict[str, Any]) -> None:
        """Restore state exported by a predecessor instance (base: no-op).

        Notes the state cell (see :meth:`export_state`); overrides must
        call ``super().import_state(state)`` first.
        """
        if self._state_cell is not None:
            self._state_cell.note_write()

    def on_stop(self) -> None:
        if self.subscriber is not None:
            self.subscriber.stop()
        for publisher in self.publishers.values():
            publisher.stop()


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_REGISTRY: dict[str, type[StreamOperator]] = {}


def register_operator(name: str, cls: type[StreamOperator]) -> None:
    """Add an operator to the recipe vocabulary (idempotent re-register of
    the same class is allowed; conflicting re-register is an error)."""
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise RecipeError(f"operator {name!r} already registered")
    _REGISTRY[name] = cls


def _populated() -> dict[str, type[StreamOperator]]:
    # Importing the analysis/integration modules registers
    # train/predict/mix/sensor/actuator alongside the generic operators.
    import repro.core.analysis  # noqa: F401
    import repro.core.integration  # noqa: F401

    return _REGISTRY


def registered_operators() -> list[str]:
    return sorted(_populated())


def operator_class(name: str) -> type[StreamOperator]:
    """The class a recipe's operator ``name`` stands for — where every
    static tool reads the operator's declarations. An unregistered name
    gets :class:`StreamOperator` itself, i.e. the defaults (RCP106 is
    what reports it)."""
    return _populated().get(name, StreamOperator)


def create_operator(
    module: "NeuronModule", application: str, subtask: SubTask
) -> Component:
    """Instantiate the operator a sub-task names."""
    cls = _REGISTRY.get(subtask.operator)
    if cls is None:
        raise RecipeError(
            f"unknown operator {subtask.operator!r} "
            f"(known: {registered_operators()})"
        )
    return cls(module, application, subtask)


# --------------------------------------------------------------------------
# window
# --------------------------------------------------------------------------


def _interval_capped(task: TaskSpec, ingest_hz: float) -> float:
    """Emission rate of an operator releasing once per ``interval_s``."""
    interval = float(task.params.get("interval_s", 0.0))
    return min(ingest_hz, 1.0 / interval) if interval > 0 else ingest_hz


class WindowOperator(StreamOperator):
    """Aggregation windows producing merged records.

    Params: ``mode`` = ``align`` (default) | ``count`` | ``time``;
    ``sources`` (align: explicit source list) or ``arity`` (align: number
    of distinct sources to wait for); ``count`` (count mode);
    ``interval_s`` (time mode).
    """

    load_points = 1.5
    buffers_records = True

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        return PayloadEffect(merges_inputs=True)

    @classmethod
    def redelivery_safe(cls, params: dict[str, Any]) -> bool:
        # An align-mode duplicate overwrites the same per-source slot; a
        # count/time batch would hold it twice.
        return str(params.get("mode", "align")) == "align"

    @classmethod
    def emit_rate(cls, task: TaskSpec, in_rates: list[float]) -> float:
        mode = str(task.params.get("mode", "align"))
        if mode == "align":
            # A round completes when the slowest source reports: the
            # window ingests every stream but emits at that source's rate.
            return min((rate for rate in in_rates if rate > 0), default=0.0)
        if mode == "count":
            return sum(in_rates) / max(1, int(task.params.get("count", 1)))
        return _interval_capped(task, sum(in_rates))

    @classmethod
    def hold_time(cls, task: TaskSpec, ingest_hz: float, emit_hz: float) -> float:
        mode = str(task.params.get("mode", "align"))
        if mode == "align":
            # The round's oldest contributor (the trace root) waits one
            # full period of the slowest source.
            return 1.0 / emit_hz if emit_hz > 0 else 0.0
        if mode == "count":
            count = max(1, int(task.params.get("count", 1)))
            return count / ingest_hz if ingest_hz > 0 else 0.0
        return float(task.params.get("interval_s", 0.0))

    def configure(self) -> None:
        self.mode = str(self.params.get("mode", "align"))
        if self.mode == "align":
            self.expected_sources: list[str] | None = self.params.get("sources")
            self.arity = int(self.params.get("arity", 0))
            if not self.expected_sources and self.arity <= 0:
                raise RecipeError(
                    f"{self.name}: align window needs 'sources' or 'arity'"
                )
            self._pending: dict[str, FlowRecord] = {}
        elif self.mode == "count":
            self.count = int(self.params.get("count", 0))
            if self.count <= 0:
                raise RecipeError(f"{self.name}: count window needs 'count' > 0")
            self._batch: list[FlowRecord] = []
        elif self.mode == "time":
            interval = float(self.params.get("interval_s", 0.0))
            if interval <= 0:
                raise RecipeError(
                    f"{self.name}: time window needs 'interval_s' > 0"
                )
            self._batch = []
            self.every(interval, self._flush_time)
        else:
            raise RecipeError(f"{self.name}: unknown window mode {self.mode!r}")
        self.windows_emitted = 0

    def on_record(self, stream: str, record: FlowRecord) -> None:
        if self.mode == "align":
            self._pending[record.source] = record
            full = (
                set(self._pending) >= set(self.expected_sources)
                if self.expected_sources
                else len(self._pending) >= self.arity
            )
            if full:
                records = [self._pending[s] for s in sorted(self._pending)]
                self._pending.clear()
                self._emit_window(records)
        else:  # count / time share the batch list
            self._batch.append(record)
            if self.mode == "count" and len(self._batch) >= self.count:
                batch, self._batch = self._batch, []
                self._emit_window(batch)

    def _flush_time(self) -> None:
        if self._state_cell is not None:
            self._state_cell.note_write()
        if self._batch:
            batch, self._batch = self._batch, []
            self._emit_window(batch)

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        state: dict[str, Any] = {"windows_emitted": self.windows_emitted}
        if self.mode == "align":
            state["pending"] = {
                source: record.to_payload()
                for source, record in sorted(self._pending.items())
            }
        else:
            state["batch"] = [record.to_payload() for record in self._batch]
        return state

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        self.windows_emitted = int(state.get("windows_emitted", 0))
        if self.mode == "align":
            self._pending = {
                source: FlowRecord.from_payload(payload)
                for source, payload in state.get("pending", {}).items()
            }
        else:
            self._batch = [
                FlowRecord.from_payload(payload)
                for payload in state.get("batch", [])
            ]

    def _emit_window(self, records: list[FlowRecord]) -> None:
        merged = FlowRecord.merge(self.subtask.task_id, records)
        self.windows_emitted += 1
        self.trace(
            "flow.window",
            size=len(records),
            sample_id=merged.sample_id,
            sensed_at=merged.sensed_at,
        )
        self.emit(merged)


# --------------------------------------------------------------------------
# map
# --------------------------------------------------------------------------


def _map_select(datum: Datum, params: dict[str, Any]) -> Datum:
    keys = set(params["keys"])
    return Datum(
        string_values={k: v for k, v in datum.string_values.items() if k in keys},
        num_values={k: v for k, v in datum.num_values.items() if k in keys},
    )


def _map_rename(datum: Datum, params: dict[str, Any]) -> Datum:
    mapping = dict(params["mapping"])
    return Datum(
        string_values={mapping.get(k, k): v for k, v in datum.string_values.items()},
        num_values={mapping.get(k, k): v for k, v in datum.num_values.items()},
    )


def _map_scale(datum: Datum, params: dict[str, Any]) -> Datum:
    key = params["key"]
    factor = float(params["factor"])
    nums = dict(datum.num_values)
    if key in nums:
        nums[key] *= factor
    return Datum(string_values=dict(datum.string_values), num_values=nums)


def _map_magnitude(datum: Datum, params: dict[str, Any]) -> Datum:
    keys = list(params["keys"])
    out = str(params.get("out", "magnitude"))
    nums = dict(datum.num_values)
    nums[out] = math.sqrt(sum(nums.get(k, 0.0) ** 2 for k in keys))
    return Datum(string_values=dict(datum.string_values), num_values=nums)


def _map_round(datum: Datum, params: dict[str, Any]) -> Datum:
    digits = int(params.get("digits", 3))
    return Datum(
        string_values=dict(datum.string_values),
        num_values={k: round(v, digits) for k, v in datum.num_values.items()},
    )


_MAP_FNS: dict[str, Callable[[Datum, dict[str, Any]], Datum]] = {
    "identity": lambda datum, _params: datum,
    "select": _map_select,
    "rename": _map_rename,
    "scale": _map_scale,
    "magnitude": _map_magnitude,
    "round": _map_round,
}


class MapOperator(StreamOperator):
    """Applies a named datum transform to every record.

    Params: ``fn`` (one of identity/select/rename/scale/magnitude/round)
    plus that function's own parameters.
    """

    load_points = 1.0
    forwards_every_record = True

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        fn = str(params.get("fn", "identity"))
        if fn == "select":
            keys = tuple(str(k) for k in params.get("keys", ()))
            return PayloadEffect(reads=keys, select=keys)
        if fn == "rename":
            mapping = dict(params.get("mapping", {}))
            pairs = tuple(sorted((str(k), str(v)) for k, v in mapping.items()))
            return PayloadEffect(reads=tuple(k for k, _ in pairs), renames=pairs)
        if fn == "scale":
            key = params.get("key")
            return PayloadEffect(reads=(str(key),) if key is not None else ())
        if fn == "magnitude":
            keys = tuple(str(k) for k in params.get("keys", ()))
            out = str(params.get("out", "magnitude"))
            return PayloadEffect(reads=keys, adds=(out,))
        return PayloadEffect()

    def configure(self) -> None:
        fn_name = str(self.params.get("fn", "identity"))
        fn = _MAP_FNS.get(fn_name)
        if fn is None:
            raise RecipeError(
                f"{self.name}: unknown map fn {fn_name!r} (known: {sorted(_MAP_FNS)})"
            )
        self._fn = fn
        self._fn_name = fn_name
        # Fail fast on missing fn params using a probe datum.
        try:
            fn(Datum(num_values={"__probe__": 0.0}), self.params)
        except KeyError as exc:
            raise RecipeError(f"{self.name}: map fn {fn_name!r} missing param {exc}")

    def on_record(self, stream: str, record: FlowRecord) -> None:
        transformed = self._fn(record.datum, self.params)
        self.emit(record.derive(self.subtask.task_id, datum=transformed))


# --------------------------------------------------------------------------
# filter
# --------------------------------------------------------------------------

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


class FilterOperator(StreamOperator):
    """Passes records satisfying ``<field>[key] <op> value``.

    Params: ``key``; ``op`` (gt/ge/lt/le/eq/ne, default ``gt``); ``value``;
    ``field`` = ``datum`` (default) or ``attrs``.
    """

    load_points = 0.5

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        key = params.get("key")
        if key is None:
            return PayloadEffect()
        if str(params.get("field", "datum")) == "attrs":
            return PayloadEffect(reads_attrs=(str(key),))
        return PayloadEffect(reads=(str(key),))

    def configure(self) -> None:
        try:
            self.key = str(self.params["key"])
            self.value = self.params["value"]
        except KeyError as exc:
            raise RecipeError(f"{self.name}: filter missing param {exc}")
        op = str(self.params.get("op", "gt"))
        comparator = _COMPARATORS.get(op)
        if comparator is None:
            raise RecipeError(f"{self.name}: unknown filter op {op!r}")
        self._comparator = comparator
        self.field = str(self.params.get("field", "datum"))
        if self.field not in ("datum", "attrs"):
            raise RecipeError(f"{self.name}: filter field must be datum|attrs")
        self.records_dropped = 0

    def _lookup(self, record: FlowRecord) -> Any:
        if self.field == "attrs":
            return record.attributes.get(self.key)
        if self.key in record.datum.num_values:
            return record.datum.num_values[self.key]
        return record.datum.string_values.get(self.key)

    def on_record(self, stream: str, record: FlowRecord) -> None:
        actual = self._lookup(record)
        passed = actual is not None and self._comparator(actual, self.value)
        if passed:
            self.emit(record.derive(self.subtask.task_id))
        else:
            self.records_dropped += 1


# --------------------------------------------------------------------------
# merge (latest-value fusion)
# --------------------------------------------------------------------------


class MergeOperator(StreamOperator):
    """Combines the latest record of every input stream into one datum.

    Emits on each arrival once every input has reported (set
    ``require_all: false`` to emit from the first record). Key conflicts:
    later-arriving stream wins for that emission.
    """

    load_points = 1.5
    stateful = True
    forwards_every_record = True

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        return PayloadEffect(merges_inputs=True)

    def configure(self) -> None:
        self.require_all = bool(self.params.get("require_all", True))
        self._latest: dict[str, FlowRecord] = {}

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {
            "latest": {
                stream: record.to_payload()
                for stream, record in sorted(self._latest.items())
            }
        }

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        self._latest = {
            stream: FlowRecord.from_payload(payload)
            for stream, payload in state.get("latest", {}).items()
        }

    def on_record(self, stream: str, record: FlowRecord) -> None:
        self._latest[stream] = record
        if self.require_all and set(self._latest) < set(self.subtask.inputs):
            return
        # Order by stream name, but let the newly arrived stream win ties
        # by merging it last.
        ordered = [
            self._latest[s] for s in sorted(self._latest) if s != stream
        ] + [record]
        merged = FlowRecord.merge(self.subtask.task_id, ordered)
        self.emit(merged)


# --------------------------------------------------------------------------
# stat
# --------------------------------------------------------------------------


class StatOperator(StreamOperator):
    """Annotates records with sliding-window statistics.

    Params: ``keys`` (numeric datum keys to track), ``window`` (samples,
    default 64), ``stats`` (subset of mean/std/min/max, default mean+std).
    """

    load_points = 1.0
    stateful = True

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        keys = tuple(str(k) for k in params.get("keys", ()) or ())
        wanted = tuple(str(s) for s in params.get("stats", ["mean", "std"]))
        return PayloadEffect(
            reads=keys,
            adds_attrs=tuple(f"{key}_{stat}" for key in keys for stat in wanted),
        )

    @classmethod
    def redelivery_safe(cls, params: dict[str, Any]) -> bool:
        return False

    def configure(self) -> None:
        keys = self.params.get("keys")
        if not keys:
            raise RecipeError(f"{self.name}: stat needs 'keys'")
        self.keys = [str(k) for k in keys]
        self.window = WindowStat(window=int(self.params.get("window", 64)))
        wanted = self.params.get("stats", ["mean", "std"])
        allowed = {"mean", "std", "min", "max"}
        bad = set(wanted) - allowed
        if bad:
            raise RecipeError(f"{self.name}: unknown stats {sorted(bad)}")
        self.wanted = list(wanted)

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {"window": self.window.export_state()}

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        self.window.import_state(state.get("window", {}))

    def on_record(self, stream: str, record: FlowRecord) -> None:
        for key in self.keys:
            value = record.datum.num_values.get(key)
            if value is not None:
                self.window.push(key, value)
        enriched = record.derive(self.subtask.task_id)
        getters = {
            "mean": self.window.mean,
            "std": self.window.stddev,
            "min": self.window.min,
            "max": self.window.max,
        }
        for key in self.keys:
            if self.window.count(key) == 0:
                continue
            for stat in self.wanted:
                enriched.attributes[f"{key}_{stat}"] = getters[stat](key)
        self.emit(enriched)


# --------------------------------------------------------------------------
# command (judgement -> actuator command rules)
# --------------------------------------------------------------------------


class CommandOperator(StreamOperator):
    """Maps analysis outputs to actuator commands via a rule table.

    Params: ``rules`` — a list of ``{"when": {"key": K, <test>: V},
    "command": {...}}`` evaluated in order (first match wins), where
    ``<test>`` is one of eq/ne/gt/ge/lt/le; an optional ``default``
    command fires when no rule matches. The looked-up value comes from the
    record attributes first, then the datum.
    """

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        keys: list[str] = []
        rules = params.get("rules")
        for rule in rules if isinstance(rules, list) else []:
            if not isinstance(rule, dict):
                continue
            when = rule.get("when")
            if isinstance(when, dict) and "key" in when:
                key = str(when["key"])
                if key not in keys:
                    keys.append(key)
        return PayloadEffect(reads_any=tuple(keys), adds_attrs=("command",))

    def configure(self) -> None:
        rules = self.params.get("rules")
        if not isinstance(rules, list) or not rules:
            raise RecipeError(f"{self.name}: command needs a non-empty 'rules' list")
        self.rules: list[tuple[str, str, Any, dict[str, Any]]] = []
        for i, rule in enumerate(rules):
            when = rule.get("when", {})
            command = rule.get("command")
            if not isinstance(when, dict) or "key" not in when or command is None:
                raise RecipeError(f"{self.name}: malformed rule #{i}: {rule!r}")
            tests = [op for op in _COMPARATORS if op in when]
            if len(tests) != 1:
                raise RecipeError(
                    f"{self.name}: rule #{i} needs exactly one comparator"
                )
            self.rules.append(
                (str(when["key"]), tests[0], when[tests[0]], dict(command))
            )
        self.default_command = self.params.get("default")
        self.commands_emitted = 0

    def _lookup(self, record: FlowRecord, key: str) -> Any:
        if key in record.attributes:
            return record.attributes[key]
        if key in record.datum.num_values:
            return record.datum.num_values[key]
        return record.datum.string_values.get(key)

    def on_record(self, stream: str, record: FlowRecord) -> None:
        command: dict[str, Any] | None = None
        for key, op, value, rule_command in self.rules:
            actual = self._lookup(record, key)
            if actual is not None and _COMPARATORS[op](actual, value):
                command = rule_command
                break
        if command is None:
            if self.default_command is None:
                return
            command = dict(self.default_command)
        out = record.derive(self.subtask.task_id)
        out.attributes["command"] = dict(command)
        self.commands_emitted += 1
        self.emit(out)


# --------------------------------------------------------------------------
# ewma (exponential smoothing)
# --------------------------------------------------------------------------


class EwmaOperator(StreamOperator):
    """Exponentially weighted moving average of chosen numeric keys.

    Params: ``keys`` (list; default: all numeric keys), ``alpha`` in (0, 1]
    (default 0.2; 1.0 = pass-through). Smoothed values *replace* the raw
    ones so downstream operators are oblivious to the smoothing.
    """

    stateful = True
    forwards_every_record = True

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        return PayloadEffect(
            reads=tuple(str(k) for k in params.get("keys", ()) or ())
        )

    @classmethod
    def redelivery_safe(cls, params: dict[str, Any]) -> bool:
        return False

    def configure(self) -> None:
        alpha = float(self.params.get("alpha", 0.2))
        if not 0.0 < alpha <= 1.0:
            raise RecipeError(f"{self.name}: alpha must be in (0, 1]")
        self.alpha = alpha
        self.keys = [str(k) for k in self.params.get("keys", [])] or None
        self._state: dict[str, float] = {}

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {"state": dict(sorted(self._state.items()))}

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        self._state = {
            str(k): float(v) for k, v in state.get("state", {}).items()
        }

    def on_record(self, stream: str, record: FlowRecord) -> None:
        nums = dict(record.datum.num_values)
        keys = self.keys if self.keys is not None else list(nums)
        for key in keys:
            value = nums.get(key)
            if value is None:
                continue
            previous = self._state.get(key)
            smoothed = (
                value
                if previous is None
                else previous + self.alpha * (value - previous)
            )
            self._state[key] = smoothed
            nums[key] = smoothed
        datum = Datum(
            string_values=dict(record.datum.string_values), num_values=nums
        )
        self.emit(record.derive(self.subtask.task_id, datum=datum))


# --------------------------------------------------------------------------
# delta (report-by-exception)
# --------------------------------------------------------------------------


class DeltaOperator(StreamOperator):
    """Emits only when a watched value moved by at least ``min_change``.

    Params: ``key`` (numeric datum key), ``min_change`` (absolute delta,
    default 0 = any change). String keys compare by inequality. The first
    record always passes (it establishes the baseline downstream).
    """

    stateful = True
    forwards_every_record = True

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        key = params.get("key")
        return PayloadEffect(reads=(str(key),) if key else ())

    def configure(self) -> None:
        key = self.params.get("key")
        if not key:
            raise RecipeError(f"{self.name}: delta needs 'key'")
        self.key = str(key)
        self.min_change = float(self.params.get("min_change", 0.0))
        self._last: Any = None
        self.records_suppressed = 0

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {"last": self._last}

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        self._last = state.get("last")

    def on_record(self, stream: str, record: FlowRecord) -> None:
        value = record.datum.num_values.get(self.key)
        if value is None:
            value = record.datum.string_values.get(self.key)
        changed = (
            self._last is None
            or (
                isinstance(value, float) and isinstance(self._last, float)
                and abs(value - self._last) >= max(self.min_change, 1e-304)
            )
            or (not isinstance(value, float) and value != self._last)
        )
        if changed:
            self._last = value
            self.emit(record.derive(self.subtask.task_id))
        else:
            self.records_suppressed += 1


# --------------------------------------------------------------------------
# throttle (rate limiting)
# --------------------------------------------------------------------------


class ThrottleOperator(StreamOperator):
    """Passes at most one record per ``interval_s`` (token-bucket of one).

    Protects downstream actuators and uplinks from bursts; the paper's
    motivation ("not efficient ... to upload massive data streams") in
    operator form. Excess records are dropped, not queued — the newest
    state will come around again on a live stream.
    """

    stateful = True

    @classmethod
    def emit_rate(cls, task: TaskSpec, in_rates: list[float]) -> float:
        return _interval_capped(task, sum(in_rates))

    @classmethod
    def hold_time(cls, task: TaskSpec, ingest_hz: float, emit_hz: float) -> float:
        return float(task.params.get("interval_s", 0.0))

    def configure(self) -> None:
        interval = float(self.params.get("interval_s", 0.0))
        if interval <= 0:
            raise RecipeError(f"{self.name}: throttle needs 'interval_s' > 0")
        self.interval_s = interval
        self._next_allowed = 0.0
        self.records_suppressed = 0

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {"next_allowed": self._next_allowed}

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        self._next_allowed = float(state.get("next_allowed", 0.0))

    def on_record(self, stream: str, record: FlowRecord) -> None:
        now = self.runtime.now
        if now < self._next_allowed:
            self.records_suppressed += 1
            return
        self._next_allowed = now + self.interval_s
        self.emit(record.derive(self.subtask.task_id))


# --------------------------------------------------------------------------
# dedup (at-least-once -> effectively-once)
# --------------------------------------------------------------------------


class DedupOperator(StreamOperator):
    """Drops records whose sample id was already seen.

    QoS 1 flows deliver at-least-once; placing a ``dedup`` in front of a
    non-idempotent consumer restores effectively-once processing. Memory
    is bounded: ids are remembered in a window of the last ``window``
    samples (default 1024).
    """

    stateful = True
    # Forwards every value-changing record, and the shipped flows feed it
    # distinct readings; a deployment where dedup routinely drops should
    # override the SLO policy.
    forwards_every_record = True

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        return PayloadEffect(dedups=True)

    def configure(self) -> None:
        window = int(self.params.get("window", 1024))
        if window <= 0:
            raise RecipeError(f"{self.name}: dedup window must be positive")
        self._order: deque[str] = deque(maxlen=window)
        self._seen: set[str] = set()
        self.duplicates_dropped = 0

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {"order": list(self._order)}

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        self._order.clear()
        self._seen.clear()
        for sample_id in state.get("order", []):
            self._order.append(str(sample_id))
            self._seen.add(str(sample_id))

    def on_record(self, stream: str, record: FlowRecord) -> None:
        if record.sample_id in self._seen:
            self.duplicates_dropped += 1
            return
        order = self._order
        if len(order) == order.maxlen:
            self._seen.discard(order[0])
        order.append(record.sample_id)
        self._seen.add(record.sample_id)
        self.emit(record.derive(self.subtask.task_id))


register_operator("window", WindowOperator)
register_operator("map", MapOperator)
register_operator("filter", FilterOperator)
register_operator("merge", MergeOperator)
register_operator("stat", StatOperator)
register_operator("command", CommandOperator)
register_operator("ewma", EwmaOperator)
register_operator("delta", DeltaOperator)
register_operator("throttle", ThrottleOperator)
register_operator("dedup", DedupOperator)

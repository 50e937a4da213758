"""Flow analysis: the Learning / Judging / Managing classes (Fig. 4).

Paper §IV-C-2: "Learning class analyzes a time series of sensor data in a
sequential order, and builds / updates models. Judging class analyzes data
streams using the built model. Managing class manages the cooperative
operation for distributed processing."

The model itself comes from :mod:`repro.core.models` (the Jubatus
substitute). Two paths move models between classes:

* **snapshots** — a LearningClass with ``publish_model_every: N`` publishes
  its full model state as a retained message every N training records;
  a JudgingClass with ``model_from: <train task id>`` subscribes and swaps
  the snapshot in. This is the module E -> module F model flow of Fig. 9.
* **MIX** — LearningClass instances sharing a ``mix_group`` take part in
  rounds run by a :class:`ManagingClass`, converging to a common model
  without centralizing the stream (Jubatus's distributed learning).
"""

from __future__ import annotations

from typing import Any

from repro.core.flow import FlowRecord
from repro.core.models import build_flow_model
from repro.core.operators import PayloadEffect, StreamOperator, register_operator
from repro.core.recipe import TaskSpec
from repro.errors import RecipeError
from repro.ml.evaluation import PrequentialAccuracy
from repro.ml.mix import MixCoordinator, MixParticipantState
from repro.mqtt.packets import Packet

__all__ = ["LearningClass", "JudgingClass", "ManagingClass"]


def _model_topic(application: str, task_id: str) -> str:
    return f"ifot/model/{application}/{task_id}"


def _mix_topic(application: str, group: str, leaf: str) -> str:
    return f"ifot/mix/{application}/{group}/{leaf}"


class LearningClass(StreamOperator):
    """Online model building (operator name ``train``).

    Params: model configuration (see
    :func:`repro.core.models.build_flow_model`) plus:

    ``publish_model_every``
        Publish a retained model snapshot every N trained records (0 =
        never). Snapshots live on ``ifot/model/<app>/<task id>``.
    ``mix_group``
        Join this MIX group as a participant (model must be mixable).
    ``emit_info``
        When the task declares output streams, forward each trained record
        annotated with training info (default True when outputs exist).
    ``track_accuracy``
        Prequential (test-then-train) accuracy tracking: before each
        training step the current model predicts the record and the
        outcome feeds a sliding-window accuracy, exposed as
        ``self.accuracy`` and in the ``ml.trained`` trace (default False —
        it costs one extra inference per record).
    """

    cost_op = "ml.train"
    load_points = 8.0
    stateful = True
    forwards_every_record = True

    @classmethod
    def redelivery_safe(cls, params: dict[str, Any]) -> bool:
        return False  # a duplicate re-trains the model

    @classmethod
    def emit_rate(cls, task: TaskSpec, in_rates: list[float]) -> float:
        return sum(in_rates) if task.outputs else 0.0

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        kind = str(params.get("model", "classifier"))
        reads_any: tuple[str, ...] = ()
        if kind in ("classifier", "knn", "tree"):
            reads_any = (str(params.get("label_key", "label")),)
        elif kind == "regression":
            reads_any = (str(params.get("target_key", "target")),)
        # Training-info attributes forwarded when emit_info is on; a
        # may-produce union over the model kinds' train() outcomes.
        return PayloadEffect(
            reads_any=reads_any,
            adds_attrs=(
                "trained", "updated", "label", "reason", "score", "cluster",
                "grew",
            ),
        )

    def configure(self) -> None:
        reserved = {
            "publish_model_every", "mix_group", "emit_info", "qos",
            "track_accuracy", "accuracy_window",
        }
        model_params = {k: v for k, v in self.params.items() if k not in reserved}
        self.model = build_flow_model(model_params)
        self.records_trained = 0
        self.publish_model_every = int(self.params.get("publish_model_every", 0))
        self.mix_group = self.params.get("mix_group")
        self.emit_info = bool(self.params.get("emit_info", True))
        self.track_accuracy = bool(self.params.get("track_accuracy", False))
        self.accuracy = PrequentialAccuracy(
            window=int(self.params.get("accuracy_window", 200))
        )
        self._mix_state: MixParticipantState | None = None
        if self.mix_group is not None:
            if not self.model.mixable:
                raise RecipeError(f"{self.name}: model cannot join a MIX group")
            self._mix_state = MixParticipantState(
                self.subtask.subtask_id, self.model.mix_model()
            )
            group = str(self.mix_group)
            self.module.client.subscribe(
                _mix_topic(self.application, group, "req"), self._on_mix_request
            )
            self.module.client.subscribe(
                _mix_topic(self.application, group, "mixed"), self._on_mix_broadcast
            )

    def on_record(self, stream: str, record: FlowRecord) -> None:
        accuracy_field = {}
        if self.track_accuracy and self.model.ready:
            label = self.model.true_label(record)
            if label is not None:
                predicted = self.model.judge(record).get("label")
                self.accuracy.record(predicted == label)
                accuracy_field = {"win_acc": self.accuracy.windowed}
        info = self.model.train(record)
        now = self.runtime.now
        self.records_trained += 1
        self.trace(
            "ml.trained",
            sample_id=record.sample_id,
            sensed_at=record.sensed_at,
            latency_s=now - record.sensed_at,
            merged=len(record.merged_ids) or 1,
            **({"trace_id": record.ctx.trace_id} if record.ctx is not None else {}),
            **accuracy_field,
            **{k: v for k, v in info.items() if k in ("trained", "label")},
        )
        if (
            self.publish_model_every > 0
            and self.records_trained % self.publish_model_every == 0
        ):
            self._publish_snapshot()
        if self.emit_info and self.publishers:
            out = record.derive(self.subtask.task_id)
            out.attributes.update(info)
            self.emit(out)

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {
            "model": self.model.export_state(),
            "records_trained": self.records_trained,
        }

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        model_state = state.get("model")
        if model_state is not None:
            self.model.import_state(model_state)
        self.records_trained = int(state.get("records_trained", 0))

    def _publish_snapshot(self) -> None:
        snapshot = self.model.export_state()
        self.module.client.publish(
            _model_topic(self.application, self.subtask.task_id),
            {"from": self.subtask.subtask_id, "state": snapshot},
            retain=True,
            headers={"published_at": self.runtime.now},
        )
        self.trace("ml.model_published", records_trained=self.records_trained)

    # ------------------------------------------------------------------
    # MIX participation
    # ------------------------------------------------------------------

    def _on_mix_request(self, _topic: str, payload: Any, _packet: Packet) -> None:
        if self.stopped or self._mix_state is None:
            return
        round_id = int(payload["round"])
        reply = self._mix_state.make_reply(
            round_id, weight=float(max(1, self.records_trained))
        )
        self.node.execute(
            "ml.mix",
            self.module.client.publish,
            _mix_topic(self.application, str(self.mix_group), "diff"),
            reply,
        )

    def _on_mix_broadcast(self, _topic: str, payload: Any, _packet: Packet) -> None:
        if self.stopped or self._mix_state is None:
            return
        applied = self._mix_state.apply_broadcast(
            int(payload["round"]), payload["diff"]
        )
        if applied:
            self.trace("ml.mix_applied", round=int(payload["round"]))


class JudgingClass(StreamOperator):
    """Online inference (operator name ``predict``).

    Params: model configuration plus:

    ``model_from``
        Task id of a LearningClass publishing snapshots; this judge loads
        each snapshot (the Fig. 9 predict path).
    ``train_on_stream``
        Self-contained mode: the judge also feeds every record to the
        model (anomaly and cluster models typically run this way).

    Records judged before any model is available pass through with
    ``judged: False`` so downstream operators can tell silence from
    normality.
    """

    cost_op = "ml.predict"
    load_points = 4.0

    #: judge() output keys per model kind (see repro.core.models).
    _JUDGE_ATTRS = {
        "classifier": ("label", "margin"),
        "regression": ("prediction",),
        "anomaly": ("score", "anomalous"),
        "cluster": ("cluster", "distance"),
        "knn": ("label", "votes"),
        "tree": ("label", "confidence"),
    }

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        kind = str(params.get("model", "classifier"))
        return PayloadEffect(
            adds_attrs=cls._JUDGE_ATTRS.get(kind, ()) + ("judged",)
        )

    def configure(self) -> None:
        reserved = {"model_from", "train_on_stream", "qos"}
        model_params = {k: v for k, v in self.params.items() if k not in reserved}
        self.model = build_flow_model(model_params)
        self.train_on_stream = bool(self.params.get("train_on_stream", False))
        self.records_judged = 0
        self.records_unjudged = 0
        self.model_loads = 0
        model_from = self.params.get("model_from")
        if model_from is not None:
            self.module.client.subscribe(
                _model_topic(self.application, str(model_from)),
                self._on_model_snapshot,
            )

    def export_state(self) -> dict[str, Any]:
        super().export_state()
        return {
            "model": self.model.export_state() if self.model.ready else None,
            "model_loads": self.model_loads,
        }

    def import_state(self, state: dict[str, Any]) -> None:
        super().import_state(state)
        model_state = state.get("model")
        if model_state is not None:
            self.model.import_state(model_state)
        self.model_loads = int(state.get("model_loads", 0))

    def _on_model_snapshot(self, _topic: str, payload: Any, _packet: Packet) -> None:
        if self.stopped:
            return
        self.node.execute("ml.load_model", self._load_snapshot, payload)

    def _load_snapshot(self, payload: Any) -> None:
        try:
            self.model.import_state(payload["state"])
        except (KeyError, TypeError) as exc:
            self.trace("ml.model_load_error", error=str(exc))
            return
        self.model_loads += 1
        self.trace("ml.model_loaded", loads=self.model_loads)

    def on_record(self, stream: str, record: FlowRecord) -> None:
        out = record.derive(self.subtask.task_id)
        if self.train_on_stream and not self.model.ready:
            # Bootstrap: feed the model until it can judge.
            self.model.train(record)
        if self.model.ready:
            judgement = self.model.judge(record)
            out.attributes.update(judgement)
            out.attributes["judged"] = True
            self.records_judged += 1
        else:
            out.attributes["judged"] = False
            self.records_unjudged += 1
        now = self.runtime.now
        self.trace(
            "ml.judged",
            sample_id=record.sample_id,
            sensed_at=record.sensed_at,
            latency_s=now - record.sensed_at,
            judged=out.attributes["judged"],
            **({"trace_id": record.ctx.trace_id} if record.ctx is not None else {}),
        )
        if self.publishers:
            self.emit(out)


class ManagingClass(StreamOperator):
    """MIX round coordination (operator name ``mix``).

    Params:

    ``group``
        MIX group name (participants name the same group).
    ``participants``
        Sub-task ids expected to reply each round.
    ``interval_s``
        Round period (default 10).
    ``timeout_s``
        How long to wait before closing a round with whatever arrived
        (default ``interval_s / 2``); rounds below quorum are aborted.
    ``min_quorum``
        Fewest diffs worth averaging (default 1).
    """

    cost_op = "ml.mix"
    source = True  # rounds run on a timer, over control topics

    @classmethod
    def payload_effect(cls, params: dict[str, Any]) -> PayloadEffect:
        # Coordination happens over control topics, not record streams.
        return PayloadEffect(opaque=True)

    def configure(self) -> None:
        group = self.params.get("group")
        participants = self.params.get("participants")
        if not group or not participants:
            raise RecipeError(f"{self.name}: mix needs 'group' and 'participants'")
        self.group = str(group)
        self.participants = [str(p) for p in participants]
        self.interval_s = float(self.params.get("interval_s", 10.0))
        self.timeout_s = float(self.params.get("timeout_s", self.interval_s / 2.0))
        self.coordinator = MixCoordinator(
            min_quorum=int(self.params.get("min_quorum", 1))
        )
        self.rounds_started = 0
        self.rounds_completed = 0
        self.rounds_aborted = 0
        self.module.client.subscribe(
            _mix_topic(self.application, self.group, "diff"), self._on_diff
        )
        self.every(self.interval_s, self._start_round)
        self._deadline_handle = None

    def _start_round(self) -> None:
        if self.coordinator.current is not None:
            # Previous round still open past its deadline: close it now.
            self._close_round(allow_partial=True)
        round_ = self.coordinator.start_round(self.participants)
        self.rounds_started += 1
        self.trace("mix.round_start", round=round_.round_id)
        self.module.client.publish(
            _mix_topic(self.application, self.group, "req"),
            {"round": round_.round_id},
        )
        self._deadline_handle = self.after(
            self.timeout_s, self._close_round, True
        )

    def _on_diff(self, _topic: str, payload: Any, _packet: Packet) -> None:
        if self.stopped or self.coordinator.current is None:
            return
        complete = self.coordinator.receive_diff(
            str(payload["participant"]),
            int(payload["round"]),
            payload["diff"],
            weight=float(payload.get("weight", 1.0)),
        )
        if complete:
            if self._deadline_handle is not None:
                self._deadline_handle.cancel()
                self._deadline_handle = None
            self._close_round(allow_partial=False)

    def _close_round(self, allow_partial: bool) -> None:
        current = self.coordinator.current
        if current is None:
            return
        round_id = current.round_id
        received = len(current.diffs)
        if received < self.coordinator.min_quorum:
            self.coordinator.abort_round()
            self.rounds_aborted += 1
            self.trace("mix.round_aborted", round=round_id, received=received)
            return
        mixed = self.coordinator.finish_round(allow_partial=allow_partial)
        self.rounds_completed += 1
        self.trace("mix.round_done", round=round_id, received=received)
        self.module.client.publish(
            _mix_topic(self.application, self.group, "mixed"),
            {"round": round_id, "diff": mixed},
        )


register_operator("train", LearningClass)
register_operator("predict", JudgingClass)
register_operator("mix", ManagingClass)

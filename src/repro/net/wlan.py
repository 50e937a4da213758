"""Shared-medium wireless LAN model.

The paper's testbed (Fig. 7) is six Raspberry Pis and a laptop on one
wireless LAN. All stations share a single channel, so we model the channel
as one FIFO airtime resource:

* every frame occupies ``per_frame_overhead + wire_size / bitrate`` seconds
  of airtime (the overhead term captures DIFS/backoff/ACK and dominates for
  the paper's 32-byte samples);
* transmissions serialize — a frame must wait for the channel to go idle,
  which is where contention delay at high sensing rates comes from;
* optional uniform jitter models scheduling noise, and an i.i.d. loss rate
  models corrupted frames (dropped *after* burning airtime, as in reality).

This deliberately abstracts away CSMA/CA binary exponential backoff: under
the paper's offered loads (tens to hundreds of small frames per second) the
channel operates far from collision collapse, and mean access delay is
captured by the FIFO + overhead model. The calibration (``repro.bench``)
fits the overhead to the paper's low-rate latency floor.

Fault modelling (used by :mod:`repro.chaos`): on top of the i.i.d. loss
model the medium supports

* **partitions** — per-station-pair reachability cuts inherited from
  :class:`~repro.net.medium.Medium`; partitioned frames burn airtime (the
  sender transmits into the void) but are never delivered;
* **link degradations** — windows during which frames touching a chosen
  station set suffer a two-state Gilbert–Elliott bursty loss process
  and/or a throttled bitrate, modelling interference bursts, rate
  adaptation fallback and marginal links.

All stochastic draws (jitter, i.i.d. loss, burst transitions) come from
named streams derived from one seed via :mod:`repro.util.rng`, so a run is
exactly reproducible — including its chaos schedule — from the runtime
seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.net.frame import Frame
from repro.net.medium import Medium
from repro.sim.kernel import SimKernel
from repro.sim.resources import NO_RUNTIME
from repro.sim.trace import Tracer
from repro.util.rng import RngRegistry
from repro.util.validate import require_in_range, require_non_negative, require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.base import Runtime

__all__ = ["WlanConfig", "WlanMedium", "GilbertElliottConfig"]

#: A flush's canonical frame order, ``(source station, frame_id)``, built
#: in C rather than by a key frame per frame.
_FLUSH_ORDER = attrgetter("source.station", "frame_id")


@dataclass(frozen=True)
class WlanConfig:
    """Channel parameters.

    Defaults approximate a lightly managed 802.11n 2.4 GHz network of the
    2016 era: ~20 Mbit/s effective UDP goodput and ~1.2 ms of fixed
    per-frame channel occupancy for small datagrams.
    """

    bitrate_bps: float = 20e6
    per_frame_overhead_s: float = 1.2e-3
    jitter_s: float = 0.4e-3
    loss_rate: float = 0.0
    propagation_delay_s: float = 5e-6

    def validate(self) -> "WlanConfig":
        require_positive(self.bitrate_bps, "bitrate_bps")
        require_non_negative(self.per_frame_overhead_s, "per_frame_overhead_s")
        require_non_negative(self.jitter_s, "jitter_s")
        require_in_range(self.loss_rate, 0.0, 1.0, "loss_rate")
        require_non_negative(self.propagation_delay_s, "propagation_delay_s")
        return self

    def airtime(self, wire_size: int) -> float:
        """Deterministic airtime for a frame of ``wire_size`` bytes."""
        return self.per_frame_overhead_s + (wire_size * 8.0) / self.bitrate_bps


@dataclass(frozen=True)
class GilbertElliottConfig:
    """Two-state bursty loss process (Gilbert–Elliott).

    The channel flips between a *good* and a *bad* state once per frame:
    from good it enters bad with probability ``p_enter``; from bad it
    returns with probability ``p_exit``. Frames are lost with
    ``loss_good`` / ``loss_bad`` depending on the state, producing the
    clustered losses real 802.11 links show under interference — which
    i.i.d. loss cannot reproduce (QoS 1 retransmissions that would always
    win against i.i.d. loss can die inside one long burst).

    Mean burst length is ``1 / p_exit`` frames; stationary bad-state
    probability is ``p_enter / (p_enter + p_exit)``.
    """

    p_enter: float
    p_exit: float
    loss_bad: float = 1.0
    loss_good: float = 0.0

    def validate(self) -> "GilbertElliottConfig":
        require_in_range(self.p_enter, 0.0, 1.0, "p_enter")
        require_positive(self.p_exit, "p_exit")
        require_in_range(self.p_exit, 0.0, 1.0, "p_exit")
        require_in_range(self.loss_bad, 0.0, 1.0, "loss_bad")
        require_in_range(self.loss_good, 0.0, 1.0, "loss_good")
        return self

    def stationary_loss(self) -> float:
        """Long-run frame loss rate: each state's loss weighted by the
        stationary probability of being in it."""
        bad = self.p_enter / (self.p_enter + self.p_exit)
        return bad * self.loss_bad + (1.0 - bad) * self.loss_good


class _GilbertElliott:
    """Mutable state machine for one :class:`GilbertElliottConfig`."""

    def __init__(self, config: GilbertElliottConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        self.bad = False
        self.transitions = 0

    def step(self) -> float:
        """Advance one frame; returns the loss rate governing that frame."""
        threshold = self.config.p_exit if self.bad else self.config.p_enter
        if self._rng.random() < threshold:
            self.bad = not self.bad
            self.transitions += 1
        return self.config.loss_bad if self.bad else self.config.loss_good


@dataclass
class _Degradation:
    """One active link degradation window."""

    handle: int
    stations: frozenset[str] | None  # None = whole channel
    bitrate_factor: float
    burst: _GilbertElliott | None
    until: float | None  # absolute end time; None = until restored

    def matches(self, frame: Frame) -> bool:
        if self.stations is None:
            return True
        return (
            frame.source.station in self.stations
            or frame.destination.station in self.stations
        )


class WlanMedium(Medium):
    """Single-channel shared medium over a simulation kernel.

    Jitter, i.i.d. loss and burst transitions draw from independent named
    streams of the :class:`~repro.util.rng.RngRegistry` ``rng`` — so a
    chaos schedule added to an experiment never perturbs the jitter draws
    of the baseline run. When omitted, streams are derived from seed 0 via
    :func:`repro.util.rng.derive_seed` (never a bare ``random.Random(0)``).
    """

    def __init__(
        self,
        kernel: SimKernel,
        config: WlanConfig | None = None,
        rng: RngRegistry | None = None,
        tracer: Tracer | None = None,
        runtime: "Runtime | None" = None,
    ) -> None:
        super().__init__()
        self._kernel = kernel
        self.config = (config or WlanConfig()).validate()
        if rng is None:
            rng = RngRegistry(0).fork("wlan")
        self._jitter_rng = rng.stream("wlan.jitter")
        self._loss_rng = rng.stream("wlan.loss")
        self._burst_rng = rng.stream("wlan.burst")
        self._tracer = tracer
        self._channel_free_at = 0.0
        self.frames_transmitted = 0
        self.frames_lost = 0
        self.frames_partitioned = 0
        self.total_airtime = 0.0
        self._interference: list[tuple[float, float, float]] = []
        self._degradations: list[_Degradation] = []
        self._next_degradation_handle = 0
        # Same-instant frames are buffered and flushed by one kernel
        # epilogue in canonical (station, frame_id) order, so the channel
        # slot assignment and the shared jitter/loss/burst RNG draw order
        # are invariant to the schedule order of concurrent senders.
        self._pending: list[Frame] = []
        self._flush_scheduled = False
        # Deferred import: repro.runtime imports this module at package
        # init, so the cycle is only safe to close at construction time.
        from repro.runtime.state import tracked_state

        owner: Any = runtime if runtime is not None else NO_RUNTIME
        # Kept for the profiler hook: airtime is charged to ``runtime.prof``,
        # straight into the station cells its hook returned once bound.
        self._owner_runtime = owner
        self._prof: Any = None
        self._prof_stations: Any = None
        # The pending buffer is commutative by construction: the canonical
        # flush sort erases append order.
        self._pending_cell = tracked_state(owner, "wlan", "pending")  # repro: san-ok[SAN001]
        self._channel_cell = tracked_state(owner, "wlan", "channel")

    def schedule_interference(
        self, start: float, duration: float, loss_rate: float
    ) -> None:
        """Degrade the channel during ``[start, start+duration)``.

        Models a microwave oven, a neighbouring network or a passing truck:
        frames transmitted while a window is active are lost with
        ``loss_rate`` (the worst active window wins, and the configured
        baseline loss still applies outside windows).
        """
        require_non_negative(start, "start")
        require_positive(duration, "duration")
        require_in_range(loss_rate, 0.0, 1.0, "loss_rate")
        self._interference.append((start, start + duration, loss_rate))

    # ------------------------------------------------------------------
    # Link degradation (bursty loss + throttling)
    # ------------------------------------------------------------------

    def degrade_link(
        self,
        stations: "frozenset[str] | set[str] | None" = None,
        bitrate_factor: float = 1.0,
        burst: GilbertElliottConfig | None = None,
        duration_s: float | None = None,
    ) -> int:
        """Start a degradation window; returns a handle for
        :meth:`restore_link`.

        ``stations`` limits the effect to frames touching any named
        station (``None`` degrades the whole channel). ``bitrate_factor``
        scales the effective bitrate (0.25 = rate adaptation fell back to
        a quarter of nominal). ``burst`` adds a Gilbert–Elliott loss
        process on top of the configured i.i.d. loss. ``duration_s``
        auto-expires the window; ``None`` keeps it until restored.
        """
        require_in_range(bitrate_factor, 1e-6, 1.0, "bitrate_factor")
        if burst is not None:
            burst.validate()
        if duration_s is not None:
            require_positive(duration_s, "duration_s")
        # Degradation windows change how every in-flight frame is priced
        # and dropped — that is channel state, same as the contention queue.
        self._channel_cell.note_write()
        handle = self._next_degradation_handle
        self._next_degradation_handle += 1
        self._degradations.append(
            _Degradation(
                handle=handle,
                stations=frozenset(stations) if stations is not None else None,
                bitrate_factor=bitrate_factor,
                burst=_GilbertElliott(burst, self._burst_rng) if burst else None,
                until=None if duration_s is None else self._kernel.now + duration_s,
            )
        )
        return handle

    def restore_link(self, handle: int) -> bool:
        """End the degradation window ``handle``. Returns True if found."""
        self._channel_cell.note_write()
        before = len(self._degradations)
        self._degradations = [d for d in self._degradations if d.handle != handle]
        return len(self._degradations) < before

    @property
    def degradations_active(self) -> int:
        """Unexpired degradation windows (for tests/inspection)."""
        return len(self._active_degradations(self._kernel.now))

    def _active_degradations(self, now: float) -> list[_Degradation]:
        if not self._degradations:
            return []
        live = [d for d in self._degradations if d.until is None or now < d.until]
        if len(live) != len(self._degradations):
            self._degradations = live
        return live

    def _loss_rate_at(self, t: float) -> float:
        rate = self.config.loss_rate
        for start, end, window_rate in self._interference:
            if start <= t < end:
                rate = max(rate, window_rate)
        return rate

    def transmit(self, frame: Frame) -> None:
        """Accept ``frame`` for transmission at the current instant.

        Frames are not put on the air immediately: they join a per-instant
        buffer that a kernel *epilogue* event (see
        :meth:`repro.sim.SimKernel.schedule_epilogue`) flushes onto the
        channel in canonical ``(source station, frame_id)`` order.  Since
        ``frame_id`` is the sender interface's monotonic counter, the
        canonical order — and therefore channel slot assignment and every
        draw from the shared jitter/loss/burst streams — depends only on
        *which* frames were offered during the instant, not on the
        schedule order of the events that offered them.
        """
        if self._owner_runtime.san is not None:
            self._pending_cell.note_write()
        self._pending.append(frame)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._kernel.schedule_epilogue(self._flush)

    def _flush(self) -> None:
        """Put all frames offered during this instant on the air."""
        self._flush_scheduled = False
        if self._owner_runtime.san is not None:
            self._pending_cell.note_read()
        pending, self._pending = self._pending, []
        if len(pending) > 1:
            pending.sort(key=_FLUSH_ORDER)
        for frame in pending:
            self._transmit_now(frame)

    def _transmit_now(self, frame: Frame) -> None:
        """Occupy the channel with ``frame`` and schedule its delivery."""
        now = self._kernel._now
        config = self.config
        wire_size = frame.wire_size
        degradations: list[_Degradation] = []
        bitrate_factor = 1.0
        if self._degradations:
            degradations = [
                d for d in self._active_degradations(now) if d.matches(frame)
            ]
            for degradation in degradations:
                bitrate_factor = min(bitrate_factor, degradation.bitrate_factor)
        airtime = config.per_frame_overhead_s + (wire_size * 8.0) / (
            config.bitrate_bps * bitrate_factor
        )
        if config.jitter_s > 0.0:
            # ``uniform(0.0, jitter_s)`` is ``0.0 + jitter_s * random()``:
            # the same single draw and the same float, without the wrapper.
            airtime += config.jitter_s * self._jitter_rng.random()
        runtime = self._owner_runtime
        san = runtime.san
        if san is not None:
            self._channel_cell.note_read()
        start = self._channel_free_at
        if start < now:
            start = now
        finish = start + airtime
        if san is not None:
            self._channel_cell.note_write()
        self._channel_free_at = finish
        self.frames_transmitted += 1
        self.total_airtime += airtime
        prof = runtime.prof
        if prof is not None:
            station = frame.source.station
            entry = (
                self._prof_stations.get(station)
                if prof is self._prof and san is None
                else None
            )
            if entry is not None:
                entry[0] += airtime
                entry[1] += 1.0
            else:
                self._prof_stations = prof.on_airtime(self, station, airtime)
                self._prof = prof
        delivery_time = finish + config.propagation_delay_s

        # A partitioned sender still transmits (burning airtime), but the
        # destination cannot hear it.
        partitioned = bool(self._blocked_pairs) and self.is_blocked(
            frame.source.station, frame.destination.station
        )
        lost = False
        if not partitioned:
            loss_rate = (
                self._loss_rate_at(start) if self._interference else config.loss_rate
            )
            for degradation in degradations:
                if degradation.burst is not None:
                    loss_rate = max(loss_rate, degradation.burst.step())
            lost = loss_rate > 0.0 and self._loss_rng.random() < loss_rate
        tracer = self._tracer
        if tracer is not None and tracer.wants("wlan.transmit"):
            fields = {
                "frame_id": frame.frame_id,
                "src": str(frame.source),
                "dst": str(frame.destination),
                "size": wire_size,
                "queued_s": start - now,
                "lost": lost or partitioned,
            }
            if partitioned:
                fields["reason"] = "partition"
            tracer.emit_fields(now, "wlan", "wlan.transmit", fields)
        if partitioned:
            self.frames_partitioned += 1
            return
        if lost:
            self.frames_lost += 1
            return
        self._kernel.schedule_at(delivery_time, self._deliver, frame)

    def _deliver(self, frame: Frame) -> None:
        interface = self._interfaces.get(frame.destination.station)
        if interface is None:
            return  # station detached while the frame was in flight
        interface.deliver(frame)

    @property
    def channel_backlog(self) -> float:
        """Seconds of airtime currently queued ahead of a new frame."""
        return max(0.0, self._channel_free_at - self._kernel._now)

    def utilization(self) -> float:
        """Fraction of elapsed virtual time the channel has been busy."""
        elapsed = self._kernel.now
        return self.total_airtime / elapsed if elapsed > 0 else 0.0

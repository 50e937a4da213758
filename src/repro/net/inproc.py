"""In-process medium for the real (asyncio) runtime.

Frames wait in one FIFO that a single ``call_soon`` callback drains in
global send order, at most :data:`BURST_FRAMES` per turn of the loop (with
a fixed latency configured, each frame rides its own ``call_later``).
This is the transport the runnable examples use: the same middleware classes
that run on the simulated WLAN run here under wall-clock time.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.net.frame import Frame
from repro.net.medium import Medium
from repro.util.validate import require_non_negative

__all__ = ["BURST_FRAMES", "InprocNetwork"]

#: Frames one drain delivers before it yields to the loop's timers and other
#: callbacks: ≈ 1 ms of loop hold on the reference host. Swept on
#: ``real_pubsub_qos0`` at 4 / 16 / 64 / 1024: +11 / +17 / +22 / +23 % msgs/s.
BURST_FRAMES = 64


class InprocNetwork(Medium):
    """Loss-free, ordered in-process frame delivery.

    Parameters
    ----------
    loop:
        The asyncio loop to deliver through.
    latency_s:
        Fixed one-way delivery latency; 0 delivers on a later turn of the
        loop, never inside ``transmit``'s caller.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        latency_s: float = 0.0,
    ) -> None:
        super().__init__()
        self._loop = loop
        self.latency_s = require_non_negative(latency_s, "latency_s")
        self.frames_transmitted = 0
        self._queue: deque[Frame] = deque()
        self._draining = False  # a ``_drain`` is pending on the loop

    def transmit(self, frame: Frame) -> None:
        self.frames_transmitted += 1
        if self.is_blocked(frame.source.station, frame.destination.station):
            return  # partitioned: the datagram vanishes, as on a real cut
        if self.latency_s > 0.0:
            self._loop.call_later(self.latency_s, self._deliver, frame)
            return
        self._queue.append(frame)
        if not self._draining:
            self._draining = True
            self._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Deliver queued frames, those transmitted meanwhile included, in
        send order, until the queue is empty or the burst is spent."""
        queue = self._queue
        try:
            for _ in range(BURST_FRAMES):
                if not queue:
                    break
                self._deliver(queue.popleft())
        finally:
            # Also on a raising receiver: the loop's exception handler gets
            # the error, the frames behind it get the next turn.
            if queue:
                self._loop.call_soon(self._drain)
            else:
                self._draining = False

    def _deliver(self, frame: Frame) -> None:
        interface = self._interfaces.get(frame.destination.station)
        if interface is None:
            return
        interface.deliver(frame)

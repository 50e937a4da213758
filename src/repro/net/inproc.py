"""In-process medium for the real (asyncio) runtime.

Frames are delivered through the event loop's ``call_soon`` (or, when a
fixed latency is configured, ``call_later``), preserving global send order.
This is the transport the runnable examples use: the same middleware classes
that run on the simulated WLAN run here under wall-clock time.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.net.frame import Frame
from repro.net.medium import Medium
from repro.util.validate import require_non_negative

__all__ = ["InprocNetwork"]


class InprocNetwork(Medium):
    """Loss-free, ordered in-process frame delivery.

    Parameters
    ----------
    loop:
        The asyncio loop to deliver through.
    latency_s:
        Fixed one-way delivery latency; 0 delivers on the next loop tick.
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

    def transmit(self, frame: Frame) -> None:
        self.frames_transmitted += 1
        if self.is_blocked(frame.source.station, frame.destination.station):
            return  # partitioned: the datagram vanishes, as on a real cut
        deliver: Callable[[Frame], None] = self._deliver
        if self.latency_s > 0.0:
            self._loop.call_later(self.latency_s, deliver, frame)
        else:
            self._loop.call_soon(deliver, frame)

    def _deliver(self, frame: Frame) -> None:
        interface = self._interfaces.get(frame.destination.station)
        if interface is None:
            return
        interface.deliver(frame)

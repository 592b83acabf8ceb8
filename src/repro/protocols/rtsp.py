"""RTSP media streaming directly from the storage system (§1, §8).

Unlike bulk HTTP/FTP, a media session is *paced*: frames must leave at the
content bit rate, and quality of service is measured in rebuffer events,
not throughput.  The engine runs on the controller blade, reading ahead of
the play point into a session buffer; §8's "extremely high data rates and
high quality of service" claim becomes: sessions suffer no rebuffering as
long as the storage path sustains the aggregate content rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..sim.events import Event
from ..sim.units import mib

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: storage_read(nbytes) -> Event
StorageRead = Callable[[int], Event]


@dataclass
class SessionStats:
    """QoS outcome of one RTSP session."""

    duration: float
    delivered_bytes: int
    rebuffer_events: int
    rebuffer_time: float
    startup_delay: float

    @property
    def smooth(self) -> bool:
        return self.rebuffer_events == 0


class RtspSession:
    """One paced media session fed from the storage path."""

    def __init__(self, sim: "Simulator", storage_read: StorageRead,
                 bit_rate: float, duration: float,
                 segment_bytes: int = mib(1),
                 buffer_target: int = 4, name: str = "rtsp") -> None:
        if bit_rate <= 0 or duration <= 0:
            raise ValueError("bit_rate and duration must be > 0")
        if buffer_target < 1:
            raise ValueError("buffer_target must be >= 1")
        self.sim = sim
        self.storage_read = storage_read
        self.byte_rate = bit_rate / 8.0
        self.duration = duration
        self.segment_bytes = segment_bytes
        self.buffer_target = buffer_target
        self.name = name
        self._buffered_segments = 0
        self._total_segments = max(
            1, int(self.byte_rate * duration / segment_bytes))
        self._fetched = 0

    def play(self) -> Event:
        """Run the session; event value is :class:`SessionStats`."""
        return self.sim.process(self._run(), name=self.name)

    def _run(self):
        start = self.sim.now
        # Prefill the session buffer (startup delay).
        yield from self._fill()
        startup = self.sim.now - start
        self.sim.process(self._reader(), name=f"{self.name}.reader")
        segment_time = self.segment_bytes / self.byte_rate
        rebuffers = 0
        rebuffer_time = 0.0
        played = 0
        while played < self._total_segments:
            if self._buffered_segments == 0:
                # Stall: wait until the reader catches up.
                stall_start = self.sim.now
                rebuffers += 1
                while self._buffered_segments == 0 \
                        and self._fetched < self._total_segments:
                    yield self.sim.timeout(segment_time / 8)
                rebuffer_time += self.sim.now - stall_start
            self._buffered_segments -= 1
            played += 1
            yield self.sim.timeout(segment_time)
        return SessionStats(
            duration=self.sim.now - start,
            delivered_bytes=played * self.segment_bytes,
            rebuffer_events=rebuffers,
            rebuffer_time=rebuffer_time,
            startup_delay=startup)

    def _fill(self):
        while self._buffered_segments < self.buffer_target \
                and self._fetched < self._total_segments:
            yield self.storage_read(self.segment_bytes)
            self._fetched += 1
            self._buffered_segments += 1

    def _reader(self):
        """Background read-ahead keeping the buffer at its target."""
        while self._fetched < self._total_segments:
            if self._buffered_segments >= self.buffer_target:
                # Paced: no need to race ahead of the play point.
                yield self.sim.timeout(
                    self.segment_bytes / self.byte_rate / 2)
                continue
            yield self.storage_read(self.segment_bytes)
            self._fetched += 1
            self._buffered_segments += 1


def run_sessions(sim: "Simulator", storage_read: StorageRead, count: int,
                 bit_rate: float, duration: float, **kwargs) -> list[Event]:
    """Start ``count`` concurrent sessions against one storage path."""
    return [RtspSession(sim, storage_read, bit_rate, duration,
                        name=f"rtsp{i}", **kwargs).play()
            for i in range(count)]

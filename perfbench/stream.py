"""Open-loop generator of service-stream.

Runs in the benchmark's own process, single-threaded on asyncio, with two
loopback connections to the service host: one sends each tick's five
pipelined ``apply`` frames and a ``tick`` frame on a fixed schedule, the
other is subscribed and receives the deltas.  Each tick's batch is built
just before the tick is due, never from server state.

Every latency is timed from the time its frame was *due*, so a stall in
the service (or the generator) is charged to the frames it delayed, and
how late the generator itself ran is recorded per frame.

The generator first sends :data:`RUNG_TICKS` ticks at :data:`RATE` ticks
a second (the rung), which passes when its ``delta_p95_ms`` is at most
:data:`DELTA_LIMIT_MS`, every tick's delta arrived, and the backlog
(frames sent but not yet acked) did not grow; latencies are reported from
it.  Then a burst of :data:`BURST_TICKS` ticks is sent back to back, and
what the service delivered per second during it is its capacity
(:func:`stream_figures`).
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.events import encode_batch
from repro.service.protocol import decode_payload, encode_frame

from perfbench import stats
from perfbench.inputs import APPLY_PARTS, batch_size, split_batch

#: Ticks of the rung.  A checkpoint every 16 ticks stalls the ticks behind
#: it, and those make the tail: 400 ticks hold 25 checkpoints, so the p95
#: does not hinge on a dozen of them, and give 2000 apply acks.
RUNG_TICKS = 400

#: Ticks a second of the rung.
RATE = 10

#: A rung fails when its delta p95 exceeds this.
DELTA_LIMIT_MS = 250.0

#: Frames a tick sends: the apply frames and the tick frame.
FRAMES_PER_TICK = APPLY_PARTS + 1

#: A rung is cut short, and fails, once this many seconds of offered
#: frames are outstanding.
ABORT_BACKLOG_SECONDS = 1.0

#: Ticks of the capacity burst.
BURST_TICKS = 400

#: Figures of :func:`stream_figures` taken from the burst; the rest come
#: from the rung.
BURST_FIGURES = ("updates_per_s", "sustained_ticks_per_s")

#: How long before its due time a tick's batch is built.
BUILD_LEAD = 0.03

#: Seconds to wait for outstanding acks and deltas after a rung.
DRAIN_TIMEOUT = 60.0

_LENGTH = struct.Struct("<I")


async def read_message(reader: asyncio.StreamReader):
    """One protocol frame: ``(message, frame bytes)``."""
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    payload = await reader.readexactly(length)
    return decode_payload(payload), _LENGTH.size + length


async def sleep_until(moment: float) -> None:
    """Sleep until ``perf_counter()`` reaches *moment*."""
    delay = moment - perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


@dataclass
class Sent:
    """One request frame in flight."""

    kind: str
    due: float
    sent: float
    size: int
    done: Optional[float] = None
    reply: object = None
    future: Optional[asyncio.Future] = None


@dataclass
class TickRecord:
    """One scheduled tick: its frames, backlog at send time, and delta."""

    timestamp: int
    due: float
    frames: List[Sent]
    updates: int
    backlog: int
    delta_at: Optional[float] = None
    delta_bytes: int = 0


@dataclass
class Rung:
    """The outcome of a run of ticks at one rate (0 for the burst)."""

    rate: int
    ticks: List[TickRecord] = field(default_factory=list)
    cut_short: bool = False
    missing_deltas: int = 0

    def delta_ms(self) -> List[float]:
        return [(t.delta_at - t.due) * 1000.0 for t in self.ticks if t.delta_at is not None]

    def backlog_grew(self) -> bool:
        """True when the last quarter's median backlog exceeds the first's
        by more than one tick's frames."""
        quarter = max(1, len(self.ticks) // 4)
        first = stats.median([t.backlog for t in self.ticks[:quarter]])
        last = stats.median([t.backlog for t in self.ticks[-quarter:]])
        return last > first + FRAMES_PER_TICK

    def passed(self) -> bool:
        if self.cut_short or self.missing_deltas or len(self.ticks) < RUNG_TICKS:
            return False
        return (
            stats.percentile(self.delta_ms(), 95) <= DELTA_LIMIT_MS
            and not self.backlog_grew()
        )

    def window(self) -> Tuple[float, float]:
        """From the first due time to the last delta received."""
        received = [t.delta_at for t in self.ticks if t.delta_at is not None]
        first = self.ticks[0].due
        return first, max(received, default=first)

    def _delivery_window(self) -> float:
        start, end = self.window()
        return end - start

    def delivered_tick_rate(self) -> float:
        """Deltas delivered per second, first due time to last delta."""
        delivered = sum(1 for t in self.ticks if t.delta_at is not None)
        return stats.ratio(delivered, self._delivery_window())

    def delivered_update_rate(self) -> float:
        """Updates of delivered ticks per second, over the same window."""
        updates = sum(t.updates for t in self.ticks if t.delta_at is not None)
        return stats.ratio(updates, self._delivery_window())

    def max_ack_ms(self) -> float:
        """The slowest apply frame's ack, from its due time."""
        return max(
            ((f.done - f.due) * 1000.0 for t in self.ticks for f in t.frames
             if f.kind == "apply" and f.done is not None),
            default=0.0,
        )


class StreamClient:
    """The generator's two connections and the bookkeeping behind them."""

    def __init__(self, feed, first_timestamp: int) -> None:
        self.feed = feed
        self.timestamp = first_timestamp
        self.errors = 0
        self.duplicate_deltas = 0
        self._outstanding: deque = deque()
        self._by_timestamp: Dict[int, TickRecord] = {}
        self._tasks: List[asyncio.Task] = []

    async def open(self, host: str, port: int) -> None:
        self._sub_reader, self._sub_writer = await asyncio.open_connection(host, port)
        self._sub_writer.write(encode_frame(("subscribe",)))
        await self._sub_writer.drain()
        reply, _ = await read_message(self._sub_reader)
        if reply != ("ok", True):
            raise RuntimeError(f"subscribe was refused: {reply!r}")
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._tasks = [
            asyncio.create_task(self._read_replies()),
            asyncio.create_task(self._read_deltas()),
        ]

    async def _read_replies(self) -> None:
        while True:
            try:
                message, _ = await read_message(self._reader)
            except asyncio.IncompleteReadError:
                return
            entry = self._outstanding.popleft()
            entry.done = perf_counter()
            entry.reply = message
            if not (isinstance(message, tuple) and message and message[0] == "ok"):
                self.errors += 1
            if entry.future is not None:
                entry.future.set_result(message)

    async def _read_deltas(self) -> None:
        while True:
            try:
                message, size = await read_message(self._sub_reader)
            except asyncio.IncompleteReadError:
                return
            arrived = perf_counter()
            if not (isinstance(message, tuple) and message and message[0] == "delta"):
                continue
            record = self._by_timestamp.get(message[1])
            if record is None:
                continue
            if record.delta_at is not None:
                self.duplicate_deltas += 1
                continue
            record.delta_at = arrived
            record.delta_bytes = size

    async def request(self, *message):
        """Send one request and wait for its reply (outside the rung and burst)."""
        future = asyncio.get_running_loop().create_future()
        now = perf_counter()
        self._outstanding.append(Sent(message[0], now, now, 0, future=future))
        self._writer.write(encode_frame(tuple(message)))
        await self._writer.drain()
        return await future

    async def _send_tick(self, rung: Rung, due) -> TickRecord:
        """Build the next tick's frames and send them at *due* (None: at once)."""
        # Build in steps, yielding between them, so replies that arrive
        # meanwhile are timestamped when they arrive, not after the build.
        batch = self.feed.batch(self.timestamp)
        payloads = []
        for chunk in split_batch(batch):
            await asyncio.sleep(0)
            payloads.append(encode_frame(("apply", encode_batch(chunk))))
        payloads.append(encode_frame(("tick",)))
        if due is None:
            due = perf_counter()
        await sleep_until(due)
        backlog = len(self._outstanding)
        sent = perf_counter()
        frames = []
        for position, payload in enumerate(payloads):
            kind = "tick" if position == APPLY_PARTS else "apply"
            entry = Sent(kind, due, sent, len(payload))
            self._outstanding.append(entry)
            frames.append(entry)
            self._writer.write(payload)
        record = TickRecord(self.timestamp, due, frames, batch_size(batch), backlog)
        self._by_timestamp[self.timestamp] = record
        rung.ticks.append(record)
        self.timestamp += 1
        await self._writer.drain()
        return record

    async def run_rung(self, rate: int, ticks: int) -> Rung:
        """Send *ticks* ticks at *rate* per second, then drain."""
        rung = Rung(rate)
        interval = 1.0 / rate
        lead = min(BUILD_LEAD, interval / 2)
        abort_at = ABORT_BACKLOG_SECONDS * rate * FRAMES_PER_TICK
        start = perf_counter() + 0.05
        for index in range(ticks):
            due = start + index * interval
            await sleep_until(due - lead)
            record = await self._send_tick(rung, due)
            if record.backlog > abort_at:
                rung.cut_short = True
                break
        await self._drain(rung)
        return rung

    async def run_burst(self, ticks: int = BURST_TICKS) -> Rung:
        """Send *ticks* ticks back to back, each as soon as it is built."""
        rung = Rung(0)
        for _ in range(ticks):
            await self._send_tick(rung, None)
        await self._drain(rung)
        return rung

    async def _drain(self, rung: Rung) -> None:
        deadline = perf_counter() + DRAIN_TIMEOUT
        while perf_counter() < deadline:
            if not self._outstanding and all(t.delta_at is not None for t in rung.ticks):
                break
            await asyncio.sleep(0.005)
        rung.missing_deltas = sum(1 for t in rung.ticks if t.delta_at is None)

    async def close(self) -> None:
        for writer in (self._writer, self._sub_writer):
            writer.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for writer in (self._writer, self._sub_writer):
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


def stream_figures(rung: Rung, burst: Rung) -> Dict[str, float]:
    """End-to-end figures of the rung and the burst after it.

    Latencies come from the rung and are timed from due times.  Throughput
    is what the burst delivered: ticks and updates per second from its
    first send to its last delta.
    """
    applies = [f for t in rung.ticks for f in t.frames if f.kind == "apply"]
    ticks = [f for t in rung.ticks for f in t.frames if f.kind == "tick"]
    ack = stats.latencies_from_due([f.due for f in applies], [f.done for f in applies])
    tick = stats.latencies_from_due([f.due for f in ticks], [f.done for f in ticks])
    delta = rung.delta_ms()
    return {
        "tick_p50_ms": stats.percentile(tick, 50) * 1000.0,
        "tick_p95_ms": stats.percentile(tick, 95) * 1000.0,
        "ingest_ack_p50_ms": stats.percentile(ack, 50) * 1000.0,
        "ingest_ack_p99_ms": stats.percentile(ack, 99) * 1000.0,
        "delta_p50_ms": stats.percentile(delta, 50),
        "delta_p95_ms": stats.percentile(delta, 95),
        "updates_per_s": burst.delivered_update_rate(),
        "sustained_ticks_per_s": burst.delivered_tick_rate(),
    }


def frame_lateness_ms(rung: Rung) -> List[float]:
    """How late each frame of *rung* was sent, in ms."""
    frames = [f for t in rung.ticks for f in t.frames]
    return [late * 1000.0 for late in stats.lateness(
        [f.due for f in frames], [f.sent for f in frames])]

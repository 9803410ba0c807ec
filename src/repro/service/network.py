"""A deterministic simulated unreliable network (labrpc-style, no threads).

Messages between named endpoints suffer seeded faults — drops, duplicates,
variable delays (hence reordering) — and dynamic conditions: endpoints can
be taken down (server crashes) and the membership can be partitioned.
Everything runs in one process on a logical tick clock: delivery is a heap
ordered by ``(deliver_at, seq)``, so a given seed replays the exact same
fault schedule, message for message.

Two endpoint flavours:

* **handler** endpoints (servers): delivery invokes the handler with the
  payload; a returned reply payload is sent back through the network and
  suffers its own faults — a lost reply after an applied write is exactly
  the case client idempotency tokens exist for;
* **inbox** endpoints (clients): deliveries append to the inbox for the
  owner to drain.

Fault decisions are made at both ends, like labrpc: drops/duplicates at
send time, down/partition checks at delivery time — so a message in flight
when the server crashes is genuinely lost.

With a :class:`~repro.observability.Tracer` attached, every scheduled
message whose payload carries a trace context (``payload["trace"] =
{"id": trace_id, "span": span_id}``, attached by :class:`~repro.service.
client.Client`) becomes a ``net.msg`` span from send tick to delivery
tick, parented under the originating request span and closed with its
``fate`` (``delivered`` / ``lost-down`` / ``lost-partition`` /
``lost-crash``); drops at send time emit a ``net.drop`` event.  A metrics
registry's logical clock is kept in sync with the network tick clock, so
engine lock wait/hold durations are measured in ticks.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Queue entries: ``(deliver_at, seq, src, dst, payload, span)`` — the heap
#: only ever compares ``(deliver_at, seq)`` since ``seq`` is unique.
_Message = Tuple[int, int, str, str, Dict[str, Any], Optional[object]]

from .config import NetworkConfig

__all__ = ["SimulatedNetwork"]

_Handler = Callable[[Dict[str, Any], str], Optional[Dict[str, Any]]]


class SimulatedNetwork:
    """Seeded fault-injecting message switch on a logical clock."""

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        *,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.config = config or NetworkConfig()
        self.rng = random.Random(self.config.seed)
        self.now = 0
        self._seq = 0
        self._queue: List[_Message] = []
        self._handlers: Dict[str, _Handler] = {}
        self._inboxes: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        self._down: set[str] = set()
        self._group: Dict[str, int] = {}  # partition id per endpoint
        self.counters = {
            "sent": 0,
            "delivered": 0,
            "dropped": 0,
            "duplicated": 0,
            "lost_down": 0,
            "lost_partition": 0,
        }
        self.metrics = metrics
        self.tracer = tracer
        #: ``service_messages_total{kind}`` series, bound at first use.
        self._message_counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def register_handler(self, name: str, handler: _Handler) -> None:
        self._handlers[name] = handler

    def register_inbox(self, name: str) -> List[Tuple[str, Dict[str, Any]]]:
        return self._inboxes.setdefault(name, [])

    def down(self, name: str) -> None:
        """Take an endpoint down; in-flight and future messages to it are
        lost until :meth:`up`."""
        self._down.add(name)

    def up(self, name: str) -> None:
        self._down.discard(name)

    def flush(self, name: str) -> int:
        """Drop queued messages to or from an endpoint *now* — a crash
        loses the process's buffers even if it restarts before the
        messages' delivery ticks would have come up."""
        keep: List[_Message] = []
        lost = 0
        for m in self._queue:
            if name in (m[2], m[3]):
                lost += 1
                if m[5] is not None:
                    m[5].end(fate="lost-crash")
            else:
                keep.append(m)
        if lost:
            # In place: delivery sweeps may hold a reference to the list.
            self._queue[:] = keep
            heapq.heapify(self._queue)
            self._count("lost_down", lost)
        return lost

    def is_up(self, name: str) -> bool:
        return name not in self._down

    def set_partition(self, *groups: tuple) -> None:
        """Split the network: endpoints in different groups cannot reach
        each other (unlisted endpoints stay mutually reachable in an
        implicit extra group)."""
        self._group = {
            name: i for i, group in enumerate(groups) for name in group
        }
        if self.tracer is not None:
            self.tracer.event(
                "net.partition", groups=[sorted(g) for g in groups]
            )

    def heal(self) -> None:
        self._group = {}
        if self.tracer is not None:
            self.tracer.event("net.heal")

    def reachable(self, src: str, dst: str) -> bool:
        return self._group.get(src, -1) == self._group.get(dst, -1)

    # ------------------------------------------------------------------
    # sending and delivery
    # ------------------------------------------------------------------

    def _count(self, kind: str, amount: int = 1) -> None:
        self.counters[kind] += amount
        if self.metrics is not None:
            counter = self._message_counters.get(kind)
            if counter is None:
                counter = self._message_counters[kind] = self.metrics.counter(
                    "service_messages_total", "service network messages by fate"
                ).labels(kind=kind)
            counter.inc(amount)

    def _msg_span(
        self, src: str, dst: str, payload: Dict[str, Any], duplicate: bool
    ) -> object:
        ctx = payload.get("trace")
        return self.tracer.span(
            "net.msg",
            stack=False,
            parent=ctx.get("span") if ctx else None,
            src=src,
            dst=dst,
            verb=payload.get("kind"),
            rid=payload.get("rid"),
            trace_id=ctx.get("id") if ctx else None,
            duplicate=duplicate,
        )

    def _schedule(
        self, src: str, dst: str, payload: Dict[str, Any], *,
        duplicate: bool = False,
    ) -> None:
        config = self.config
        delay = (
            config.min_delay
            if config.min_delay == config.max_delay
            else self.rng.randint(config.min_delay, config.max_delay)
        )
        self._seq += 1
        span = (
            self._msg_span(src, dst, payload, duplicate)
            if self.tracer is not None
            else None
        )
        heapq.heappush(
            self._queue, (self.now + delay, self._seq, src, dst, payload, span)
        )

    def send(self, src: str, dst: str, payload: Dict[str, Any]) -> None:
        """Send one message, subject to the fault schedule."""
        if self.metrics is None:
            self.counters["sent"] += 1
        else:
            self._count("sent")
        if self.config.drop and self.rng.random() < self.config.drop:
            self._count("dropped")
            if self.tracer is not None:
                ctx = payload.get("trace")
                self.tracer.event(
                    "net.drop",
                    span=ctx.get("span") if ctx else None,
                    src=src,
                    dst=dst,
                    verb=payload.get("kind"),
                    rid=payload.get("rid"),
                    trace_id=ctx.get("id") if ctx else None,
                )
            return
        self._schedule(src, dst, payload)
        if self.config.duplicate and self.rng.random() < self.config.duplicate:
            self._count("duplicated")
            self._schedule(src, dst, payload, duplicate=True)

    def timer(
        self, dst: str, payload: Dict[str, Any], *, delay: int,
        src: Optional[str] = None, span: Optional[object] = None,
    ) -> None:
        """Schedule a fault-free delivery: ``payload`` reaches ``dst``
        exactly ``delay`` ticks from now, from ``src`` (itself when
        unset).

        Timers draw nothing from the fault RNG — no drop, duplicate or
        delay decisions — so arming one never perturbs the seeded fault
        schedule of real traffic.  The cluster's 2PC coordinator uses
        timers for retransmission deadlines; being self-addressed they
        survive partitions (an endpoint is always in its own group).
        The replication stream passes ``src=`` explicitly — a primary's
        batch to a backup is lossless and seeded-lag by construction, but
        still respects crashes and partitions because delivery checks
        both real endpoints.  ``span`` rides in the message's span slot
        and is closed with the delivery ``fate`` exactly like a traced
        ``net.msg`` (the replication stream's ``repl.ship`` spans)."""
        if delay < 1:
            raise ValueError("timer delay must be >= 1 tick")
        self._seq += 1
        heapq.heappush(
            self._queue,
            (self.now + delay, self._seq, src or dst, dst, payload, span),
        )

    def _sync_clock(self) -> None:
        """Keep an attached registry's logical clock on the network tick
        clock, so engine durations (lock wait/hold) are in ticks."""
        if self.metrics is not None and self.metrics.clock < self.now:
            self.metrics.clock = self.now

    def step(self) -> bool:
        """Deliver the next queued message (advancing the clock to its
        delivery tick); returns False when the queue is empty."""
        if not self._queue:
            return False
        deliver_at, _seq, src, dst, payload, span = heapq.heappop(self._queue)
        if deliver_at > self.now:
            self.now = deliver_at
        metrics = self.metrics
        if metrics is not None:
            self._sync_clock()
        if dst in self._down or src in self._down:
            self._count("lost_down")
            if span is not None:
                span.end(fate="lost-down")
            return True
        if self._group and not self.reachable(src, dst):
            self._count("lost_partition")
            if span is not None:
                span.end(fate="lost-partition")
            return True
        if metrics is None:
            self.counters["delivered"] += 1
        else:
            self._count("delivered")
        if span is not None:
            span.end(fate="delivered")
        handler = self._handlers.get(dst)
        if handler is not None:
            reply = handler(payload, src)
            if reply is not None:
                self.send(dst, src, reply)
        else:
            self._inboxes.setdefault(dst, []).append((src, payload))
        return True

    def drain_due(self) -> int:
        """Batch delivery: pop the next queued message (advancing the
        clock to its tick) and then every further message due by the new
        ``now`` — including zero-delay replies scheduled during the sweep —
        in one call, in heap order.  Returns the number of messages
        processed (0 with an idle queue).  One network call delivers the
        whole tick's backlog instead of bouncing through the driver loop
        once per message.
        """
        # The alias stays valid across a crash triggered inside a delivery:
        # ``flush`` edits the queue list in place, it never rebinds it.
        queue = self._queue
        count = 0
        while queue and (count == 0 or queue[0][0] <= self.now):
            self.step()
            count += 1
        return count

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def advance(self, ticks: int = 1) -> None:
        """Let idle time pass (client backoffs with an empty queue)."""
        self.now += ticks
        self._sync_clock()

    def run_until(
        self, done: Callable[[], bool], *, max_ticks: int = 100_000
    ) -> bool:
        """Step deliveries until ``done()`` or the clock budget runs out;
        with an empty queue, time idles forward one tick at a time."""
        deadline = self.now + max_ticks
        while not done():
            if self.now > deadline:
                return False
            if not self.step():
                self.advance()
        return True

    @property
    def pending(self) -> int:
        return len(self._queue)

    def queued_by_destination(self) -> Dict[str, int]:
        """Queued (sent, not yet delivered) messages per destination
        endpoint — observation only."""
        return Counter(message[3] for message in self._queue)

    def __repr__(self) -> str:
        return (
            f"<SimulatedNetwork t={self.now} pending={self.pending} "
            f"{self.counters}>"
        )

"""Layer spans for the ladder benchmark, recorded from outside the program.

The traced repeat of a workload wraps the public callables of each layer
(class-level, in the benchmark process only, and only while
:meth:`SpanLog.installed` is active) with a ``perf_counter`` span stack.
Each span records its name, start, end and the span that caused it; the
records stay in memory and are aggregated when the repeat ends.

A layer's *self time* is the duration of its spans minus the part their
child spans cover.  The root span is the timed call itself, so the layer
self times sum to the traced wall by construction.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from types import FunctionType
from typing import Dict, Iterator, List, Tuple

__all__ = ["LAYERS", "TARGETS", "Aggregate", "SpanLog"]

#: ``(layer, module, owner, attributes)`` — the layer boundaries.  ``owner``
#: is a class name, or ``None`` for a module-level function.  Every
#: attribute must be a plain function defined on that owner itself:
#: :meth:`SpanLog.installed` raises otherwise, so a rename in ``src/``
#: breaks the benchmark loudly instead of silently zeroing a layer.
TARGETS: Tuple[Tuple[str, str, object, Tuple[str, ...]], ...] = (
    ("client", "repro.service.client", "PendingCall", ("poll",)),
    ("client", "repro.service.client", "Client", ("submit", "close_trace")),
    (
        "network",
        "repro.service.network",
        "SimulatedNetwork",
        ("send", "step", "drain_due", "timer", "advance"),
    ),
    (
        "server",
        "repro.service.server",
        "Server",
        ("handle", "flush_certification", "crash", "restart"),
    ),
    ("history", "repro.service.server", "Server", ("history",)),
    ("history", "repro.service.cluster", "Cluster", ("history",)),
    ("history", "repro.core.formatting", None, ("format_history",)),
    (
        "cluster",
        "repro.service.cluster",
        "ShardServer",
        ("handle", "crash", "restart"),
    ),
    (
        "cluster",
        "repro.service.cluster",
        "Cluster",
        (
            "tick",
            "resolve_deadlock",
            "certify",
            "settle",
            "flush_certification",
        ),
    ),
    ("cluster", "repro.service.cluster", "GlobalCertifier", ("feed",)),
    ("coordinator", "repro.service.coordinator", "Coordinator", ("handle",)),
    (
        "replication",
        "repro.service.replication",
        "ReplicaServer",
        ("handle", "apply"),
    ),
    ("replication", "repro.engine.recorder", "HistoryRecorder", ("apply_entry",)),
    ("engine", "repro.engine.database", "Database", ("begin", "load")),
    (
        "engine",
        "repro.engine.database",
        "TransactionHandle",
        ("read", "write", "commit", "abort"),
    ),
    ("engine", "repro.engine.simulator", "Simulator", ("run",)),
    (
        "locks",
        "repro.engine.locks",
        "LockManager",
        (
            "acquire_item",
            "release_item",
            "release_all",
            "downgrade_or_release_read",
        ),
    ),
    (
        "recorder",
        "repro.engine.recorder",
        "HistoryRecorder",
        ("begin", "read", "write", "commit", "abort", "history"),
    ),
    (
        "incremental",
        "repro.core.incremental",
        "IncrementalAnalysis",
        ("add", "finish", "provides", "exhibits", "strongest_level"),
    ),
    ("observability", "repro.observability.trace", "Tracer", ("span", "event")),
    ("observability", "repro.observability.trace", "Span", ("set", "event", "end")),
    (
        "observability",
        "repro.observability.metrics",
        "MetricsRegistry",
        ("tick", "counter", "gauge", "histogram"),
    ),
    ("observability", "repro.observability.metrics", "Counter", ("inc", "labels")),
    ("observability", "repro.observability.metrics", "_BoundCounter", ("inc",)),
    ("observability", "repro.observability.metrics", "Gauge", ("set", "inc", "dec")),
    ("observability", "repro.observability.metrics", "Histogram", ("observe",)),
    (
        "observability",
        "repro.observability.flight",
        "FlightRecorder",
        ("attach", "bind", "on_phenomenon", "check_slos"),
    ),
)

#: Every layer a span can belong to: the wrapped ones plus the three a
#: root span may name (``stress`` = ``run_stress`` itself, ``checker`` =
#: ``repro.check`` itself, ``bench`` = the benchmark's own feeding loop).
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([t[0] for t in TARGETS] + ["stress", "checker", "bench"])
)


@dataclass
class Aggregate:
    """One traced repeat, summed up."""

    #: Root span duration: the traced wall of the timed call.
    wall_s: float
    #: Calls per span name (exact, deterministic per seed).
    calls: Dict[str, int]
    #: Self seconds per span name.
    self_by_name: Dict[str, float]
    #: Inclusive seconds per span name.
    total_by_name: Dict[str, float]
    #: Self seconds per layer; the values sum to :attr:`wall_s`.
    self_by_layer: Dict[str, float]


class SpanLog:
    """In-memory span records plus the wrappers that write them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self._ids: Dict[str, int] = {}
        # Parallel arrays, one slot per span; cleared in place so the
        # wrappers can keep bound ``append`` methods.
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._current = -1

    def reset(self) -> None:
        for column in (self._name_id, self._parent, self._start, self._end):
            del column[:]
        self._current = -1

    def _intern(self, name: str, layer: str) -> int:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r} for span {name!r}")
        known = self.layer_of.setdefault(name, layer)
        if known != layer:
            raise ValueError(f"span {name!r} is already in layer {known!r}")
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with a span around every call."""
        nid = self._intern(name, layer)
        add_name = self._name_id.append
        add_parent = self._parent.append
        add_start = self._start.append
        add_end = self._end.append
        starts, ends, parents = self._start, self._end, self._parent

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(starts)
            add_name(nid)
            add_parent(self._current)
            add_end(0.0)
            self._current = index
            add_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                self._current = parents[index]

        return spanned

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code (root spans
        and the per-family sections of ``engine_direct``)."""
        nid = self._intern(name, layer)
        index = len(self._start)
        self._name_id.append(nid)
        self._parent.append(self._current)
        self._end.append(0.0)
        self._current = index
        self._start.append(perf_counter())
        try:
            yield
        finally:
            self._end[index] = perf_counter()
            self._current = self._parent[index]

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every :data:`TARGETS` callable for the duration of the
        block, restoring the originals afterwards.  Objects built inside
        the block bind the wrapped methods; build none outside and reuse
        it inside."""
        undo = []
        try:
            for layer, module_name, owner_name, attrs in TARGETS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                label = module_name.rsplit(".", 1)[-1] if owner_name is None else owner_name
                for attr in attrs:
                    original = vars(owner).get(attr)
                    if not isinstance(original, FunctionType):
                        raise TypeError(
                            f"{module_name}.{label}.{attr} is not a plain "
                            f"function defined there (got {original!r}); "
                            "update benchmarks/ladder/spans.py TARGETS"
                        )
                    setattr(
                        owner, attr, self.wrap(original, f"{label}.{attr}", layer)
                    )
                    undo.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def aggregate(self) -> Aggregate:
        """Sum the recorded spans: calls and self/inclusive time per name,
        self time per layer.  A span's duration is added to its own name
        and taken from its parent's, which is self = duration − children."""
        n = len(self._start)
        if not n or self._current != -1:
            raise RuntimeError("aggregate() needs a finished root span")
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        name_id, parent, start, end = (
            self._name_id, self._parent, self._start, self._end,
        )
        roots = 0
        wall = 0.0
        for i in range(n):
            nid = name_id[i]
            duration = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += duration
            total_s[nid] += duration
            p = parent[i]
            if p >= 0:
                self_s[name_id[p]] -= duration
            else:
                roots += 1
                wall += duration
        if roots != 1:
            raise RuntimeError(f"expected one root span, found {roots}")
        by_layer = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            by_layer[self.layer_of[name]] += self_s[nid]
        return Aggregate(
            wall_s=wall,
            calls={name: calls[i] for i, name in enumerate(self.names)},
            self_by_name={name: self_s[i] for i, name in enumerate(self.names)},
            total_by_name={name: total_s[i] for i, name in enumerate(self.names)},
            self_by_layer=by_layer,
        )

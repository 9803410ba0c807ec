"""Anomaly flight recorder: per-shard rings of recent trace records and
anomaly **dossiers** dumped when something latches.

A :class:`FlightRecorder` chains onto a :class:`~repro.observability.
trace.Tracer`'s sink and keeps a bounded ring buffer of the most recent
span/event records per shard lane (records carrying a ``shard`` attribute
— ``repl.*`` spans, 2PC participant traffic — land in their shard's ring;
everything else in the shared ``"cluster"`` ring).  When an anomaly
latches mid-run — the global certifier proves a phenomenon, or a
windowed-telemetry SLO trips — the recorder captures a **dossier**: the
trigger's witness (DSG cycle + provenance events for phenomena, the SLO
verdict for objectives), the ring contents at latch time, and the
replica/2PC state snapshot.  The dossier's **trace slice** — every record
belonging to a witness-cycle transaction, its 2PC ``2pc.prepare``/
``2pc.decide`` spans and the ``repl.ship``/``repl.apply`` batches that
carried its writes included — is assembled at read time
(:meth:`FlightRecorder.dossiers`), once every span has closed.

Post-run triggers work too: :meth:`FlightRecorder.opcheck_dossier` turns a
failed operation-interval check (a stale-read witness) into the same
dossier shape.

Everything here is observational.  The recorder consumes records the
tracer emits anyway, draws from no RNG, and sends no messages — attaching
it changes no byte of any history, journal or certification verdict, and
identical seeds produce byte-identical dossiers
(:func:`dossier_json` serialises with sorted keys).

Sizing: each lane keeps ``capacity`` records (default 256); a record is a
small dict, so a 4-shard cluster with the default capacity retains at
most ~1.2k records regardless of run length.  ``max_dossiers`` bounds
capture work under pathological latch storms.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "FlightRecorder",
    "trace_slice",
    "dossier_json",
    "render_dossier",
]


def trace_slice(
    records: Iterable[Dict[str, Any]], tids: Sequence[int]
) -> List[Dict[str, Any]]:
    """The sub-trace covering a set of witness transactions.

    Selects every record that names a witness tid directly (``tid``
    attribute: client txn/op spans, 2PC spans, certification events), any
    replication batch whose ``tids`` attribute intersects the witness set
    (``repl.ship``/``repl.apply``), and every record sharing a ``trace_id``
    with a selected one (the transaction's retries, ``net.msg`` legs and
    ``server.handle`` spans ride the same trace id).  Descendant records
    of selected spans are folded in to a fixpoint, so the slice is
    self-contained for :func:`~repro.observability.trace.span_tree`.
    Records come back in emission (``seq``) order.
    """
    tidset = set(tids)
    records = list(records)
    if not tidset:
        return []

    def hits(attrs: Dict[str, Any]) -> bool:
        if attrs.get("tid") in tidset:
            return True
        batch = attrs.get("tids")
        return isinstance(batch, list) and bool(tidset.intersection(batch))

    trace_ids = {
        (r.get("attrs") or {}).get("trace_id")
        for r in records
        if hits(r.get("attrs") or {})
    }
    trace_ids.discard(None)
    selected: Dict[int, Dict[str, Any]] = {}
    span_ids: set = set()
    for record in records:
        attrs = record.get("attrs") or {}
        if hits(attrs) or attrs.get("trace_id") in trace_ids:
            selected[record["seq"]] = record
            span_ids.add(record["id"])
    changed = True
    while changed:
        changed = False
        for record in records:
            if record["seq"] in selected:
                continue
            parent = (
                record.get("parent")
                if record["kind"] == "span"
                else record.get("span")
            )
            if parent in span_ids:
                selected[record["seq"]] = record
                span_ids.add(record["id"])
                changed = True
    return [selected[seq] for seq in sorted(selected)]


def dossier_json(dossier: Dict[str, Any]) -> str:
    """One dossier as canonical JSON (sorted keys — the byte-identical
    artifact pinned by the determinism tests)."""
    return json.dumps(dossier, sort_keys=True, indent=2)


def render_dossier(dossier: Dict[str, Any]) -> str:
    """A human-readable summary of one dossier (the ``repro dossier``
    CLI's default output)."""
    lines = [
        f"anomaly dossier: {dossier.get('kind')}"
        + (f" @ tick {dossier['tick']}" if dossier.get("tick") is not None else ""),
    ]
    if dossier.get("seed") is not None:
        lines.append(f"  seed            : {dossier['seed']}")
    trigger = dossier.get("trigger") or {}
    if dossier.get("kind") == "phenomenon":
        lines.append(f"  phenomenon      : {trigger.get('phenomenon')}")
        for edge in trigger.get("cycle") or ():
            lines.append(f"    {edge.get('describe')}")
        for witness in trigger.get("witnesses") or ():
            lines.append(
                f"    {witness.get('phenomenon')}: {witness.get('description')}"
            )
    elif dossier.get("kind") == "slo":
        lines.append(
            f"  objective       : {trigger.get('objective')} "
            f"(worst {trigger.get('worst')}, violated at tick "
            f"{trigger.get('violated_at')})"
        )
    elif dossier.get("kind") == "opcheck":
        for witness in trigger.get("witnesses") or ():
            lines.append(
                f"    stale read: {witness.get('session')}/T{witness.get('tid')}"
                f" read {witness.get('obj')}={witness.get('observed')!r}"
                f" expected {witness.get('expected')!r}"
            )
    lines.append(
        "  witness tids    : "
        + (", ".join(f"T{t}" for t in dossier.get("witness_tids") or ())
           or "(none)")
    )
    slice_records = dossier.get("trace_slice") or ()
    by_name: Dict[str, int] = {}
    for record in slice_records:
        by_name[record["name"]] = by_name.get(record["name"], 0) + 1
    lines.append(
        f"  trace slice     : {len(slice_records)} records ("
        + ", ".join(f"{n}×{c}" for n, c in sorted(by_name.items()))
        + ")"
    )
    recent = dossier.get("recent") or {}
    lines.append(
        "  flight rings    : "
        + ", ".join(f"{lane}={len(ring)}" for lane, ring in sorted(recent.items()))
    )
    state = dossier.get("state") or {}
    two_pc = state.get("two_pc")
    if two_pc is not None:
        pending = two_pc.get("pending") or ()
        lines.append(
            f"  2PC at latch    : {len(pending)} in doubt, "
            f"decisions {two_pc.get('decisions')}, "
            f"retransmits {two_pc.get('retransmits')}"
        )
        for st in pending:
            lines.append(
                f"    T{st['gid']}: phase={st['phase']} "
                f"participants={st['participants']} prepared={st['prepared']}"
            )
    for replica in state.get("replicas") or ():
        lines.append(
            f"  replica {replica['shard']}.{replica['replica']}     : "
            f"applied={replica['applied']} lag={replica.get('lag')} "
            f"up={replica['up']}"
        )
    return "\n".join(lines)


class FlightRecorder:
    """Bounded per-shard rings of recent trace records + dossier capture.

    Wire-up (``run_stress(..., flight=FlightRecorder())`` does all of it):

    * :meth:`attach` chains onto the tracer's sink — every emitted record
      is ring-buffered by shard lane before reaching any prior sink;
    * :meth:`bind` points the recorder at the live run (network clock,
      cluster/server state to snapshot, windowed telemetry to watch);
    * the analysis's ``on_phenomenon`` chains :meth:`on_phenomenon`; the
      driver loop calls :meth:`check_slos` after each telemetry sample.
    """

    def __init__(self, *, capacity: int = 256, max_dossiers: int = 16) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.max_dossiers = max_dossiers
        self._rings: Dict[str, Deque[Dict[str, Any]]] = {}
        self._tracer: Optional[object] = None
        self._network: Optional[object] = None
        self._cluster: Optional[object] = None
        self._server: Optional[object] = None
        self._windows: Optional[object] = None
        self.seed: Optional[int] = None
        self._endpoint_lane: Dict[str, str] = {}
        self._lanes_version: Optional[int] = None
        #: ``"shard<n>"`` per shard index seen: built once, not per record.
        self._shard_lane: Dict[int, str] = {}
        self._slo_latched: set = set()
        #: Dossiers captured at latch time (trace slice deferred to read).
        self._captured: List[Dict[str, Any]] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, tracer) -> "FlightRecorder":
        """Chain onto ``tracer``'s sink; existing sinks keep receiving
        every record after the ring observes it.  Attaching again to the
        tracer the recorder is already on is a no-op (a recorder reused
        across runs on one tracer would otherwise ring every record
        twice)."""
        if self._tracer is tracer:
            return self
        self._tracer = tracer
        prev = tracer._sink
        if prev is None:
            tracer._sink = self._observe
            return self

        def sink(record: Dict[str, Any]) -> None:
            self._observe(record)
            prev(record)

        tracer._sink = sink
        return self

    def bind(
        self,
        *,
        network: Optional[object] = None,
        cluster: Optional[object] = None,
        server: Optional[object] = None,
        windows: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> "FlightRecorder":
        if network is not None:
            self._network = network
        if cluster is not None:
            self._cluster = cluster
            self._refresh_lanes()
        if server is not None:
            self._server = server
        if windows is not None:
            self._windows = windows
        if seed is not None:
            self.seed = seed
        return self

    # -- ring maintenance ------------------------------------------------

    def _refresh_lanes(self) -> None:
        cluster = self._cluster
        if cluster is None:
            return
        state = cluster.snapshot()
        lanes: Dict[str, str] = {cluster.coordinator.name: "cluster"}
        for row in state["shards"] + state.get("replicas", []):
            lanes[row["name"]] = f"shard{row['shard']}"
        self._endpoint_lane = lanes
        self._lanes_version = state["map_version"]

    def _lane_of(self, attrs: Dict[str, Any]) -> str:
        """The ring a record with these attrs lands in: its ``shard``
        attr, else the lane of its ``dst``, else of its ``src`` endpoint
        (retried once on a fresh table after a map change), else the
        shared ``"cluster"`` lane."""
        shard = attrs.get("shard")
        if shard is not None:
            if type(shard) is int:
                lane = self._shard_lane.get(shard)
                if lane is None:
                    lane = self._shard_lane[shard] = f"shard{shard}"
                return lane
            if isinstance(shard, int):  # bool / int subclass: not memoised
                return f"shard{shard}"
        dst, src = attrs.get("dst"), attrs.get("src")
        lanes = self._endpoint_lane
        lane = lanes.get(dst) or lanes.get(src)
        if (
            lane is None
            and self._cluster is not None
            and self._lanes_version != self._cluster.shard_map.version
        ):
            # Reconfiguration renamed an endpoint: rebuild once per map
            # version and retry the endpoint match.
            self._refresh_lanes()
            lanes = self._endpoint_lane
            lane = lanes.get(dst) or lanes.get(src)
        return lane or "cluster"

    def _observe(self, record: Dict[str, Any]) -> None:
        lane = self._lane_of(record["attrs"])
        ring = self._rings.get(lane)
        if ring is None:
            ring = self._rings[lane] = deque(maxlen=self.capacity)
        ring.append(record)

    def rings(self) -> Dict[str, List[Dict[str, Any]]]:
        """Current ring contents (lane → records, oldest first)."""
        return {lane: list(ring) for lane, ring in sorted(self._rings.items())}

    # -- latch triggers --------------------------------------------------

    def on_phenomenon(self, phenomenon, analysis) -> None:
        """``on_phenomenon=`` chain link: capture a dossier the moment the
        certifier latches a phenomenon (the provenance hook has already
        emitted the witness event — it is in the rings)."""
        from .provenance import provenance_record

        trigger = provenance_record(analysis, phenomenon)
        tids = trigger.get("cycle_tids") or [
            w["tid"] for w in trigger.get("witnesses", ())
        ]
        self._capture("phenomenon", trigger, tids)

    def check_slos(self, now: int) -> None:
        """Capture a dossier for every SLO that newly latched (drivers call
        this after each telemetry sample; cheap no-op otherwise)."""
        windows = self._windows
        if windows is None:
            return
        for status in windows.slo_status:
            if (
                status.violated_at is not None
                and status.slo.name not in self._slo_latched
            ):
                self._slo_latched.add(status.slo.name)
                self._capture("slo", status.to_dict(), ())

    def opcheck_dossier(self, result) -> Optional[Dict[str, Any]]:
        """Post-run trigger: a failed operation-interval check becomes an
        ``"opcheck"`` dossier (``None`` when the check passes)."""
        report = result.opcheck()
        if report.ok:
            return None
        witnesses = [
            dict(w) for failure in report.failures
            for w in failure.get("witnesses", ())
        ]
        trigger = {
            "ok": False,
            "components": report.components,
            "states_explored": report.states_explored,
            "witnesses": witnesses,
        }
        tids = [w["tid"] for w in witnesses if w.get("tid") is not None]
        self._capture("opcheck", trigger, tids)
        return self.dossiers()[-1]

    def _capture(
        self, kind: str, trigger: Dict[str, Any], tids: Sequence[int]
    ) -> None:
        if len(self._captured) >= self.max_dossiers:
            return
        self._captured.append({
            "kind": kind,
            "tick": (
                self._network.now if self._network is not None else None
            ),
            "seed": self.seed,
            "trigger": trigger,
            "witness_tids": sorted(set(tids)),
            "recent": self.rings(),
            "state": self._state_snapshot(),
        })

    # -- state snapshot --------------------------------------------------

    def _state_snapshot(self) -> Dict[str, Any]:
        if self._cluster is not None:
            return self._cluster.snapshot()
        if self._server is not None:
            server = self._server
            return {
                "server": {
                    "up": server.up,
                    "commits": server.commit_count,
                    "certification_lag": server.certification_lag,
                }
            }
        return {}

    # -- dossiers --------------------------------------------------------

    def dossiers(self) -> List[Dict[str, Any]]:
        """Captured dossiers with their trace slices assembled from the
        tracer's (now complete) records — call after the run settles."""
        records = self._tracer.records if self._tracer is not None else []
        out = []
        for captured in self._captured:
            dossier = dict(captured)
            dossier["trace_slice"] = trace_slice(
                records, dossier["witness_tids"]
            )
            out.append(dossier)
        return out

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder lanes={sorted(self._rings)} "
            f"captured={len(self._captured)} capacity={self.capacity}>"
        )

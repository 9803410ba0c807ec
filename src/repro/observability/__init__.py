"""End-to-end observability: metrics, tracing, and phenomenon provenance.

Three dependency-free pieces (see ``docs/observability.md`` for the metric
catalogue and record schemas):

* :class:`MetricsRegistry` — counters, gauges and histograms with labels,
  shared by every instrumented component (engine schedulers, recorder,
  lock manager, store, incremental monitor, batch checker).  Components
  default to ``metrics=None`` and skip instrumentation entirely — disabled
  observability costs nothing.
* :class:`Tracer` — structured span/event records (run → transaction →
  operation; check → extraction → cycle search) with attachable sinks;
  :class:`JsonlSink` writes JSONL, :func:`read_trace`/:func:`span_tree`
  parse it back and reconstruct the tree.
* provenance — :func:`phenomenon_hook`/:func:`watching_analysis` wire a
  tracer into the engine's online monitor so a latched phenomenon records
  the witness cycle's edges and the raw events behind them.
* :class:`FlightRecorder` — bounded per-shard rings of recent trace
  records; a latched phenomenon, SLO violation, or failed operation
  check dumps an anomaly **dossier** (witness cycle + trace slice +
  replica/2PC state) as one deterministic JSON artifact.

Quick start::

    from repro.engine import Database, LockingScheduler, Simulator
    from repro.observability import MetricsRegistry, Tracer, watching_analysis

    metrics, tracer = MetricsRegistry(), Tracer()
    db = Database(LockingScheduler("serializable"))
    db.load({"x": 0, "y": 0})
    result = Simulator(
        db, programs, metrics=metrics, tracer=tracer,
        monitor=watching_analysis(tracer, order_mode="event"),
    ).run()
    print(metrics.render_text())        # aborts by reason, lock waits, ...
    print(tracer.events("phenomenon"))  # provenance of latched phenomena
"""

from .._surface import exports

__all__ = exports(__name__, {
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "Tracer": ".trace",
    "TraceRecords": ".trace",
    "Span": ".trace",
    "JsonlSink": ".trace",
    "read_trace": ".trace",
    "span_tree": ".trace",
    "witness_cycle": ".provenance",
    "provenance_record": ".provenance",
    "phenomenon_hook": ".provenance",
    "watching_analysis": ".provenance",
    "DEFAULT_WATCH": ".provenance",
    "SLO": ".windows",
    "SLOStatus": ".windows",
    "WindowedCounter": ".windows",
    "WindowedTelemetry": ".windows",
    "WindowedValues": ".windows",
    "FlightRecorder": ".flight",
    "trace_slice": ".flight",
    "dossier_json": ".flight",
    "render_dossier": ".flight",
    "RunReport": ".traceview",
    "build_run_report": ".traceview",
    "cluster_summary": ".traceview",
    "replication_lag_timeline": ".traceview",
    "twopc_summary": ".traceview",
    "contention_summary": ".traceview",
    "contention_table": ".traceview",
    "critical_path": ".traceview",
    "cross_shard_critical_path": ".traceview",
    "from_chrome_trace": ".traceview",
    "latency_table": ".traceview",
    "to_chrome_trace": ".traceview",
    "verb_latencies": ".traceview",
    "waterfall": ".traceview",
    "write_chrome_trace": ".traceview",
})

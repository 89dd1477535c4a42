"""Pipeline telemetry: metrics registry, phase spans, structured logging.

The observability layer gives every pipeline stage — Algorithm 1
extraction, online tracking, Algorithm 3 integration, the similarity
kernels, red-zone guided queries, the benchmark harness — a shared,
exportable set of runtime signals:

* :mod:`repro.obs.metrics` — counters, gauges, histograms and the
  :class:`MetricsRegistry` that owns them;
* :mod:`repro.obs.spans` — nested wall-time phase spans
  (``with obs.span("integrate.fixpoint"): ...``);
* :mod:`repro.obs.exporters` — JSON snapshots (``--metrics-out``,
  ``repro stats``) and Prometheus text exposition output;
* :mod:`repro.obs.tracing` — Chrome ``trace_event`` export of the span
  tree (``--trace-out``, loadable in Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.profiling` — opt-in cProfile / tracemalloc phase
  profiling (``--profile``);
* :mod:`repro.obs.logs` — stdlib logging with a key=value formatter;
* :mod:`repro.obs.segmentlog` — the append-only NDJSON segment log
  (size rotation, retention, resume, torn-line-tolerant replay) that
  the tsdb, trace store and profiler persist through;
* :mod:`repro.obs.tsdb` — a local time-series store: an in-process
  sampler folds registry snapshots into multi-resolution ring buffers
  and appends them to rotating NDJSON segments;
* :mod:`repro.obs.slo` — YAML-declared SLOs evaluated as multi-window
  burn-rate alerts (OK/WARN/PAGE) over the tsdb history;
* :mod:`repro.obs.tracestore` — tail-sampled request traces (errored /
  slow / deterministic head sample) persisted in rotating NDJSON
  segments, with critical-path and merged-profile analysis;
* :mod:`repro.obs.contprof` — the always-on continuous profiler: a
  wall-clock stack sampler whose collapsed-stack windows persist in
  rotating NDJSON segments and export flamegraph / speedscope renders.

Collection is **disabled by default** and costs one flag check per
instrumentation site while off; see :mod:`repro.obs.runtime`. The span
taxonomy and metric names are documented in DESIGN.md ("Observability").
"""

from repro.obs.contprof import (
    ContinuousProfiler,
    ProfileWindow,
    collapse_text,
    diff_frames,
    load_prof_segments,
    merge_windows,
    speedscope_doc,
)
from repro.obs.exporters import (
    OPENMETRICS_TYPE,
    format_seconds,
    load_snapshot,
    parse_prometheus_text,
    render_snapshot,
    to_json,
    to_openmetrics_text,
    to_prometheus_text,
    write_snapshot,
)
from repro.obs.logs import (
    LOG_LEVELS,
    KeyValueFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.profiling import PROFILERS, ProfileReport, profile_phase
from repro.obs.tracing import to_chrome_trace, write_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    RATE_WINDOWS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlidingWindow,
    SpanRecord,
)
from repro.obs.runtime import (
    activate,
    correlation,
    correlation_id,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    registry,
    set_registry,
    window,
)
from repro.obs.slo import (
    SLO,
    SLOConfig,
    SLOEngine,
    SLOError,
    SLOReport,
    evaluate_snapshot,
    load_slo_config,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, external_span, span
from repro.obs.tracestore import (
    TailSampler,
    TraceRecord,
    TraceStore,
    load_trace_segments,
)
from repro.obs.tsdb import Sampler, TimeSeriesStore, load_segments, sample_point

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "SlidingWindow",
    "MetricsRegistry",
    "SpanRecord",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "RATE_WINDOWS",
    # runtime
    "enabled",
    "enable",
    "disable",
    "registry",
    "set_registry",
    "activate",
    "counter",
    "gauge",
    "histogram",
    "window",
    "correlation",
    "correlation_id",
    # spans
    "span",
    "external_span",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    # exporters
    "to_json",
    "write_snapshot",
    "load_snapshot",
    "to_prometheus_text",
    "to_openmetrics_text",
    "OPENMETRICS_TYPE",
    "parse_prometheus_text",
    "render_snapshot",
    "format_seconds",
    # tracing
    "to_chrome_trace",
    "write_chrome_trace",
    # profiling
    "PROFILERS",
    "ProfileReport",
    "profile_phase",
    # logging
    "KeyValueFormatter",
    "configure_logging",
    "get_logger",
    "LOG_LEVELS",
    # time-series store
    "TimeSeriesStore",
    "Sampler",
    "sample_point",
    "load_segments",
    # trace store
    "TailSampler",
    "TraceRecord",
    "TraceStore",
    "load_trace_segments",
    # continuous profiler
    "ContinuousProfiler",
    "ProfileWindow",
    "collapse_text",
    "speedscope_doc",
    "merge_windows",
    "diff_frames",
    "load_prof_segments",
    # SLOs
    "SLO",
    "SLOConfig",
    "SLOEngine",
    "SLOError",
    "SLOReport",
    "load_slo_config",
    "evaluate_snapshot",
]

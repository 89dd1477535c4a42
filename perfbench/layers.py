"""Per-layer metrics from a traced run's spans and the client's samples.

A layer's *self time* is its span's duration minus the part covered by
its child spans. Times per ``/query`` request are the sum of a layer's
self time over the request's spans, reported as the median over the
open-loop requests; counts are totals over the same requests, reported
per request or as ratios of totals. ``serve.transport_ms`` is the part
of each request's latency outside every recorded span — the remainder
no layer accounts for.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence

from quantiles import median

#: Per-layer metrics: name → unit, in the order they are reported.
PER_LAYER = {
    "serve.transport_ms": "ms",
    "serve.respond_self_ms": "ms",
    "serve.lock_wait_ms": "ms",
    "serve.lock_held_frac": "ratio",
    "analysis.query_ms": "ms",
    "analysis.render_ms": "ms",
    "core.select_ms": "ms",
    "core.select.scanned": "count",
    "core.select.kept_frac": "ratio",
    "core.redzone_ms": "ms",
    "core.redzone.pruned_frac": "ratio",
    "core.integrate_ms": "ms",
    "core.integrate.comparisons": "count",
    "core.integrate.merges": "count",
    "core.integrate.merge_yield": "ratio",
    "core.integrate.fast_reject_frac": "ratio",
    "storage.load_s": "s",
    "storage.groups_loaded": "count",
    "storage.bytes_loaded": "bytes",
    "parallel.build_s": "s",
    "ingest.parse_ms": "ms",
    "ingest.apply_ms": "ms",
    "ingest.close_ms": "ms",
    "ingest.snapshot_ms": "ms",
    "ingest.snapshot_bytes": "bytes",
    "obs.trace_add_ms": "ms",
    "obs.tsdb_sample_ms": "ms",
    "obs.prof_samples": "count",
    "bench.gen_late_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
}


def self_times(spans: Sequence[list]) -> List[float]:
    """Self time (seconds) of every span, by index."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _durations(spans: Iterable[list], name: str) -> List[float]:
    return [span[2] - span[1] for span in spans if span[0] == name]


def serve_layers(
    trace: Mapping[str, object],
    latencies: Mapping[str, float],
    windows: Sequence[Sequence[float]],
) -> Dict[str, float]:
    """Request-path metrics of the serve process.

    ``latencies`` maps the open-loop request ids to their client-side
    send-to-response seconds; ``windows`` are the open loop's
    ``(start, end)`` intervals on the shared clock.
    """
    spans: List[list] = trace["spans"]  # type: ignore[assignment]
    own = self_times(spans)
    per_request: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    totals: Dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        rid = span[4]
        if rid not in latencies:
            continue
        name = span[0]
        layer = "core.select" if name.startswith("core.select") else name
        per_request[rid][layer] += self_s
        per_request[rid][layer + ":total"] += span[2] - span[1]
        for key, value in span[5].items():
            totals[f"{layer}.{key}"] += value
    rows = [per_request[rid] for rid in latencies if rid in per_request]
    n = max(1, len(rows))

    def med(layer: str) -> float:
        return 1000.0 * median(row[layer] for row in rows)

    transport = [
        latencies[rid] - per_request[rid]["serve.respond:total"]
        for rid in latencies
        if rid in per_request
    ]
    respond_self = [
        row["serve.respond:total"] - row["analysis.query:total"]
        - row["analysis.render:total"]
        for row in rows
    ]
    locks = []
    held = 0.0
    for start, end in windows:
        inside = [entry for entry in trace["locks"] if start <= entry[0] <= end]
        locks.extend(inside)
        held += sum(min(r, end) - max(a, start) for _, a, r, _ in inside)
    span = sum(end - start for start, end in windows)
    return {
        "serve.transport_ms": 1000.0 * median(transport),
        "serve.respond_self_ms": 1000.0 * median(respond_self),
        "serve.lock_wait_ms": 1000.0 * _ratio(
            sum(a - asked for asked, a, _, _ in locks), len(locks)
        ),
        "serve.lock_held_frac": _ratio(held, span),
        "analysis.query_ms": 1000.0 * median(
            row["analysis.query:total"] for row in rows
        ),
        "analysis.render_ms": med("analysis.render"),
        "core.select_ms": med("core.select"),
        "core.select.scanned": totals["core.select.scanned"] / n,
        "core.select.kept_frac": _ratio(
            totals["core.select.kept"], totals["core.select.scanned"]
        ),
        "core.redzone_ms": med("core.redzone"),
        "core.redzone.pruned_frac": _ratio(
            totals["core.redzone.pruned"], totals["core.redzone.input"]
        ),
        "core.integrate_ms": med("core.integrate"),
        "core.integrate.comparisons": totals["core.integrate.comparisons"] / n,
        "core.integrate.merges": totals["core.integrate.merges"] / n,
        "core.integrate.merge_yield": _ratio(
            totals["core.integrate.merges"], totals["core.integrate.comparisons"]
        ),
        "core.integrate.fast_reject_frac": _ratio(
            totals["core.integrate.fast_rejects"],
            totals["core.integrate.fast_rejects"]
            + totals["core.integrate.comparisons"],
        ),
    }


def process_layers(trace: Mapping[str, object]) -> Dict[str, float]:
    """Whole-process metrics of the serve process: load, ingest, obs."""
    spans: List[list] = trace["spans"]  # type: ignore[assignment]
    loads = [span for span in spans if span[0] == "storage.load"]
    load = loads[-1] if loads else ["", 0.0, 0.0, -1, "", {}]
    snapshots = [span for span in spans if span[0] == "ingest.snapshot"]
    ms = lambda name: 1000.0 * median(_durations(spans, name))  # noqa: E731
    return {
        "storage.load_s": load[2] - load[1],
        "storage.groups_loaded": load[5].get("groups", 0),
        "storage.bytes_loaded": load[5].get("bytes", 0),
        "ingest.parse_ms": ms("ingest.parse"),
        "ingest.apply_ms": ms("ingest.apply"),
        "ingest.close_ms": ms("ingest.close"),
        "ingest.snapshot_ms": ms("ingest.snapshot"),
        "ingest.snapshot_bytes": median(s[5].get("bytes", 0) for s in snapshots),
        "obs.trace_add_ms": ms("obs.trace_add"),
        "obs.tsdb_sample_ms": ms("obs.tsdb_sample"),
        "obs.prof_samples": trace["counts"].get("prof_samples", 0),
    }


def build_layers(trace: Mapping[str, object]) -> Dict[str, float]:
    """The build process's sharded-build time."""
    builds = _durations(trace["spans"], "parallel.build")
    return {"parallel.build_s": builds[-1] if builds else 0.0}

"""Traced launcher: span recorders around the program's public functions.

Usage::

    python3 perfbench/launch.py SPANS.json -- <repro arguments...>

Installs the recorders of :func:`install`, then hands over to the
``repro`` command-line entry point with the given arguments (``serve``
or ``build``). Spans stay in memory and are written to ``SPANS.json``
when the command returns — after the server has drained.

A span is ``[name, start, end, parent, request_id, counts]``: ``parent``
is the index of the enclosing span on the same thread (or ``-1``),
``request_id`` the ``X-Request-Id`` of the request being served on that
thread (``""`` outside a request) and ``counts`` the work the call did.
Times are ``time.perf_counter()`` readings.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Recorder:
    """Spans, query-lock holds and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.locks: List[list] = []  #: [asked, acquired, released, request_id]
        self.counts: Dict[str, int] = {"prof_samples": 0}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request_id(self) -> str:
        return getattr(self._local, "request_id", "")

    def recorded(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable[..., Dict[str, float]]] = None,
        binds_request: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``counts(result, *args, **kwargs)`` runs after the span has ended,
        so counting never inflates the span. ``binds_request`` makes the
        call's ``request_id`` keyword the thread's current request id.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            previous = self.request_id()
            if binds_request:
                self._local.request_id = kwargs.get("request_id") or ""
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.request_id(), {}]
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if binds_request:
                    self._local.request_id = previous
            if counts is not None:
                span[5] = counts(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``name`` (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> str:
        return json.dumps({"spans": self.spans, "locks": self.locks,
                           "counts": self.counts})


class TimedLock:
    """A lock that records when each acquisition was asked, got and left."""

    def __init__(self, lock, recorder: Recorder) -> None:
        self._lock = lock
        self._recorder = recorder
        self._held: List[list] = []

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        asked = time.perf_counter()
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._held.append(
                [asked, time.perf_counter(), 0.0, self._recorder.request_id()]
            )
        return got

    def release(self) -> None:
        entry = self._held.pop()
        entry[2] = time.perf_counter()
        self._recorder.locks.append(entry)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self.release()


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _select_counts(result, forest, days, region=None):
    # ``scanned`` is the number of micro-clusters of the queried days,
    # read off the day index the select walks (no second scan inside the
    # caller's spans): it measures the input, not the work the select did
    scanned = sum(len(forest._micro_by_day.get(day, ())) for day in days)
    return {"scanned": scanned, "kept": len(result)}


def _filter_counts(result, clusters, zones):
    kept, pruned = result
    return {"input": len(kept) + pruned, "pruned": pruned}


def _integrate_counts(outcome, *args, **kwargs):
    return {
        "comparisons": outcome.comparisons,
        "merges": outcome.merges,
        "fast_rejects": outcome.fast_rejects,
    }


def _load_counts(entry, *args, **kwargs):
    io_stats = getattr(entry.engine.forest, "io_stats", None)
    if callable(io_stats):
        stats = io_stats()
        return {"groups": stats["groups_loaded"], "bytes": stats["bytes_loaded"]}
    return {
        "groups": len(entry.engine.built_days),
        "bytes": _dir_bytes(entry.model_dir),
    }


def _snapshot_counts(path, *args, **kwargs):
    return {"bytes": _dir_bytes(path)}


def install(rec: Recorder) -> None:
    """Wrap every measured function, at the name its caller resolves."""
    import repro.cli as cli
    import repro.core.query as query
    import repro.serve.handlers as handlers
    from repro.analysis.engine import AnalysisEngine
    from repro.core.forest import AtypicalForest
    from repro.core.integration import ClusterIntegrator
    from repro.ingest.engine import IngestEngine
    from repro.obs.contprof import ContinuousProfiler
    from repro.obs.tracestore import TraceStore
    from repro.obs.tsdb import Sampler
    from repro.storage.columnar import ColumnarForest

    def load_counts(entry, *args, **kwargs):
        # every later holder (ServeApp, IngestEngine) reads the lock
        # from the cache entry after this returns
        entry.query_lock = TimedLock(entry.query_lock, rec)
        return _load_counts(entry)

    handlers.ServeApp.respond = rec.recorded(
        "serve.respond", handlers.ServeApp.respond, binds_request=True
    )
    AnalysisEngine.query = rec.recorded("analysis.query", AnalysisEngine.query)
    handlers.build_report = rec.recorded("analysis.render", handlers.build_report)
    AtypicalForest.micro_clusters = rec.recorded(
        "core.select", AtypicalForest.micro_clusters, _select_counts
    )
    ColumnarForest.micro_clusters = rec.recorded(
        "core.select.map", ColumnarForest.micro_clusters
    )
    query.compute_red_zones = rec.recorded("core.redzone", query.compute_red_zones)
    query.filter_by_red_zones = rec.recorded(
        "core.redzone", query.filter_by_red_zones, _filter_counts
    )
    ClusterIntegrator.integrate = rec.recorded(
        "core.integrate", ClusterIntegrator.integrate, _integrate_counts
    )
    cli.load_engine_cached = rec.recorded(
        "storage.load", cli.load_engine_cached, load_counts
    )
    AnalysisEngine.build_from_catalog_parallel = rec.recorded(
        "parallel.build", AnalysisEngine.build_from_catalog_parallel
    )
    handlers.parse_body = rec.recorded("ingest.parse", handlers.parse_body)
    IngestEngine.add_events = rec.recorded("ingest.apply", IngestEngine.add_events)
    AnalysisEngine.install_day = rec.recorded(
        "ingest.close", AnalysisEngine.install_day
    )
    IngestEngine.snapshot = rec.recorded(
        "ingest.snapshot", IngestEngine.snapshot, _snapshot_counts
    )
    TraceStore.add = rec.recorded("obs.trace_add", TraceStore.add)
    Sampler.sample_once = rec.recorded("obs.tsdb_sample", Sampler.sample_once)
    ContinuousProfiler.sample_once = rec.counted(
        "prof_samples", ContinuousProfiler.sample_once
    )


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py SPANS.json -- <repro arguments...>", file=sys.stderr)
        return 2
    out = Path(argv[0])
    rec = Recorder()
    install(rec)
    from repro.cli import main as repro_main

    owner = os.getpid()
    try:
        return repro_main(argv[2:])
    finally:
        # pool workers forked from a build never reach here; the check
        # keeps any other child from overwriting the owner's file
        if os.getpid() == owner:
            out.write_text(rec.to_json())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

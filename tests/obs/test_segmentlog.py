"""Tests for the shared NDJSON segment log (repro.obs.segmentlog).

The log-level tests drive :class:`SegmentLog` directly; the store-level
ones run the same crash and stray-file scenarios through each of the
three stores built on it (tsdb, trace store, continuous profiler).
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs.contprof import (
    PROF_SEGMENT_PREFIX,
    ContinuousProfiler,
    load_prof_segments,
)
from repro.obs.segmentlog import SegmentLog, replay
from repro.obs.tracestore import (
    TRACE_SEGMENT_PREFIX,
    TraceRecord,
    TraceStore,
    load_trace_segments,
)
from repro.obs.tsdb import SEGMENT_PREFIX, TimeSeriesStore, load_segments

PREFIX = "log-"
ROWS = [{"i": i, "pad": "x" * i} for i in range(6)]


def write_rows(directory, rows=ROWS):
    log = SegmentLog(directory, PREFIX, max_segment_bytes=64, max_segments=8)
    for row in rows:
        log.append(row)
    return log


class TestSegmentLog:
    def test_rows_round_trip_in_order(self, tmp_path):
        log = write_rows(tmp_path)
        assert log.rotations > 0
        assert len(log.segment_paths()) == log.rotations + 1
        assert list(replay(tmp_path, PREFIX)) == ROWS

    def test_row_bytes_are_sorted_key_json_lines(self, tmp_path):
        log = write_rows(tmp_path, [{"b": 1, "a": [2.5, "z"]}])
        (segment,) = log.segment_paths()
        assert segment.name == f"{PREFIX}000000.ndjson"
        assert segment.read_bytes() == b'{"a": [2.5, "z"], "b": 1}\n'

    def test_retention_keeps_newest_segments(self, tmp_path):
        log = SegmentLog(tmp_path, PREFIX, max_segment_bytes=1, max_segments=3)
        for row in ROWS:
            log.append(row)
        assert [p.name for p in log.segment_paths()] == [
            f"{PREFIX}00000{i}.ndjson" for i in (3, 4, 5)
        ]
        assert list(replay(tmp_path, PREFIX)) == ROWS[3:]

    def test_index_past_six_digits_keeps_order(self, tmp_path):
        (tmp_path / f"{PREFIX}999999.ndjson").write_text('{"i": 0}\n')
        log = SegmentLog(tmp_path, PREFIX, max_segment_bytes=1, max_segments=2)
        log.append({"i": 1})
        log.append({"i": 2})
        assert [p.name for p in log.segment_paths()] == [
            f"{PREFIX}1000000.ndjson",
            f"{PREFIX}1000001.ndjson",
        ]
        assert list(replay(tmp_path, PREFIX)) == [{"i": 1}, {"i": 2}]

    def test_memory_only_log_writes_nothing(self, tmp_path):
        log = SegmentLog(None, PREFIX)
        log.append({"i": 0})
        log.sync()
        assert log.segment_paths() == [] and log.directory is None
        assert list(tmp_path.iterdir()) == []

    def test_replay_errors_raise_before_first_row(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            replay(tmp_path / "missing", PREFIX)
        (tmp_path / f"{PREFIX}old.ndjson").write_text('{"i": 0}\n')
        with pytest.raises(ValueError, match=f"no {PREFIX}"):
            replay(tmp_path, PREFIX)

    def test_concurrent_appends_lose_no_row(self, tmp_path):
        log = SegmentLog(tmp_path, PREFIX, max_segment_bytes=256, max_segments=10_000)
        threads = [
            threading.Thread(
                target=lambda w=w: [log.append({"w": w, "n": n}) for n in range(200)]
            )
            for w in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        rows = list(replay(tmp_path, PREFIX))
        assert sorted((r["w"], r["n"]) for r in rows) == [
            (w, n) for w in range(6) for n in range(200)
        ]
        assert len(log.segment_paths()) == log.rotations + 1
        assert all(p.stat().st_size <= 256 for p in log.segment_paths())

    def test_truncation_at_every_byte_loses_at_most_the_torn_row(self, tmp_path):
        full = tmp_path / "full"
        segments = write_rows(full).segment_paths()
        last = segments[-1].read_bytes()
        for offset in range(len(last) + 1):
            directory = tmp_path / f"cut-{offset}"
            directory.mkdir()
            for segment in segments:
                (directory / segment.name).write_bytes(segment.read_bytes())
            (directory / segments[-1].name).write_bytes(last[:offset])
            rows = list(replay(directory, PREFIX))
            assert rows in (ROWS, ROWS[:-1]), offset
            # the next process must not glue its first row onto a fragment
            SegmentLog(directory, PREFIX, max_segment_bytes=64).append({"i": "new"})
            assert list(replay(directory, PREFIX)) == rows + [{"i": "new"}], offset


# ----------------------------------------------------------------------
# The same scenarios through each store
# ----------------------------------------------------------------------
def _tsdb(directory):
    store = TimeSeriesStore(segment_dir=directory)

    def add(i):
        store.ingest({"t": 1000.0 + i, "series": {"c": float(i)}, "kinds": {}})

    return add


def _traces(directory):
    store = TraceStore(segment_dir=directory)

    def add(i):
        store.add(TraceRecord(f"req-{i}", "query", 200, 0.01, 1000.0 + i))

    return add


def _profiler(directory):
    profiler = ContinuousProfiler(hz=10, window_seconds=1, segment_dir=directory)

    def add(i):
        profiler.sample_once(now=1000.0 + 10 * i, frames={1: sys._getframe()})
        profiler.stop()  # folds the window: one segment row

    return add


STORES = {
    "tsdb": (SEGMENT_PREFIX, _tsdb, lambda d: load_segments(d).samples),
    "traces": (TRACE_SEGMENT_PREFIX, _traces, lambda d: load_trace_segments(d).added),
    "profiler": (PROF_SEGMENT_PREFIX, _profiler, lambda d: len(load_prof_segments(d))),
}


@pytest.mark.parametrize("kind", sorted(STORES))
def test_resume_ignores_stray_files(tmp_path, kind):
    prefix, open_store, replayed = STORES[kind]
    open_store(tmp_path)(0)
    (tmp_path / f"{prefix}000000.ndjson").rename(tmp_path / f"{prefix}000003.ndjson")
    (tmp_path / f"{prefix}old.ndjson").write_text("leftover\n")
    open_store(tmp_path)(1)
    assert sorted(p.name for p in tmp_path.glob(f"{prefix}0*.ndjson")) == [
        f"{prefix}000003.ndjson"
    ]
    assert replayed(tmp_path) == 2


@pytest.mark.parametrize("kind", sorted(STORES))
def test_restart_after_torn_tail_keeps_next_row(tmp_path, kind):
    prefix, open_store, replayed = STORES[kind]
    add = open_store(tmp_path)
    for i in range(3):
        add(i)
    segment = tmp_path / f"{prefix}000000.ndjson"
    segment.write_bytes(segment.read_bytes()[:-5])  # crash mid-row
    add = open_store(tmp_path)
    for i in range(3, 6):
        add(i)
    assert replayed(tmp_path) == 5
    for path in sorted(tmp_path.glob(f"{prefix}*.ndjson"))[1:]:
        for line in path.read_text().splitlines():
            json.loads(line)

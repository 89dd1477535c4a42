"""Self-tests of the benchmark's own logic (no server, no program run).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import answerkey  # noqa: E402
import driver  # noqa: E402
import launch  # noqa: E402
import layers  # noqa: E402
import plan  # noqa: E402
from quantiles import INF, latencies_with_failures, nearest_rank, spread  # noqa: E402

DISTRICTS = [[0, 1, 2], [3], [4, 5, 6, 7, 8]]


class TestSchedule:
    @pytest.mark.parametrize("name", sorted(plan.WORKLOADS))
    def test_same_seed_same_requests(self, name):
        w = plan.WORKLOADS[name]
        first = plan.request_list(w, 5, 60, DISTRICTS)
        again = plan.request_list(w, 5, 60, DISTRICTS)
        assert first == again
        assert plan.request_list(w, 6, 60, DISTRICTS) != first

    def test_city_week_cycles_every_window(self):
        w = plan.WORKLOADS["city-week"]
        specs = plan.request_list(w, 1, 50)
        assert sorted(s["first_day"] for s in specs[:25]) == list(range(25))
        assert all(s["days"] == 7 and "sensors" not in s for s in specs)

    def test_city_week_asks_whole_cycles_and_closes_one(self):
        w = plan.WORKLOADS["city-week"]
        assert [plan.open_loop_count(w, s) for s in (5, 30, 40, 80)] == [25, 25, 50, 75]
        assert plan.closed_loop_count(w, 50) == 25
        drill = plan.WORKLOADS["district-drill"]
        districts = [[d] for d in range(32)]
        assert plan.open_loop_count(drill, 40, districts) == 192
        assert plan.closed_loop_count(drill, 192, districts) == 384

    def test_closed_list_is_the_same_in_every_run(self):
        w = plan.WORKLOADS["city-week"]
        closed = plan.closed_list(w, 50)
        assert closed == plan.request_list(w, plan.CLOSED_SEED, 25)
        assert sorted(s["first_day"] for s in closed) == list(range(25))

    def test_district_requests_stay_inside_built_days(self):
        w = plan.WORKLOADS["district-drill"]
        specs = plan.request_list(w, 3, 504, DISTRICTS)
        for spec in specs:
            assert spec["days"] in (1, 7)
            assert 0 <= spec["first_day"] <= w.query_days - spec["days"]
            assert spec["sensors"] in DISTRICTS
        # fixed mix per whole cycle: every district asked twice at 1 day
        # per once at 7 days
        for d in DISTRICTS:
            mine = [s["days"] for s in specs if s["sensors"] == d]
            assert (mine.count(1), mine.count(7)) == (112, 56)

    def test_district_sensors_groups_by_district(self):
        mapping = {5: 1, 3: 0, 4: 1, 9: 2}
        assert plan.district_sensors(mapping) == [[3], [4, 5], [9]]

    @pytest.mark.parametrize("name", sorted(plan.WORKLOADS))
    def test_checked_reads_cover_every_request(self, name):
        w = plan.WORKLOADS[name]
        checked = {
            plan.spec_key(spec)
            for specs in plan.checked_reads(w, DISTRICTS).values()
            for spec in specs
        }
        for seed in range(3):
            for spec in plan.request_list(w, seed, 300, DISTRICTS):
                assert plan.spec_key(spec) in checked
        streamed = {plan.spec_key(s) for s in plan.day_queries(w.stream_days)}
        assert streamed <= checked or not w.beside_reads

    def test_warmup_touches_every_built_day(self):
        for w in plan.WORKLOADS.values():
            covered = {
                day
                for spec in plan.warmup_requests(w)
                for day in range(spec["first_day"], spec["first_day"] + spec["days"])
            }
            assert covered == set(range(w.built_days))


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 11))
        assert nearest_rank(values, 0.5) == 5
        assert nearest_rank(values, 0.9) == 9
        assert nearest_rank(values, 1.0) == 10
        assert nearest_rank([7.0], 0.9) == 7.0

    def test_failures_count_as_infinite(self):
        lat = latencies_with_failures([1.0, 2.0, 3.0, 4.0], [False, True, False, True])
        assert lat == [1.0, INF, 3.0, INF]
        assert nearest_rank(lat, 0.5) == 3.0
        assert math.isinf(nearest_rank(lat, 0.9))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)

    def test_spread_uses_quartiles_over_median(self):
        s = spread([10.0, 10.0, 10.0, 10.0, 10.0])
        assert s["median"] == 10.0 and s["iqr_frac"] == 0.0
        s = spread([8.0, 9.0, 10.0, 11.0, 12.0])
        assert s["q1"] == 8.5 and s["q3"] == 11.5
        assert s["iqr_frac"] == pytest.approx(0.3)


def _payload(cluster_ids, report="cluster #1", elapsed=0.5, cache_hits=3):
    return {
        "request_id": "req-1",
        "strategy": "gui",
        "first_day": 0,
        "num_days": 7,
        "region": "whole-city",
        "region_sensors": 418,
        "final_check": False,
        "returned": 2,
        "stats": {"elapsed_seconds": elapsed, "cache_hits": cache_hits,
                  "input_clusters": 10, "merges": 4},
        "clusters": [
            {"cluster_id": cid, "severity": sev, "top_sensors": [[1, 2.5]]}
            for cid, sev in zip(cluster_ids, (30.5, 12.25))
        ],
        "report": report,
    }


class TestAnswerKey:
    def test_ids_report_and_timings_are_ignored(self):
        a = _payload([11, 12])
        b = _payload([911, 912], report="cluster #911", elapsed=0.1, cache_hits=0)
        assert answerkey.answer_digest(a) == answerkey.answer_digest(b)

    def test_answer_changes_are_caught(self):
        base = answerkey.answer_digest(_payload([1, 2]))
        changed = _payload([1, 2])
        changed["clusters"][1]["severity"] = 12.26
        assert answerkey.answer_digest(changed) != base
        fewer = _payload([1, 2])
        fewer["stats"]["merges"] = 5
        assert answerkey.answer_digest(fewer) != base
        other_window = _payload([1, 2])
        other_window["first_day"] = 1
        assert answerkey.answer_digest(other_window) != base

    @pytest.mark.parametrize("name", ["city-week", "live-ingest"])
    def test_committed_answers_cover_every_checked_read(self, name):
        # district-drill's reads depend on the trace's districts
        w = plan.WORKLOADS[name]
        checked = plan.checked_reads(w)
        reference = answerkey.load_reference(checked)
        for specs in checked.values():
            for spec in specs:
                assert len(reference[answerkey.spec_id(plan.spec_key(spec))]) == \
                    answerkey.SHORT

    def test_json_round_trip_keeps_the_key(self):
        payload = _payload([1, 2])
        assert answerkey.answer_digest(json.loads(json.dumps(payload))) == \
            answerkey.answer_digest(payload)


class TestRounds:
    def test_shares_cover_the_items_in_order(self):
        items = list(range(28))
        parts = [plan.share(items, k, 10) for k in range(10)]
        assert [x for part in parts for x in part] == items
        assert {len(part) for part in parts} == {2, 3}


class TestClosedLoop:
    def test_each_request_is_sent_once(self, monkeypatch):
        sent = []

        def post_query(port, spec, request_id):
            sent.append(spec["first_day"])
            return 200, b"{}"

        monkeypatch.setattr(driver, "post_query", post_query)
        specs = [{"first_day": d, "days": 1} for d in range(7)]
        out = driver.ClosedLoop()
        driver.closed_loop(0, specs, 2, lambda spec, doc: spec["first_day"] != 3, out)
        assert sorted(sent) == list(range(7))
        assert (out.completed, out.failed, len(out.answered)) == (6, 1, 6)
        assert out.rounds[0][0] == 6 and out.rounds[0][1] > 0

    def test_rates_are_medians_over_calls(self):
        closed = driver.ClosedLoop(rounds=[(4, 1.0), (2, 2.0), (9, 1.0)])
        assert closed.rps == 4.0
        streamed = driver.StreamResult(chunks=[(100, 1.0), (300, 1.0), (50, 10.0)])
        assert streamed.events_per_s == 100.0


class TestStreamBatches:
    def test_batches_mark_each_days_last_event_and_flush_at_end(self):
        day_rows = [(0, [(1, 10, 1.0)] * 3), (1, [(2, 300, 2.0)] * 4)]
        batches = driver.make_batches(day_rows, 2)
        assert [b.events for b in batches] == [2, 2, 2, 1]
        assert [b.last_of for b in batches] == [[], [0], [], [1]]
        assert [b.flush for b in batches] == [False, False, False, True]
        first = batches[0].body.splitlines()[0]
        assert first == json.dumps({"sensor": 1, "window": 10, "severity": 1.0}).encode()
        odd = driver.make_batches([(0, [(3, 7, 0.1 + 0.2)])], 5)[0].body
        assert json.loads(odd) == {"sensor": 3, "window": 7, "severity": 0.1 + 0.2}


class TestLayers:
    def test_self_time_subtracts_children(self):
        spans = [
            ["serve.respond", 0.0, 1.0, -1, "r", {}],
            ["analysis.query", 0.1, 0.8, 0, "r", {}],
            ["core.select", 0.2, 0.5, 1, "r", {"scanned": 10, "kept": 4}],
        ]
        assert layers.self_times(spans) == pytest.approx([0.3, 0.4, 0.3])
        trace = {"spans": spans, "locks": [[0.1, 0.15, 0.75, "r"]], "counts": {}}
        out = layers.serve_layers(trace, {"r": 1.25}, [(0.0, 1.0), (3.0, 4.0)])
        assert out["serve.transport_ms"] == pytest.approx(250.0)
        assert out["core.select_ms"] == pytest.approx(300.0)
        assert out["core.select.kept_frac"] == pytest.approx(0.4)
        assert out["serve.lock_wait_ms"] == pytest.approx(50.0)
        assert out["serve.lock_held_frac"] == pytest.approx(0.3)
        assert out["serve.respond_self_ms"] == pytest.approx(300.0)


class TestRecorder:
    def test_spans_nest_and_carry_the_request_id(self):
        rec = launch.Recorder()
        inner = rec.recorded("inner", lambda x: x * 2, lambda r, x: {"out": r})
        outer = rec.recorded(
            "outer", lambda x, request_id=None: inner(x) + 1, binds_request=True
        )
        assert outer(3, request_id="q1") == 7
        assert inner(1) == 2
        (o, i, bare) = rec.spans
        assert (o[0], o[3], o[4]) == ("outer", -1, "q1")
        assert (i[0], i[3], i[4], i[5]) == ("inner", 0, "q1", {"out": 6})
        assert (bare[3], bare[4]) == (-1, "")
        assert o[1] <= i[1] <= i[2] <= o[2]

    def test_timed_lock_records_each_hold(self):
        rec = launch.Recorder()
        lock = launch.TimedLock(threading.Lock(), rec)
        with lock:
            assert lock.locked()
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        lock.release()
        assert len(rec.locks) == 2
        for asked, got, released, rid in rec.locks:
            assert asked <= got <= released and rid == ""

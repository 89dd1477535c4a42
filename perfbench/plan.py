"""Workload definitions and the seeded request schedules they send.

Every workload serves a model built by ``repro build`` from one fixed
synthetic trace (:data:`TRACE_SEED`, benchmark scale, :data:`TRACE_MONTHS`
months), so the served data is identical across runs and only the
request schedule depends on the run's ``--seed``. The server receives
nothing but the requests generated here.

A run measures :data:`ROUNDS` rounds; each round runs every phase once,
in this order unless a workload says otherwise:

* **open loop** — ``/query`` requests due at fixed intervals of
  ``1 / rate`` seconds, sent over at most two connections and timed from
  their due time, so a stall is charged to every request it delays;
* **closed loop** — the round's share of a fixed list of
  :func:`closed_loop_count` requests (the schedule of
  :data:`CLOSED_SEED`, the same in every run), back to back over two
  connections. Each round's share is a fixed amount of work, so its
  rate counts no partial request and compares like with like across
  runs; ``query_sat_rps`` is the median of the rounds' rates;
* **ingest stream** — the round's share of ``stream_days``, posted to
  ``/ingest`` as fixed-size NDJSON batches, back to back. In
  ``live-ingest`` the stream runs beside the open loop (writes beside
  reads) and the closed loop asks 1-day queries over the days just
  streamed; elsewhere the stream follows the closed loop on a quiet
  server.

``live-ingest`` is not in ``BENCHMARK.json``: on a shared 2-vCPU host
its reads beside the stream spread past the bounds between runs of the
same code. It stays here to be run by hand (``steady.py --workload
live-ingest``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Seed of the synthetic trace every workload serves.
TRACE_SEED = 7
#: Months generated: the read workloads build the first month and stream
#: the next 28 days (enough days for a steady median visibility; each
#: day's close snapshots every day so far, so a longer stream slows as
#: it goes); ``live-ingest`` streams from day 14 on.
TRACE_MONTHS = 3
#: Days of the first month (the days the read workloads build).
MONTH_DAYS = 31
#: Events per ``/ingest`` batch.
BATCH_EVENTS = 2000
#: Seed of the closed loops' list: the same in every run, so each
#: round's rate measures the same requests whatever ``--seed`` is.
CLOSED_SEED = 0
#: Measured rounds per run; every round runs every phase once, so each
#: phase samples the host at many points of the run.
ROUNDS = 10

Spec = Dict[str, object]


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one served model."""

    name: str
    rate: float  #: open-loop /query per second
    built_days: int  #: ``repro build --days``
    query_days: int  #: reads cover days ``[0, query_days)``
    stream: Tuple[int, int]  #: streamed days, first and last inclusive
    beside_reads: bool  #: stream during the open loop instead of after
    telemetry: bool  #: serve with the production telemetry flags
    requests: Callable[..., List[Spec]]  #: (rng, workload, districts, count)
    #: every distinct read ``requests`` can draw: (workload, districts)
    reads: Callable[..., List[Spec]]
    #: length of the cycle ``requests`` repeats: (workload, districts).
    #: Open and closed loops ask whole cycles, so every run asks the
    #: same mix.
    cycle: Optional[Callable[..., int]] = None
    #: share of ``--seconds`` the open loop is sized to
    open_share: float = 0.64
    #: the closed loops ask this multiple of the open loop's count (its
    #: rounds must be long enough to see past the host's jitter)
    closed_share: float = 1.0

    @property
    def stream_days(self) -> List[int]:
        return list(range(self.stream[0], self.stream[1] + 1))


def _shuffled_cycles(rng: random.Random, choices: List[Spec], count: int) -> List[Spec]:
    """``count`` requests: seeded shuffles of ``choices``, back to back.

    Every full cycle asks each distinct request once, so runs with
    different seeds differ in order, not in mix.
    """
    out: List[Spec] = []
    while len(out) < count:
        cycle = list(choices)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


def _week_windows(w: "Workload", districts) -> List[Spec]:
    return [{"first_day": f, "days": 7} for f in range(w.query_days - 6)]


def _day_windows(w: "Workload", districts) -> List[Spec]:
    return day_queries(range(w.query_days))


def _district_windows(w: "Workload", districts) -> List[Spec]:
    return [
        {"first_day": first, "days": days, "sensors": list(sensors)}
        for sensors in districts
        for days in (1, 7)
        for first in range(w.query_days - days + 1)
    ]


def _city_week(rng, w: "Workload", districts, count: int) -> List[Spec]:
    return _shuffled_cycles(rng, _week_windows(w, districts), count)


def _city_day(rng, w: "Workload", districts, count: int) -> List[Spec]:
    return _shuffled_cycles(rng, _day_windows(w, districts), count)


#: Window lengths of a district's cycle: two 1-day windows per 7-day
#: one. With a 1:1 mix the median would sit on the boundary between the
#: two latency modes and jump between them across seeds.
DISTRICT_LENGTHS = (1, 1, 7)


def _district_cycle(w: "Workload", districts) -> int:
    return len(districts) * len(DISTRICT_LENGTHS)


def _district_drill(rng, w: "Workload", districts, count: int) -> List[Spec]:
    # every (district, length) pair once per cycle, in seeded shuffles:
    # each run asks every district equally often at each length (the
    # large districts' 7-day reads set the p90)
    pairs = _shuffled_cycles(
        rng, [{"sensors": s, "days": d} for s in districts for d in DISTRICT_LENGTHS],
        count)
    return [
        {
            "first_day": rng.randrange(w.query_days - pair["days"] + 1),
            "days": pair["days"],
            "sensors": list(pair["sensors"]),
        }
        for pair in pairs
    ]


#: Why each workload exists, with its rate, is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="city-week",
            rate=1.6,
            built_days=MONTH_DAYS,
            query_days=MONTH_DAYS,
            stream=(31, 58),
            beside_reads=False,
            telemetry=False,
            requests=_city_week,
            reads=_week_windows,
            cycle=lambda w, districts: len(_week_windows(w, districts)),
            closed_share=0.5,
        ),
        Workload(
            name="district-drill",
            rate=10.0,
            built_days=MONTH_DAYS,
            query_days=MONTH_DAYS,
            stream=(31, 58),
            beside_reads=False,
            telemetry=True,
            requests=_district_drill,
            reads=_district_windows,
            cycle=_district_cycle,
            open_share=0.5,
            closed_share=2.0,
        ),
        Workload(
            name="live-ingest",
            rate=3.0,
            built_days=14,
            query_days=14,
            stream=(14, 84),
            beside_reads=True,
            telemetry=False,
            requests=_city_day,
            reads=_day_windows,
        ),
    )
}


def request_list(
    workload: Workload,
    seed: int,
    count: int,
    districts: Sequence[List[int]] = (),
) -> List[Spec]:
    """The first ``count`` requests of ``workload`` for ``seed``.

    The same ``(workload, seed)`` always yields the same list.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.requests(rng, workload, districts, count)


def _whole_cycles(workload: Workload, count: int, districts) -> int:
    """``count`` rounded to the nearest whole number of cycles (at least
    one), or to at least one request per round without a cycle."""
    if workload.cycle is None:
        return max(ROUNDS, count)
    cycle = workload.cycle(workload, districts)
    return cycle * max(1, round(count / cycle))


def open_loop_count(workload: Workload, seconds: float,
                    districts: Sequence[List[int]] = ()) -> int:
    """Requests the open loop schedules for a ``seconds``-long run.

    With the stream beside the reads the loop lasts as long as the
    stream, so the list is sized generously and cut off when it ends.
    """
    if workload.beside_reads:
        return int(workload.rate * 600)
    return _whole_cycles(
        workload, int(workload.rate * seconds * workload.open_share), districts)


def share(items: Sequence, part: int, parts: int) -> Sequence:
    """Part ``part`` of ``items`` cut into ``parts`` contiguous, near-equal
    parts (together they are ``items``, in order)."""
    size = len(items)
    return items[part * size // parts:(part + 1) * size // parts]


def closed_list(workload: Workload, open_count: int,
                districts: Sequence[List[int]] = ()) -> List[Spec]:
    """The closed loops' requests: the :data:`CLOSED_SEED` schedule, so
    every run asks the same list."""
    return request_list(workload, CLOSED_SEED,
                        closed_loop_count(workload, open_count, districts),
                        districts)


def closed_loop_count(workload: Workload, open_count: int,
                      districts: Sequence[List[int]] = ()) -> int:
    """Requests the closed loops of a run ask, split over the rounds:
    ``closed_share`` times the open loop's count, in whole cycles."""
    return _whole_cycles(workload, int(open_count * workload.closed_share),
                         districts)


def warmup_requests(workload: Workload) -> List[Spec]:
    """Untimed whole-city 7-day reads that touch every built day."""
    last = workload.built_days - 7
    firsts = sorted(set(list(range(0, last + 1, 7)) + [last]))
    return [{"first_day": first, "days": 7} for first in firsts]


def day_queries(days: Sequence[int]) -> List[Spec]:
    """Whole-city 1-day queries over ``days``."""
    return [{"first_day": day, "days": 1} for day in days]


def model_label(days: int) -> str:
    """Name of the model built from days ``[0, days)`` (answer-key files)."""
    return f"{days}d"


def checked_reads(w: Workload, districts: Sequence[List[int]] = ()) -> Dict[int, List[Spec]]:
    """Every ``/query`` answer ``w`` checks, by the days of the model that
    must give it.

    The reads are answered like the built model; with the stream beside
    the reads, 1-day queries over the streamed days are answered like a
    batch build of every day up to the last streamed one.
    """
    out = {w.built_days: w.reads(w, districts)}
    if w.beside_reads:
        out[w.stream[1] + 1] = day_queries(w.stream_days)
    return out


def spec_key(spec: Spec) -> str:
    """Canonical string form of a request (answer-key lookups)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def district_sensors(sensor_district: Dict[int, int]) -> List[List[int]]:
    """Sorted sensor lists of the non-empty districts, by district id."""
    by_district: Dict[int, List[int]] = {}
    for sensor, district in sensor_district.items():
        by_district.setdefault(int(district), []).append(int(sensor))
    return [sorted(by_district[d]) for d in sorted(by_district)]

"""The HTTP client side: open loop, closed loop and the ingest stream.

Every request opens its own connection (``Connection: close``), so at
any moment the client holds at most as many connections as it has
sender threads — two, or one each for reads and the stream. Times are
``time.perf_counter()`` readings, which on Linux share the monotonic
clock with the server process.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from plan import Spec, spec_key
from quantiles import median

#: Seconds before an unanswered request counts as failed.
TIMEOUT = 60.0

Verify = Callable[[Spec, Dict[str, object]], bool]


@dataclass
class Sample:
    """One ``/query`` request as the client saw it."""

    index: int
    request_id: str
    due: float  #: when it was scheduled to be sent
    sent: float  #: when it was sent
    done: float  #: when the whole response was read
    late: float  #: send delay the client itself caused (seconds)
    ok: bool  #: 200 with the expected answer

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send to the full response."""
        return self.done - self.due


def call(
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, bytes]:
    """One request on a fresh connection; ``(0, b"")`` when it failed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        conn.request(method, path, body, {"Connection": "close", **(headers or {})})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def post_query(port: int, spec: Spec, request_id: str) -> Tuple[int, bytes]:
    return call(
        port,
        "POST",
        "/query",
        json.dumps(spec).encode(),
        {"Content-Type": "application/json", "X-Request-Id": request_id},
    )


def _answer_ok(status: int, payload: bytes, spec: Spec, verify: Verify) -> bool:
    if status != 200:
        return False
    try:
        return verify(spec, json.loads(payload))
    except ValueError:
        return False


def open_loop(
    port: int,
    specs: Sequence[Spec],
    rate: float,
    senders: int,
    verify: Verify,
    stop: Optional[threading.Event] = None,
    prefix: str = "q",
) -> List[Sample]:
    """Send ``specs[i]`` due at ``start + i / rate`` from ``senders`` threads.

    A sender takes the next request as soon as it is free and sleeps
    until it is due; when every sender is busy the request waits, and its
    latency (timed from the due time) carries the wait. ``late`` is the
    delay between the moment a request could first be sent and the
    moment it was — the generator's own lag, not the server's backlog.
    ``stop`` ends the loop early (no new requests are taken once set).
    """
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(specs) or (stop is not None and stop.is_set()):
                    return
                cursor[0] += 1
            due = start + index / rate
            picked = time.perf_counter()
            if due > picked:
                time.sleep(due - picked)
            request_id = f"{prefix}{index:05d}"
            sent = time.perf_counter()
            status, payload = post_query(port, specs[index], request_id)
            done = time.perf_counter()
            ok = _answer_ok(status, payload, specs[index], verify)
            with lock:
                samples.append(
                    Sample(index, request_id, due, sent, done,
                           sent - max(due, picked), ok)
                )

    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.index)
    return samples


@dataclass
class ClosedLoop:
    completed: int = 0  #: correct answers
    failed: int = 0
    answered: set = field(default_factory=set)  #: keys answered correctly
    #: per :func:`closed_loop` call: correct answers, and seconds from its
    #: start to its last completion
    rounds: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def rps(self) -> float:
        """The median over the calls of correct answers per second (a
        short stall of the host moves one call's rate, not the median)."""
        return median(n / s for n, s in self.rounds if s > 0)


def closed_loop(
    port: int,
    specs: Sequence[Spec],
    senders: int,
    verify: Verify,
    out: ClosedLoop,
    prefix: str = "c",
) -> None:
    """Send each of ``specs`` once, back to back on ``senders`` threads.

    The work is fixed, so the rate is not cut by a deadline mid-request;
    completions and the time from the start to the last completion add
    to ``out``.
    """
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()
    last = [start]
    completed = out.completed

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(specs):
                    return
                cursor[0] += 1
            spec = specs[index]
            request_id = f"{prefix}{index:05d}"
            status, payload = post_query(port, spec, request_id)
            ok = _answer_ok(status, payload, spec, verify)
            with lock:
                last[0] = max(last[0], time.perf_counter())
                if ok:
                    out.completed += 1
                    out.answered.add(spec_key(spec))
                else:
                    out.failed += 1

    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.rounds.append((out.completed - completed, last[0] - start))


# ----------------------------------------------------------------------
# ingest stream
# ----------------------------------------------------------------------
Row = Tuple[int, int, float]


@dataclass
class Batch:
    body: bytes
    events: int
    last_of: List[int]  #: days whose last event this batch carries
    flush: bool


def make_batches(day_rows: Sequence[Tuple[int, List[Row]]], size: int) -> List[Batch]:
    """Fixed-size NDJSON batches over the days' rows, in stream order.

    The final batch asks the server to flush, closing the last day, so a
    stream can pause after it.
    """
    flat: List[Tuple[int, Row]] = [
        (day, row) for day, rows in day_rows for row in rows
    ]
    batches: List[Batch] = []
    for first in range(0, len(flat), size):
        chunk = flat[first:first + size]
        end = first + len(chunk)
        last_of = [
            day
            for day in dict.fromkeys(d for d, _ in chunk)
            if end == len(flat) or flat[end][0] != day
        ]
        # the same text json.dumps gives (floats render as their repr),
        # several times faster for the ~0.5M events of a stream
        body = "".join(
            f'{{"sensor": {s}, "window": {w}, "severity": {v!r}}}\n'
            for _, (s, w, v) in chunk
        ).encode()
        batches.append(Batch(body, len(chunk), last_of, end == len(flat)))
    return batches


@dataclass
class StreamResult:
    sent_events: int = 0
    accepted: int = 0
    rejected: int = 0
    failed_batches: int = 0
    batches: int = 0
    visible: Dict[int, float] = field(default_factory=dict)  #: day → s
    #: per :func:`stream` call: accepted events, and seconds from its
    #: first send to its last response, day closes and snapshots included
    chunks: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def events_per_s(self) -> float:
        """The median over the calls of accepted events per second (each
        call streams whole days, closes and snapshots included)."""
        return median(n / s for n, s in self.chunks if s > 0)


def stream(port: int, batches: Sequence[Batch], out: StreamResult) -> None:
    """Post ``batches`` to ``/ingest`` back to back, adding to ``out``.

    For each day, visibility is the time from sending the batch that
    carries its last event to receiving the response that lists it in
    ``closed_days``.
    """
    pending: Dict[int, float] = {}
    accepted = out.accepted
    start = time.perf_counter()
    for batch in batches:
        number = out.batches
        path = "/ingest?flush=1" if batch.flush else "/ingest"
        sent = time.perf_counter()
        for day in batch.last_of:
            pending[day] = sent
        status, payload = call(
            port,
            "POST",
            path,
            batch.body,
            {"Content-Type": "application/x-ndjson",
             "X-Request-Id": f"i{number:06d}"},
        )
        done = time.perf_counter()
        out.batches += 1
        out.sent_events += batch.events
        if status != 200:
            out.failed_batches += 1
            continue
        doc = json.loads(payload)
        out.accepted += int(doc.get("accepted", 0))
        out.rejected += int(doc.get("rejected", 0))
        for day in doc.get("closed_days", ()):
            if day in pending:
                out.visible[int(day)] = done - pending.pop(day)
    out.chunks.append((out.accepted - accepted, time.perf_counter() - start))

"""The repository benchmark: ``/query`` and ``/ingest`` over HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city-week --seed 1 --seconds 40 --trace 0

The benchmark prepares a synthetic trace with ``repro generate`` (input
preparation, not timed), builds and serves it with ``repro build`` and
``repro serve``, drives the server from this process over at most two
connections, checks every answer against a key computed in process from
the same model, and prints one JSON object as its last line:

* ``--trace 0`` — the end-to-end metrics (:data:`END_TO_END`);
* ``--trace 1`` — the per-layer metrics (:data:`layers.PER_LAYER`): an
  untraced pass and a pass whose build and server run under
  ``perfbench/launch.py``, each half as long as an untraced run; their
  ``/query`` medians give the tracing overhead.

The line before it is the run's provenance row. Generated traces,
batch-built check models and answer keys are cached under
``perfbench/.work/cache``, keyed by a digest of the program and
benchmark sources; everything else a run writes lives in a per-run
directory, removed at exit unless the run failed (its path is then
printed on standard error).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TMP = WORK / "tmp"

import answerkey  # noqa: E402
import driver  # noqa: E402
import layers  # noqa: E402
import plan  # noqa: E402
from quantiles import INF, latencies_with_failures, median, nearest_rank  # noqa: E402

#: End-to-end metrics: name → unit.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_sat_rps": "req/s",
    "ingest_events_per_s": "events/s",
    "ingest_visible_ms": "ms",
    "server_rss_mb": "MiB",
    "model_mb": "MiB",
    "ok_frac": "ratio",
}
#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run whose generator sent its 90th-percentile request later than
#: this after it could have is marked invalid.
LATE_LIMIT_S = 0.02
#: Reported in place of an infinite latency (JSON has no infinity).
FAILED_MS = 1e9
MODEL_FILES = ("forest.bin", "cube.bin", "engine.json")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a command failed)."""


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources (cache key)."""
    sha = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            if ".work" in path.parts:
                continue
            sha.update(str(path.relative_to(ROOT)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # the parallel build spills shard results to the temp directory;
    # keep them inside the checkout
    TMP.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(TMP)
    return env


def repro(args: List[str], spans: Optional[Path] = None) -> List[str]:
    """The command line running ``repro args`` (traced when ``spans``)."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "launch.py"), str(spans), "--", *args]


def spawn(cmd: List[str], log: Path) -> subprocess.Popen:
    """Start ``cmd`` in a process group of its own, output to ``log``."""
    with log.open("ab") as out:
        return subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)


def reap(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s process group and wait for it.

    A build interrupted mid-way would otherwise leave its pool workers
    running.
    """
    for _ in range(500):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()
        time.sleep(0.01)
    proc.wait()


def run_checked(cmd: List[str], log: Path) -> None:
    proc = spawn(cmd, log)
    try:
        code = proc.wait()
    finally:
        reap(proc)
    if code != 0:
        raise BenchError(f"{' '.join(cmd[2:5])} exited {code}; see {log}")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def prepare_trace(cache: Path, log: Path) -> Path:
    """The generated trace, made once per cache directory."""
    data = cache / "trace"
    if (data / "catalog.json").exists():
        return data
    scratch = cache / f"trace.tmp{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    run_checked(
        repro(["generate", "--out", str(scratch), "--scale", "benchmark",
               "--months", str(plan.TRACE_MONTHS), "--seed", str(plan.TRACE_SEED),
               "--log-level", "warning"]),
        log,
    )
    try:
        scratch.rename(data)
    except OSError:  # a concurrent run won the race
        shutil.rmtree(scratch, ignore_errors=True)
    os.sync()  # no writeback of the new trace during the measured phases
    return data


def load_keys(cache: Path, label: str, data: Path, model: Path,
              specs: List[plan.Spec]) -> Dict[str, str]:
    """Answer keys for ``specs``, computing and caching the missing ones."""
    path = cache / f"keys-{label}.json"
    keys: Dict[str, str] = json.loads(path.read_text()) if path.exists() else {}
    missing = [s for s in specs if plan.spec_key(s) not in keys]
    if missing:
        keys.update(answerkey.compute_keys(data, model, missing))
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(keys))
        tmp.replace(path)
    return keys


def cached_model(cache: Path, data: Path, days: int, log: Path) -> Path:
    """A ``repro build`` of days ``[0, days)``, made once per cache directory."""
    model = cache / f"model-{plan.model_label(days)}"
    if not (model / "engine.json").exists():
        scratch = cache / f"model.tmp{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        run_checked(repro(["build", "--data", str(data), "--model", str(scratch),
                           "--days", str(days), "--workers", "2",
                           "--log-level", "warning"]), log)
        shutil.rmtree(model, ignore_errors=True)
        scratch.rename(model)
    return model


def district_list(data: Path) -> List[List[int]]:
    """Sensor lists of the trace's non-empty districts."""
    from repro.simulate.generator import TrafficSimulator

    return plan.district_sensors(
        TrafficSimulator.from_catalog_dir(data).districts().sensor_district_map()
    )


def stream_chunks(data: Path, days: List[int]) -> List[Tuple[List[int], List[driver.Batch]]]:
    """The streamed days' events, window-major, as ``/ingest`` batches.

    The days are cut into :data:`plan.ROUNDS` contiguous chunks, one per
    measured round; each chunk's last batch flushes its last day.
    """
    from repro.loadgen import iter_event_batches
    from repro.simulate.generator import TrafficSimulator

    per_day = TrafficSimulator.from_catalog_dir(data).window_spec.windows_per_day
    # a day's windows fit one batch, so each (day, rows) is a whole day
    day_rows = list(iter_event_batches(data, days[0], len(days),
                                       windows_per_batch=per_day))
    chunks = [plan.share(day_rows, part, plan.ROUNDS) for part in range(plan.ROUNDS)]
    return [([day for day, _ in chunk], driver.make_batches(chunk, plan.BATCH_EVENTS))
            for chunk in chunks]


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@dataclass
class Server:
    proc: subprocess.Popen
    port: int

    def rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """Graceful SIGTERM drain (30 s at most), then nothing left over."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        reap(self.proc)


def serve_args(w: plan.Workload, data: Path, model: Path, run_dir: Path,
               port: int) -> List[str]:
    args = ["serve", "--data", str(data), "--model", str(model),
            "--port", str(port), "--ingest",
            "--ingest-snapshot-dir", str(run_dir / "snapshots")]
    if w.telemetry:
        args += ["--tsdb-dir", str(run_dir / "tsdb"),
                 "--trace-dir", str(run_dir / "traces"),
                 "--prof", "--prof-dir", str(run_dir / "prof"),
                 "--slo", str(ROOT / "examples" / "slo.yaml")]
    return args


def setup(w: plan.Workload, data: Path, where: Path, tag: str,
          traced: bool) -> Tuple[Server, float]:
    """``repro build`` then ``repro serve`` until ``/healthz`` answers 200.

    The model, snapshots and telemetry live under ``where``; ``tag``
    names the log and span files.
    """
    where.mkdir(parents=True, exist_ok=True)
    model = where / "model"
    log = where / "bench.log"
    shutil.rmtree(model, ignore_errors=True)
    shutil.rmtree(where / "snapshots", ignore_errors=True)
    port = free_port()
    build_spans = where / f"build-{tag}.json" if traced else None
    serve_spans = where / f"serve-{tag}.json" if traced else None
    started = time.perf_counter()
    run_checked(
        repro(["build", "--data", str(data), "--model", str(model),
               "--days", str(w.built_days), "--workers", "2",
               "--log-level", "warning"], build_spans),
        log,
    )
    proc = spawn(repro(serve_args(w, data, model, where, port), serve_spans),
                 where / f"serve-{tag}.log")
    server = Server(proc, port)
    deadline = started + 120
    while True:
        if proc.poll() is not None:
            raise BenchError(f"repro serve exited {proc.returncode} at start")
        status, _ = driver.call(port, "GET", "/healthz")
        if status == 200:
            return server, time.perf_counter() - started
        if time.perf_counter() > deadline:
            server.stop()
            raise BenchError("repro serve never became healthy")
        time.sleep(0.005)


# ----------------------------------------------------------------------
# one session: setup, warm-up, measured rounds, checks
# ----------------------------------------------------------------------
@dataclass
class Session:
    setup_s: List[float] = field(default_factory=list)
    samples: List[driver.Sample] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)
    closed: driver.ClosedLoop = field(default_factory=driver.ClosedLoop)
    stream: driver.StreamResult = field(default_factory=driver.StreamResult)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    rss_mb: float = 0.0
    model_mb: float = 0.0
    spans: Dict[str, dict] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.problems.append(why)

    @property
    def latency_ms(self) -> List[float]:
        lat = latencies_with_failures(
            [s.latency for s in self.samples], [not s.ok for s in self.samples]
        )
        return [1000.0 * v for v in lat]

    @property
    def gen_late_ms(self) -> float:
        return 1000.0 * nearest_rank([s.late for s in self.samples], 0.9)


@dataclass
class Inputs:
    w: plan.Workload
    data: Path
    cache: Path
    specs: List[plan.Spec]  #: the open loop's schedule
    closed: List[plan.Spec]  #: the closed loops' list, split over the rounds
    chunks: List[Tuple[List[int], List[driver.Batch]]]  #: (days, batches) per round


def run_session(inp: Inputs, run_dir: Path, setups: int, traced: bool) -> Session:
    """Set up, warm up, then :data:`plan.ROUNDS` measured rounds.

    Each round runs every phase briefly — open loop, closed loop, stream
    chunk (in ``live-ingest`` the open loop runs beside the stream
    chunk) — so each metric samples the whole run rather than one slice
    of it. Extra setups (``setups - 1``) are timed between rounds spread
    over the run, on a second, throwaway model and server while the
    measured server idles.
    With the stream beside the reads, each round's closed loop asks 1-day
    queries over the days that round streamed, checked against a batch
    build.
    """
    w = inp.w
    out = Session()
    servers: List[Server] = []
    try:
        server, seconds = setup(w, inp.data, run_dir, "main", traced)
        servers.append(server)
        out.setup_s.append(seconds)
        model = run_dir / "model"
        out.model_mb = sum((model / n).stat().st_size for n in MODEL_FILES) / 2**20
        verify = answer_check(inp, model, run_dir, out)
        for spec in plan.warmup_requests(w):
            status, _ = driver.post_query(server.port, spec, "warmup")
            out.attempted += 1
            out.fail(int(status != 200), f"warm-up answered {status}")

        rounds = len(inp.chunks)
        # the extra setups, spread over the run
        probes = {(i + 1) * rounds // setups - 1 for i in range(setups - 1)}
        offset = 0
        for number, (days, chunk) in enumerate(inp.chunks):
            prefix = f"q{number}-"
            started = time.perf_counter()
            if w.beside_reads:
                done = threading.Event()

                def writer(batches=chunk) -> None:
                    try:
                        driver.stream(server.port, batches, out.stream)
                    finally:
                        done.set()

                thread = threading.Thread(target=writer)
                thread.start()
                samples = driver.open_loop(server.port, inp.specs[offset:],
                                           w.rate, 1, verify, stop=done,
                                           prefix=prefix)
                thread.join()
            else:
                samples = driver.open_loop(
                    server.port, plan.share(inp.specs, number, rounds), w.rate, 2,
                    verify, prefix=prefix)
            out.windows.append((started, time.perf_counter()))
            offset += len(samples)
            out.samples.extend(samples)
            closed = (plan.day_queries(days) if w.beside_reads
                      else plan.share(inp.closed, number, rounds))
            driver.closed_loop(server.port, closed, 2, verify, out.closed,
                               prefix=f"c{number}-")
            if not w.beside_reads:
                driver.stream(server.port, chunk, out.stream)
            if number in probes:
                probe, seconds = setup(w, inp.data, run_dir / "probe", str(number),
                                       traced=False)
                servers.append(probe)
                probe.stop()
                out.setup_s.append(seconds)

        out.attempted += len(out.samples) + out.closed.completed + out.closed.failed
        out.fail(sum(not s.ok for s in out.samples), "open-loop answers wrong")
        out.fail(out.closed.failed, "closed-loop answers wrong")
        check_stream(inp, out, server.port, verify)
        out.rss_mb = server.rss_mb()
    finally:
        for server in servers:
            server.stop()
    if traced:
        for kind in ("build", "serve"):
            out.spans[kind] = json.loads((run_dir / f"{kind}-main.json").read_text())
    return out


def answer_check(inp: Inputs, model: Path, run_dir: Path,
                 out: Session) -> driver.Verify:
    """The check every served ``/query`` answer must pass.

    A served answer must equal the committed answer
    (:data:`answerkey.REFERENCE`) and the in-process key computed with
    the code under test from the served model — or, for the streamed
    days, from a batch build of the same days. In-process keys that
    differ from the committed ones are reported as a problem, so a
    failing run says which side moved.
    """
    w = inp.w
    keys = load_keys(inp.cache, plan.model_label(w.built_days), inp.data,
                     model, inp.specs + inp.closed)
    models = [w.built_days]
    if w.beside_reads:
        days = w.stream[1] + 1
        batch = cached_model(inp.cache, inp.data, days, run_dir / "bench.log")
        keys.update(load_keys(inp.cache, plan.model_label(days), inp.data, batch,
                              plan.day_queries(w.stream_days)))
        models.append(days)
    reference = answerkey.load_reference(models)
    moved = sum(reference.get(answerkey.spec_id(k)) != v[:answerkey.SHORT]
                for k, v in keys.items())
    if moved:
        out.problems.append(f"{moved} in-process answers differ from "
                            f"{answerkey.REFERENCE.name}")

    def verify(spec: plan.Spec, doc: Dict[str, object]) -> bool:
        key = plan.spec_key(spec)
        digest = answerkey.answer_digest(doc)
        return (keys.get(key) == digest and
                reference.get(answerkey.spec_id(key)) == digest[:answerkey.SHORT])

    return verify


def check_stream(inp: Inputs, out: Session, port: int,
                 verify: driver.Verify) -> None:
    """Every streamed event accepted and every day closed; with the
    stream beside the reads, every streamed day also answers a 1-day
    query like a batch build (days the closed loops did not already
    check are asked here)."""
    s = out.stream
    out.attempted += s.batches
    out.fail(s.failed_batches, "ingest batches refused")
    out.fail(int(s.accepted != s.sent_events),
             f"ingest accepted {s.accepted} of {s.sent_events} events")
    out.fail(int(s.rejected != 0), f"ingest rejected {s.rejected} events")
    missing = sorted(set(inp.w.stream_days) - set(s.visible))
    out.fail(len(missing), f"days never closed: {missing}")
    if not inp.w.beside_reads:
        return
    for spec in plan.day_queries(inp.w.stream_days):
        key = plan.spec_key(spec)
        if key in out.closed.answered:
            continue
        status, payload = driver.post_query(port, spec, "check")
        out.attempted += 1
        good = status == 200 and verify(spec, json.loads(payload))
        out.fail(int(not good), f"streamed day {spec['first_day']} differs "
                 "from a batch build")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(out: Session) -> Dict[str, float]:
    lat = out.latency_ms
    finite = lambda v: FAILED_MS if v == INF else v  # noqa: E731
    return {
        "setup_s": median(out.setup_s),
        "query_p50_ms": finite(nearest_rank(lat, 0.5)),
        "query_p90_ms": finite(nearest_rank(lat, 0.9)),
        "query_sat_rps": out.closed.rps,
        "ingest_events_per_s": out.stream.events_per_s,
        "ingest_visible_ms": 1000.0 * median(out.stream.visible.values()),
        "server_rss_mb": out.rss_mb,
        "model_mb": out.model_mb,
        "ok_frac": 1.0 - out.failed / max(1, out.attempted),
    }


def per_layer(reference: Session, traced: Session) -> Dict[str, float]:
    latencies = {s.request_id: s.done - s.sent for s in traced.samples if s.ok}
    values: Dict[str, float] = {}
    serve = traced.spans.get("serve", {"spans": [], "locks": [], "counts": {}})
    values.update(layers.serve_layers(serve, latencies, traced.windows))
    values.update(layers.process_layers(serve))
    values.update(layers.build_layers(traced.spans.get("build", {"spans": []})))
    base = median(s.done - s.due for s in reference.samples)
    values["bench.gen_late_ms"] = traced.gen_late_ms
    values["bench.trace_overhead_frac"] = (
        median(s.done - s.due for s in traced.samples) / base - 1.0 if base else 0.0
    )
    return {name: values[name] for name in layers.PER_LAYER}


def provenance(args: argparse.Namespace, w: plan.Workload, digest: str,
               sessions: List[Session]) -> Dict[str, object]:
    import numpy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    late = max(s.gen_late_ms for s in sessions)
    return {
        "workload": w.name,
        "seed": args.seed,
        "trace_seed": plan.TRACE_SEED,
        "closed_seed": plan.CLOSED_SEED,
        "rate": w.rate,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "open_loop_requests": [len(s.samples) for s in sessions],
        "gen_late_p90_ms": late,
        "valid": late <= 1000.0 * LATE_LIMIT_S,
        "problems": [p for s in sessions for p in s.problems],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the finally blocks stop the servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = plan.WORKLOADS[args.workload]
    digest = source_digest()
    cache = WORK / "cache" / digest[:16]
    for stale in (WORK / "cache").glob("*"):
        if stale != cache:  # inputs and keys of other source versions
            shutil.rmtree(stale, ignore_errors=True)
    cache.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # the run's files (logs, spans, models) go unless something failed
    keep = True
    try:
        data = prepare_trace(cache, run_dir / "bench.log")
        districts = district_list(data) if w.name == "district-drill" else []
        # a traced run makes two passes, each half as long, so it takes
        # about as long as an untraced one
        seconds = args.seconds / 2 if args.trace else args.seconds
        specs = plan.request_list(
            w, args.seed, plan.open_loop_count(w, seconds, districts), districts
        )
        inp = Inputs(w, data, cache, specs,
                     plan.closed_list(w, len(specs), districts),
                     stream_chunks(data, w.stream_days))
        if args.trace:
            # alternate which pass runs first, so run order does not bias
            # the tracing overhead across seeds
            order = (False, True) if args.seed % 2 else (True, False)
            sessions = [run_session(inp, run_dir, 1, traced=t) for t in order]
            reference, traced = sessions if order[1] else sessions[::-1]
            metrics = {n: (v, layers.PER_LAYER[n])
                       for n, v in per_layer(reference, traced).items()}
        else:
            sessions = [run_session(inp, run_dir, SETUPS, traced=False)]
            metrics = {n: (v, END_TO_END[n])
                       for n, v in end_to_end(sessions[0]).items()}
        attempted = sum(s.attempted for s in sessions)
        failed = sum(s.failed for s in sessions)
        keep = failed > 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if keep:
            print(f"run files kept in {run_dir}", file=sys.stderr)
        else:
            shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(provenance(args, w, digest, sessions)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run each workload several times and print every metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workload city-week ...]
                                [--first-seed 1] [--seconds N] [--trace 0|1]

Each run is ``perfbench/run.py`` with its own seed. Every result row
(provenance plus metrics) is appended to
``perfbench/.work/results/steady.jsonl``; the table gives, per workload
and metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``. Runs marked invalid (generator behind
schedule) or incorrect are listed and left out of the spreads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from quantiles import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / ".work" / "results" / "steady.jsonl"


def _bench_config() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """One ``run.py`` invocation → its provenance row with the result."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "valid": False,
                "error": proc.stderr.strip()[-500:], "exit": proc.returncode}
    row = json.loads(lines[-2])
    row["result"] = json.loads(lines[-1])
    row["wall_s"] = time.perf_counter() - started
    return row


def main(argv: List[str] | None = None) -> int:
    config = _bench_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    metrics = config["per_layer" if args.trace else "end_to_end"]
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            row = run_once(workload, seed, args.seconds, args.trace)
            with RESULTS.open("a") as out:
                out.write(json.dumps(row) + "\n")
            good = row.get("valid") and row.get("result", {}).get("correct")
            print(f"{workload} seed={seed} wall={row.get('wall_s', 0):.1f}s "
                  f"{'ok' if good else 'EXCLUDED ' + str(row.get('error') or row.get('problems'))}",
                  flush=True)
            if good:
                rows.append(row)
        print(f"\n{workload}: {len(rows)} of {args.runs} runs counted")
        print(f"{'metric':34} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in rows]
            if not values:
                continue
            s = spread(values)
            iqr = "-" if s["iqr_frac"] is None else f"{s['iqr_frac']:.3f}"
            print(f"{metric['name']:34} {metric['unit']:9} {s['median']:12.4f} "
                  f"{s['q1']:12.4f} {s['q3']:12.4f} {iqr:>8} "
                  f"{metric.get('bound', '-'):>6}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

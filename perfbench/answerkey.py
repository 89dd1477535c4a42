"""Expected ``/query`` answers: committed, and computed in process.

The key for a request is the digest of the served payload's canonical
form. Two parts of an answer are not compared: ``cluster_id`` and the
id-bearing ``report`` text (query-time merges draw ids from a generator
shared by every query an engine answers, so ids depend on what was asked
before), and the timing and cache counters of ``stats``.

A served answer is checked twice. :data:`REFERENCE` holds the digests of
every answer the workloads check, as computed at the commit that
introduced the benchmark (``perfbench/reference.py`` writes it), so a
change that alters answers fails even when the server and an in-process
engine agree. :func:`compute_keys` recomputes them in process with the
code under test, so a served answer that differs from the engine's own
(a serving race, say) fails too.

This module imports the program (``repro``) lazily: canonicalising a
served payload needs nothing from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Mapping

from plan import Spec, model_label, spec_key

#: Committed answers: model label → :func:`spec_id` → digest prefix.
REFERENCE = Path(__file__).resolve().parent / "answers.json"
#: Hex digits of a digest kept in :data:`REFERENCE`.
SHORT = 16

#: Answer fields compared against the key.
ANSWER_FIELDS = (
    "strategy",
    "first_day",
    "num_days",
    "region",
    "region_sensors",
    "final_check",
    "returned",
    "stats",
    "clusters",
)
#: ``stats`` fields that are part of the answer (the rest are timings and
#: similarity-cache counters, which depend on earlier queries).
STABLE_STATS = (
    "input_clusters",
    "pruned_clusters",
    "red_zones",
    "candidate_districts",
    "merges",
    "final_check_removed",
)


def canonical(payload: Mapping[str, object]) -> Dict[str, object]:
    """The compared part of a ``/query`` payload."""
    out = {name: payload.get(name) for name in ANSWER_FIELDS}
    stats = payload.get("stats") or {}
    out["stats"] = {name: stats.get(name) for name in STABLE_STATS}
    out["clusters"] = [
        {k: v for k, v in cluster.items() if k != "cluster_id"}
        for cluster in payload.get("clusters") or ()
    ]
    return out


def answer_digest(payload: Mapping[str, object]) -> str:
    """SHA-256 of the canonical answer, as compact sorted JSON."""
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def spec_id(key: str) -> str:
    """Short id of a request's :func:`plan.spec_key` (keys of :data:`REFERENCE`)."""
    return hashlib.sha256(key.encode()).hexdigest()[:SHORT]


def load_reference(model_days: Iterable[int]) -> Dict[str, str]:
    """The committed answers of the models of ``model_days``, by spec id.

    A workload's models answer disjoint requests, so one mapping holds
    them all.
    """
    stored = json.loads(REFERENCE.read_text())
    out: Dict[str, str] = {}
    for days in model_days:
        out.update(stored.get(model_label(days), {}))
    return out


def compute_keys(
    data_dir: Path, model_dir: Path, specs: Iterable[Spec], limit: int = 10
) -> Dict[str, str]:
    """Answer digests for ``specs`` from a fresh in-process engine.

    Mirrors the ``/query`` handler: ``AnalysisEngine.load`` → ``query``
    (Gui, explain on) → ``build_report`` with the server's default limit,
    then the same payload fields, round-tripped through JSON.
    """
    from repro.analysis.engine import AnalysisEngine, EngineConfig
    from repro.analysis.report import build_report
    from repro.simulate.generator import TrafficSimulator
    from repro.spatial.regions import QueryRegion

    simulator = TrafficSimulator.from_catalog_dir(data_dir)
    engine = AnalysisEngine.load(
        model_dir, simulator.network, simulator.districts(), EngineConfig()
    )
    keys: Dict[str, str] = {}
    for spec in specs:
        key = spec_key(spec)
        if key in keys:
            continue
        sensors = spec.get("sensors")
        region = (
            engine.whole_city()
            if sensors is None
            else QueryRegion("request", (int(s) for s in sensors))
        )
        result = engine.query(
            region,
            int(spec["first_day"]),
            int(spec["days"]),
            strategy="gui",
            final_check=False,
            delta_s=None,
            explain=True,
        )
        report = build_report(
            result, engine.network, engine.forest.window_spec, limit=limit
        )
        payload = {
            "strategy": "gui",
            "first_day": int(spec["first_day"]),
            "num_days": int(spec["days"]),
            "region": region.name,
            "region_sensors": len(region),
            "final_check": False,
            "returned": len(result.returned),
            "stats": dataclasses.asdict(result.stats),
            "clusters": [dataclasses.asdict(c) for c in report.clusters],
        }
        keys[key] = answer_digest(json.loads(json.dumps(payload)))
    return keys

"""Write ``answers.json``, the committed answers every run is checked against.

Usage (from the repository root)::

    python3 perfbench/reference.py

Computes in process, on the benchmark's fixed trace, the answer digest of
every distinct ``/query`` each workload checks (:func:`plan.checked_reads`)
and writes them by model and request (:data:`answerkey.REFERENCE`). Run it
only at a commit whose answers are known to be right: the file pins them,
so a later change that alters an answer fails every run that asks for it,
even when the server and the in-process engine agree.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

import answerkey
import plan
import run


def main() -> int:
    if not (run.SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    cache = run.WORK / "cache" / run.source_digest()[:16]
    cache.mkdir(parents=True, exist_ok=True)
    log = cache / "reference.log"
    data = run.prepare_trace(cache, log)
    districts = run.district_list(data)
    answers: Dict[str, Dict[str, str]] = {}
    for w in plan.WORKLOADS.values():
        for days, specs in plan.checked_reads(w, districts).items():
            label = plan.model_label(days)
            model = run.cached_model(cache, data, days, log)
            keys = run.load_keys(cache, label, data, model, specs)
            answers.setdefault(label, {}).update(
                (answerkey.spec_id(key), keys[key][:answerkey.SHORT])
                for key in map(plan.spec_key, specs)
            )
    answerkey.REFERENCE.write_text(json.dumps(answers, indent=0, sort_keys=True) + "\n")
    print(f"{answerkey.REFERENCE.name}: "
          + ", ".join(f"{label} {len(v)}" for label, v in sorted(answers.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())

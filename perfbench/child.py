"""Code that runs inside one child process of the benchmark.

    child.py [--spans FILE] cli ENTRY ARG...   call the console entry point
                                                (``module:function``) on ARGs
    child.py [--spans FILE] lib DATA SCHEMA SCORES OUTCOMES SEED B RESULT
                                                one pass of the library workload

With ``--spans`` the tracer wraps the package before any call and writes its
spans and counters to FILE when the work ends. The process exits with the
entry point's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402


def _cli(entry: str, argv: list[str]) -> int:
    module, _, function = entry.partition(":")
    return getattr(importlib.import_module(module), function)(argv)


def _lib(data: str, schema: str, scores: str, outcomes: str, seed: str, B: str,
         result: str) -> int:
    import numpy as np

    import fairaudit as fa

    d = fa.load_csv(data, json.loads(Path(schema).read_text(encoding="utf-8")))
    s, y = np.load(scores), np.load(outcomes)
    times, out = {"lib.bootstrap_ci_s": 0.0}, {}
    for name, statistic in (("di", fa.disparate_impact_statistic),
                            ("eo", fa.equal_opportunity_statistic)):
        start = time.perf_counter()
        iv = fa.bootstrap_ci(statistic, d, B=int(B), seed=int(seed))
        times["lib.bootstrap_ci_s"] += time.perf_counter() - start
        out[name] = {"lo": iv.lo, "hi": iv.hi, "replicates": iv.replicates}
    start = time.perf_counter()
    out["auc"] = fa.auc(s, y).value
    times["lib.auc_s"] = time.perf_counter() - start
    Path(result).write_text(json.dumps({"times": times, "values": out}), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    tracer = Tracer().install() if spans else None
    try:
        code = _cli(argv[1], argv[2:]) if argv[0] == "cli" else _lib(*argv[1:])
    finally:
        if tracer is not None:
            Path(spans).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED PASS MODE SPANS_PATH

Imports socodes from the checkout's ``src``, builds the M11 actions the
workload uses and prints ``ready`` (the parent times set-up up to that
line). MODE ``setup`` stops there. Otherwise the child runs every item once
in an order drawn from (SEED, PASS). Each item is timed on its own; its
output is checked against ``golden.json`` after the timer stops. The last
stdout line is a JSON record of the pass. With MODE ``trace`` the calls are
traced and the spans are written to SPANS_PATH; MODE ``plain`` runs
untraced.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv) -> int:
    workload, seed, pass_no, mode, spans_path = argv
    traced = mode == "trace"
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads
    from tracing import Tracer, layer_values

    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"socodes imported from outside {SRC}")
    golden = json.loads((HERE / "golden.json").read_text())[workload]

    tracer = Tracer()
    if traced:
        tracer.install(workloads.REJECTIONS)
    tracer.active = traced
    workloads.setup(workload)
    tracer.active = False
    n_setup_spans = len(tracer.spans)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    keys = workloads.items(workload, golden)
    random.Random(f"{seed}:{pass_no}").shuffle(keys)
    items = []
    for key in keys:
        tracer.active = traced
        t0 = perf_counter()
        try:
            out = workloads.run(key)
            error = None
        except Exception:  # the pass goes on; the item counts as failed
            error = traceback.format_exc(limit=4)
        seconds = perf_counter() - t0
        tracer.active = False
        if error is None:
            got = workloads.summary(key, out)
            ok = got == golden[key]
            if not ok:
                error = f"output differs from golden: {json.dumps(got)[:400]}"
        items.append({"item": key, "s": seconds, "ok": error is None,
                      "error": error})

    record = {
        "items": items,
        "body_s": sum(it["s"] for it in items),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    if traced:
        body = tracer.spans[n_setup_spans:]
        record["layers"] = layer_values(tracer.spans)
        record["covered_s"] = sum(s[3] - s[2] for s in body if s[1] == -1)
        Path(spans_path).write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end", "child_s",
                        "counters"],
             "setup_spans": n_setup_spans, "spans": tracer.spans}))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""socodes benchmark: one workload, one seed, one timed run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {tables,search,oddq} --seed N \
        --seconds S --trace {0,1}

A run is a sequence of passes, each in a fresh interpreter started one at
a time (``child.py``), so that no cache or memo carries over from one pass
to the next. Passes continue until S seconds have gone by, and there are
at least two (one traced pair with ``--trace 1``). With ``--trace 0`` every
pass is untraced, one more interpreter only sets up, and the run reports
the end-to-end metrics as medians over its passes:

* ``wall_s``: time spent in the workload's program calls in one pass;
* ``setup_s``: from starting the interpreter to the workload being ready
  (importing socodes, building and enumerating its M11 actions);
* ``peak_rss_mb``: the pass process's peak resident set size.

With ``--trace 1`` the run alternates an untraced and a traced pass and
reports the per-layer metrics of the traced passes, the tracing overhead
(traced minus untraced ``wall_s``) and the untraced remainder (``wall_s``
of a traced pass not covered by any span).

Every item's output is checked against ``golden.json``; a wrong output or
a crash counts as a failed check, and a crashed pass counts its remaining
items as failed. The last line of stdout is the JSON result. Each run also
writes its environment, raw per-pass samples and (traced) spans under
``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"
WORKLOADS = ("tables", "search", "oddq")
MIN_PASSES = 2
SETUP_ONLY = 1  # extra set-up-only children, so setup_s is a median of 3
RUN_DEADLINE_S = 170  # a pass still running this long after start is killed

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402


class SetupFailed(RuntimeError):
    pass


def run_pass(workload, seed, pass_no, mode, spans_path, deadline):
    """Start one child (``child.py``'s MODE) and time it; returns its
    record plus setup_s."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           str(pass_no), mode, str(spans_path)]
    t0 = time.perf_counter()
    # a fixed hash seed removes one source of pass-to-pass variation
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise SetupFailed(f"pass {pass_no} did not get ready:\n{err}")
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"setup_s": setup_s, "crashed": "timed out", "items": []}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if mode == "setup" and proc.returncode == 0:
        return {"setup_s": setup_s}
    if proc.returncode != 0 or not lines:
        return {"setup_s": setup_s, "crashed": err[-2000:], "items": []}
    record = json.loads(lines[-1])
    record["setup_s"] = setup_s
    return record


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(seed, seconds, trace, numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "seed": seed, "seconds": seconds, "trace": trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "socodes" / "__init__.py").is_file():
        print(f"no socodes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # bytecode is compiled once here, so no pass's setup_s includes it
    compileall.compile_dir(ROOT / "src", quiet=1)
    OUT.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"

    start = time.time()
    deadline = start + RUN_DEADLINE_S
    modes = ("plain", "trace") if args.trace else ("plain",)
    min_rounds = 1 if args.trace else MIN_PASSES
    passes, setups = [], []
    try:
        while (len(passes) < min_rounds * len(modes)
               or time.time() - start < args.seconds):
            for mode in modes:
                spans_path = OUT / f"{stamp}-pass{len(passes)}-spans.json"
                rec = run_pass(args.workload, args.seed, len(passes), mode,
                               spans_path, deadline)
                rec["traced"] = mode == "trace"
                passes.append(rec)
            if time.time() > deadline:
                break
        if not args.trace:
            for i in range(SETUP_ONLY):
                setups.append(run_pass(args.workload, args.seed, -1 - i,
                                       "setup", "-", deadline)["setup_s"])
    except SetupFailed as e:
        print(str(e), file=sys.stderr)
        return 2

    golden = json.loads((HERE / "golden.json").read_text())
    n_items = len(golden[args.workload])
    attempted = n_items * len(passes)
    failed = sum(n_items - sum(it["ok"] for it in p["items"]) for p in passes)
    errors = [f"{it['item']}: {it['error']}" for p in passes
              for it in p["items"] if not it["ok"]]
    errors += [f"pass crashed: {p['crashed']}" for p in passes
               if p.get("crashed")]

    plain = [p for p in passes if not p["traced"] and not p.get("crashed")]
    traced = [p for p in passes if p["traced"] and not p.get("crashed")]
    samples = {
        "wall_s": [p["body_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in plain] + setups,
        "peak_rss_mb": [p["maxrss_kb"] / 1024 for p in plain],
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    if not plain:
        errors.append("no untraced pass completed")
    elif not args.trace:
        for name, vals in samples.items():
            q1, med, q3 = quartiles(vals)
            print(f"{name:12s} median {med:.4f} {units[name]}  "
                  f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(vals)}")
            metrics[name] = {"value": med, "unit": units[name]}
    elif traced:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        traced_wall = statistics.median(p["body_s"] for p in traced)
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.untraced_remainder_s"] = statistics.median(
            p["body_s"] - p["covered_s"] for p in traced)
        layers["trace.overhead_s"] = traced_wall - statistics.median(
            samples["wall_s"])
        for name, unit, _better in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"{name:48s} {layers[name]:.6g} {unit}")
    else:
        errors.append("no traced pass completed")
    for line in errors[:20]:
        print("FAILED", line)

    numpy_version = plain[0]["numpy"] if plain else None
    record = {"env": environment(args.seed, args.seconds, args.trace,
                                 numpy_version),
              "passes": passes, "setup_only_s": setups, "metrics": metrics,
              "errors": errors}
    (OUT / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the benchmark's own tracing; run with

    python3 -m pytest -q perfbench

Tracing must not change any output, every traced name must be rebound in
the modules that imported it, self times must add up to span totals, and
the per-layer names must match BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from socodes import analysis, designs, tables  # noqa: E402

# a table through the CLI and an odd-characteristic item: together they
# reach every layer except the degree-165 path
KEYS = {"tables": ["t12"], "oddq": ["p5:55"]}
GOLDEN = json.loads((HERE / "golden.json").read_text())


def _summaries():
    return {key: workloads.summary(key, workloads.run(key))
            for keys in KEYS.values() for key in keys}


def _traced_summaries():
    tracer = tracing.Tracer()
    tracer.install(workloads.REJECTIONS)
    try:
        tracer.active = True
        out = _summaries()
    finally:
        tracer.active = False
        tracer.uninstall()
    return out, tracer.spans


def test_tracing_changes_no_output_and_restores_originals():
    originals = (designs.wso_search, tables.wso_search, tables.min_distance,
                 analysis.min_distance)
    plain = _summaries()
    traced, spans = _traced_summaries()
    assert traced == plain
    for workload, keys in KEYS.items():
        for key in keys:
            assert plain[key] == GOLDEN[workload][key]
    assert (designs.wso_search, tables.wso_search, tables.min_distance,
            analysis.min_distance) == originals
    names = {s[0] for s in spans}
    # reached only through names that tables and cli bound at import
    assert {"tables.check_table", "designs.wso_search",
            "analysis.min_distance", "constructions.from_fixed_split_binary",
            "constructions.from_orbitmatrix_q", "matrices.matmul",
            "groups.set_orbit"} <= names


def test_self_times_add_up():
    _, spans = _traced_summaries()
    child_sum = [0.0] * len(spans)
    for name, parent, start, end, child_s, _ in spans:
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert p[2] <= start and end <= p[3]
            child_sum[parent] += end - start
    for span, total in zip(spans, child_sum):
        assert abs(span[4] - total) < 1e-9
        assert span[3] - span[2] - span[4] >= -1e-9
    self_total = sum(s[3] - s[2] - s[4] for s in spans)
    top_total = sum(s[3] - s[2] for s in spans if s[1] == -1)
    assert abs(self_total - top_total) < 1e-6
    vals = tracing.layer_values(spans)
    self_keys = [k for k in vals if k.endswith(".self_s")]
    traced_names = {name for name, *_ in tracing.TRACED}
    assert {k[:-len(".self_s")] for k in self_keys} <= traced_names
    assert vals["tables.check_table.t12.total_s"] > 0
    assert vals["designs.wso_search.unions_tried"] >= vals["designs.wso_search.hits"] > 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER

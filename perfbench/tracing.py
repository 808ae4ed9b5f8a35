"""Spans around calls into socodes, recorded from outside the package.

``Tracer.install`` wraps the functions in ``TRACED``. A method is wrapped
on its class. A module-level function is rebound in every ``socodes``
module that holds it, because ``tables``, ``constructions`` and ``cli``
bind names such as ``wso_search`` and ``min_distance`` at import time and
would otherwise call the unwrapped original.

Each span records its name, its parent span, start and end from
``time.perf_counter`` and the time its child spans covered; self time is
the duration minus that. Spans stay in memory until the run writes them
out. ``layer_values`` folds them into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

MODULES = ("fields", "matrices", "groups", "m11", "designs", "orbitmat",
           "constructions", "analysis", "tables", "cli")

CONSTRUCTIONS = ("from_incidence_binary", "from_incidence_q",
                 "from_orbitmatrix_binary", "from_orbitmatrix_q",
                 "from_fixed_split_binary", "from_fixed_split_q")

# (span name, module, class or None, attribute)
TRACED = [
    ("fields.Field_init", "fields", "Field", "__init__"),
    ("fields.mul", "fields", "Field", "mul"),
    ("fields.extend_quadratic", "fields", "Field", "extend_quadratic"),
    ("matrices.GFMatrix_init", "matrices", "GFMatrix", "__init__"),
    ("matrices.matmul", "matrices", "GFMatrix", "__matmul__"),
    ("matrices.rref", "matrices", "GFMatrix", "rref"),
    ("groups.enumerate", "groups", "PermGroup", "enumerate"),
    ("groups.set_orbit", "groups", "PermGroup", "set_orbit"),
    ("groups.stabilizer", "groups", "PermGroup", "stabilizer"),
    ("groups.coset_action", "groups", "PermGroup", "coset_action"),
    ("groups.action_on_ksubsets", "groups", "PermGroup", "action_on_ksubsets"),
    ("m11.m11_degree", "m11", None, "m11_degree"),
    ("designs.validate", "designs", None, "validate"),
    ("designs.intersection_profile", "designs", None, "intersection_profile"),
    ("designs.from_group_action", "designs", None, "from_group_action"),
    ("designs.wso_search", "designs", None, "wso_search"),
    ("orbitmat.build", "orbitmat", None, "build"),
    ("orbitmat.fixed_split", "orbitmat", None, "fixed_split"),
    *((f"constructions.{name}", "constructions", None, name)
      for name in CONSTRUCTIONS),
    ("analysis.min_distance", "analysis", None, "min_distance"),
    ("tables.check_table", "tables", None, "check_table"),
    ("cli.main", "cli", None, "main"),
]


# -- counters attached to a span when its call returns -------------------------


def _profile_scratch(args, kwargs, out, before):
    b = args[0].b
    return {"scratch_bytes": b * b * 8}


def _distance_before(args, kwargs):
    return type(args[0].d).__name__


def _distance(args, kwargs, out, before):
    C = args[0]
    exact = type(out).__name__ == "Exact"
    enumerated = C.field.q ** C.k if exact and before != "Exact" else 0
    return {"exact": int(exact), "unknown": int(type(out).__name__ == "Unknown"),
            "codewords": enumerated}


def _reports(args, kwargs, out, before):
    reps = out if isinstance(out, tuple) else (out,)
    return {"reports": len(reps),
            "extended": sum(r.extension_reason is not None for r in reps)}


def _table(args, kwargs, out, before):
    return {"table": args[0]}


def _hits(args, kwargs, out, before):
    return {"hits": len(out)}


COUNTERS = {
    "designs.intersection_profile": (None, _profile_scratch),
    "designs.wso_search": (None, _hits),
    "analysis.min_distance": (_distance_before, _distance),
    "tables.check_table": (None, _table),
    **{f"constructions.{name}": (None, _reports) for name in CONSTRUCTIONS},
}


class Tracer:
    """In-memory span recorder. Spans are lists
    ``[name, parent, start, end, child_s, counters]``; parent is the index
    of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, rejections):
        before_fn, after_fn = COUNTERS.get(name, (None, None))
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = before_fn(args, kwargs) if before_fn else None
            parent = stack[-1] if stack else -1
            rec = [name, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except rejections:
                rec[5] = {"rejected": 1}
                raise
            finally:
                rec[3] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[2]
            if after_fn:
                rec[5] = after_fn(args, kwargs, out, before)
            return out

        return traced

    def install(self, rejections=()) -> None:
        """Wrap every function in TRACED; calls that raise one of
        ``rejections`` are marked rejected on their span."""
        mods = {m: importlib.import_module(f"socodes.{m}") for m in MODULES}
        for name, mod, cls, attr in TRACED:
            if cls is not None:
                owner = getattr(mods[mod], cls)
                orig = owner.__dict__[attr]
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, rejections))
                continue
            orig = getattr(mods[mod], attr)
            wrapped = self._wrap(name, orig, rejections)
            for m in list(sys.modules.values()):
                if not getattr(m, "__name__", "").startswith("socodes"):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- per-layer metrics ----------------------------------------------------------

TABLE_IDS = ("t1-small", "t8", "t12", "t13", "t16")


def _metric_units():
    """Every per-layer metric name with its unit and which way is better."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    add("groups.set_orbit.calls", "count")
    add("groups.set_orbit.self_s", "s")
    for fn in ("enumerate", "coset_action", "action_on_ksubsets", "stabilizer"):
        add(f"groups.{fn}.self_s", "s")
    add("m11.m11_degree.total_s", "s")
    add("designs.intersection_profile.calls", "count")
    add("designs.intersection_profile.self_s", "s")
    add("designs.intersection_profile.scratch_bytes_max", "bytes")
    add("designs.validate.self_s", "s")
    add("designs.from_group_action.self_s", "s")
    add("designs.wso_search.self_s", "s")
    add("designs.wso_search.unions_tried", "count")
    add("designs.wso_search.hits", "count", "higher")
    add("designs.wso_search.hit_ratio", "ratio", "higher")
    add("orbitmat.build.self_s", "s")
    add("orbitmat.fixed_split.self_s", "s")
    for name in CONSTRUCTIONS:
        add(f"constructions.{name}.calls", "count")
        add(f"constructions.{name}.self_s", "s")
    add("constructions.reports", "count", "higher")
    add("constructions.extended", "count")
    add("constructions.rejected", "count")
    add("matrices.matmul.calls", "count")
    add("matrices.matmul.self_s", "s")
    add("matrices.rref.self_s", "s")
    add("matrices.GFMatrix_init.calls", "count")
    add("matrices.GFMatrix_init.self_s", "s")
    add("fields.mul.calls", "count")
    add("fields.mul.self_s", "s")
    add("fields.Field_init.calls", "count")
    add("fields.extend_quadratic.calls", "count")
    add("fields.extend_quadratic.self_s", "s")
    add("analysis.min_distance.calls", "count")
    add("analysis.min_distance.self_s", "s")
    add("analysis.min_distance.exact", "count", "higher")
    add("analysis.min_distance.unknown", "count")
    add("analysis.codewords_enumerated", "count")
    for tid in TABLE_IDS:
        add(f"tables.check_table.{tid}.total_s", "s")
    add("cli.main.calls", "count")
    add("cli.main.self_s", "s")
    add("trace.traced_wall_s", "s")
    add("trace.untraced_remainder_s", "s")
    add("trace.overhead_s", "s")
    add("trace.spans", "count")
    return out


PER_LAYER = _metric_units()


def layer_values(spans) -> dict:
    """Fold one traced pass's spans into per-layer values; the caller adds
    the trace.* timings, which need the untraced passes too."""
    calls, self_s, total_s = {}, {}, {}
    counters = {"scratch": 0, "tried": 0, "hits": 0, "reports": 0,
                "extended": 0, "rejected": 0, "exact": 0, "unknown": 0,
                "codewords": 0}
    tables = dict.fromkeys(TABLE_IDS, 0.0)
    for name, parent, start, end, child_s, ctr in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_s
        # total_s counts a recursive call (m11_degree(66) -> (12)) once
        anc, outer = parent, True
        while anc >= 0:
            if spans[anc][0] == name:
                outer = False
                break
            anc = spans[anc][1]
        if outer:
            total_s[name] = total_s.get(name, 0.0) + dur
        if name == "groups.set_orbit" and parent >= 0 \
                and spans[parent][0] == "designs.wso_search":
            counters["tried"] += 1
        if not ctr:
            continue
        if "scratch_bytes" in ctr:
            counters["scratch"] = max(counters["scratch"], ctr["scratch_bytes"])
        if "table" in ctr:
            tables[ctr["table"]] += dur
        for key in ("hits", "reports", "extended", "rejected", "exact",
                    "unknown", "codewords"):
            counters[key] += ctr.get(key, 0)

    vals = {}
    for name, _unit, _better in PER_LAYER:
        if name.startswith("trace."):
            continue
        head, _, stat = name.rpartition(".")
        if stat == "calls":
            vals[name] = calls.get(head, 0)
        elif stat == "self_s":
            vals[name] = self_s.get(head, 0.0)
        elif stat == "total_s" and head.startswith("tables.check_table."):
            vals[name] = tables[head.split(".", 2)[2]]
        elif stat == "total_s":
            vals[name] = total_s.get(head, 0.0)
    vals["designs.intersection_profile.scratch_bytes_max"] = counters["scratch"]
    vals["designs.wso_search.unions_tried"] = counters["tried"]
    vals["designs.wso_search.hits"] = counters["hits"]
    vals["designs.wso_search.hit_ratio"] = (
        counters["hits"] / counters["tried"] if counters["tried"] else 0.0)
    for key in ("reports", "extended", "rejected"):
        vals[f"constructions.{key}"] = counters[key]
    vals["analysis.min_distance.exact"] = counters["exact"]
    vals["analysis.min_distance.unknown"] = counters["unknown"]
    vals["analysis.codewords_enumerated"] = counters["codewords"]
    vals["trace.spans"] = len(spans)
    return vals


"""Per-layer tracing from outside the engine.

``install`` wraps the public entry points of each module of ``logacm`` (and
the private long-exact-sequence solve of ``Evaluator``, which has no public
entry) with wrappers that return the wrapped result unchanged.  A wrapped
name is replaced at every binding: in its home module, in every module that
imported it by name, and in the package namespace.

Each wrapped call records a span in memory: name, start, end, parent span
and op id.  Self time is a span's duration minus the time its child spans
cover.  ``_apply_relation`` (one enumeration point) is only counted, so its
time stays in ``exactseq.solve.self_s``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT_SPAN = "bench.op"

SPAN_NAMES = {
    "varieties.intersect": "intersect",
    "varieties.is_effective": "is_effective",
    "linebundles.line_cohom": "line_cohom",
    "linebundles.cohom_line_curve": "cohom_line_curve",
    "exactseq.cohom": "cohom",
    "exactseq.solve": "_solve",
    "exactseq.solve_coarse": "_solve_coarse",
    "exactseq.cm_regularity_certify": "cm_regularity_certify",
    "exactseq.vanishing_window": "vanishing_window",
    "logbundles.log_pair": "log_pair",
    "logbundles.cotangent_tangent_pair": "cotangent_tangent_pair",
    "classify.necessary_conditions": "necessary_conditions",
    "classify.search": "search",
    "classify.deficiency_table": "deficiency_table",
    "cli.main": "main",
    "cli.load_problem": "load_problem",
    "cli.render_table": "render_table",
}
KINDS = ("projective_space", "quadric", "hirzebruch", "blowup_p2", "surface_p3", "abelian")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_call=None, on_result=None):
        nid = self.name_id(name)
        names, parents, ops, starts, ends, stack = self.name, self.parent, self.op, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- after the run ------------------------------------------------------

    def summary(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            self_s[nm] += dur[i] - covered[i]
        return calls, self_s

    def write(self, path: Path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "arrays": [["name", "H"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
            "spans": len(self.start),
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for attr, _ in header["arrays"]:
                getattr(self, attr).tofile(f)


def _rebind(orig, wrapper):
    """Replace every module-level binding of ``orig`` inside the package."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "logacm" or modname.startswith("logacm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"no binding of {orig!r} found")


def install(tr: Tracer) -> None:
    """Wrap every measured entry point."""
    from logacm import classify, cli, exactseq, linebundles, logbundles, varieties

    counts = tr.counts

    def kind_of(args):
        counts["linebundles.line_cohom.calls." + args[0].kind] += 1

    def certified(ok):
        counts["exactseq.cm_regularity_certify.passed"] += bool(ok)

    def filtered(result):
        counts["classify.necessary_conditions.rejected"] += bool(result[0])

    hooks = {
        "linebundles.line_cohom": (kind_of, None),
        "exactseq.cm_regularity_certify": (None, certified),
        "classify.necessary_conditions": (None, filtered),
    }
    methods = {
        "varieties.intersect": varieties.VarietyModel,
        "varieties.is_effective": varieties.VarietyModel,
        "exactseq.cohom": exactseq.Evaluator,
        "exactseq.solve": exactseq.Evaluator,
        "exactseq.solve_coarse": exactseq.Evaluator,
    }
    modules = {"linebundles": linebundles, "exactseq": exactseq, "logbundles": logbundles, "classify": classify, "cli": cli}
    for name, attr in SPAN_NAMES.items():
        on_call, on_result = hooks.get(name, (None, None))
        if name in methods:
            cls = methods[name]
            setattr(cls, attr, tr.span(name, getattr(cls, attr), on_call, on_result))
        else:
            orig = getattr(modules[name.split(".")[0]], attr)
            _rebind(orig, tr.span(name, orig, on_call, on_result))
    points = exactseq.Evaluator._apply_relation
    exactseq.Evaluator._apply_relation = staticmethod(tr.counted("exactseq.solve.points", points))


def report(tr: Tracer, ev, cache_before: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced run, name -> (value, unit), and each
    span name's share of the traced op time, largest first."""
    calls, self_s = tr.summary()
    c = tr.counts

    def ratio(num, den):
        return num / den if den else 0.0

    entries = len(ev.cache) - cache_before
    m = {
        "varieties.intersect.calls": (calls["varieties.intersect"], "count"),
        "varieties.intersect.self_s": (self_s["varieties.intersect"], "s"),
        "varieties.is_effective.calls": (calls["varieties.is_effective"], "count"),
    }
    for kind in KINDS:
        m[f"linebundles.line_cohom.calls.{kind}"] = (c["linebundles.line_cohom.calls." + kind], "count")
    m.update(
        {
            "linebundles.line_cohom.self_s": (self_s["linebundles.line_cohom"], "s"),
            "linebundles.cohom_line_curve.calls": (calls["linebundles.cohom_line_curve"], "count"),
            "exactseq.cohom.calls": (calls["exactseq.cohom"], "count"),
            "exactseq.cohom.self_s": (self_s["exactseq.cohom"], "s"),
            "exactseq.cache.entries_added": (entries, "count"),
            "exactseq.cohom.hit_ratio": (1 - ratio(entries, calls["exactseq.cohom"]), "ratio"),
            "exactseq.partners.entries": (len(ev.partners), "count"),
            "exactseq.solve.calls": (calls["exactseq.solve"], "count"),
            "exactseq.solve.coarse": (calls["exactseq.solve_coarse"], "count"),
            "exactseq.solve.coarse_ratio": (ratio(calls["exactseq.solve_coarse"], calls["exactseq.solve"]), "ratio"),
            "exactseq.solve.points": (c["exactseq.solve.points"], "count"),
            "exactseq.solve.self_s": (self_s["exactseq.solve"] + self_s["exactseq.solve_coarse"], "s"),
            "exactseq.cm_regularity_certify.calls": (calls["exactseq.cm_regularity_certify"], "count"),
            "exactseq.cm_regularity_certify.pass_ratio": (
                ratio(c["exactseq.cm_regularity_certify.passed"], calls["exactseq.cm_regularity_certify"]),
                "ratio",
            ),
            "exactseq.vanishing_window.calls": (calls["exactseq.vanishing_window"], "count"),
            "exactseq.vanishing_window.self_s": (self_s["exactseq.vanishing_window"], "s"),
            "logbundles.log_pair.calls": (calls["logbundles.log_pair"], "count"),
            "logbundles.log_pair.self_s": (self_s["logbundles.log_pair"], "s"),
            "logbundles.cotangent_tangent_pair.calls": (calls["logbundles.cotangent_tangent_pair"], "count"),
            "classify.necessary_conditions.calls": (calls["classify.necessary_conditions"], "count"),
            "classify.necessary_conditions.reject_ratio": (
                ratio(c["classify.necessary_conditions.rejected"], calls["classify.necessary_conditions"]),
                "ratio",
            ),
            "classify.necessary_conditions.self_s": (self_s["classify.necessary_conditions"], "s"),
            "classify.search.self_s": (self_s["classify.search"], "s"),
            "classify.deficiency_table.calls": (calls["classify.deficiency_table"], "count"),
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.load_problem.self_s": (self_s["cli.load_problem"], "s"),
            "cli.render_table.self_s": (self_s["cli.render_table"], "s"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
        }
    )
    total = sum(e - s for s, e, p in zip(tr.start, tr.end, tr.parent) if p < 0)
    shares = sorted(((n, v / total) for n, v in self_s.items()), key=lambda kv: -kv[1])
    return m, shares

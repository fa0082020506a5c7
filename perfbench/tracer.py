"""Spans around the calls one ``domlab`` module makes into another.

Tracing is installed from outside the package: each wrapped function is
replaced by a timing wrapper under the name the importing module bound it
to, so calls inside one module are left alone.  The exceptions:
``has_isolatable_vertex``, which ``theorems`` imports inside two function
bodies, is patched on ``domination`` itself; each theorem's hypothesis and
conclusion are wrapped in the theorem table; and ``verify._instances`` is
wrapped so corpus loading and payload building have their own span.  The
``graphs`` bit primitives (``iter_bits``, ``set_of``, ``Graph`` methods) are
never wrapped, so their cost stays in the caller's self time.

A span records its name, start, end and parent span; all spans of one
traced pass share the run id in the written header.  Self time is a span's
duration minus the time its child spans cover.  Spans are nested (one
process, ``workers=1``), so the self times of all spans add up to the time
covered by the root spans, and ``wall - roots`` is the unattributed rest.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from pathlib import Path
from time import perf_counter

# Per-layer metric groups of the domination kernels imported by ``theorems``.
DOMINATION_GROUPS = {
    "gamma": ("domination_number", "open_irredundant_minimum_dominating"),
    "mis": ("independence_number", "independent_domination_number",
            "is_well_covered", "well_covered_certificate"),
    "wd": ("is_well_dominated", "well_dominated_certificate"),
    "upper": ("upper_domination_number",),
    "total": ("total_domination_number",),
    "predicate": ("is_minimal_dominating", "is_maximal_independent",
                  "is_two_packing", "has_isolated_vertex"),
}
DOMINATION_GENERATORS = {
    "_iter_maximal_independent": "mis",
    "_iter_minimal_total_dominating": "total",
}
CLASSIFY_FUNCTIONS = ("all_basic_cycle_pairs_ok", "classify_small_triangle_free",
                      "is_complete", "is_corona_of_connected", "pc_partition",
                      "universal_vertices")

# Every span name maps to the metric that receives its self time; these
# metrics partition the traced time covered by spans.
SELF_METRICS = (
    "graph6.parse_s", "graph6.encode_s",
    "isomorphism.canonical_s", "isomorphism.are_isomorphic_s",
    "enumeration.self_s",
    *(f"domination.{g}_s" for g in (*DOMINATION_GROUPS, "isolatable")),
    "products.s", "classify.s", "graphs.s",
    "theorems.check_s", "theorems.hypothesis_s", "theorems.conclusion_s",
    "verify.instances_s", "verify.self_s",
)


# Counters every traced pass reports, zero when the layer did no work.
COUNTERS = (
    "graph6.parse_calls", "graph6.encode_calls",
    "isomorphism.canonical_calls", "isomorphism.are_isomorphic_calls",
    "enumeration.calls", "enumeration.classes", "enumeration.labelings",
    *(f"domination.{g}_calls" for g in (*DOMINATION_GROUPS, "isolatable")),
    "domination.sets_yielded", "products.calls", "products.vertices",
    "classify.calls", "graphs.calls", "theorems.check_calls",
)


def _self_metric(name: str) -> str:
    if name.startswith("enumeration."):
        return "enumeration.self_s"
    if name.startswith("verify.corpus."):
        return "verify.self_s"
    if name in ("products", "classify", "graphs"):
        return name + ".s"
    return name + "_s"


def _one(args, kwargs, result) -> int:
    return 1


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _graphs_saved(args, kwargs, result) -> int:
    return len(args[1])  # save_graph6_file(path, graphs)


def _product_order(args, kwargs, result) -> int:
    return result.graph.n


class Tracer:
    """In-memory span store with running self-time totals per span name."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def _enter(self, nid: int) -> list:
        stack = self._stack
        frame = [len(self.starts), 0.0]
        self.name_ids.append(nid)
        self.parents.append(stack[-1][0] if stack else -1)
        self.ends.append(0.0)
        stack.append(frame)
        self.starts.append(perf_counter())
        return frame

    def _exit(self, nid: int) -> None:
        t = perf_counter()
        idx, covered = self._stack.pop()
        self.ends[idx] = t
        d = t - self.starts[idx]
        self.self_s[nid] += d - covered
        self.total_s[nid] += d
        if self._stack:
            self._stack[-1][1] += d

    def _count(self, key: str, k: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, *counters):
        """A function that runs ``fn`` inside a span called ``name``.  Each
        counter is a key that counts calls, or a ``(key, count)`` pair that
        adds ``count(args, kwargs, result)``."""
        nid = self.name_id(name)
        enter, exit_, add = self._enter, self._exit, self._count
        counters = [(c, _one) if isinstance(c, str) else c for c in counters]

        def traced(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(nid)
            for key, count in counters:
                add(key, count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, span_name, calls: str, yielded: str):
        """A generator function whose every ``next()`` on ``fn``'s generator
        is one span; ``span_name(args, kwargs)`` names it."""
        enter, exit_, add = self._enter, self._exit, self._count

        def traced(*args, **kwargs):
            nid = self.name_id(span_name(args, kwargs))
            add(calls, 1)
            it = fn(*args, **kwargs)
            try:
                while True:
                    enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(nid)
                    add(yielded, 1)
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            if isinstance(module, dict):
                module[attr] = original
            else:
                setattr(module, attr, original)

    def install(self) -> None:
        """Wrap every cross-module call of the package."""
        from domlab import classify, domination, enumeration, isomorphism, theorems, verify
        from domlab import graph6

        w = self.wrap
        self.patch(verify, "parse_graph6",
                   w(graph6.parse_graph6, "graph6.parse", "graph6.parse_calls"))
        for mod in (verify, enumeration):
            self.patch(mod, "load_graph6_file",
                       w(graph6.load_graph6_file, "graph6.parse",
                         ("graph6.parse_calls", _result_len)))
        for mod in (verify, enumeration, isomorphism):
            self.patch(mod, "to_graph6",
                       w(graph6.to_graph6, "graph6.encode", "graph6.encode_calls"))
        self.patch(enumeration, "save_graph6_file", self.save_graph6_file())
        self.patch(enumeration, "canonical_graph",
                   w(isomorphism.canonical_graph, "isomorphism.canonical",
                     "isomorphism.canonical_calls", "enumeration.labelings"))
        self.patch(classify, "canonical_key",
                   w(isomorphism.canonical_key, "isomorphism.canonical",
                     "isomorphism.canonical_calls"))
        self.patch(theorems, "are_isomorphic",
                   w(isomorphism.are_isomorphic, "isomorphism.are_isomorphic",
                     "isomorphism.are_isomorphic_calls"))
        self.patch(verify, "enumerate_connected", self.enumerate_connected())

        for group, names in DOMINATION_GROUPS.items():
            for fname in names:
                self.patch(theorems, fname,
                           w(getattr(domination, fname), f"domination.{group}",
                             f"domination.{group}_calls"))
        for fname, group in DOMINATION_GENERATORS.items():
            self.patch(theorems, fname,
                       self.wrap_generator(getattr(domination, fname),
                                           lambda a, k, g=group: f"domination.{g}",
                                           f"domination.{group}_calls",
                                           "domination.sets_yielded"))
        self.patch(domination, "has_isolatable_vertex",
                   w(domination.has_isolatable_vertex, "domination.isolatable",
                     "domination.isolatable_calls"))

        for fname in ("cartesian", "direct", "disjunctive"):
            self.patch(theorems, fname,
                       w(getattr(theorems, fname), "products", "products.calls",
                         ("products.vertices", _product_order)))
        for fname in CLASSIFY_FUNCTIONS:
            self.patch(theorems, fname,
                       w(getattr(classify, fname), "classify", "classify.calls"))
        self.patch(verify, "classify_small_triangle_free",
                   w(classify.classify_small_triangle_free, "classify", "classify.calls"))
        for fname in ("girth", "is_connected"):
            self.patch(theorems, fname,
                       w(getattr(theorems, fname), "graphs", "graphs.calls"))

        self.patch(verify, "check_instance",
                   w(theorems.check_instance, "theorems.check", "theorems.check_calls"))
        for tid, entry in list(theorems.THEOREMS.items()):
            self._undo.append((theorems.THEOREMS, tid, entry))
            theorems.THEOREMS[tid] = dataclasses.replace(
                entry,
                hypothesis=w(entry.hypothesis, "theorems.hypothesis"),
                conclusion=w(entry.conclusion, "theorems.conclusion"),
            )
        self.patch(verify, "_instances",
                   w(verify._instances, "verify.instances"))

    # -- wrappers the workloads call directly ----------------------------------

    def enumerate_connected(self):
        from domlab import enumeration

        def name(args, kwargs) -> str:
            n = args[0]
            tf = kwargs.get("triangle_free", args[2] if len(args) > 2 else False)
            return f"enumeration.{'tf_' if tf else ''}n{n}"

        return self.wrap_generator(enumeration.enumerate_connected, name,
                                   "enumeration.calls", "enumeration.classes")

    def save_graph6_file(self):
        from domlab import graph6

        return self.wrap(graph6.save_graph6_file, "graph6.encode",
                         ("graph6.encode_calls", _graphs_saved))

    def verify_corpus(self):
        from domlab import verify

        def traced(tid, *args, **kwargs):
            return self.wrap(verify.verify_corpus, f"verify.corpus.{tid}")(
                tid, *args, **kwargs)

        return traced

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times, inclusive spans, counts and the unattributed
        remainder of ``wall_s``."""
        out: dict[str, float] = {m: 0.0 for m in SELF_METRICS}
        for nid, name in enumerate(self.names):
            out[_self_metric(name)] += self.self_s[nid]
        covered = sum(out[m] for m in SELF_METRICS)
        total = dict(zip(self.names, self.total_s))
        out["enumeration.n8_s"] = total.get("enumeration.n8", 0.0)
        out["enumeration.tf_n9_s"] = total.get("enumeration.tf_n9", 0.0)
        for name, t in total.items():
            if name.startswith("verify.corpus."):
                out[f"verify.{name[len('verify.corpus.'):]}_s"] = t
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - covered
        out["trace.spans"] = len(self.starts)
        for key, k in self.counts.items():
            out[key] = k
        return out

    def write(self, path: Path) -> None:
        """Write the spans: ``path`` gets a JSON header, ``path.bin`` the
        start, end, name-id and parent columns, one after another."""
        header = {
            "run_id": self.run_id,
            "spans": len(self.starts),
            "names": self.names,
            "columns": [["start", "d"], ["end", "d"], ["name", "i"], ["parent", "i"]],
            "clock": "time.perf_counter seconds",
        }
        path.write_text(json.dumps(header, indent=1))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for col in (self.starts, self.ends, self.name_ids, self.parents):
                col.tofile(fh)

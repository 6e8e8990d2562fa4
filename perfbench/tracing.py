"""Spans around every public callable of the cobweb package, and their sums.

``Tracer.install`` wraps each public function on every module name that
binds it (``cli`` binds ``whitney_first`` and ``bell_sequence`` by name,
so patching the defining module alone would miss those calls), and each
public method of the package's classes.  A span records its name, layer,
binding site, start, end, parent span, query id, kind and, for a few
callables, counts read off the arguments or the result.  Spans stay in
memory until ``write`` puts them in a file.

A layer is a package module; a span belongs to the module that defines
the callable.  A span's self time is its duration minus the part of it
that its child spans cover.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import types
from time import perf_counter

LAYERS = ("cli", "sequences", "fnomial", "poset", "layer_grid", "diagonal", "tiling", "dobinski")
FIELDS = ("name", "layer", "site", "start", "end", "parent", "query", "kind", "info")
NAME, LAYER, SITE, START, END, PARENT, QUERY, KIND, INFO = range(len(FIELDS))

# Private names the per-layer metrics need.
TRACED_PRIVATE = {"_print_json"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts read off a call once it returns: span name -> (args, kwargs, result) -> info.
OBSERVERS = {
    "fnomial.FNomialTable.__init__": lambda a, kw, r: {"rows": _arg(a, kw, 2, "max_n") + 1},
    "poset.CobwebPoset.zeta_matrix": lambda a, kw, r: {"entries": len(r.order) * len(r.rows)},
    "poset.CobwebPoset.mobius_matrix": lambda a, kw, r: {"entries": len(r.order) * len(r.rows)},
    "diagonal.bell_sequence": lambda a, kw, r: {
        "terms": sum(n // 2 + 1 for n in range(_arg(a, kw, 1, "n_max") + 1))},
    "diagonal.bell": lambda a, kw, r: {"terms": _arg(a, kw, 0, "n") // 2 + 1},
    "diagonal.whitney": lambda a, kw, r: {"terms": 1},
    "tiling.build_instance": lambda a, kw, r: {"blocks": len(r.blocks), "universe": len(r.chains)},
    "tiling.exists_partition": lambda a, kw, r: {"nodes": r.nodes, "solutions": int(r.status == "yes")},
    "tiling.count_partitions": lambda a, kw, r: {"nodes": r.nodes, "solutions": r.count},
    "dobinski.StirlingTable.__init__": lambda a, kw, r: {"rows": _arg(a, kw, 1, "max_n") + 1},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name, layer, site, kind):
        rec = [name, layer, site, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.query, kind, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, layer, site):
        observe = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                rec = self._open(name, layer, site, "call")
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                return self._follow(gen, name, layer, site)
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, layer, site, "call")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                rec[INFO] = observe(args, kwargs, result)
            return result
        return traced

    def _follow(self, gen, name, layer, site):
        """Re-yield gen's items, one "resume" span per item computed."""
        while True:
            rec = self._open(name, layer, site, "resume")
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(rec)
            rec[INFO] = {"items": 1}
            yield item

    def wrap_sink(self, write):
        def traced_write(s):
            rec = self._open("cli.sink.write", "cli", "cli", "write")
            try:
                return write(s)
            finally:
                self._close(rec)
        return traced_write

    # --- installing ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and (attr != "__init__" or dataclasses.is_dataclass(cls)):
                continue  # generated dataclass methods are not the package's code
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, property):
                self._patch(cls, attr, property(self.wrap(member.fget, name, layer, layer)))
            elif isinstance(member, types.FunctionType):
                self._patch(cls, attr, self.wrap(member, name, layer, layer))

    def install(self):
        """Wrap every public callable of the package on every name bound to it."""
        for site in LAYERS:
            module = importlib.import_module(f"cobweb.{site}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") and attr not in TRACED_PRIVATE:
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__ and not issubclass(obj, BaseException):
                        self._wrap_class(obj, site)
                elif callable(obj) and getattr(obj, "__module__", "").startswith("cobweb."):
                    layer = obj.__module__.rpartition(".")[2]
                    self._patch(module, attr, self.wrap(obj, f"{layer}.{obj.__qualname__}", layer, site))
        self._patch(argparse.ArgumentParser, "parse_args",
                    self.wrap(argparse.ArgumentParser.parse_args, "cli.parse_args", "cli", "cli"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path, wall):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": FIELDS, "wall_s": wall}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_cost(calls=5000, repeats=5) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op less a bare one, per call."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibration", "cli", "cli")
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))


# --- sums over a finished trace -------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for rec, kids in zip(spans, children):
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for cs, ce in sorted((spans[k][START], spans[k][END]) for k in kids):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def outermost(spans, keep) -> float:
    """Summed duration of the spans keep() selects, less those inside another selected span."""
    total = 0.0
    for rec in spans:
        if not keep(rec):
            continue
        parent = rec[PARENT]
        while parent >= 0 and not keep(spans[parent]):
            parent = spans[parent][PARENT]
        if parent < 0:
            total += rec[END] - rec[START]
    return total


def summarize(spans, wall, query_secs, stdout_bytes, cost) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    wall is the pass's time and query_secs the times of its queries, both
    read by the pass's own clock rather than from the spans.  The layers'
    self times add up to the time the outermost spans cover; the rest of
    the wall is the benchmark's loop between queries (bench.self_s) and
    time inside queries that no span covers (trace.unaccounted_s), which
    stays small only while the wrappers reach every layer.  cost is the
    seconds one wrapper adds to a call (span_cost), so the tracing
    overhead is cost times the number of spans.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(1 for r in spans if r[LAYER] == layer and r[KIND] == "call")
        m[f"{layer}.self_s"] = sum(s for r, s in zip(spans, selfs) if r[LAYER] == layer)

    def calls(name):
        return sum(1 for r in spans if r[NAME] == name and r[KIND] == "call")

    def info(names, key):
        return sum(r[INFO][key] for r in spans if r[NAME] in names and r[INFO])

    def timed(*names, site=None):
        return outermost(spans, lambda r: r[NAME] in names and site in (None, r[SITE]))

    matrices = ("poset.CobwebPoset.zeta_matrix", "poset.CobwebPoset.mobius_matrix")
    searches = ("tiling.exists_partition", "tiling.count_partitions")
    m["cli.parse_s"] = timed("cli.build_parser", "cli.parse_args")
    m["cli.output_s"] = timed("cli._print_json", "poset.IncidenceMatrix.dump", "cli.sink.write")
    m["cli.stdout_bytes"] = stdout_bytes
    m["sequences.admissible_s"] = timed("sequences.is_cobweb_admissible")
    m["fnomial.tables"] = calls("fnomial.FNomialTable.__init__")
    m["fnomial.table_rows"] = info({"fnomial.FNomialTable.__init__"}, "rows")
    m["fnomial.coeffs"] = calls("fnomial.FNomialTable.fnomial")
    m["poset.matrix_entries"] = info(set(matrices), "entries")
    m["poset.invert_s"] = timed("poset.invert_unit_upper", site="poset")
    m["poset.chains_emitted"] = info({"poset.CobwebPoset.enumerate_max_chains"}, "items")
    m["layer_grid.grids_built"] = calls("layer_grid.LayerGridPoset.__init__")
    m["layer_grid.invert_s"] = timed("poset.invert_unit_upper", site="layer_grid")
    m["diagonal.bell_terms"] = info({"diagonal.bell_sequence", "diagonal.bell", "diagonal.whitney"}, "terms")
    m["tiling.build_s"] = timed("tiling.build_instance")
    m["tiling.candidate_blocks"] = info({"tiling.build_instance"}, "blocks")
    m["tiling.universe"] = info({"tiling.build_instance"}, "universe")
    m["tiling.search_s"] = timed(*searches)
    m["tiling.nodes"] = nodes = info(set(searches), "nodes")
    m["tiling.nodes_per_s"] = nodes / m["tiling.search_s"] if nodes else 0.0
    m["tiling.solutions_per_node"] = info(set(searches), "solutions") / nodes if nodes else 0.0
    m["dobinski.stirling_rows"] = info({"dobinski.StirlingTable.__init__"}, "rows")
    in_queries = sum(query_secs)
    m["bench.self_s"] = wall - in_queries
    m["trace.unaccounted_s"] = in_queries - sum(r[END] - r[START] for r in spans if r[PARENT] < 0)
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = cost * len(spans)
    return m

"""Spans and counters recorded around jacktop's entry points, from outside.

`install` replaces each traced function with a wrapper, both in the module
that defines it and in every jacktop module that imported it by name (so
`topdegree.orbit_reps` and `maps.orbit_reps` are both traced).  A span is
(name, parent, outermost-in-group, start, end), kept in compact arrays in
memory and written out once by `dump`.  `aggregate` reads a dump back and
derives per-group call counts, inclusive time and self time; `layer_metrics`
turns summed aggregates into the per-layer metrics of BENCHMARK.json.

Nothing here edits the package source; the wrappers live only in the traced
interpreter.
"""

from __future__ import annotations

import functools
import json
import struct
import sys
import time
from array import array

# Group of each traced function: the per-layer metrics are sums over groups.
# (module, qualified name, group)
SPANS = [
    ("maps", "orbit_census", "maps.orbit_census"),
    ("maps", "orbit_reps", "maps.orbit_reps"),
    ("maps", "graph_of_pair", "maps.graph_of_pair"),
    ("maps", "count_embeddings", "maps.count_embeddings"),
    ("maps", "BicoloredGraph.canonical_key", "maps.canonical_key"),
    ("topdegree", "kl_top", "topdegree.kl_top"),
    ("topdegree", "ch_top_eval", "topdegree.ch_top_eval"),
    ("topdegree", "is_expander", "topdegree.is_expander"),
    ("functionals", "free_cumulant", "functionals.free_cumulant"),
    ("functionals", "kl_evaluate", "functionals.kl_evaluate"),
    ("jackref", "_basis", "jackref.basis"),
    ("jackref", "_jack_m_vector", "jackref.back_substitution"),
    ("jackref", "_Basis.theta_from_m", "jackref.powersum_conversion"),
    ("jackref", "jack_powersum", "jackref.jack_powersum"),
    ("jackref", "jack_character", "jackref.jack_character"),
    ("analysis", "kl_expand_full", "analysis.kl_expand_full"),
    ("analysis", "_solve_rational_system", "analysis.solve"),
    ("cache", "Cache.load_jack", "cache.read"),
    ("cache", "Cache.load_kl_top", "cache.read"),
    ("cache", "Cache.store_jack", "cache.write"),
    ("cache", "Cache.store_kl_top", "cache.write"),
    ("cli", "main", "cli.main"),
    ("verify", "run_suite", "verify.run_suite"),
]

# Arithmetic of the exact value types: one group per class.
ARITHMETIC = {
    "Laurent": ("__add__", "__neg__", "__sub__", "__mul__", "__rmul__",
                "scale", "__pow__"),
    "RatFunc": ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__"),
    "KLPoly": ("__add__", "__neg__", "__sub__", "scale"),
}

# Generators: only the items they yield are counted (a span would straddle
# the consumer's frames).
YIELDS = [
    ("maps", "enumerate_transitive_pairs", "maps.pairs_transitive"),
    ("topdegree", "expander_weights", "topdegree.expander_weights.yielded"),
]

# In-memory caches whose growth gives the hit ratios: (module, attribute).
CACHES = {
    "maps.embed_cache": ("maps", "_EMBED_CACHE"),
    "functionals.cumulant_cache": ("functionals", "_FREE_CUMULANT_CACHE"),
}


class Recorder:
    """Span arrays and counters of one traced interpreter."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.depth: list[int] = []  # open spans per group id
        self.group_ids: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.orbits: dict[int, int] = {}  # census size per n
        self.max_parts = 0
        self.enabled = True

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _ids(self, name: str, group: str) -> tuple[int, int]:
        self.names.append(name)
        gid = self.group_ids.setdefault(group, len(self.group_ids))
        if gid == len(self.depth):
            self.depth.append(0)
        self.groups.append(group)
        return len(self.names) - 1, gid

    def span(self, name: str, group: str, fn, after=None):
        nid, gid = self._ids(name, group)
        clock = time.perf_counter
        names, parents, outers = self.name, self.parent, self.outer
        starts, ends, stack, depth = self.start, self.end, self.stack, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            outers.append(depth[gid] == 0)
            ends.append(0.0)
            depth[gid] += 1
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[gid] -= 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def yields(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.enabled:
                    self.count(key)
                yield item

        return counted


def _after_census(rec, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    rec.orbits[n] = len(result)


def _after_basis(rec, args, kwargs, result):
    rec.max_parts = max(rec.max_parts, len(result.parts))


def _after_solve(rec, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    unknowns = args[2] if len(args) > 2 else kwargs["unknowns"]
    rec.count("analysis.solve.cells", len(rows) * unknowns)


def _after_read(rec, args, kwargs, result):
    rec.count("cache.hits" if result is not None else "cache.misses")


AFTER = {
    "orbit_census": _after_census,
    "_basis": _after_basis,
    "_solve_rational_system": _after_solve,
    "Cache.load_jack": _after_read,
    "Cache.load_kl_top": _after_read,
}


def _modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("jacktop.") and mod is not None}


def install(rec: Recorder) -> None:
    """Wrap every traced function of the already imported jacktop modules."""
    mods = _modules()
    replace: dict[int, object] = {}
    for modname, qualname, group in SPANS:
        mod = mods[modname]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.span(f"{modname}.{qualname}", group,
                                        cls.__dict__[meth], AFTER.get(qualname)))
            continue
        fn = getattr(mod, qualname)
        replace[id(fn)] = rec.span(f"{modname}.{qualname}", group, fn,
                                   AFTER.get(qualname))
    for cls_name, meths in ARITHMETIC.items():
        cls = getattr(mods["exact"], cls_name)
        for meth in meths:
            setattr(cls, meth, rec.span(f"exact.{cls_name}.{meth}",
                                        f"exact.{cls_name}", cls.__dict__[meth]))
    for modname, qualname, key in YIELDS:
        fn = getattr(mods[modname], qualname)
        replace[id(fn)] = rec.yields(key, fn)
    # Rebind every module-level name that refers to a traced function, in
    # the defining module and in every module that imported it by name.
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def cache_sizes() -> dict[str, int]:
    """Entries in the in-memory caches named in CACHES (0 if one is gone)."""
    mods = _modules()
    out = {}
    for key, (modname, attr) in CACHES.items():
        out[key] = len(getattr(mods.get(modname), attr, None) or ())
    return out


def dump(rec: Recorder, path: str, extra: dict) -> None:
    """Write the spans and counters of one interpreter to `path`."""
    header = json.dumps({
        "names": rec.names, "groups": rec.groups, "counters": rec.counters,
        "orbits": rec.orbits, "max_parts": rec.max_parts, **extra,
    }).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", len(header), len(rec.start)))
        fh.write(header)
        for arr in (rec.name, rec.parent, rec.outer, rec.start, rec.end):
            arr.tofile(fh)


def load(path: str):
    with open(path, "rb") as fh:
        hlen, n = struct.unpack("<II", fh.read(8))
        header = json.loads(fh.read(hlen))
        arrays = []
        for code in "iibdd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def aggregate(path: str) -> dict:
    """Per-group calls, inclusive seconds (outermost spans of the group) and
    self seconds (span minus the time its child spans cover), plus the
    counters of one dump."""
    header, (name, parent, outer, start, end) = load(path)
    n = len(start)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    groups = header["groups"]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i in range(n):
        g = groups[name[i]]
        dur = end[i] - start[i]
        calls[g] = calls.get(g, 0) + 1
        if outer[i]:
            incl[g] = incl.get(g, 0.0) + dur
        self_s[g] = self_s.get(g, 0.0) + dur - covered[i]
    counters = dict(header["counters"])
    counters["maps.orbits"] = sum(header["orbits"].values())
    for key in CACHES:
        counters[key + ".new"] = header["cache_growth"][key]
    counters["cli.import.s"] = header["import_s"]
    return {"calls": calls, "incl": incl, "self": self_s,
            "counters": counters, "max_parts": header["max_parts"],
            "spans": n}


def merge(parts: list[dict]) -> dict:
    """Sum the aggregates of several interpreters (one CLI command each)."""
    out = {"calls": {}, "incl": {}, "self": {}, "counters": {},
           "max_parts": 0, "spans": 0}
    for agg in parts:
        for key in ("calls", "incl", "self", "counters"):
            for k, v in agg[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["max_parts"] = max(out["max_parts"], agg["max_parts"])
        out["spans"] += agg["spans"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "maps.orbit_census.s": "s",
    "maps.pairs_transitive": "count",
    "maps.orbits": "count",
    "maps.census.yield": "ratio",
    "maps.count_embeddings.calls": "count",
    "maps.count_embeddings.s": "s",
    "maps.embed_cache.hit_ratio": "ratio",
    "maps.canonical_key.calls": "count",
    "maps.canonical_key.s": "s",
    "maps.graph_of_pair.s": "s",
    "topdegree.kl_top.self_s": "s",
    "topdegree.is_expander.calls": "count",
    "topdegree.expander.accept_ratio": "ratio",
    "topdegree.ch_top_eval.self_s": "s",
    "exact.Laurent.ops": "count",
    "exact.Laurent.s": "s",
    "exact.RatFunc.ops": "count",
    "exact.RatFunc.s": "s",
    "exact.KLPoly.ops": "count",
    "functionals.free_cumulant.calls": "count",
    "functionals.free_cumulant.s": "s",
    "functionals.cumulant_cache.hit_ratio": "ratio",
    "jackref.basis.s": "s",
    "jackref.basis.max_parts": "count",
    "jackref.back_substitution.s": "s",
    "jackref.powersum_conversion.s": "s",
    "jackref.jack_powersum.calls": "count",
    "analysis.kl_expand_full.self_s": "s",
    "analysis.solve.s": "s",
    "analysis.solve.cells": "count",
    "cache.reads": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.read.s": "s",
    "cache.writes": "count",
    "cache.write.s": "s",
    "cache.bytes_written": "bytes",
    "cli.import.s": "s",
    "cli.main.self_s": "s",
    "verify.run_suite.s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(agg: dict, bytes_written: int, overhead: float) -> dict:
    """The per-layer metrics of one traced round from its merged aggregate."""
    calls, incl, self_s, c = agg["calls"], agg["incl"], agg["self"], agg["counters"]
    g = lambda d, k: d.get(k, 0)
    ce_calls = g(calls, "maps.count_embeddings")
    fc_calls = g(calls, "functionals.free_cumulant")
    expander_calls = g(calls, "topdegree.is_expander")
    return {
        "maps.orbit_census.s": g(incl, "maps.orbit_census"),
        "maps.pairs_transitive": g(c, "maps.pairs_transitive"),
        "maps.orbits": g(c, "maps.orbits"),
        "maps.census.yield": _ratio(g(c, "maps.orbits"),
                                    g(c, "maps.pairs_transitive")),
        "maps.count_embeddings.calls": ce_calls,
        "maps.count_embeddings.s": g(incl, "maps.count_embeddings"),
        "maps.embed_cache.hit_ratio":
            1 - _ratio(g(c, "maps.embed_cache.new"), ce_calls) if ce_calls else 0.0,
        "maps.canonical_key.calls": g(calls, "maps.canonical_key"),
        "maps.canonical_key.s": g(incl, "maps.canonical_key"),
        "maps.graph_of_pair.s": g(incl, "maps.graph_of_pair"),
        "topdegree.kl_top.self_s": g(self_s, "topdegree.kl_top"),
        "topdegree.is_expander.calls": expander_calls,
        "topdegree.expander.accept_ratio":
            _ratio(g(c, "topdegree.expander_weights.yielded"), expander_calls),
        "topdegree.ch_top_eval.self_s": g(self_s, "topdegree.ch_top_eval"),
        "exact.Laurent.ops": g(calls, "exact.Laurent"),
        "exact.Laurent.s": g(incl, "exact.Laurent"),
        "exact.RatFunc.ops": g(calls, "exact.RatFunc"),
        "exact.RatFunc.s": g(incl, "exact.RatFunc"),
        "exact.KLPoly.ops": g(calls, "exact.KLPoly"),
        "functionals.free_cumulant.calls": fc_calls,
        "functionals.free_cumulant.s": g(incl, "functionals.free_cumulant"),
        "functionals.cumulant_cache.hit_ratio":
            1 - _ratio(g(c, "functionals.cumulant_cache.new"), fc_calls)
            if fc_calls else 0.0,
        "jackref.basis.s": g(incl, "jackref.basis"),
        "jackref.basis.max_parts": agg["max_parts"],
        "jackref.back_substitution.s": g(incl, "jackref.back_substitution"),
        "jackref.powersum_conversion.s": g(incl, "jackref.powersum_conversion"),
        "jackref.jack_powersum.calls": g(calls, "jackref.jack_powersum"),
        "analysis.kl_expand_full.self_s": g(self_s, "analysis.kl_expand_full"),
        "analysis.solve.s": g(incl, "analysis.solve"),
        "analysis.solve.cells": g(c, "analysis.solve.cells"),
        "cache.reads": g(calls, "cache.read"),
        "cache.hits": g(c, "cache.hits"),
        "cache.misses": g(c, "cache.misses"),
        "cache.read.s": g(incl, "cache.read"),
        "cache.writes": g(calls, "cache.write"),
        "cache.write.s": g(incl, "cache.write"),
        "cache.bytes_written": bytes_written,
        "cli.import.s": g(c, "cli.import.s"),
        "cli.main.self_s": g(self_s, "cli.main"),
        "verify.run_suite.s": g(incl, "verify.run_suite"),
        "trace.overhead": overhead,
    }

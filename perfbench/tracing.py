"""Spans around the public functions of each exturan layer, from outside src/.

Modules import names with ``from .x import y``, so a wrapper is installed on
every exturan module that binds the original function, which is where each
caller looks the name up. Spans (name, start, end, parent) stay in memory in
flat arrays and are written out after the run. A span's self time is its
duration minus the time covered by its wrapped children.

Forked pool workers inherit the wrappers but cannot report back; a fork hook
switches tracing off in the child, and the pool is measured by the children's
CPU time instead.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from array import array
from collections import defaultdict
from functools import update_wrapper
from time import perf_counter

# (module, attribute, span name); methods are "Class.method".
TARGETS = (
    ("canonical", "is_canonical_raw", "canonical.is_canonical_raw"),
    ("canonical", "canonical_key", "canonical.canonical_key"),
    ("counting", "embeds_using_edge", "counting.embeds_using_edge"),
    ("counting", "count_embeddings_raw", "counting.count_embeddings_raw"),
    ("counting", "complete_subsets", "counting.complete_subsets"),
    ("counting", "contains", "counting.contains"),
    ("counting", "all_embeddings", "counting.all_embeddings"),
    ("extremal", "exact_ex", "extremal.exact_ex"),
    ("extremal", "heuristic_lower", "extremal.heuristic_lower"),
    ("extremal", "RecordCache.get", "extremal.cache_get"),
    ("extremal", "RecordCache.put", "extremal.cache_put"),
    ("constructions", "build_lbap", "constructions.build_lbap"),
    ("constructions", "verify_lbap_properties", "constructions.verify_lbap_properties"),
    ("constructions", "lb4_construct", "constructions.lb4_construct"),
    ("constructions", "deletion_construct", "constructions.deletion_construct"),
    ("pipeline", "find_blowup", "pipeline.find_blowup"),
    ("pipeline", "conditional_partition", "pipeline.conditional_partition"),
    ("pipeline", "aligned_copies", "pipeline.aligned_copies"),
    ("hypergraph", "make", "hypergraph.make"),
    ("cli", "main", "cli.main"),
)

SELF_ONLY = ("constructions.build_lbap", "constructions.verify_lbap_properties",
             "constructions.lb4_construct", "constructions.deletion_construct")


def per_layer_spec():
    """(metric name, unit) for every per-layer metric, in report order."""
    spec = []
    for _, _, name in TARGETS:
        if name not in SELF_ONLY:
            spec.append((f"{name}.calls", "count"))
        spec.append((f"{name}.self_s", "s"))
    spec += [
        ("canonical.is_canonical_raw.accept_ratio", "ratio"),
        ("counting.embeds_using_edge.prune_ratio", "ratio"),
        ("extremal.nodes", "count"),
        ("extremal.nodes_per_s", "1/s"),
        ("extremal.heuristic_lower.steps", "count"),
        ("extremal.cache_get.hit_ratio", "ratio"),
        ("extremal.pool.children_cpu_s", "s"),
        ("extremal.pool.utilization", "ratio"),
        ("constructions.deletion.deleted_edges", "count"),
        ("pipeline.find_blowup.retries", "count"),
        ("pipeline.find_blowup.found_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.remainder_s", "s"),
        ("trace.root_coverage", "ratio"),
    ]
    return spec


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._stack: list[int] = []
        self._covered: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self.last_cache_hit = None
        self._undo: list = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.active = False

    def wrap(self, nid, fn, after=None):
        name_id, parent, start, end, self_s = (self.name_id, self.parent, self.start,
                                               self.end, self.self_s)
        stack, covered = self._stack, self._covered

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            self_s.append(0.0)
            stack.append(i)
            covered.append(0.0)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                end[i] = t1
                self_s[i] = dur - covered.pop()
                if covered:
                    covered[-1] += dur
            if after is not None:
                after(result, dur)
            return result

        return update_wrapper(traced, fn)

    # -- counters read from return values --------------------------------

    def _afters(self):
        c = self.counts

        def canonical(result, dur):
            c["accepted"] += bool(result)

        def pruned(result, dur):
            c["pruned"] += bool(result)

        def cache_get(result, dur):
            if result is not None:
                c["cache_hits"] += 1
                self.last_cache_hit = result

        def exact_ex(record, dur):
            if record is not self.last_cache_hit:  # a cache hit searched nothing
                c["nodes"] += record.nodes
                c["search_s"] += dur

        def heuristic(record, dur):
            c["steps"] += record.nodes

        def deletion(result, dur):
            _, cert = result
            stats = next(cl for cl in cert.claims if cl.name == "statistics")
            c["deleted_edges"] += stats.detail["deleted_edges"]

        def found(result, dur):
            c["found"] += result is not None

        return {
            "canonical.is_canonical_raw": canonical,
            "counting.embeds_using_edge": pruned,
            "extremal.cache_get": cache_get,
            "extremal.exact_ex": exact_ex,
            "extremal.heuristic_lower": heuristic,
            "constructions.deletion_construct": deletion,
            "pipeline.find_blowup": found,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "exturan" or name.startswith("exturan.")}
        afters = self._afters()
        for nid, (mod_name, attr, name) in enumerate(TARGETS):
            home = mods[f"exturan.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(nid, orig, afters.get(name)))
                continue
            orig = getattr(home, attr)
            traced = self.wrap(nid, orig, afters.get(name))
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, traced)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- report ------------------------------------------------------------

    def report(self, wall, untraced_wall, raw_wall, pool_cpu, workers):
        """Per-layer metrics of one traced pass.

        ``wall`` and ``untraced_wall`` are the traced pass and the median
        untraced pass at the reference host speed; their difference is the
        tracing overhead. ``raw_wall`` is the traced pass as measured, the
        clock the spans were taken on: every job is a root span (``cli.main``,
        ``find_blowup`` or ``RecordCache.put``), so the root spans must cover
        nearly all of it, and ``trace.root_coverage`` is their share. Span
        times are scaled by ``wall / raw_wall`` to the reference speed, so
        that they compare with ``trace.wall_s``.
        """
        calls = [0] * len(self.names)
        self_sum = [0.0] * len(self.names)
        for nid, s in zip(self.name_id, self.self_s):
            calls[nid] += 1
            self_sum[nid] += s
        roots = sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)
        fb = self.names.index("pipeline.find_blowup")
        cp = self.names.index("pipeline.conditional_partition")
        retries = sum(1 for nid, p in zip(self.name_id, self.parent)
                      if nid == cp and p >= 0 and self.name_id[p] == fb)
        scale = wall / raw_wall if raw_wall else 1.0
        self_sum = [t * scale for t in self_sum]
        by = dict(zip(self.names, zip(calls, self_sum)))
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, (n_calls, s) in by.items():
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = n_calls
            out[f"{name}.self_s"] = s
        children_cpu, parent_cpu = pool_cpu
        total_self = sum(self_sum)
        out.update({
            "canonical.is_canonical_raw.accept_ratio":
                ratio(c["accepted"], by["canonical.is_canonical_raw"][0]),
            "counting.embeds_using_edge.prune_ratio":
                ratio(c["pruned"], by["counting.embeds_using_edge"][0]),
            "extremal.nodes": int(c["nodes"]),
            "extremal.nodes_per_s": ratio(c["nodes"], c["search_s"] * scale),
            "extremal.heuristic_lower.steps": int(c["steps"]),
            "extremal.cache_get.hit_ratio":
                ratio(c["cache_hits"], by["extremal.cache_get"][0]),
            "extremal.pool.children_cpu_s": children_cpu,
            "extremal.pool.utilization":
                ratio(parent_cpu + children_cpu, raw_wall * workers),
            "constructions.deletion.deleted_edges": int(c["deleted_edges"]),
            "pipeline.find_blowup.retries": retries,
            "pipeline.find_blowup.found_ratio": ratio(c["found"], by["pipeline.find_blowup"][0]),
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": wall - untraced_wall,
            "trace.self_sum_s": total_self,
            "trace.remainder_s": (raw_wall - roots) * scale,
            "trace.root_coverage": ratio(roots, raw_wall),
        })
        return out

    def dump(self, path):
        """Write every span as JSON lines: a header, then [name, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent"]}) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(f"[{row[0]}, {row[1]!r}, {row[2]!r}, {row[3]}]\n")


def cpu_times():
    """(children CPU, own CPU) in seconds so far."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    me = resource.getrusage(resource.RUSAGE_SELF)
    return ch.ru_utime + ch.ru_stime, me.ru_utime + me.ru_stime

"""Timing wrappers around the public functions of each graphnorms module.

The wrappers live in the benchmark, not the program.  ``install`` replaces
every binding of a traced function in every graphnorms module, including
the copies that ``from .x import f`` made, so inner calls are caught too.
Spans (name, start, end, parent, job) are kept in compact arrays and
written out at the end; a span's self time is its duration minus the
durations of its child spans, which in one thread never overlap.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "graphs", "kernels", "seeding", "density", "norming", "moduli")

# layer name -> the (module, attribute) pairs it covers
LAYERS = {
    "cli.main": [("cli", "main")],
    "graphs.parse_edge_list": [("graphs", "parse_edge_list")],
    "graphs.components": [("graphs", "components")],
    "graphs.find_isomorphism": [("graphs", "find_isomorphism")],
    "graphs.find_subgraph_embedding": [("graphs", "find_subgraph_embedding")],
    "graphs.enumerate_subgraphs": [("graphs", "enumerate_subgraphs")],
    "kernels.StepKernel": [],  # StepKernel.__post_init__, patched on the class
    "kernels.algebra": [("kernels", f) for f in ("combine", "scale", "absolute", "ones_like")],
    "kernels.sample_block_random": [("kernels", "sample_block_random")],
    "kernels.json": [("kernels", "kernel_from_json"), ("kernels", "kernel_to_json")],
    "seeding.derive_seed": [("seeding", "derive_seed")],
    "density.density": [("density", "density")],
    "density.density_many": [("density", "density_many")],
    "density.decorated_density": [("density", "decorated_density")],
    "density.norm_h": [("density", "norm_h")],
    "density.norm_rh": [("density", "norm_rh")],
    "density.elimination_plan": [("density", "elimination_plan")],
    "norming.component_analysis": [("norming", "component_analysis")],
    "norming.subgraph_avg_degree_check": [("norming", "subgraph_avg_degree_check")],
    "norming.star_or_eulerian_check": [("norming", "star_or_eulerian_check")],
    "norming.holder_search": [("norming", "holder_search")],
    "norming.holder_check": [("norming", "holder_check")],
    "norming.validate_certificate": [("norming", "validate_certificate")],
    "norming.certificate_json": [("norming", "certificate_to_json"), ("norming", "certificate_from_json")],
    "moduli.convexity_witness": [("moduli", "convexity_witness")],
    "moduli.smoothness_witness": [("moduli", "smoothness_witness")],
}
NAMES = list(LAYERS)


class Tracer:
    """Span recorder plus the few counters that need call arguments."""

    def __init__(self):
        self.nid = array("h")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_job = 0
        self.generators = 0
        self.yielded = 0
        self.blocks = 0
        self.hits = 0
        self.valid = 0
        self.plans: list = []  # (job, graph) per elimination_plan call
        self.evaluations: list = []  # (graph, parts, batch) per density evaluation
        self.certificates: list = []  # certificate JSON objects made or read
        self._alloc_calls: dict = {}  # (graph, parts, batch) -> (fn, args, kwargs), first call
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.nid.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, after=None):
        nid = NAMES.index(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_evaluation(self, name, fn, signature):
        """Density evaluations also record their size and keep the first call
        of each distinct (graph, parts, batch), to be repeated under
        tracemalloc after tracing, so that no span is timed under it."""
        nid = NAMES.index(name)

        def traced(*args, **kwargs):
            sig = signature(*args)
            self.evaluations.append(sig)
            self._alloc_calls.setdefault(sig, (fn, args, kwargs))
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_generator(self, name, fn):
        nid = NAMES.index(name)

        def traced(*args, **kwargs):
            self.generators += 1
            it = fn(*args, **kwargs)

            def steps():
                while True:
                    i = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.yielded += 1
                    yield item

            return steps()

        return traced

    # -- installation -------------------------------------------------------

    def _after_hooks(self):
        def blocks(args, result):
            n = args[0]
            self.blocks += n * (n + 1) // 2

        def search(args, result):
            self.hits += result is not None

        def validate(args, result):
            self.valid += bool(result[0])

        def plan(args, result):
            self.plans.append((self.current_job, args[0]))

        def cert_out(args, result):
            self.certificates.append(result)

        def cert_in(args, result):
            self.certificates.append(args[0])

        return {
            ("kernels", "sample_block_random"): blocks,
            ("norming", "holder_search"): search,
            ("norming", "validate_certificate"): validate,
            ("density", "elimination_plan"): plan,
            ("norming", "certificate_to_json"): cert_out,
            ("norming", "certificate_from_json"): cert_in,
        }

    def install(self, package) -> None:
        mods = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}
        namespaces = [package, *mods.values()]
        hooks = self._after_hooks()
        signatures = {
            "density.density": lambda h, w: (h, w.part_count, 1),
            "density.density_many": lambda h, ks: (h, ks[0].part_count if ks else 0, len(ks)),
            "density.decorated_density": lambda d: (d.host, d.part_measures.size, 1),
        }
        for name, targets in LAYERS.items():
            for mod, attr in targets:
                orig = getattr(mods[mod], attr)
                if name == "graphs.enumerate_subgraphs":
                    wrapper = self._wrap_generator(name, orig)
                elif name in signatures:
                    wrapper = self._wrap_evaluation(name, orig, signatures[name])
                else:
                    wrapper = self._wrap(name, orig, hooks.get((mod, attr)))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, wrapper)
                            self._undo.append((ns, key, orig))
        cls = mods["kernels"].StepKernel
        orig_post = cls.__post_init__
        cls.__post_init__ = self._wrap("kernels.StepKernel", orig_post)
        self._undo.append((cls, "__post_init__", orig_post))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._undo):
            setattr(ns, key, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.nid, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def peak_alloc(self) -> int:
        """Largest tracemalloc peak, in bytes, over one untraced repeat of
        each distinct density evaluation."""
        if self._undo:
            raise RuntimeError("uninstall the tracer first")
        peak = 0
        for fn, args, kwargs in self._alloc_calls.values():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak

    def metrics(self, components, elimination_plan) -> dict:
        """Per-layer metrics, computed after uninstall.  components /
        elimination_plan must be the untraced originals: sizes are computed
        outside any span."""
        a = self.arrays()
        calls = np.bincount(a["name"], minlength=len(NAMES))
        selfs = per_name_self_time(a["name"], a["parent"], a["start"], a["end"], len(NAMES))
        m: dict = {}
        for i, name in enumerate(NAMES):
            m[f"{name}.calls"] = int(calls[i])
            m[f"{name}.self_s"] = float(selfs[i])
        m["graphs.enumerate_subgraphs.calls"] = self.generators
        m["graphs.enumerate_subgraphs.yielded"] = self.yielded
        m["kernels.StepKernel.constructed"] = m.pop("kernels.StepKernel.calls")
        m["kernels.sample_block_random.blocks"] = self.blocks
        for mod in MODULES:
            m[f"{mod}.self_s"] = float(sum(selfs[i] for i, n in enumerate(NAMES) if n.startswith(mod + ".")))

        def child_count(parent_names, child_name):
            parents = np.isin(a["name"], [NAMES.index(p) for p in parent_names])
            kids = a["name"] == NAMES.index(child_name)
            has_parent = a["parent"] >= 0
            mask = kids & has_parent
            return int(parents[a["parent"][mask]].sum())

        searches = m["norming.holder_search.calls"]
        m["norming.holder_search.trials"] = child_count(["norming.holder_search"], "norming.holder_check")
        m["norming.holder_search.hits"] = self.hits
        m["norming.holder_search.hit_ratio"] = self.hits / searches if searches else 0.0
        vcalls = m["norming.validate_certificate.calls"]
        m["norming.validate_certificate.ok_ratio"] = self.valid / vcalls if vcalls else 0.0
        m["norming.certificate_json.bytes"] = sum(
            len(json.dumps(c, separators=(",", ":"))) for c in self.certificates)
        witnesses = m["moduli.convexity_witness.calls"] + m["moduli.smoothness_witness.calls"]
        attempts = child_count(["moduli.convexity_witness", "moduli.smoothness_witness"],
                               "kernels.sample_block_random")
        m["moduli.sample_attempts_per_witness"] = attempts / witnesses if witnesses else 0.0
        plans = len(self.plans)
        m["density.elimination_plan.distinct_ratio"] = len(set(self.plans)) / plans if plans else 0.0
        m["density.ops_computed"] = ops_computed(self.evaluations, components, elimination_plan)
        m["density.peak_alloc_mib"] = self.peak_alloc() / 2**20
        return m


def per_name_self_time(names, parents, starts, ends, count) -> np.ndarray:
    """Sum of (duration - child durations) per span name."""
    dur = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return np.bincount(names, weights=dur - covered, minlength=count)


def ops_computed(evaluations, components, elimination_plan) -> int:
    """Sum of parts^(width+1) * batch over the components of every evaluation."""
    widths: dict = {}
    total = 0
    for graph, parts, batch in evaluations:
        if graph not in widths:
            widths[graph] = [elimination_plan(c.graph).width
                             for c in components(graph) if c.graph.edge_count]
        total += sum(parts ** (w + 1) for w in widths[graph]) * batch
    return total

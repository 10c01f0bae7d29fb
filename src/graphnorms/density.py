"""Homomorphism densities of graphs in step kernels.

For a step kernel the defining integral collapses to a finite sum over
assignments of graph vertices to kernel parts.  That sum is evaluated by
variable elimination: each vertex is a variable over the parts, each edge
contributes its value matrix as a factor and each vertex its measure
vector, and vertices are summed out along a greedy low-width order.  A
direct sum over all part assignments (`density_bruteforce`) serves as the
independent correctness oracle.

There is one contraction path: every density is the product of the
densities of the graph's components with edges, each contracted along its
own cached elimination order.  This keeps the elimination width that of
the largest component and mirrors the product rule for disjoint unions.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .graphs import Graph, edge_components
from .kernels import PartitionMismatchError, StepKernel, absolute

_BATCH = -1  # pseudo-variable: a shared leading axis carried through a contraction
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

BRUTE_FORCE_LIMIT = 10**8
# Largest step output, in array elements (parts^width x batch), that a
# contraction may allocate: 2^25 float64 values are 256 MiB.
CONTRACTION_LIMIT = 2**25
_CACHE_SIZE = 64  # compiled graphs kept; a miss recompiles, so this bounds memory only
# Least loop (a step's output elements times the length of the axis it
# sums, if any) that _run splits across the CPUs, and the ufunc buffer, in
# elements, of each slice of a split product; see "Compiled elimination".
_SPLIT_LOOP = 2**20
_SLICE_BUFSIZE = 1024


@dataclass(frozen=True)
class EliminationPlan:
    """A vertex elimination order and the largest neighborhood met along it."""

    order: tuple[int, ...]
    width: int


@lru_cache(maxsize=_CACHE_SIZE)
def elimination_plan(g: Graph) -> EliminationPlan:
    """Greedy min-fill order (ties: degree, then index) with its induced width.

    The width is the maximum number of neighbors a vertex has at the moment
    it is eliminated: 1 on trees, 2 on cycles, v-1 on complete graphs.
    Evaluation takes O(parts^(width+1)) time and O(parts^width) memory per
    eliminated vertex.  Plans are cached per graph.
    """
    return _min_fill(g, False)


def _min_fill(g: Graph, sharing: bool) -> EliminationPlan:
    """Greedy min-fill order with its induced width.  Ties go to lower
    degree, then lower index; with `sharing`, ties in fill and degree go
    first to the vertices that no eliminated vertex was adjacent to."""
    adj: dict[int, set[int]] = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    order: list[int] = []
    width = 0
    touched: set[int] = set()  # vertices adjacent to an eliminated vertex
    remaining = sorted(adj)
    while remaining:
        best, best_key = None, None
        for v in remaining:
            nbrs = adj[v]
            fill = sum(1 for a, b in combinations(sorted(nbrs), 2) if b not in adj[a])
            key = (fill, len(nbrs), sharing and v in touched, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        nbrs = sorted(adj[best])
        width = max(width, len(nbrs))
        for a, b in combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        for a in nbrs:
            adj[a].discard(best)
        touched.update(nbrs)
        del adj[best]
        remaining.remove(best)
        order.append(best)
    return EliminationPlan(tuple(order), width)


# ---------------------------------------------------------------------------
# Compiled elimination
# ---------------------------------------------------------------------------
#
# A factor is a (vars, slot) pair: the array in that slot is indexed by its
# vars in order.  Eliminating vertex v takes the factors that mention v,
# whose vars together are U = {v} + v's current neighbors, and replaces
# them by one factor over U - {v}:
#
# - every factor whose vars are a subset of another's is folded into it
#   (the measure vector, repeated factors);
# - the resulting groups are split into two sides, such that no product
#   of two or more groups spans all of U; each side is multiplied out and
#   v is summed out by one matmul of the two sides;
# - when no such split exists (the triangle pattern abc,abd,acd) the step
#   is one multi-operand einsum, which loops without an intermediate.
#
# So no step builds a parts^|U| array: a step allocates its output (at most
# parts^width, times the batch) plus copies the size of its operands.  The
# schedule is compiled once per (component, batched) into closures over
# precomputed permutations and einsum strings.
#
# Each step is keyed by its kind, its compiled parameters and the value
# numbers of its inputs: the measure slots share one number, and so do the
# edge slots when every edge reads one array (density, and the stack of
# density_many).  A step whose key an earlier step already has is dropped,
# and its readers read that step's slot, so each distinct step runs once per
# call.  Nothing else moves: the shared step computes the same bits from
# the same arrays.  Each slot is freed after its last reader.
#
# Steps coincide only if the order lets them.  The greedy plan breaks ties
# by index, so it sweeps a cycle one vertex at a time and no two steps
# match.  The unbatched programs (density, decorated_density) may follow
# the sharing order of _min_fill instead, which sums out the alternate
# vertices of a cycle, or one side of K3,3, first: their W.D.W steps are
# one.  A component keeps it only when the single-array program is no
# wider and cheaper by _Program.cost; over 200 labelings C4 and K2,3 then
# run 1 matmul (greedy: 1-2), and K3,3, K3,4 and Q3 2 (greedy: 2-3).
# elimination_plan, whose width is printed and guarded, is always the
# greedy plan, and every batched program (density_many) follows it: their
# bits decide float-valued Hoelder hits in the search and in validate, so
# they keep the greedy plan until those are decided exactly (ROADMAP
# item 3).
#
# Every edge array is exactly symmetric in its two vertex axes (a validated
# kernel, or a stack of them), so an original edge slot is read in whichever
# of its two vertex orders the reading step lays out: products multiply it
# and matmuls take it without swapping them.  Only intermediate factors,
# and the batch axis of a stack, are ever moved.
#
# A step with a large loop runs split across the usable CPUs (_split).  Its
# loop is its output's elements times the length of the axis it sums, if
# any; from _SPLIT_LOOP = 2^20 on, the output is computed as contiguous
# slices of its axis 0, one per CPU, each by the step's own numpy call on
# the matching input slices, and numpy releases the GIL inside those calls.
# The calling thread allocates the output and computes one slice; a thread
# that lives only for the step computes each other one.  No summed axis is
# split, so each element of a product, sum, einsum or lead-axis matmul
# comes from the same loop in the same order: the bits do not depend on
# the CPU count.  A matmul without lead axes is a single BLAS call, and
# BLAS computes a block of rows in other bits than the whole matrix
# (OpenBLAS 0.3.31 on a Xeon: 150 of 173 random row cuts with a column
# count not divisible by 8, and under its Haswell kernel 102 of 227 with
# one), so it is never split.  A product slice builds only its share of a
# partial product, and writes a partial without the output's axis 0, which
# each slice would build whole, into the output instead; it also caps
# numpy's broadcast buffers, allocated per call and so per slice, at
# _SLICE_BUFSIZE elements (8192 by default), which at 64^3 elements made
# its broadcast multiplies no slower.  So the slices together allocate no
# more than the serial step.  Measured on 2 cores of a Xeon, per step: a
# parts^3 product gained from 2^18 elements, a sum broke even at an input
# of 2^20 and gained from 2^21, and a triangle einsum gained 1.6x at a
# 2^20 loop (Q3 at 32 parts) and 1.8-2x above; 2^20 is the least power of
# two at which no kind lost.  So K4 splits its products and sums from
# about 102 parts and Q3 its einsum from 32, while a moduli step's loop
# stays at 128^2 (its matmuls have no lead axes) and a process with one
# usable CPU never starts a thread.

def _sum_step(axis: int):
    def run(a, out=None):
        return a.sum(axis=axis, out=out)

    return ("sum", axis), run


def _aligner(vars_: tuple, layout: tuple):
    """The transpose and None-index that show an array over vars_ in layout."""
    perm = tuple([vars_.index(u) for u in layout if u in vars_])
    index = None
    if len(perm) < len(layout):
        index = tuple([slice(None) if u in vars_ else None for u in layout])
    return (None if perm == tuple(range(len(perm))) else perm), index


def _product_step(in_vars: list[tuple], layout: tuple):
    """Broadcast product of the inputs in their order, C-contiguous in layout.

    The output is allocated first; products over fewer axes than layout get
    their own arrays, and from the first multiply that spans all of layout
    on, the running product is written into the output.  Allocating the
    output before any partial product keeps a partial product from taking
    part of the space the previous step's output just freed and pushing
    the output past it, growing the heap (peak memory, not arithmetic).
    """
    key = ("product", len(layout), tuple([tuple([layout.index(u) for u in vs]) for vs in in_vars]))
    views = [_aligner(vs, layout) for vs in in_vars]
    sources = _sources(in_vars, layout)
    # In a slice of a split step, a partial product without the output's
    # axis 0 would be built whole by every slice: it, and every multiply
    # after it, is written into the slice of the output instead.
    full, covered, plan, into_slice = set(layout), set(), [], False
    for k, (vs, view) in enumerate(zip(in_vars, views)):
        covered |= set(vs)
        into_slice = into_slice or (k > 0 and layout[0] not in covered)
        plan.append((view, covered == full, into_slice))

    def multiply(arrays, buf, sliced: bool):
        product = None
        for a, ((perm, index), spanning, into_slice) in zip(arrays, plan):
            if perm is not None:
                a = a.transpose(perm)
            if index is not None:
                a = a[index]
            if product is None:
                product = a
            elif spanning or (sliced and into_slice):
                product = np.multiply(product, a, out=buf)
            else:
                product = np.multiply(product, a, order="C")
        return product

    def run(*arrays, out=None):
        if out is None:
            return multiply(arrays, np.empty([arrays[i].shape[j] for i, j in sources]), False)
        # A slice of a split step: its partial products are its share of
        # the serial ones, and numpy's broadcast buffers, one set per call
        # and so per slice, stay small.
        bufsize = np.setbufsize(_SLICE_BUFSIZE)
        try:
            return multiply(arrays, out, True)
        finally:
            np.setbufsize(bufsize)

    return key, run


def _matmul_step(x_perm, y_perm, lead: int):
    """Sum the last axis of x against axis `lead` of y, after the given transposes;
    both then start with the same `lead` axes."""

    def run(x, y, out=None):
        if x_perm is not None:
            x = x.transpose(x_perm)
        if y_perm is not None:
            y = y.transpose(y_perm)
        head = x.shape[:lead]
        a, b = x.reshape(head + (-1, x.shape[-1])), y.reshape(head + (y.shape[lead], -1))
        if out is not None:
            out = out.reshape(a.shape[:-1] + b.shape[-1:])
        return np.matmul(a, b, out=out).reshape(head + x.shape[lead:-1] + y.shape[lead + 1:])

    return ("matmul", x_perm, y_perm, lead), run


def _einsum_step(in_vars: list[tuple], out_vars: tuple):
    letters = {u: _LETTERS[i] for i, u in enumerate(sorted(set().union(*in_vars)))}
    expr = (
        ",".join("".join(letters[u] for u in vs) for vs in in_vars)
        + "->"
        + "".join(letters[u] for u in out_vars)
    )

    def run(*arrays, out=None):
        return np.einsum(expr, *arrays, out=out)

    return ("einsum", expr), run


def _sources(in_vars: list[tuple], out_vars: tuple) -> tuple:
    """The (input, axis) each axis over out_vars takes its length from."""
    return tuple([next((i, vs.index(u)) for i, vs in enumerate(in_vars) if u in vs) for u in out_vars])


def _split_plan(in_vars: list[tuple], out_vars: tuple) -> tuple | None:
    """How _run splits a step that reads arrays over in_vars into one over
    out_vars: the vertex axes its loop visits, its output's _sources, and
    per input the axis that runs along output axis 0, None where the input
    lacks it.  None for a scalar output, which has no axis to split."""
    if not out_vars:
        return None
    loop = len(set().union(*in_vars) - {_BATCH})
    cuts = tuple([vs.index(out_vars[0]) if out_vars[0] in vs else None for vs in in_vars])
    return loop, _sources(in_vars, out_vars), cuts


def _span(factors) -> frozenset:
    return frozenset([u for vs, _ in factors for u in vs])


def _layouts(v: int, x: tuple, y: tuple):
    """Axis orders for side x (lead + own + v) and side y (lead + v + own),
    and the output vars.  A side is (factors, span): a list of (vars, slot)
    pairs and the set of their vars; orders follow a lone factor's own
    order where there is one."""
    (xf, x_vars), (yf, y_vars) = x, y
    x_ref = xf[0][0] if len(xf) == 1 else sorted(x_vars)
    y_ref = yf[0][0] if len(yf) == 1 else sorted(y_vars)
    lead_set = (x_vars & y_vars) - {v}
    lead = tuple([u for u in (x_ref if len(xf) == 1 else y_ref) if u in lead_set])
    x_own = tuple([u for u in x_ref if u not in y_vars])
    y_own = tuple([u for u in y_ref if u not in x_vars])
    return lead + x_own + (v,), lead + (v,) + y_own, lead + x_own + y_own, len(lead)


def _best_split(clusters: list, union: frozenset) -> list | None:
    """The cheapest split of the (span, factors) clusters into two sides such
    that no product of two or more clusters spans the union; None when
    there is none.

    Cost: the sizes of the products that must be built (a lone factor is
    used as it is), then the number of shared axes.
    """
    k = len(clusters)
    # Every split up to 10 clusters; beyond that, one cluster against the rest.
    masks = range(1, 2 ** (k - 1)) if k <= 10 else [1 << i for i in range(k - 1)] + [2 ** (k - 1) - 1]
    best = None
    for mask in masks:
        sides, cost = [], 0
        for bit in (1, 0):
            chosen = [c for i, c in enumerate(clusters) if (mask >> i) & 1 == bit]
            span = frozenset().union(*(c[0] for c in chosen))
            if len(chosen) > 1 and span == union:
                break
            factors = [f for c in chosen for f in c[1]]
            cost += 64 ** len(span) if len(factors) > 1 else 0
            sides.append((factors, span))
        else:
            key = (cost, len(sides[0][1] & sides[1][1]))
            if best is None or key < best[0]:
                best = (key, sides)
    return None if best is None else best[1]


def _oriented(factors: list, layout: tuple, symmetric: range) -> list[tuple]:
    """The vars of each factor; for a slot in `symmetric`, whose array is
    symmetric in its last two axes, those two in layout order."""
    out = []
    for vs, slot in factors:
        if slot in symmetric and layout.index(vs[-1]) < layout.index(vs[-2]):
            vs = vs[:-2] + (vs[-1], vs[-2])
        out.append(vs)
    return out


def _compile_step(v: int, group: list, emit, symmetric: range) -> tuple:
    """Emit the steps that sum v out of group; return the new (vars, slot).
    Slots in `symmetric` hold arrays symmetric in their two vertex axes.
    group holds v's measure vector and another factor: v lies on an edge."""

    def multiply(factors, layout):
        in_vars = _oriented(factors, layout, symmetric)
        return emit(_product_step(in_vars, layout), [f[1] for f in factors], layout, in_vars)

    union = _span(group)
    clusters: list = []  # (span, [head factor, factors folded into it])
    for f in sorted(group, key=lambda f: -len(f[0])):
        own, host = frozenset(f[0]), None
        for c in clusters:
            if own <= c[0] and (host is None or len(c[0]) < len(host[0])):
                host = c
        if host is None:
            clusters.append((own, [f]))
        else:
            host[1].append(f)
    if len(clusters) == 1:
        head, *folded = clusters[0][1]
        rest = _span(folded)
        if rest != union:
            sides = [(folded, rest), ([head], union)]
        else:
            # the folded factors span the head: multiply them into it, then sum
            vs, slot = multiply(group, head[0])
            return emit(_sum_step(vs.index(v)), [slot], tuple([u for u in vs if u != v]), [vs])
    else:
        sides = _best_split(clusters, union)
    if sides is None:
        # fold each cluster into its head, summed axis last, then one einsum
        heads = []
        for _, (head, *folded) in clusters:
            if folded:
                layout = tuple([u for u in head[0] if u != v]) + (v,)
                head = multiply([head, *folded], layout)
            heads.append(head)
        out_vars = tuple(sorted(union - {v}))
        in_vars = [vs for vs, _ in heads]
        return emit(_einsum_step(in_vars, out_vars), [slot for _, slot in heads], out_vars, in_vars)
    x, y = sides
    x_layout, y_layout, out_vars, lead = _layouts(v, x, y)
    operands, perms, in_vars = [], [], []
    for (side, _), layout in ((x, x_layout), (y, y_layout)):
        if len(side) == 1:
            ((_, slot),) = side
            (vs,) = _oriented(side, layout, symmetric)
            perm = tuple([vs.index(u) for u in layout])
            perms.append(None if perm == tuple(range(len(perm))) else perm)
        else:
            side = sorted(side, key=lambda f: -len(f[0]))
            vs, slot = multiply(side, layout)
            perms.append(None)
        operands.append(slot)
        in_vars.append(vs)
    # Without lead axes the matmul is one BLAS call, and BLAS may compute a
    # block of rows in other bits than the whole: it is never split.
    return emit(_matmul_step(*perms, lead), operands, out_vars, in_vars if lead else None)


class _Program(NamedTuple):
    """A compiled elimination: slots 0..n-1 hold the measure vector, the next
    ones the edge arrays in `edges` order, and each step fills one more; the
    last step's output is the density."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    steps: tuple[tuple[Callable, tuple[int, ...], int], ...]
    widest: int  # most vertex axes on a step output; the batch axis is not counted
    frees: tuple[tuple[int, ...], ...]  # per step, the slots it is the last reader of
    keys: tuple[tuple, ...]  # per step, its kind and compiled parameters
    splits: tuple  # per step, its _split_plan, or None for a step that is never split

    def cost(self) -> tuple[int, int]:
        """Matmul and einsum steps, then steps: lower is cheaper."""
        return sum(1 for key in self.keys if key[0] in ("matmul", "einsum")), len(self.steps)


def _deduplicated(n: int, edges: tuple, steps: list, widest: int, uniform: bool) -> _Program:
    """The program of the compiled (key, run, ins) steps, less each step
    whose key and input value numbers an earlier step has; its readers read
    that step's slot.  With `uniform`, every edge slot holds one array."""
    inputs = n + len(edges)
    value = [0] * n + ([n] * len(edges) if uniform else list(range(n, inputs)))
    where = list(range(inputs))  # per compiled slot, the slot that holds its array
    seen: dict = {}
    kept: list = []
    keys: list = []
    splits: list = []
    for key, run, ins, split in steps:
        full_key = (key, tuple([value[i] for i in ins]))
        slot = seen.get(full_key)
        if slot is None:
            slot = seen[full_key] = inputs + len(kept)
            kept.append((run, tuple([where[i] for i in ins]), slot))
            keys.append(key)
            splits.append(split)
        where.append(slot)
        value.append(slot)
    last = {i: k for k, (_, ins, _) in enumerate(kept) for i in ins}
    frees: list = [[] for _ in kept]
    for i, k in last.items():
        frees[k].append(i)
    return _Program(n, edges, tuple(kept), widest, tuple(map(tuple, frees)), tuple(keys), tuple(splits))


def _compiled(g: Graph, order: tuple[int, ...], batched: bool) -> tuple[_Program, _Program]:
    """The programs that eliminate g's vertices in `order`: for distinct
    edge arrays, and for a single array on every edge.

    g must be connected and have an edge.  Eliminating a vertex keeps the
    remaining vertices connected, so the last step's output is the only
    factor left; and every vertex lies on a batched edge, so in a batched
    program every step output carries the batch axis.
    """
    n, edges = g.vertex_count, g.sorted_edges
    factors = [((v,), v) for v in range(n)]
    factors += [((_BATCH, *e) if batched else e, n + i) for i, e in enumerate(edges)]
    steps: list = []
    widest = 0

    def emit(step, ins, out_vars, in_vars):
        nonlocal widest
        steps.append((*step, tuple(ins), None if in_vars is None else _split_plan(in_vars, out_vars)))
        widest = max(widest, len(out_vars) - (_BATCH in out_vars))
        return out_vars, n + len(edges) + len(steps) - 1

    edge_slots = range(n, n + len(edges))
    for v in order:
        group = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append(_compile_step(v, group, emit, edge_slots))
    return _deduplicated(n, edges, steps, widest, False), _deduplicated(n, edges, steps, widest, True)


@lru_cache(maxsize=_CACHE_SIZE)
def _programs(g: Graph, batched: bool) -> tuple[_Program, _Program]:
    """The compiled elimination of g: the program for distinct edge arrays,
    and the one for a single array on every edge, along one order.

    Batched programs follow elimination_plan(g).  Unbatched ones follow the
    sharing order of _min_fill when that gives the single-array program no
    more width and a lower _Program.cost (fewer matmul and einsum steps,
    then fewer steps), and elimination_plan(g) otherwise; a tie keeps it.
    """
    greedy = elimination_plan(g).order
    programs = _compiled(g, greedy, batched)
    sharing = greedy if batched else _min_fill(g, True).order
    if sharing != greedy:
        shared = _compiled(g, sharing, batched)
        if shared[1].widest <= programs[1].widest and shared[1].cost() < programs[1].cost():
            programs = shared
    return programs


def _program(g: Graph, batched: bool, uniform: bool = False) -> _Program:
    """The compiled elimination of g; with `uniform`, for one array on every edge."""
    return _programs(g, batched)[uniform]


def _run(program: _Program, measures: np.ndarray, edge_arrays: list):
    parts = measures.size
    batch = len(edge_arrays[0]) if edge_arrays[0].ndim == 3 else 1
    slots = [measures] * program.vertex_count + edge_arrays + [None] * len(program.steps)
    for (run, ins, out), split, done in zip(program.steps, program.splits, program.frees):
        args = [slots[i] for i in ins]
        if split is not None and (loop := parts ** split[0] * batch) >= _SPLIT_LOOP:
            slots[out] = _split(run, args, loop, *split[1:])
        else:
            slots[out] = run(*args)
        for i in done:
            slots[i] = None  # free each slot after its last reader
    return slots[-1]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(run, args: list, loop: int, sources: tuple, cuts: tuple) -> np.ndarray:
    """run(*args), whose loop visits `loop` elements, as contiguous slices
    of its output's axis 0: one per usable CPU, none with a loop under half
    of _SPLIT_LOOP.  The calling thread allocates the output and computes the
    first slice; a thread that lives only for this call computes each other
    one.  Each slice is one run call on the inputs sliced where they carry
    that axis, writing into the output.
    """
    shape = [args[i].shape[j] for i, j in sources]
    pieces = min(_usable_cpus(), shape[0], 2 * loop // _SPLIT_LOOP)
    if pieces < 2:
        return run(*args)
    out = np.empty(shape)
    bounds = [shape[0] * k // pieces for k in range(pieces + 1)]
    errors: list = []

    def piece(k: int) -> None:
        s = slice(bounds[k], bounds[k + 1])
        run(*[a if c is None else a[(slice(None),) * c + (s,)] for a, c in zip(args, cuts)], out=out[s])

    def work(k: int) -> None:
        try:
            piece(k)
        except Exception as e:  # raised in the calling thread after the join
            errors.append(e)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, pieces)]
    for t in threads:
        t.start()
    try:
        piece(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return out


def _contraction_jobs(h: Graph, parts: int, batch: int | None = None, uniform: bool = False) -> list:
    """The compiled programs that contract h at `parts` parts, one per
    connected component with edges, each with the names of its vertices in
    h.  Raises ValueError, before anything is allocated, when a step would
    exceed CONTRACTION_LIMIT elements.
    """
    jobs = [(_program(c.graph, batch is not None, uniform), c.vertices) for c in edge_components(h)]
    for program, _ in jobs:
        size = parts**program.widest * (batch or 1)
        if size > CONTRACTION_LIMIT:
            raise ValueError(
                f"contraction needs a step of {size} elements ({parts} parts), over the "
                f"{CONTRACTION_LIMIT} limit"
            )
    return jobs


def _contract(h: Graph, measures: np.ndarray, edge_array: np.ndarray | Callable, batch: int | None = None):
    """The one contraction core behind every density.

    edge_array is the one value array that every edge of h reads, or a
    function giving the array of edge e: parts x parts, or batch x parts x
    parts when `batch` is set.  The values of the component programs
    _contraction_jobs compiles are multiplied.
    """
    uniform = isinstance(edge_array, np.ndarray)
    total = 1.0
    for program, names in _contraction_jobs(h, measures.size, batch, uniform):
        if uniform:
            arrays = [edge_array] * len(program.edges)
        else:
            arrays = [edge_array((names[a], names[b])) for a, b in program.edges]
        total = total * _run(program, measures, arrays)
    return total


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def density(h: Graph, w: StepKernel) -> float:
    """Homomorphism density t(h, w); 1.0 for edgeless h.

    Each connected component with edges is contracted along its own cached
    elimination order, and the component values are multiplied.
    """
    return float(_contract(h, w.measures, w.values))


def density_many(h: Graph, kernels: Sequence[StepKernel]) -> np.ndarray:
    """t(h, w_i) for several kernels on one shared partition, in batched
    passes over slices of _max_batch kernels: one in all but very wide hosts."""
    if not kernels:
        return np.empty(0)
    base = kernels[0]
    for k in kernels[1:]:
        if not base.same_partition(k):
            raise PartitionMismatchError("density_many: kernels must share one partition")
    step = _max_batch(h, base.part_count)
    stacks = [np.stack([k.values for k in kernels[i:i + step]]) for i in range(0, len(kernels), step)]
    return np.concatenate([np.ones(len(s)) * _contract(h, base.measures, s, batch=len(s)) for s in stacks])


def _max_batch(h: Graph, parts: int) -> int:
    """Most kernels of `parts` parts that one batched contraction of h can
    hold without a step over CONTRACTION_LIMIT.  At least 1, so a graph too
    wide even for one kernel still meets the guard's error."""
    per_kernel = max((parts ** _program(c.graph, True).widest for c in edge_components(h)), default=1)
    return max(1, CONTRACTION_LIMIT // per_kernel)


@dataclass(frozen=True, eq=False)
class Decoration:
    """One step kernel per edge of a host graph, all on a shared partition."""

    host: Graph
    kernels: Mapping[tuple[int, int], StepKernel]

    def __post_init__(self) -> None:
        normalized = {}
        for (u, v), w in self.kernels.items():
            normalized[(u, v) if u < v else (v, u)] = w
        if set(normalized) != self.host.edges:
            raise ValueError("decoration must assign exactly one kernel to every host edge")
        base = None
        for e in sorted(normalized):
            w = normalized[e]
            if base is None:
                base = w
            elif not base.same_partition(w):
                raise PartitionMismatchError("decoration kernels must share one partition")
        object.__setattr__(self, "kernels", normalized)

    @property
    def part_measures(self) -> np.ndarray:
        return self.kernels[self.host.sorted_edges[0]].measures

    @staticmethod
    def uniform(host: Graph, w: StepKernel) -> "Decoration":
        return Decoration(host, {e: w for e in host.sorted_edges})


def decorated_density(d: Decoration) -> float:
    """Edge-decorated density t(h, (W_e)); equals density(h, W) when all W_e = W.
    Contracted per component, like density."""
    h = d.host
    if h.edge_count == 0:
        return 1.0
    kernels = d.kernels
    return float(_contract(h, d.part_measures, lambda e: kernels[e].values))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _brute_guard(parts: int, vertices: int) -> None:
    if parts**vertices > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force over {parts}^{vertices} part assignments exceeds the "
            f"{BRUTE_FORCE_LIMIT} limit"
        )


def density_bruteforce(h: Graph, w: StepKernel) -> float:
    """Direct sum of measure-weighted products over all part assignments."""
    if h.edge_count == 0:
        return 1.0
    return decorated_density_bruteforce(Decoration.uniform(h, w))


def decorated_density_bruteforce(d: Decoration) -> float:
    """Brute-force oracle for the edge-decorated density."""
    h = d.host
    if h.edge_count == 0:
        return 1.0
    meas = d.part_measures.tolist()
    k = len(meas)
    _brute_guard(k, h.vertex_count)
    edge_vals = [(u, v, d.kernels[(u, v)].values.tolist()) for u, v in h.sorted_edges]

    def terms():
        for assign in product(range(k), repeat=h.vertex_count):
            t = 1.0
            for p in assign:
                t *= meas[p]
            for u, v, vals in edge_vals:
                t *= vals[assign[u]][assign[v]]
            yield t

    return math.fsum(terms())


# ---------------------------------------------------------------------------
# Graph functionals
# ---------------------------------------------------------------------------

def norm_h(h: Graph, w: StepKernel) -> float:
    """|t(h, w)|^(1/e(h)); the signed-density functional."""
    if h.edge_count == 0:
        raise ValueError("norm needs a graph with at least one edge")
    return abs(density(h, w)) ** (1.0 / h.edge_count)


def norm_rh(h: Graph, w: StepKernel) -> float:
    """t(h, |w|)^(1/e(h)); the absolute-density functional."""
    if h.edge_count == 0:
        raise ValueError("norm needs a graph with at least one edge")
    return density(h, absolute(w)) ** (1.0 / h.edge_count)

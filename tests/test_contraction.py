"""The compiled contraction core: oracle equivalence, step shapes, memory, cost guard."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import (
    Decoration,
    Graph,
    StepKernel,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    decorated_density,
    decorated_density_bruteforce,
    density,
    density_bruteforce,
    density_many,
    edge_components,
    elimination_plan,
)
from graphnorms.cli import main

core = sys.modules["graphnorms.density"]


def _graph(n: int, edges) -> Graph:
    return Graph.from_edges(edges, vertex_count=n)


K33 = complete_bipartite(3, 3)
K33_MINUS_EDGE = _graph(6, sorted(K33.edges - {(0, 3)}))
Q3 = _graph(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)])
# Seven vertices, labeled so that the greedy plan meets the triangle
# pattern abc,abd,acd, which has no split into two matmul sides.
TRIANGLE_HOST = _graph(7, [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4),
                           (3, 5), (3, 6), (4, 6)])
NAMED = [complete(4), complete_bipartite(2, 3), K33, K33_MINUS_EDGE, cycle(5), cycle(6), complete(5)]


@st.composite
def small_graphs(draw):
    """Named hosts on up to 6 vertices, or a random graph on 1-6 vertices."""
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED))
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _graph(n, [e for e, keep in zip(pairs, chosen) if keep])


def _measures(draw, parts):
    raw = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=parts, max_size=parts)))
    return raw / raw.sum()


def _values(draw, parts):
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=parts * parts, max_size=parts * parts))
    upper = np.triu(np.array(entries).reshape(parts, parts))
    return upper + np.triu(upper, 1).T


@st.composite
def relabeled(draw, graphs):
    """A graph from `graphs` under a random vertex relabeling.  Relabeling
    changes the greedy plan's tie-breaks, and so the compiled steps."""
    h = draw(graphs)
    perm = draw(st.permutations(range(h.vertex_count)))
    return h.relabel(dict(enumerate(perm)))


@st.composite
def connected_graphs(draw, max_vertices: int = 7):
    """A connected graph on 2 to max_vertices vertices: a random tree, in
    which each vertex joins an earlier one, plus random further edges."""
    n = draw(st.integers(2, max_vertices))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _graph(n, sorted(tree | {e for e, keep in zip(pairs, chosen) if keep}))


@st.composite
def kernel_families(draw, count, max_parts: int = 4):
    """`count` signed kernels with 1 to max_parts parts on one shared partition."""
    parts = draw(st.integers(1, max_parts))
    measures = _measures(draw, parts)
    return [StepKernel(measures, _values(draw, parts)) for _ in range(count)]


def _close(value, exact, scale):
    # Signed sums cancel, so rounding is relative to t(H, |W|), the sum of
    # the absolute values of all terms.
    assert abs(value - exact) <= 1e-12 * scale + 1e-300


def _abs_scale(h, kernels):
    if not kernels:
        return 1.0
    mags = {e: StepKernel(kernels[0].measures, np.abs(w.values)) for e, w in zip(h.sorted_edges, kernels)}
    return decorated_density_bruteforce(Decoration(h, mags)) if h.edge_count else 1.0


def _induced_width(g: Graph, order) -> int:
    adj = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    width = 0
    for v in order:
        nbrs = adj.pop(v)
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
    return width


# ---------------------------------------------------------------------------
# Equivalence with the brute-force oracles
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.data())
def test_density_and_orders_match_bruteforce(data):
    h = data.draw(relabeled(small_graphs()))
    (w,) = data.draw(kernel_families(1))
    _close(density(h, w), density_bruteforce(h, w), _abs_scale(h, [w] * h.edge_count))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_density_many_matches_bruteforce(data):
    h = data.draw(relabeled(small_graphs()))
    kernels = data.draw(st.integers(1, 4).flatmap(kernel_families))
    batch = density_many(h, kernels)
    assert batch.shape == (len(kernels),)
    for w, value in zip(kernels, batch):
        _close(value, density_bruteforce(h, w), _abs_scale(h, [w] * h.edge_count))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_decorated_density_matches_bruteforce(data):
    h = data.draw(relabeled(small_graphs().filter(lambda g: g.edge_count > 0)))
    kernels = data.draw(kernel_families(h.edge_count))
    d = Decoration(h, dict(zip(h.sorted_edges, kernels)))
    _close(decorated_density(d), decorated_density_bruteforce(d), _abs_scale(h, kernels))


def _sized(run, sizes: list):
    """run, recording the size of each array it returns in sizes."""
    def sized_run(*arrays):
        out = run(*arrays)
        sizes.append(np.size(out))
        return out

    return sized_run


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_step_output_exceeds_the_width(data):
    # Every array a step returns, with the batch, against the induced width
    # and against the size the cost guard counts.
    h = data.draw(relabeled(small_graphs()))
    parts = 3
    for c in edge_components(h):
        width = max(_induced_width(c.graph, elimination_plan(c.graph).order), 2)  # edge arrays are parts^2 already
        for batch in (None, 5):
            program = core._program(c.graph, batch is not None)
            sizes: list = []
            steps = tuple((_sized(run, sizes), ins, out) for run, ins, out in program.steps)
            edge = np.ones((batch, parts, parts) if batch else (parts, parts))
            core._run(program._replace(steps=steps), np.full(parts, 1 / parts), [edge] * c.graph.edge_count)
            assert program.widest <= width
            assert max(sizes) <= parts**program.widest * (batch or 1)


class _Logged(np.ndarray):
    """An array that records, in `log` when it has one, each axis order it is
    transposed to."""

    log = None

    def transpose(self, axes):
        if self.log is not None:
            self.log.append(axes)
        return super().transpose(axes)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_no_step_reads_an_edge_array_with_its_vertex_axes_swapped(data):
    # Edge arrays are symmetric in their two vertex axes, so the compiled
    # steps read them in stored order.  Only the batch axis may move.
    h = data.draw(relabeled(small_graphs().filter(lambda g: g.edge_count > 0)))
    kernels = data.draw(kernel_families(h.edge_count))
    for c in edge_components(h):
        for batched in (False, True):
            shape = (2,) if batched else ()
            program = core._program(c.graph, batched)
            log: list = []
            arrays = []
            for w in kernels[:c.graph.edge_count]:
                a = np.broadcast_to(w.values, shape + w.values.shape).copy().view(_Logged)
                a.log = log
                arrays.append(a)
            value = core._run(program, kernels[0].measures, arrays)
            vertex_axes = (len(shape), len(shape) + 1)
            assert [tuple(p for p in perm if p in vertex_axes) for perm in log] == [vertex_axes] * len(log)
            plain = core._run(program, kernels[0].measures, [np.asarray(a) for a in arrays])
            assert np.array_equal(np.asarray(value), np.asarray(plain))


@pytest.mark.parametrize("host", [Q3, TRIANGLE_HOST])
def test_triangle_pattern_steps_match_bruteforce(host):
    program = core._program(host, False)
    assert any(run.__qualname__.startswith("_einsum_step") for run, _, _ in program.steps)
    rng = np.random.default_rng(3)
    measures = np.array([0.2, 0.3, 0.5])
    kernels = []
    for _ in host.sorted_edges:
        upper = np.triu(rng.uniform(-1, 1, (3, 3)))
        kernels.append(StepKernel(measures, upper + np.triu(upper, 1).T))
    scale = _abs_scale(host, kernels)
    w = kernels[0]
    _close(density(host, w), density_bruteforce(host, w), _abs_scale(host, [w] * host.edge_count))
    d = Decoration(host, dict(zip(host.sorted_edges, kernels)))
    _close(decorated_density(d), decorated_density_bruteforce(d), scale)
    for k, value in zip(kernels[:4], density_many(host, kernels[:4])):
        _close(value, density_bruteforce(host, k), _abs_scale(host, [k] * host.edge_count))


# ---------------------------------------------------------------------------
# Step sharing: one array on every edge
# ---------------------------------------------------------------------------

def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_steps_give_the_bits_of_the_unshared_program(data):
    # The program for one array on every edge drops the steps it already
    # ran; on the same arrays it returns exactly the distinct-edge program's
    # value, batched and unbatched.
    h = data.draw(relabeled(connected_graphs()))
    kernels = data.draw(st.integers(1, 3).flatmap(lambda k: kernel_families(k, max_parts=5)))
    measures = kernels[0].measures
    stack = np.stack([w.values for w in kernels])
    values = {}
    for batched, array in ((False, kernels[0].values), (True, stack)):
        arrays = [array] * h.edge_count
        values[batched] = core._run(core._program(h, batched, True), measures, arrays)
        assert _bits(values[batched]) == _bits(core._run(core._program(h, batched), measures, arrays))
    assert density(h, kernels[0]) == float(values[False])
    assert _bits(density_many(h, kernels)) == _bits(values[True])
    for w, value in zip(kernels, values[True]):
        _close(value, density_bruteforce(h, w), _abs_scale(h, [w] * h.edge_count))


@pytest.mark.parametrize("host, unbatched, batched", [
    (Q3, (15, 9), (15, 11)),
    (complete_bipartite(2, 3), (10, 6), (10, 7)),  # the three W.D.W products are one
    (cycle(6), (12, 8), (11, 8)),  # batched, the four W.D products of the sweep are one
    (complete(4), (8, 8), (7, 7)),  # nothing to share
    (K33, (11, 7), (10, 6)),
    (complete_bipartite(3, 4), (13, 7), (14, 10)),
])
def test_step_counts_with_one_array_on_every_edge(host, unbatched, batched):
    for flag, counts in ((False, unbatched), (True, batched)):
        assert (len(core._program(host, flag).steps), len(core._program(host, flag, True).steps)) == counts


@pytest.mark.parametrize("host, matmuls", [
    (cycle(4), 1),
    (complete_bipartite(2, 3), 1),
    (K33, 2),
    (complete_bipartite(3, 4), 2),
    (Q3, 2),  # and one einsum
])
def test_single_array_matmuls_under_random_labelings(host, matmuls):
    # The sharing order sums out one side of a bipartite host (alternate
    # vertices of C4) first, so their identical steps run once, whatever
    # the labeling.
    rng = random.Random(0)
    for _ in range(200):
        perm = list(range(host.vertex_count))
        rng.shuffle(perm)
        program = core._program(host.relabel(dict(enumerate(perm))), False, True)
        assert sum(1 for key in program.keys if key[0] == "matmul") == matmuls


def _layout(program):
    """Everything of a program but its closures."""
    return program._replace(steps=tuple((ins, out) for _, ins, out in program.steps))


def test_programs_over_the_graph_atlas():
    # Every connected graph on 2 to 7 vertices, as networkx's atlas labels
    # it.  The unbatched programs keep the plan's width, never cost more
    # than the greedy-order compile, and agree to the bit; the batched
    # programs are that compile, step for step.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(0)
    measures = rng.uniform(0.5, 1.5, 3)
    measures /= measures.sum()
    upper = np.triu(rng.uniform(-1.0, 1.0, (3, 3)))
    values = upper + np.triu(upper, 1).T
    count = 0
    for a in nx.graph_atlas_g():
        if a.number_of_edges() == 0 or not nx.is_connected(a):
            continue
        count += 1
        g = _graph(a.number_of_nodes(), sorted(tuple(sorted(e)) for e in a.edges()))
        plan = elimination_plan(g)
        distinct, uniform = core._programs(g, False)
        assert distinct.widest == uniform.widest == plan.width
        greedy = core._compiled(g, plan.order, False)[1]
        assert uniform.cost() <= greedy.cost()
        arrays = [values] * g.edge_count
        assert _bits(core._run(uniform, measures, arrays)) == _bits(core._run(distinct, measures, arrays))
        batched = core._programs(g, True)
        assert list(map(_layout, batched)) == list(map(_layout, core._compiled(g, plan.order, True)))
    assert count == 995


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([4, 6, 8]), st.sampled_from([64, 96, 128]), st.integers(0, 2**32 - 1), st.data())
def test_even_cycle_densities_match_the_spectrum(length, parts, seed, data):
    # t(C_2k, W) = tr((D^1/2 V D^1/2)^2k), the sum of lambda^2k over the
    # eigenvalues of D^1/2 V D^1/2: an oracle at part counts that brute
    # force cannot reach, for the programs of both unbatched densities.
    # Every lambda^2k is nonnegative, so the sum is its own absolute scale.
    h = data.draw(relabeled(st.just(cycle(length))))
    rng = np.random.default_rng(seed)
    measures = rng.uniform(0.2, 1.0, parts)
    upper = np.triu(rng.uniform(-1.0, 1.0, (parts, parts)))
    w = StepKernel(measures / measures.sum(), upper + np.triu(upper, 1).T)
    root = np.sqrt(w.measures)
    powers = np.linalg.eigvalsh(root[:, None] * w.values * root) ** length
    expected = math.fsum(powers)
    for value in (density(h, w), decorated_density(Decoration.uniform(h, w))):
        assert abs(value - expected) <= 1e-12 * expected


@pytest.mark.parametrize("host, widest", [(Q3, 3), (K33, 3), (complete(4), 3), (cycle(6), 2)])
def test_shared_steps_never_raise_the_peak(host, widest):
    # A shared output lives until its last reader; that must never hold
    # more memory at once than running every step.
    parts = 64
    rng = np.random.default_rng(1)
    measures = rng.uniform(0.5, 1.5, parts)
    measures /= measures.sum()
    upper = np.triu(rng.uniform(-0.5, 1.0, (parts, parts)))
    arrays = [upper + np.triu(upper, 1).T] * host.edge_count
    peaks, values = {}, {}
    for uniform in (False, True):
        program = core._program(host, False, uniform)
        core._run(program, measures, arrays)  # warm up outside the measurement
        tracemalloc.start()
        try:
            values[uniform] = core._run(program, measures, arrays)
            peaks[uniform] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert _bits(values[True]) == _bits(values[False])
    assert peaks[True] <= peaks[False]
    for batched in (False, True):
        assert core._program(host, batched, True).widest == core._program(host, batched).widest == widest
    assert core._max_batch(host, parts) == core.CONTRACTION_LIMIT // parts**widest
    assert core.CONTRACTION_LIMIT == 2**25


# ---------------------------------------------------------------------------
# Steps split across CPUs
# ---------------------------------------------------------------------------

def _symmetric(rng, parts: int) -> np.ndarray:
    upper = np.triu(rng.uniform(-0.5, 1.0, (parts, parts)))
    return upper + np.triu(upper, 1).T


def _measure_vector(rng, parts: int) -> np.ndarray:
    measures = rng.uniform(0.5, 1.5, parts)
    return measures / measures.sum()


def _cases(host: Graph, measures: np.ndarray, arrays: list):
    """(program, measures, edge arrays) for one array on every edge, distinct
    arrays, and a batched stack of two of them on every edge."""
    yield core._program(host, False, True), measures, [arrays[0]] * host.edge_count
    yield core._program(host, False), measures, arrays[:host.edge_count]
    yield core._program(host, True, True), measures, [np.stack(arrays[-2:])] * host.edge_count


def _run_on(cpus: int, program, measures, arrays, split_loop: int | None = None):
    """core._run with `cpus` usable CPUs and, when given, the split threshold."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_usable_cpus", lambda: cpus)
        if split_loop is not None:
            mp.setattr(core, "_SPLIT_LOOP", split_loop)
        return core._run(program, measures, arrays)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_steps_give_the_serial_bits(data):
    # Every step split, into more slices than this machine may have cores,
    # batched and unbatched, for one array on every edge and for distinct ones.
    h = data.draw(relabeled(connected_graphs()))
    kernels = data.draw(st.integers(1, 3).flatmap(lambda k: kernel_families(h.edge_count + k, max_parts=5)))
    cpus = data.draw(st.integers(2, 4))
    for program, measures, arrays in _cases(h, kernels[0].measures, [w.values for w in kernels]):
        serial = _run_on(1, program, measures, arrays)
        assert _bits(_run_on(cpus, program, measures, arrays, split_loop=1)) == _bits(serial)


@pytest.mark.parametrize("host, parts", [(complete(4), 64), (K33, 64), (Q3, 64), (complete(4), 128)])
def test_split_contractions_keep_the_bits(monkeypatch, host, parts):
    # Both at the module threshold and with every step split.  Only a
    # matmul without lead axes, one BLAS call, is never split.
    rng = np.random.default_rng(parts)
    measures = _measure_vector(rng, parts)
    arrays = [_symmetric(rng, parts) for _ in range(host.edge_count + 1)]
    split_kinds = set()
    split = core._split

    def logged(run, *rest):
        split_kinds.add(run.__qualname__.split(".")[0])
        return split(run, *rest)

    monkeypatch.setattr(core, "_split", logged)
    for program, measures, arrays in _cases(host, measures, arrays):
        for key, plan in zip(program.keys, program.splits):
            if key[0] == "matmul":
                assert (plan is None) == (key[3] == 0)
        serial = _bits(_run_on(1, program, measures, arrays))
        assert _bits(_run_on(2, program, measures, arrays)) == serial
        assert _bits(_run_on(3, program, measures, arrays, split_loop=1)) == serial
    expected = {"_product_step", "_matmul_step", "_sum_step"} | ({"_einsum_step"} if host == Q3 else set())
    assert split_kinds == expected


@pytest.mark.parametrize("host, parts", [(complete(4), 64), (K33, 64), (Q3, 64), (cycle(6), 64), (complete(4), 128)])
def test_split_steps_never_raise_the_peak(host, parts):
    # The calling thread allocates a split step's output, its slices write
    # into it, and a product's slices keep numpy's broadcast buffers small.
    # At 64 parts only Q3's triangle einsum splits; at 128 K4's products and
    # sums do, and their slices hold less than the serial products.
    rng = np.random.default_rng(2)
    w = StepKernel(_measure_vector(rng, parts), _symmetric(rng, parts))
    peaks, values = {}, {}
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_usable_cpus", lambda: cpus)
            density(host, w)  # warm up outside the measurement
            tracemalloc.start()
            try:
                values[cpus] = density(host, w)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    # A few hundred bytes either way are the interpreter's and numpy's own
    # bookkeeping (thread state, per-call caches), not arrays.
    assert peaks[2] <= peaks[1] + 2**12
    assert _bits(values[2]) == _bits(values[1])


def _counting_threads(monkeypatch) -> list:
    started: list = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    rng = np.random.default_rng(5)
    w = StepKernel(_measure_vector(rng, 128), _symmetric(rng, 128))
    h = disjoint_union(complete(4), cycle(5))
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    value = density(h, w)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    started = _counting_threads(monkeypatch)
    assert _bits(density(h, w)) == _bits(value)
    assert started == []


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert core._usable_cpus() == 1
    monkeypatch.delattr(core.os, "sched_getaffinity")
    monkeypatch.setattr(core.os, "cpu_count", lambda: None)
    assert core._usable_cpus() == 1


def test_a_failing_slice_raises_in_the_caller_after_every_slice_ends(monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
    threads = threading.active_count()
    ended = []

    def run(a, out=None):
        if a[0] == 1.0:
            raise FloatingPointError("slice")
        ended.append(threading.current_thread())
        out[...] = a

    with pytest.raises(FloatingPointError, match="slice"):
        core._split(run, [np.arange(3.0)], 3 * core._SPLIT_LOOP, ((0, 0),), (0,))
    assert len(ended) == 2
    assert threading.active_count() == threads


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ["check", "k44.txt", "--budget", "30"],  # weak K4,4: proven norming, so the whole search runs
    ["validate", str(_GOLDEN / "cert-k4k3-weak-0.json")],
    ["moduli", str(_GOLDEN / "c4.txt"), "--kind", "smoothness", "--n-grid", "128", "--seeds", "0"],
])
def test_search_validate_and_moduli_never_split(monkeypatch, capsys, tmp_path, argv):
    (tmp_path / "k44.txt").write_text("\n".join(f"{u} {v}" for u, v in complete_bipartite(4, 4).sorted_edges))
    monkeypatch.chdir(tmp_path)
    splits = []
    monkeypatch.setattr(core, "_split", lambda *args: splits.append(args))
    started = _counting_threads(monkeypatch)
    threads = threading.active_count()
    assert main(argv) == 0
    assert splits == [] and started == []
    assert threading.active_count() == threads


def test_import_starts_no_thread():
    # Nothing is started or built before the first large step.
    code = (
        "import sys, threading, graphnorms; core = sys.modules['graphnorms.density']; "
        "print(threading.active_count(), [n for n, v in vars(core).items() if isinstance(v, threading.Thread)])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(core.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.split() == ["1", "[]"]


# ---------------------------------------------------------------------------
# Compilation is cached
# ---------------------------------------------------------------------------

def test_plans_and_programs_are_compiled_once():
    h = _graph(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
    program = core._program(h, False)
    assert core._program(_graph(6, sorted(h.edges)), False) is program
    assert elimination_plan(h) is elimination_plan(_graph(6, sorted(h.edges)))
    assert core._program(h, True) is not program


# ---------------------------------------------------------------------------
# Memory: no parts^(width+1) intermediate
# ---------------------------------------------------------------------------

def test_q3_peak_memory_stays_within_a_few_step_outputs():
    parts = 48
    rng = np.random.default_rng(0)
    measures = rng.uniform(0.5, 1.5, parts)
    upper = np.triu(rng.uniform(-0.5, 1.0, (parts, parts)))
    w = StepKernel(measures / measures.sum(), upper + np.triu(upper, 1).T)
    assert elimination_plan(Q3).width == 3
    density(Q3, w)  # compile outside the measurement
    tracemalloc.start()
    try:
        density(Q3, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one parts^4 float64 array alone would be 6 times this bound
    assert peak < 8 * parts**3 * 8


def test_isolated_vertices_cost_nothing():
    # One edge among 10^5 declared vertices: only the edge's component is
    # built and compiled, not one per isolated vertex.
    h = _graph(10**5, [(17, 40000)])
    w = StepKernel(np.array([0.25, 0.75]), np.array([[0.5, -1.0], [-1.0, 2.0]]))
    tracemalloc.start()
    try:
        value = density(h, w)
        batch = core._max_batch(h, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18
    assert value == density(_graph(2, [(0, 1)]), w)
    assert batch == core.CONTRACTION_LIMIT // 128


# ---------------------------------------------------------------------------
# Cost guard
# ---------------------------------------------------------------------------

def _kernel(parts: int) -> StepKernel:
    return StepKernel(np.full(parts, 1.0 / parts), np.full((parts, parts), 0.5))


def test_cost_guard_rejects_before_allocating():
    w = _kernel(128)  # K8 has width 7: a 128^7-element step
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            density(complete(8), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="limit"):
        decorated_density(Decoration.uniform(complete(8), w))


def test_cost_guard_counts_the_batch():
    parts, batch = 32, 1025  # one width-3 step of 32^3 values fits, 1025 of them do not
    w = _kernel(parts)
    assert parts**3 <= core.CONTRACTION_LIMIT < parts**3 * batch
    density(complete(4), w)
    with pytest.raises(ValueError, match="limit"):
        core._contraction_jobs(complete(4), parts, batch)
    # so density_many contracts such a stack in slices of at most 1024
    assert core._max_batch(complete(4), parts) == batch - 1


def test_cost_guard_exits_two_from_the_cli(tmp_path, capsys):
    graph = tmp_path / "k8.txt"
    graph.write_text("\n".join(f"{u} {v}" for u, v in complete(8).sorted_edges) + "\n")
    kernel = tmp_path / "w.json"
    w = _kernel(128)
    kernel.write_text(json.dumps({"measures": w.measures.tolist(), "values": w.values.tolist()}))
    assert main(["density", str(graph), str(kernel)]) == 2
    assert "limit" in capsys.readouterr().err

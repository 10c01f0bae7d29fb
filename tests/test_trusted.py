"""The unchecked builders: each must produce exactly what the checked
constructor would accept, and only the listed internal builders may use them."""

from __future__ import annotations

import ast
import tracemalloc
from collections import deque
from itertools import islice, zip_longest
from pathlib import Path

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphnorms
from graphnorms import (
    Decoration,
    Graph,
    StepKernel,
    complete_bipartite,
    dirac_d1,
    dirac_d2,
    edge_components,
    enumerate_subgraphs,
    remove_isolated_vertices,
    sample_block_random,
)
from graphnorms.moduli import _witness_sample
from graphnorms.norming import _FAMILIES, _VALUE_GRID


@st.composite
def _graphs(draw, max_vertices=7, max_edges=10, min_vertices=1, min_edges=0):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges, max_size=max_edges)) if pairs else []
    return Graph.from_edges(edges, vertex_count=n)


def _reference_subgraphs(g: Graph):
    """enumerate_subgraphs without a cap, as a plain mask loop through
    Graph.from_edges: a cap keeps the subgraphs on at most that many vertices."""
    es = g.sorted_edges
    for mask in range(1, 1 << len(es)):
        chosen = [e for i, e in enumerate(es) if mask >> i & 1]
        support = sorted({x for e in chosen for x in e})
        index = {v: i for i, v in enumerate(support)}
        yield Graph.from_edges([(index[u], index[v]) for u, v in chosen], vertex_count=len(support))


def _assert_valid_graph(g: Graph) -> None:
    assert type(g.edges) is frozenset
    assert Graph(g.vertex_count, g.edges) == g  # the full checks pass


def _assert_stream_equals_the_mask_loop(g: Graph) -> None:
    reference = list(_reference_subgraphs(g))
    for cap in range(1, g.vertex_count + 1):
        expected = (f for f in reference if f.vertex_count <= cap)
        assert all(a == b for a, b in zip_longest(enumerate_subgraphs(g, cap), expected))


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_subgraph_stream_equals_the_checked_mask_loop(g):
    _assert_stream_equals_the_mask_loop(g)
    for f in enumerate_subgraphs(g, g.vertex_count):
        _assert_valid_graph(f)


@settings(max_examples=4, deadline=None)
@given(_graphs(max_vertices=9, max_edges=16, min_vertices=6, min_edges=11))
def test_subgraph_stream_equals_the_checked_mask_loop_up_to_16_edges(g):
    # both halves of the edge list take part in every support and relabelling
    _assert_stream_equals_the_mask_loop(g)


def test_subgraph_counts_of_petersen_and_k44():
    petersen = Graph.from_edges(nx.petersen_graph().edges())
    assert sum(1 for _ in enumerate_subgraphs(petersen, 8)) == 11357
    assert sum(1 for _ in enumerate_subgraphs(complete_bipartite(4, 4), 8)) == 2**16 - 1


def test_subgraph_enumeration_memory_stays_below_the_subset_count():
    # one table over all 2^22 subsets would take over 100 MiB; two of 2^11 fit
    host = Graph.from_edges(nx.gnm_random_graph(10, 22, seed=1).edges())
    assert host.edge_count == 22
    tracemalloc.start()
    try:
        deque(islice(enumerate_subgraphs(host, 8), 10**4), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_subgraph_bitmasks_do_not_grow_with_vertex_labels():
    far = 10**8
    g = Graph(far + 1, frozenset({(0, far), (5, far)}))
    assert list(enumerate_subgraphs(g, 3)) == list(_reference_subgraphs(g))


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_components_and_stripping_build_valid_graphs(g):
    for comp in edge_components(g):
        _assert_valid_graph(comp.graph)
        index = {v: i for i, v in enumerate(comp.vertices)}
        expected = [(index[u], index[v]) for u, v in g.edges if u in index]
        assert comp.graph == Graph.from_edges(expected, vertex_count=len(comp.vertices))
    stripped = remove_isolated_vertices(g)
    _assert_valid_graph(stripped)
    support = sorted({x for e in g.edges for x in e})
    index = {v: i for i, v in enumerate(support)}
    assert stripped == Graph.from_edges([(index[u], index[v]) for u, v in g.edges], vertex_count=len(support))


def _assert_valid_kernel(w: StepKernel) -> None:
    """w equals the kernel that full validation builds from copies of its arrays."""
    checked = StepKernel(w.measures.copy(), w.values.copy())
    for mine, theirs in ((w.measures, checked.measures), (w.values, checked.values)):
        assert mine.dtype == np.float64
        assert mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable


@settings(max_examples=40, deadline=None)
@given(
    _graphs(max_vertices=6, max_edges=8).filter(lambda g: g.edge_count > 0),
    st.integers(0, 2**64 - 1),
    st.integers(0, 10**6),
    st.sampled_from(sorted(_FAMILIES)),
)
def test_search_family_kernels_pass_full_validation(h, seed, trial, mode):
    for family in _FAMILIES[mode]:
        d = family(h, seed, trial)
        for w in d.kernels.values():
            _assert_valid_kernel(w)
        assert Decoration(h, dict(d.kernels)).kernels == d.kernels


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 130),
    st.integers(0, 2**64 - 1),
    st.sampled_from([dirac_d1(), dirac_d2(), _VALUE_GRID]),
    st.sampled_from(["u1", "u2"]),
    st.integers(0, 3),
)
def test_sampled_kernels_pass_full_validation(n, seed, d, role, attempt):
    block = sample_block_random(n, d, seed)
    witness = _witness_sample(n, seed, role, attempt)
    for w in (block, witness):
        _assert_valid_kernel(w)
    # one measures array per part count, so partitions compare by identity
    assert block.measures is witness.measures is sample_block_random(n, d, seed + 1).measures


# The private constructors that skip validation, and the only functions that
# may name them.  None of these reads data from outside the program.
_TRUSTED_USERS = {
    "_trusted": {
        "kernels._derived",
        "kernels.sample_block_random",
        "kernels.special_kernel",
        "moduli._witness_sample",
        "norming._indicator_family",
        "norming._rank_one_family",
    },
    "_derived": {
        "kernels.add",
        "kernels.subtract",
        "kernels.scale",
        "kernels.absolute",
        "kernels.combine",
        "kernels.ones_like",
    },
    "_graph": {
        "graphs.enumerate_subgraphs",
        "graphs.edge_components",
        "graphs.remove_isolated_vertices",
    },
}


def _trusted_uses(module: str, tree: ast.AST) -> set[tuple[str, str]]:
    """(constructor, enclosing function) for every mention of a constructor
    in the module's code, as a name or an attribute; imports may not rename one."""
    uses: set[tuple[str, str]] = set()

    def visit(node: ast.AST, scope: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            scope = f"{scope or module}.{getattr(node, 'name', '<lambda>')}"
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias) and node.name in _TRUSTED_USERS:
            assert node.asname is None, f"{module} imports {node.name} as {node.asname}"
        if name in _TRUSTED_USERS:
            uses.add((name, scope or f"{module}.<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return uses


def test_unchecked_constructors_serve_only_the_listed_builders():
    package = Path(graphnorms.__file__).parent
    found: set[tuple[str, str]] = set()
    for source in sorted(package.glob("*.py")):
        found |= _trusted_uses(source.stem, ast.parse(source.read_text()))
    allowed = {(name, user) for name, users in _TRUSTED_USERS.items() for user in users}
    assert found == allowed

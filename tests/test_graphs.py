"""Graph parsing, components, isomorphism, and structural predicates."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from graphnorms import (
    Graph,
    GraphParseError,
    are_isomorphic,
    average_degree,
    complete,
    complete_bipartite,
    components,
    cycle,
    edge_components,
    disjoint_union,
    enumerate_subgraphs,
    find_isomorphism,
    find_subgraph_embedding,
    graph_from_json,
    graph_to_json,
    is_connected,
    is_eulerian,
    is_star,
    parse_edge_list,
    path,
    remove_isolated_vertices,
    star,
)
from graphnorms import graphs
from conftest import random_graph


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_path_on_three_vertices():
    g = parse_edge_list("0 1\n1 2")
    assert g.vertex_count == 3
    assert g.edges == {(0, 1), (1, 2)}


def test_parse_vertices_header_declares_isolated():
    g = parse_edge_list("vertices 5\n0 1")
    assert g.vertex_count == 5
    assert g.edge_count == 1


def test_parse_header_never_shrinks():
    g = parse_edge_list("vertices 2\n0 5")
    assert g.vertex_count == 6


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0 0", "self-loop"),
        ("0 1\n1 0", "duplicate"),
        ("0 -2", "negative"),
        ("0 1 2", "expected"),
        ("a b", "non-integer"),
        ("vertices x", "not an integer"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_parse_skips_blanks_and_comments():
    g = parse_edge_list("# a square\n\n0 1\n1 2\n2 3\n0 3\n")
    assert are_isomorphic(g, cycle(4))


def test_json_round_trip(c4):
    assert graph_from_json(graph_to_json(c4)) == c4


@given(st.integers(0, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))))
def test_json_round_trip_random(extra, raw_pairs):
    edges = [(u, v) for u, v in raw_pairs if u != v]
    top = max((max(e) for e in edges), default=-1) + 1
    g = Graph.from_edges(edges, vertex_count=top + extra)
    assert graph_from_json(graph_to_json(g)) == g


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

def test_components_of_disjoint_cycles(c4, c6):
    comps = components(disjoint_union(c4, c6))
    assert len(comps) == 2
    assert are_isomorphic(comps[0].graph, c4)
    assert are_isomorphic(comps[1].graph, c6)


def test_components_of_connected_graph(c4):
    comps = components(c4)
    assert len(comps) == 1
    assert comps[0].graph == c4
    assert comps[0].vertices == (0, 1, 2, 3)


def test_components_flag_singletons(k12):
    g = Graph.from_edges(k12.edges, vertex_count=4)
    comps = components(g)
    assert [c.is_singleton for c in comps] == [False, True]
    assert are_isomorphic(comps[0].graph, k12)


def test_components_partition_and_reassembly():
    rng = random.Random(7)
    for _ in range(80):
        g = random_graph(rng, max_vertices=8, p=0.3)
        comps = components(g)
        seen = [v for c in comps for v in c.vertices]
        assert sorted(seen) == list(range(g.vertex_count))
        rebuilt = disjoint_union(*(c.graph for c in comps))
        assert are_isomorphic(rebuilt, g)


def test_edge_components_are_the_components_with_edges():
    rng = random.Random(11)
    for _ in range(80):
        g = random_graph(rng, max_vertices=9, p=0.25)
        assert edge_components(g) == tuple(c for c in components(g) if c.graph.edge_count)
    g = Graph.from_edges([(5, 9), (0, 7), (7, 9), (2, 3)], vertex_count=10**9)
    assert [c.vertices for c in edge_components(g)] == [(0, 5, 7, 9), (2, 3)]


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    for perm in permutations(range(g2.vertex_count)):
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g1.edges}
        if mapped == g2.edges:
            return True
    return False


def test_c4_is_k22(c4):
    mapping = find_isomorphism(c4, complete_bipartite(2, 2))
    assert mapping is not None
    assert sorted(mapping) == [0, 1, 2, 3]


def test_c4_is_not_p4(c4, p4):
    assert find_isomorphism(c4, p4) is None


def test_relabeled_star_has_witness(k12):
    relabeled = k12.relabel({0: 2, 1: 0, 2: 1})
    mapping = find_isomorphism(k12, relabeled)
    assert mapping is not None
    for u, v in k12.edges:
        a, b = mapping[u], mapping[v]
        assert (min(a, b), max(a, b)) in relabeled.edges


def test_witness_maps_edges_onto_edges():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, max_vertices=7, p=0.4)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabeled = g.relabel(dict(enumerate(perm)))
        mapping = find_isomorphism(g, relabeled)
        assert mapping is not None
        mapped = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in g.edges}
        assert mapped == relabeled.edges


def test_isomorphism_reflexive_on_random_graphs():
    rng = random.Random(11)
    for _ in range(1000):
        g = random_graph(rng, max_vertices=8, p=rng.choice([0.2, 0.5, 0.8]))
        assert find_isomorphism(g, g) is not None


def test_isomorphism_symmetric():
    rng = random.Random(5)
    for _ in range(100):
        g1 = random_graph(rng, max_vertices=6)
        g2 = random_graph(rng, max_vertices=6)
        assert (find_isomorphism(g1, g2) is None) == (find_isomorphism(g2, g1) is None)


def test_agrees_with_brute_force_on_small_pairs():
    rng = random.Random(23)
    for _ in range(150):
        g1 = random_graph(rng, max_vertices=6, p=rng.choice([0.3, 0.5, 0.7]))
        if rng.random() < 0.5:
            perm = list(range(g1.vertex_count))
            rng.shuffle(perm)
            g2 = g1.relabel(dict(enumerate(perm)))
        else:
            g2 = random_graph(rng, max_vertices=6, p=rng.choice([0.3, 0.5, 0.7]))
        assert are_isomorphic(g1, g2) == brute_force_isomorphic(g1, g2)


def _min_scan_order(adj):
    """The search's vertex order by definition: at each step, the unplaced
    vertex with the most placed neighbours, then the highest degree, then
    the lowest label."""
    placed = [False] * len(adj)
    order = []
    for _ in adj:
        v = min(
            (u for u in range(len(adj)) if not placed[u]),
            key=lambda u: (-sum(placed[w] for w in adj[u]), -len(adj[u]), u),
        )
        placed[v] = True
        order.append(v)
    return order


def test_placement_order_matches_the_min_scan():
    rng = random.Random(29)
    for _ in range(2000):
        g = random_graph(rng, max_vertices=14, p=rng.choice([0.1, 0.3, 0.5, 0.8]))
        adj = graphs.adjacency(g)
        assert graphs._placement_order(adj) == _min_scan_order(adj), g


def test_degree_blind_pairs_resolved_by_backtracking():
    # Same degree multisets, different structure: only the search can split them.
    pairs = [
        (cycle(6), disjoint_union(complete(3), complete(3))),
        (path(6), disjoint_union(cycle(4), path(2))),
        (complete_bipartite(3, 3), disjoint_union(complete(3), complete(3))),
    ]
    prism = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    pairs.append((prism, complete_bipartite(3, 3)))
    for g1, g2 in pairs:
        assert find_isomorphism(g1, g2) is None
        assert not brute_force_isomorphic(g1, g2)


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges)
    return out


def from_nx(g: nx.Graph) -> Graph:
    index = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Graph.from_edges(((index[u], index[v]) for u, v in g.edges()), vertex_count=len(index))


def edge_image(mapping: dict[int, int], g: Graph) -> set[tuple[int, int]]:
    return {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in g.edges}


def assert_search_agrees_with_networkx(g1: Graph, g2: Graph) -> None:
    """find_isomorphism against nx.is_isomorphic; a returned map must be a
    vertex bijection carrying the edges of g1 onto those of g2."""
    mapping = find_isomorphism(g1, g2)
    assert (mapping is not None) == nx.is_isomorphic(to_nx(g1), to_nx(g2))
    if mapping is not None:
        assert sorted(mapping) == list(range(g1.vertex_count))
        assert sorted(mapping.values()) == list(range(g2.vertex_count))
        assert edge_image(mapping, g1) == g2.edges


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return g.relabel(dict(enumerate(perm)))


def rook_graph() -> Graph:
    """K4 x K4: cells of a 4 x 4 board, adjacent when in one row or column."""
    return from_nx(nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)))


def shrikhande_graph() -> Graph:
    """Cayley graph of Z4 x Z4 on {+-(1,0), +-(0,1), +-(1,1)}: like the rook's
    graph, strongly regular with parameters (16, 6, 2, 2)."""
    g = nx.Graph()
    for a in range(4):
        for b in range(4):
            g.add_edges_from(((a, b), ((a + da) % 4, (b + db) % 4)) for da, db in [(1, 0), (0, 1), (1, 1)])
    return from_nx(g)


def test_rook_and_shrikhande_graphs_told_apart():
    rook, shrikhande = rook_graph(), shrikhande_graph()
    assert sorted(rook.degrees()) == sorted(shrikhande.degrees()) == [6] * 16
    rng = random.Random(2)
    assert_search_agrees_with_networkx(rook, shrikhande)
    assert_search_agrees_with_networkx(shrikhande, rook)
    for g in (rook, shrikhande):
        assert_search_agrees_with_networkx(g, relabeled(g, rng))
    assert find_subgraph_embedding(rook, shrikhande) is None


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_isomorphism_agrees_with_networkx_on_random_regular_pairs(degree):
    rng = random.Random(degree)
    for n in range(10, 17):
        if degree * n % 2:
            continue
        for seed in range(2):
            g1 = from_nx(nx.random_regular_graph(degree, n, seed=seed))
            g2 = from_nx(nx.random_regular_graph(degree, n, seed=seed + 100))
            assert_search_agrees_with_networkx(g1, g2)
            assert_search_agrees_with_networkx(g1, relabeled(g1, rng))


def test_isomorphism_agrees_with_networkx_on_degree_preserving_swaps():
    rng = random.Random(17)
    for n in range(12, 17):
        for seed in range(3):
            base = nx.gnm_random_graph(n, 2 * n, seed=100 * n + seed)
            swapped = base.copy()
            nx.double_edge_swap(swapped, nswap=2, max_tries=1000, seed=seed)
            g1, g2 = from_nx(base), from_nx(swapped)
            assert sorted(g1.degrees()) == sorted(g2.degrees())
            assert_search_agrees_with_networkx(g1, g2)
            assert_search_agrees_with_networkx(g2, relabeled(g1, rng))


def test_embedding_agrees_with_networkx_monomorphism():
    rng = random.Random(29)
    hosts = [from_nx(nx.random_regular_graph(3, 12, seed=1)), rook_graph(), shrikhande_graph()]
    hosts += [random_graph(rng, max_vertices=10, p=0.4) for _ in range(12)]
    for h in hosts:
        for _ in range(8):
            f = random_graph(rng, max_vertices=6, p=rng.choice([0.3, 0.5, 0.8]))
            mapping = find_subgraph_embedding(f, h)
            assert (mapping is not None) == GraphMatcher(to_nx(h), to_nx(f)).subgraph_is_monomorphic()
            if mapping is not None:
                assert sorted(mapping) == list(range(f.vertex_count))
                assert len(set(mapping.values())) == f.vertex_count
                assert edge_image(mapping, f) <= h.edges


# ---------------------------------------------------------------------------
# Average degree
# ---------------------------------------------------------------------------

def test_average_degree_examples(c4, k12):
    assert average_degree(c4) == 2
    assert average_degree(k12) == Fraction(4, 3)
    assert average_degree(disjoint_union(k12, k12)) == Fraction(4, 3)


def test_average_degree_empty_graph_errors():
    with pytest.raises(ValueError):
        average_degree(Graph(0, frozenset()))


def test_average_degree_mediant_property():
    rng = random.Random(2)
    for _ in range(60):
        g1 = random_graph(rng, max_vertices=6)
        g2 = random_graph(rng, max_vertices=6)
        d1, d2 = average_degree(g1), average_degree(g2)
        du = average_degree(disjoint_union(g1, g2))
        if d1 != d2:
            assert min(d1, d2) < du < max(d1, d2)
        else:
            assert du == d1


# ---------------------------------------------------------------------------
# Subgraph enumeration
# ---------------------------------------------------------------------------

def test_single_edge_subgraphs_of_c4(c4):
    subs = [g for g in enumerate_subgraphs(c4, max_vertices=2)]
    assert len(subs) == 4
    assert all(g.edge_count == 1 and g.vertex_count == 2 for g in subs)


def test_k2_subgraphs():
    k2 = path(2)
    subs = list(enumerate_subgraphs(k2, max_vertices=2))
    assert len(subs) == 1
    assert subs[0] == k2


def test_subgraph_count_is_all_nonempty_edge_subsets(c4):
    # Independent count: every nonempty subset of the 4 edges spans <= 4 vertices.
    edges = c4.sorted_edges
    expected = sum(
        1
        for r in range(1, len(edges) + 1)
        for chosen in combinations(edges, r)
        if len({x for e in chosen for x in e}) <= 4
    )
    assert expected == 2**4 - 1 == 15
    assert sum(1 for _ in enumerate_subgraphs(c4, max_vertices=4)) == 15


def test_subgraph_count_invariant_random():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, max_vertices=5, p=0.6)
        if g.edge_count == 0:
            continue
        total = sum(1 for _ in enumerate_subgraphs(g, max_vertices=g.vertex_count))
        assert total == 2**g.edge_count - 1


def test_subgraphs_have_no_isolated_vertices(c6):
    for sub in enumerate_subgraphs(c6, max_vertices=6):
        assert min(sub.degrees()) >= 1


# ---------------------------------------------------------------------------
# Star / Eulerian / isolated vertices
# ---------------------------------------------------------------------------

def test_star_and_eulerian_examples(c4, k12, p4):
    assert is_star(k12) and not is_eulerian(k12)
    assert not is_star(c4) and is_eulerian(c4)
    assert not is_star(p4) and not is_eulerian(p4)
    assert is_star(path(2))  # K2 = K_{1,1}


def test_star_check_rejects_disconnected(c4):
    with pytest.raises(ValueError, match="component"):
        is_star(disjoint_union(c4, c4))
    with pytest.raises(ValueError, match="component"):
        is_eulerian(Graph.from_edges([(0, 1)], vertex_count=3))


def test_remove_isolated_vertices():
    g = parse_edge_list("vertices 5\n0 1")
    assert remove_isolated_vertices(g) == path(2)
    assert remove_isolated_vertices(cycle(4)) == cycle(4)
    assert remove_isolated_vertices(Graph(3, frozenset())) == Graph(0, frozenset())


# ---------------------------------------------------------------------------
# Subgraph embedding
# ---------------------------------------------------------------------------

def test_embedding_basics(c4, c6, k3):
    assert find_subgraph_embedding(path(2), c4) is not None
    assert find_subgraph_embedding(c4, disjoint_union(c4, c6)) is not None
    assert find_subgraph_embedding(k3, c6) is None
    emb = find_subgraph_embedding(path(3), c6)
    assert emb is not None
    assert len(set(emb.values())) == 3


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 1)], vertex_count=1)


@settings(max_examples=60)
@given(st.integers(3, 9))
def test_named_graphs_are_consistent(n):
    assert is_connected(cycle(n))
    assert cycle(n).edge_count == n
    assert path(n).edge_count == n - 1
    assert star(n).edge_count == n
    assert complete(n).edge_count == n * (n - 1) // 2

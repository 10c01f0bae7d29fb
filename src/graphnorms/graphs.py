"""Finite simple graphs: parsing, components, isomorphism, structural predicates.

Graphs are immutable values: a vertex count plus a set of normalized edges
(u, v) with u < v.  All helpers are pure functions, so everything here is
safe to use concurrently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """Raised for malformed edge-list text or graph JSON documents."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1, no loops."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not normalized (need u < v)")
            if not (0 <= u and v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.vertex_count} vertices")

    @staticmethod
    def from_edges(edges: Iterable[tuple[int, int]], vertex_count: int | None = None) -> "Graph":
        """Build a graph from unordered endpoint pairs; duplicates collapse."""
        normalized = set()
        top = -1
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex index in edge ({u}, {v})")
            normalized.add((u, v) if u < v else (v, u))
            top = max(top, u, v)
        n = top + 1
        if vertex_count is not None:
            if vertex_count < n:
                raise ValueError(f"vertex_count {vertex_count} too small for edges (need {n})")
            n = vertex_count
        return Graph(n, frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def relabel(self, mapping: dict[int, int], vertex_count: int | None = None) -> "Graph":
        """Apply an injective vertex relabeling to all edges."""
        n = vertex_count if vertex_count is not None else self.vertex_count
        return Graph.from_edges(((mapping[u], mapping[v]) for u, v in self.edges), vertex_count=n)


def adjacency(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: one "u v" pair per line.

    An optional header line "vertices N" declares at least N vertices (for
    isolated ones).  Blank lines and lines starting with '#' are skipped.
    """
    edges: set[tuple[int, int]] = set()
    declared = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            if len(tokens) != 2:
                raise GraphParseError(f"line {lineno}: expected 'vertices N', got {line!r}")
            try:
                declared = max(declared, int(tokens[1]))
            except ValueError:
                raise GraphParseError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if declared < 0:
                raise GraphParseError(f"line {lineno}: vertex count must be non-negative")
            continue
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative vertex index in {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            raise GraphParseError(f"line {lineno}: duplicate edge {edge}")
        edges.add(edge)
    top = max((v for e in edges for v in e), default=-1) + 1
    return Graph(max(top, declared), frozenset(edges))


def graph_to_json(g: Graph) -> dict:
    return {"vertices": g.vertex_count, "edges": [list(e) for e in g.sorted_edges]}


def graph_from_json(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise GraphParseError("graph JSON must have 'vertices' and 'edges' fields")
    n = obj["vertices"]
    if not isinstance(n, int) or n < 0:
        raise GraphParseError("'vertices' must be a non-negative integer")
    try:
        return Graph.from_edges(((int(u), int(v)) for u, v in obj["edges"]), vertex_count=n)
    except (TypeError, ValueError) as exc:
        raise GraphParseError(f"bad edge list in graph JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """A connected component: standalone relabeled graph plus its original vertices."""

    graph: Graph
    vertices: tuple[int, ...]

    @property
    def is_singleton(self) -> bool:
        return self.graph.vertex_count == 1 and self.graph.edge_count == 0


@lru_cache(maxsize=64)
def components(g: Graph) -> tuple[Component, ...]:
    """Connected components, ordered by smallest original vertex (cached per graph)."""
    comps = list(edge_components(g))
    covered = {v for c in comps for v in c.vertices}
    comps += [Component(Graph(1, frozenset()), (v,)) for v in range(g.vertex_count) if v not in covered]
    return tuple(sorted(comps, key=lambda c: c.vertices[0]))


@lru_cache(maxsize=64)
def edge_components(g: Graph) -> tuple[Component, ...]:
    """The components with edges, as `components` orders and relabels them,
    found from the edges alone: isolated vertices cost nothing, however
    many the graph declares (cached per graph)."""
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in g.edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        parent[root(u)] = root(v)
    groups: dict[int, list[tuple[int, int]]] = {}
    for e in g.edges:
        groups.setdefault(root(e[0]), []).append(e)
    out = []
    for edges in groups.values():
        members = sorted({v for e in edges for v in e})
        index = {v: i for i, v in enumerate(members)}
        sub = Graph.from_edges(((index[u], index[v]) for u, v in edges), vertex_count=len(members))
        out.append(Component(sub, tuple(members)))
    return tuple(sorted(out, key=lambda c: c.vertices[0]))


def is_connected(g: Graph) -> bool:
    return g.vertex_count <= 1 or len(components(g)) == 1


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.vertex_count
    return Graph.from_edges(edges, vertex_count=offset)


def remove_isolated_vertices(g: Graph) -> Graph:
    """Drop degree-zero vertices and relabel the rest, keeping all edges."""
    support = sorted({x for e in g.edges for x in e})
    index = {v: i for i, v in enumerate(support)}
    return Graph.from_edges(((index[u], index[v]) for u, v in g.edges), vertex_count=len(support))


# ---------------------------------------------------------------------------
# Isomorphism and subgraph embedding
# ---------------------------------------------------------------------------

def _placement_order(adj: list[set[int]]) -> list[int]:
    """Most-constrained-first order for _search: next comes the vertex with
    the most placed neighbours, then the one of highest degree, then the
    lowest.  A heap holds one key per vertex and per gain of a placed
    neighbour; a vertex's older keys sort after its newest, so they surface
    only once it is placed and are skipped."""
    placed = [False] * len(adj)
    links = [0] * len(adj)  # placed neighbours
    heap = [(0, -len(a), v) for v, a in enumerate(adj)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)[2]
        if placed[v]:
            continue
        placed[v] = True
        order.append(v)
        for u in adj[v]:
            if not placed[u]:
                links[u] += 1
                heapq.heappush(heap, (-links[u], -len(adj[u]), u))
    return order


def _search(f: Graph, h: Graph, exact: bool) -> dict[int, int] | None:
    """An injective map from V(f) into V(h) sending every edge of f to an
    edge of h, by backtracking; None when there is none.

    With `exact`, each vertex must keep its degree and mapped non-neighbours
    must stay non-adjacent.  Both rules only prune when f and h have equal
    vertex and edge counts, where every embedding is an isomorphism.
    Intended for the small graphs (a dozen or so vertices per component)
    this package works with.
    """
    adjf, adjh = adjacency(f), adjacency(h)
    nbrs = [sum(1 << x for x in a) for a in adjh]  # neighbour sets as bitmasks
    order = _placement_order(adjf)
    everything = (1 << h.vertex_count) - 1

    def candidates(v: int, used: int) -> Iterator[int]:
        """The images v may take, lowest first, next to the mapped vertices."""
        degree = len(adjf[v])
        images = 0  # the images of v's mapped neighbours
        free = everything & ~used
        for u in adjf[v]:
            if u in mapping:
                images |= 1 << mapping[u]
                free &= nbrs[mapping[u]]  # w must be adjacent to every image
        while free:
            w = (free & -free).bit_length() - 1
            free &= free - 1
            if exact:
                # the images must be all of w's mapped neighbours
                if len(adjh[w]) != degree or nbrs[w] & used != images:
                    continue
            elif len(adjh[w]) < degree:
                continue
            yield w

    # Depth first on an explicit stack of candidate streams, one per vertex
    # placed or being placed, so no graph size meets the recursion limit.
    mapping: dict[int, int] = {}
    used = 0
    stack: list[Iterator[int]] = []
    while len(mapping) < len(order):
        if len(stack) == len(mapping):
            stack.append(candidates(order[len(stack)], used))
        w = next(stack[-1], None)
        if w is not None:
            mapping[order[len(stack) - 1]] = w
            used |= 1 << w
            continue
        stack.pop()
        if not stack:
            return None
        used ^= 1 << mapping.pop(order[len(stack) - 1])  # on to the previous vertex's next image
    return mapping


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """A vertex bijection mapping edges onto edges, or None.

    Graphs with different vertex counts, edge counts or degree sequences
    are rejected at once; otherwise one backtracking search, the one behind
    find_subgraph_embedding, settles it with degrees matched exactly.
    """
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    return _search(g1, g2, exact=True)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


def find_subgraph_embedding(f: Graph, h: Graph) -> dict[int, int] | None:
    """Injective map from V(f) into V(h) sending every edge of f to an edge of h."""
    if f.vertex_count > h.vertex_count or f.edge_count > h.edge_count:
        return None
    return _search(f, h, exact=False)


# ---------------------------------------------------------------------------
# Numeric invariants and predicates
# ---------------------------------------------------------------------------

def average_degree(g: Graph) -> Fraction:
    """Exact 2 e(g) / v(g)."""
    if g.vertex_count == 0:
        raise ValueError("average degree of the empty graph is undefined")
    return Fraction(2 * g.edge_count, g.vertex_count)


def enumerate_subgraphs(g: Graph, max_vertices: int) -> Iterator[Graph]:
    """All subgraphs given by a nonempty edge subset, endpoints relabeled.

    Subsets are enumerated in increasing bitmask order over the sorted edge
    list, so the stream is deterministic.  Only subgraphs spanning at most
    max_vertices vertices are yielded; isolated vertices never appear.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    es = g.sorted_edges
    m = len(es)
    if m > 22:
        raise ValueError(f"refusing exhaustive enumeration over 2^{m} edge subsets")
    for mask in range(1, 1 << m):
        chosen = [es[i] for i in range(m) if (mask >> i) & 1]
        support = sorted({x for e in chosen for x in e})
        if len(support) > max_vertices:
            continue
        index = {v: i for i, v in enumerate(support)}
        yield Graph.from_edges(((index[u], index[v]) for u, v in chosen), vertex_count=len(support))


def _require_connected_no_isolated(g: Graph, what: str) -> None:
    if g.vertex_count == 0 or g.edge_count == 0:
        raise ValueError(f"{what} needs a connected graph with at least one edge")
    if min(g.degrees()) == 0:
        raise ValueError(f"{what}: graph has isolated vertices; apply per connected component")
    if not is_connected(g):
        raise ValueError(f"{what}: graph is disconnected; apply per connected component")


def is_star(g: Graph) -> bool:
    """True iff g is K_{1,t} for some t >= 1 (connected input required)."""
    _require_connected_no_isolated(g, "is_star")
    return g.edge_count == g.vertex_count - 1 and max(g.degrees()) == g.edge_count


def is_eulerian(g: Graph) -> bool:
    """True iff every degree is even (connected input required)."""
    _require_connected_no_isolated(g, "is_eulerian")
    return all(d % 2 == 0 for d in g.degrees())


# ---------------------------------------------------------------------------
# Named small graphs
# ---------------------------------------------------------------------------

def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)], vertex_count=n)


def path(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], vertex_count=n)


def star(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 joined to each leaf."""
    if leaves < 1:
        raise ValueError("star needs at least 1 leaf")
    return Graph.from_edges([(0, i) for i in range(1, leaves + 1)], vertex_count=leaves + 1)


def complete(n: int) -> Graph:
    return Graph.from_edges(combinations(range(n), 2), vertex_count=n)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(((i, a + j) for i in range(a) for j in range(b)), vertex_count=a + b)

"""Necessary-condition checks and counterexample certificates for graph norms.

A graph can be *refuted* as weakly norming (or seminorming) by exhibiting a
concrete witness: a decoration violating the defining Hoelder inequality, a
subgraph with too large an average degree, components with mismatched edge
counts, or non-isomorphic components.  Every refutation is packaged as a
Certificate that third parties can re-validate from its payload alone.

A host without isolated vertices is (weakly) norming, or seminorming, iff
its components are copies of one graph F that is (the paper's
factorisation theorem, correcting Hatami 2010), and t(kF, W) = t(F, W)^k
gives kF the norms of F.  So full_verdict decides the host on F.

The converse is out of reach: no finite computation proves a graph weakly
norming, so the best non-refuted verdict is "consistent".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .density import Decoration, decorated_density, density, density_many
from .graphs import (
    MAX_SUBSET_EDGES,
    Component,
    Graph,
    _json_edge,
    _require_connected_no_isolated,
    average_degree,
    edge_components,
    enumerate_subgraphs,
    find_isomorphism,
    find_subgraph_embedding,
    graph_from_json,
    graph_to_json,
    is_connected,
    is_eulerian,
    is_star,
    remove_isolated_vertices,
)
from .kernels import (
    DiracMixture,
    StepKernel,
    _trusted,
    absolute,
    combine,
    constant_kernel,
    dirac_d1,
    half_square_kernel,
    is_nonnegative,
    kernel_from_json,
    kernel_to_json,
    ones_like,
    sample_block_random,
    scale,
    special_kernel,
)
from .seeding import counter_uniform, derive_seed

# A search hit must clear the large tolerance; re-validation only needs the
# small one.  The gap keeps floating noise from ever minting a certificate.
SEARCH_TOL = 1e-6
CHECK_TOL = 1e-9

HOLDER_VIOLATION = "holder-violation"
AVG_DEGREE_VIOLATION = "avg-degree-violation"
EDGE_COUNT_MISMATCH = "edge-count-mismatch"
COMPONENT_NONISOMORPHISM = "component-nonisomorphism"
DENSITY_DOMINATION_VIOLATION = "density-domination-violation"

# Most vertices of the subgraphs that subgraph_avg_degree_check scans.
SUBGRAPH_VERTICES = 8

CONSISTENT = "consistent-with-weakly-norming"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Reports, certificates, verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HolderReport:
    """Both sides of the decorated-density inequality for one decoration."""

    lhs: float
    rhs: float
    ratio: float
    mode: str
    decoration: Decoration

    @property
    def violated(self) -> bool:
        return self.ratio > 1.0 + CHECK_TOL


@dataclass(frozen=True, eq=False)
class DominationReport:
    lhs: float
    rhs: float
    violated: bool
    certificate: "Certificate | None"


@dataclass(frozen=True, eq=False)
class Certificate:
    """Machine-checkable counterexample: payload plus both inequality sides.
    The row of `kind` in _KINDS names the payload fields it carries."""

    kind: str
    graph: Graph
    mode: str
    lhs: float | None = None
    rhs: float | None = None
    decoration: Decoration | None = None
    kernel: StepKernel | None = None
    subgraph: Graph | None = None
    pair: tuple[Graph, Graph] | None = None
    note: str = ""


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | inconclusive
    evidence: str


@dataclass(frozen=True, eq=False)
class Verdict:
    graph: Graph
    mode: str
    checks: tuple[CheckResult, ...]
    certificates: tuple[Certificate, ...]
    overall: str
    seed: int
    trials: int


# ---------------------------------------------------------------------------
# Hoelder characterization
# ---------------------------------------------------------------------------

def _require_mode(mode: str) -> None:
    if mode not in ("weak", "semi"):
        raise ValueError(f"mode must be 'weak' or 'semi', got {mode!r}")


def holder_check(h: Graph, d: Decoration, mode: str = "weak") -> HolderReport:
    """Evaluate t(h, w)^e(h) against the per-edge product bound.

    In weak mode all decoration kernels must be non-negative and the bound
    is the product of t(h, W_e); in semi mode signed kernels are allowed
    and the bound takes absolute values.  A ratio above 1 refutes the
    corresponding norming property of h.  In floats, `violated` needs a
    ratio above 1 + CHECK_TOL, holder_search mints a certificate only above
    1 + SEARCH_TOL, and validate_certificate applies _holder_rule at
    its margin (CHECK_TOL by default).  The m terms of the product come
    from one density_many call.  A side whose magnitude overflows is
    reported as inf and leaves the ratio nan: such a decoration decides
    nothing, so it never refutes.
    """
    _require_mode(mode)
    if d.host != h:
        raise ValueError("decoration host differs from the graph under test")
    m = h.edge_count
    if m == 0:
        raise ValueError("need a graph with at least one edge")
    if mode == "weak":
        for e, w in sorted(d.kernels.items()):
            if not is_nonnegative(w):
                raise ValueError(f"weak mode requires non-negative kernels; edge {e} is signed")
    terms = density_many(h, [d.kernels[e] for e in h.sorted_edges])
    try:
        lhs = decorated_density(d) ** m
    except OverflowError:
        lhs = math.inf
    with np.errstate(over="ignore"):
        rhs = float(np.prod(terms)) if mode == "weak" else float(np.prod(np.abs(terms)))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        ratio = math.nan
    elif rhs > 0.0:
        ratio = lhs / rhs
    elif lhs > 0.0:
        ratio = math.inf
    else:
        ratio = 0.0
    return HolderReport(lhs=lhs, rhs=rhs, ratio=ratio, mode=mode, decoration=d)


# ---------------------------------------------------------------------------
# Randomized decoration search
# ---------------------------------------------------------------------------

_VALUE_GRID = DiracMixture(((0.0, 0.2), (0.25, 0.2), (0.5, 0.2), (0.75, 0.2), (1.0, 0.2)))


_INDICATOR_PATTERNS = tuple(
    np.array(p)
    for p in (
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0], [0.0, 1.0]],
    )
)


def _indicator_family(h: Graph, seed: int, trial: int) -> Decoration:
    # Two-part partition (theta, 1-theta); each edge independently gets one
    # of the four 0/1 block patterns or all-ones.
    theta = 0.1 + 0.8 * counter_uniform("theta", seed, trial)
    measures = np.array([theta, 1.0 - theta])
    patterns = _INDICATOR_PATTERNS
    kernels = {}
    for ei, e in enumerate(h.sorted_edges):
        pick = int(counter_uniform("indicator", seed, trial, ei) * len(patterns))
        kernels[e] = _trusted(measures, patterns[min(pick, len(patterns) - 1)])
    return Decoration(h, kernels)


def _block_family(h: Graph, seed: int, trial: int, d: DiracMixture) -> Decoration:
    n = 2 + int(counter_uniform("parts", seed, trial) * 3)  # 2..4 parts
    kernels = {
        e: sample_block_random(n, d, derive_seed("edge", seed, trial, ei))
        for ei, e in enumerate(h.sorted_edges)
    }
    return Decoration(h, kernels)


def _diagonal_family(h: Graph, seed: int, trial: int) -> Decoration:
    gamma = 0.3 + 1.7 * counter_uniform("gamma", seed, trial)
    depth = 3
    kernels = {}
    for ei, e in enumerate(h.sorted_edges):
        a = tuple(1.5 * counter_uniform("diag", seed, trial, ei, i) for i in range(depth))
        kernels[e] = special_kernel(gamma, a)
    return Decoration(h, kernels)


def _rank_one_family(h: Graph, seed: int, trial: int, signed: bool) -> Decoration:
    n = 2 + int(counter_uniform("parts", seed, trial) * 3)
    measures = np.full(n, 1.0 / n)
    kernels = {}
    for ei, e in enumerate(h.sorted_edges):
        u = np.array([counter_uniform("vec", seed, trial, ei, i) for i in range(n)])
        vec = 2.0 * u - 1.0 if signed else 1.3 * u
        kernels[e] = _trusted(measures, np.outer(vec, vec))
    return Decoration(h, kernels)


def _signed_block_family(h: Graph, seed: int, trial: int) -> Decoration:
    base = _block_family(h, seed, trial, _VALUE_GRID)
    kernels = {e: combine(2.0, w, -1.0, ones_like(w)) for e, w in base.kernels.items()}
    return Decoration(h, kernels)


def _component_decoration(
    h: Graph, comp: Component, kernels: dict[tuple[int, int], StepKernel], rest: StepKernel
) -> Decoration:
    """The kernels of a decoration of comp.graph placed on that component of
    h, and the kernel rest on every other edge of h."""
    placed = {(comp.vertices[a], comp.vertices[b]): w for (a, b), w in kernels.items()}
    return Decoration(h, {e: placed.get(e, rest) for e in h.sorted_edges})


# Trial t draws from family t % len(families); semi mode adds the signed families.
_WEAK_FAMILIES = (
    partial(_block_family, d=dirac_d1()),
    partial(_block_family, d=_VALUE_GRID),
    _indicator_family,
    _diagonal_family,
    partial(_rank_one_family, signed=False),
)
_FAMILIES = {
    "weak": _WEAK_FAMILIES,
    "semi": _WEAK_FAMILIES + (_signed_block_family, partial(_rank_one_family, signed=True)),
}


def holder_search(h: Graph, trials: int, seed: int = 0, mode: str = "weak") -> Certificate | None:
    """Look for a decoration violating the Hoelder bound; None when none found.

    Draws from several deterministic-per-(seed, trial) families: random block
    kernels, two-part indicators, dyadic diagonal kernels and rank-one
    kernels, plus signed block and rank-one kernels in semi mode.  A hit
    must clear ratio > 1 + SEARCH_TOL before it is certified.  full_verdict
    searches one component of the host and lifts a hit to the whole host.
    """
    _require_mode(mode)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")

    families = _FAMILIES[mode]
    for trial in range(trials):
        d = families[trial % len(families)](h, seed, trial)
        report = holder_check(h, d, mode)
        if report.ratio > 1.0 + SEARCH_TOL:
            note = f"found at trial {trial} of {trials} (seed {seed})"
            return Certificate(HOLDER_VIOLATION, h, mode, report.lhs, report.rhs, decoration=d, note=note)
    return None


# ---------------------------------------------------------------------------
# Structural necessary conditions
# ---------------------------------------------------------------------------

def _violates(lhs: float, rhs: float, margin: float) -> bool:
    """Violation test for minting structural certificates (at CHECK_TOL) and
    for validating certificates (at the caller's margin).  Where rhs = 0, a
    float lhs must clear a floor of 1e-12; _holder_rule decides weak
    Hoelder certificates there exactly instead."""
    if rhs > 0.0:
        return lhs > rhs * (1.0 + margin)
    return lhs > 1e-12


def _domination_sides(f: Graph, h: Graph, u: StepKernel) -> tuple[float, float]:
    """Both sides of t(f, u) <= t(h, u)^(e(f)/e(h)), which holds for every
    subgraph f of a weakly norming h and every non-negative u."""
    return density(f, u), density(h, u) ** (f.edge_count / h.edge_count)


def _densest_component_sides(g: Graph, u: StepKernel) -> tuple[float, float]:
    """_domination_sides for the component of g with the largest density under u."""
    best = max((c.graph for c in edge_components(g)), key=lambda c: density(c, u))
    return _domination_sides(best, g, u)


def _half_square_certificate(h: Graph, f: Graph, note: str) -> Certificate:
    """Witness for a subgraph f of h with e(f)/v(f) > e(h)/v(h): under the
    half-square kernel, t(f, U) = 2^-v(f) beats t(h, U)^(e(f)/e(h))."""
    u = half_square_kernel()
    lhs, rhs = _domination_sides(f, h, u)
    return Certificate(AVG_DEGREE_VIOLATION, h, "weak", lhs, rhs, kernel=u, subgraph=f, note=note)


def subgraph_avg_degree_check(h: Graph, host: Graph | None = None) -> tuple[CheckResult, Certificate | None]:
    """Fail if some subgraph of h has strictly larger average degree.

    Comparison is exact rational.  Enumeration covers every edge-subset
    subgraph spanning at most SUBGRAPH_VERTICES vertices; the cap is
    reported as a completeness qualifier.  A graph with more than
    MAX_SUBSET_EDGES edges is not scanned: its entry is "inconclusive" and
    gives the edge count.  The certificate is minted for `host`, h by
    default; a host made of copies of h has h's average degree, so the
    subgraph found in h refutes it too.
    """
    if h.vertex_count == 0 or h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")
    if min(h.degrees()) == 0:
        raise ValueError("strip isolated vertices before the subgraph check")
    name = "subgraph-average-degree"
    if h.edge_count > MAX_SUBSET_EDGES:
        evidence = f"not scanned: {h.edge_count} edges, over the {MAX_SUBSET_EDGES}-edge subset limit"
        return CheckResult(name, "inconclusive", evidence), None
    count = 0
    for f in enumerate_subgraphs(h, SUBGRAPH_VERTICES):
        count += 1
        # e(f)/v(f) > e(h)/v(h) in integers; Fractions only for the evidence text
        if f.edge_count * h.vertex_count > h.edge_count * f.vertex_count:
            sub, avg = average_degree(f), average_degree(h)
            note = f"subgraph with {f.edge_count} edges on {f.vertex_count} vertices has "
            note += f"average degree {sub} > {avg}"
            result = CheckResult(name, "fail", f"subgraph average degree {sub} exceeds {avg}")
            return result, _half_square_certificate(h if host is None else host, f, note)
    evidence = f"checked {count} edge-subset subgraphs up to {SUBGRAPH_VERTICES} vertices"
    return CheckResult(name, "pass", evidence), None


def edge_mismatch_certificate(h: Graph) -> Certificate:
    """Exact certificate for equal-average-degree components with unequal edge counts.

    With coefficients c = (1, 1) the dyadic diagonal kernel gives every
    component density 2, so the decorated side is 2^e(h) while the product
    side is (2^k)^p for p the minimum component edge count; the two differ
    exactly when some component has more than p edges.
    """
    comps = edge_components(h)
    if len(comps) < 2:
        raise ValueError("need at least two non-singleton components")
    degrees = {average_degree(c.graph) for c in comps}
    if len(degrees) != 1:
        raise ValueError("components must share one average degree (use the average-degree check)")
    edge_counts = sorted(c.graph.edge_count for c in comps)
    if edge_counts[0] == edge_counts[-1]:
        raise ValueError("component edge counts are all equal; no mismatch to certify")
    smallest = min(comps, key=lambda c: (c.graph.edge_count, c.vertices))
    # exact arithmetic when the component's average degree is 2
    gamma = Fraction(smallest.graph.vertex_count, smallest.graph.edge_count)
    kernel = absolute(special_kernel(float(gamma), (1.0, 1.0)))
    marked = {e: kernel for e in smallest.graph.sorted_edges}
    decoration = _component_decoration(h, smallest, marked, ones_like(kernel))
    report = holder_check(h, decoration, "weak")
    note = f"component edge counts {edge_counts}; decorated the {edge_counts[0]}-edge component"
    return Certificate(EDGE_COUNT_MISMATCH, h, "weak", report.lhs, report.rhs, decoration=decoration, note=note)


def distinguishing_kernel_search(
    f1: Graph, f2: Graph, trials: int = 200, seed: int = 0
) -> StepKernel | None:
    """Random graphon-valued kernel with t(f1, U) != t(f2, U), or None.

    f1 and f2 must be connected and non-isomorphic.  The constant 1/2
    kernel is tried first (it separates any two edge counts); random block
    kernels follow.
    """
    if not (is_connected(f1) and is_connected(f2)):
        raise ValueError("both graphs must be connected")
    if find_isomorphism(f1, f2) is not None:
        raise ValueError("graphs are isomorphic; no kernel can distinguish them")
    return _distinguishing_kernel(f1, f2, trials, seed)


def _distinguishing_kernel(f1: Graph, f2: Graph, trials: int, seed: int) -> StepKernel | None:
    """distinguishing_kernel_search without its checks, for callers that
    already know f1 and f2 to be connected and non-isomorphic."""

    def candidates():
        yield constant_kernel(0.5)
        for trial in range(trials):
            n = 2 + trial % 3
            yield sample_block_random(n, _VALUE_GRID, derive_seed("distinguish", seed, trial))

    for u in candidates():
        if abs(density(f1, u) - density(f2, u)) > SEARCH_TOL:
            return u
    return None


def component_analysis(h: Graph) -> tuple[list[CheckResult], list[Certificate]]:
    """Average-degree, edge-count and isomorphism comparison of the components.

    Isolated vertices are stripped first.  Any failed comparison refutes
    the weakly norming property and comes with a certificate.
    """
    g = remove_isolated_vertices(h)
    checks: list[CheckResult] = []
    certs: list[Certificate] = []
    comps = edge_components(g)
    if len(comps) <= 1:
        label = "single component" if comps else "no edges"
        checks.append(CheckResult("component-average-degree", "pass", label))
        checks.append(CheckResult("component-edge-count", "pass", label))
        checks.append(CheckResult("component-isomorphism", "pass", label))
        return checks, certs

    degrees = [average_degree(c.graph) for c in comps]
    if len(set(degrees)) > 1:
        dense = max(comps, key=lambda c: (average_degree(c.graph), c.vertices))
        checks.append(
            CheckResult(
                "component-average-degree",
                "fail",
                f"component average degrees {sorted(str(d) for d in set(degrees))} differ",
            )
        )
        certs.append(
            _half_square_certificate(
                g,
                dense.graph,
                f"component with average degree {average_degree(dense.graph)} exceeds "
                f"the host average {average_degree(g)}",
            )
        )
    else:
        checks.append(
            CheckResult("component-average-degree", "pass", f"all components have average degree {degrees[0]}")
        )

    edge_counts = [c.graph.edge_count for c in comps]
    if len(set(edge_counts)) > 1:
        checks.append(
            CheckResult("component-edge-count", "fail", f"component edge counts {sorted(set(edge_counts))} differ")
        )
        if len(set(degrees)) == 1:
            certs.append(edge_mismatch_certificate(g))
    else:
        checks.append(CheckResult("component-edge-count", "pass", f"all components have {edge_counts[0]} edges"))

    mismatch = next((c for c in comps[1:] if find_isomorphism(comps[0].graph, c.graph) is None), None)
    if mismatch is None:
        checks.append(CheckResult("component-isomorphism", "pass", f"all {len(comps)} components isomorphic"))
    else:
        checks.append(
            CheckResult(
                "component-isomorphism",
                "fail",
                f"components on vertices {comps[0].vertices} and {mismatch.vertices} are not isomorphic",
            )
        )
        certs.append(_nonisomorphism_certificate(g, comps[0].graph, mismatch.graph))
    return checks, certs


def _nonisomorphism_certificate(g: Graph, f1: Graph, f2: Graph) -> Certificate:
    kernel = None
    lhs = rhs = None
    if f1.edge_count == f2.edge_count:
        kernel = _distinguishing_kernel(f1, f2, trials=200, seed=derive_seed("noniso", g.vertex_count))
        if kernel is not None:
            lhs, rhs = _densest_component_sides(g, kernel)
            if not _violates(lhs, rhs, CHECK_TOL):
                kernel, lhs, rhs = None, None, None
    note = "non-isomorphic components" + ("; distinguishing kernel attached" if kernel is not None else "")
    return Certificate(COMPONENT_NONISOMORPHISM, g, "weak", lhs, rhs, kernel=kernel, pair=(f1, f2), note=note)


def domination_check(f: Graph, h: Graph, w: StepKernel) -> DominationReport:
    """Check t(f, w) <= t(h, w)^(e(f)/e(h)) for a subgraph f of h, w >= 0.

    A violation refutes the weakly norming property of h and is returned
    as a certificate.
    """
    if not is_nonnegative(w):
        raise ValueError("domination check requires a non-negative kernel")
    if h.edge_count == 0:
        raise ValueError("need a host graph with at least one edge")
    if find_subgraph_embedding(f, h) is None:
        raise ValueError("f does not embed into h as a subgraph")
    lhs, rhs = _domination_sides(f, h, w)
    violated = _violates(lhs, rhs, CHECK_TOL)
    cert = None
    if violated:
        note = "subgraph density exceeds the host bound"
        cert = Certificate(DENSITY_DOMINATION_VIOLATION, h, "weak", lhs, rhs, kernel=w, subgraph=f, note=note)
    return DominationReport(lhs=lhs, rhs=rhs, violated=violated, certificate=cert)


def star_or_eulerian_check(h: Graph) -> list[CheckResult]:
    """Star-or-Eulerian test plus the even-edge-count report, for a connected h.

    The shape entry passes when h is a star or Eulerian.  The edge parity
    entry is reported alongside as separate evidence; neither entry carries
    a numeric certificate.  full_verdict runs it on one component of a host
    made of copies.  ValueError for a graph that is disconnected or has an
    isolated vertex, as is_star.
    """
    _require_connected_no_isolated(h, "star_or_eulerian_check")
    kind = "a star" if is_star(h) else "Eulerian" if is_eulerian(h) else None
    if kind is None:
        shape = CheckResult("star-or-eulerian", "fail", "component is neither a star nor Eulerian")
    else:
        shape = CheckResult("star-or-eulerian", "pass", f"component is {kind}")
    parity = "pass" if h.edge_count % 2 == 0 else "fail"
    return [shape, CheckResult("edge-count-parity", parity, f"{h.edge_count} edges")]


# ---------------------------------------------------------------------------
# Aggregate verdict
# ---------------------------------------------------------------------------

def _lifted(g: Graph, copy: Component, found: Certificate) -> Certificate | None:
    """A Hoelder hit on copy, as a certificate for g, which is k copies of it.

    The hit's decoration goes on copy, and a constant c on every other edge.
    Both sides then become their k-th power times c^(k(k-1)e^2), e = e(copy).
    c = lhs^(-1/(k e^2)) keeps lhs at its value on copy, and the ratio becomes
    its k-th power.  Under c = 1, lhs^k can fall below the floor that
    validation puts on lhs where rhs = 0.  None when the recomputed ratio
    does not clear 1 + SEARCH_TOL.
    """
    k = g.edge_count // copy.graph.edge_count
    if k == 1:
        return found
    c = found.lhs ** (-1.0 / (k * copy.graph.edge_count**2))
    kernels = found.decoration.kernels
    d = _component_decoration(g, copy, kernels, scale(ones_like(next(iter(kernels.values()))), c))
    report = holder_check(g, d, found.mode)
    if not report.ratio > 1.0 + SEARCH_TOL:
        return None
    return Certificate(HOLDER_VIOLATION, g, found.mode, report.lhs, report.rhs, decoration=d, note=found.note)


def full_verdict(h: Graph, mode: str = "weak", trials: int = 1000, seed: int = 0) -> Verdict:
    """Run the structural checks and the randomized search; aggregate.

    Components that are not all isomorphic refute the host with the
    certificates of component_analysis alone.  Otherwise the host is k
    copies of a connected F (k = 1 when connected): the subgraph scan, the
    semi-mode shape checks and the Hoelder search run once, on F, and their
    hits are lifted to the host.  An unscanned F (subgraph_avg_degree_check)
    leaves the other checks to decide.

    The verdict is one-sided: "refuted" always carries certificates, and
    the best positive outcome is "consistent".  A failed check without an
    attached certificate (the semi-mode shape and parity entries, or a
    search hit that does not survive the lift) yields "inconclusive".
    """
    _require_mode(mode)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")

    g = remove_isolated_vertices(h)
    dropped = h.vertex_count - g.vertex_count
    evidence = f"removed {dropped} isolated vertex(es)" if dropped else "none present"
    checks = [CheckResult("isolated-vertices", "pass", evidence)]
    comp_checks, certs = component_analysis(g)
    checks.extend(comp_checks)

    if not certs:
        copy = edge_components(g)[0]
        sub_check, sub_cert = subgraph_avg_degree_check(copy.graph, g)
        checks.append(sub_check)
        if sub_cert is not None:
            certs.append(sub_cert)
        if mode == "semi":
            checks.extend(star_or_eulerian_check(copy.graph))
        found = holder_search(copy.graph, trials=trials, seed=seed, mode=mode)
        lifted = None if found is None else _lifted(g, copy, found)
        if lifted is not None:
            certs.append(lifted)
            checks.append(CheckResult("holder-search", "fail", lifted.note))
        elif found is not None:
            checks.append(CheckResult("holder-search", "fail", f"{found.note}; no certified violation on the host"))
        else:
            checks.append(CheckResult("holder-search", "pass", f"no violation in {trials} trials (seed {seed})"))

    if certs:
        overall = REFUTED
    elif any(c.status == "fail" for c in checks):
        overall = INCONCLUSIVE
    else:
        overall = CONSISTENT
    return Verdict(h, mode, tuple(checks), tuple(certs), overall, seed, trials)


# ---------------------------------------------------------------------------
# Certificate validation and serialization
# ---------------------------------------------------------------------------

def _consistent(stored: float, recomputed: float) -> bool:
    return abs(stored - recomputed) <= CHECK_TOL * max(1.0, abs(stored), abs(recomputed))


def _holder_sides(cert: Certificate) -> tuple[float, float]:
    report = holder_check(cert.graph, cert.decoration, cert.mode)
    return report.lhs, report.rhs


def _holder_rule(cert: Certificate, lhs: float, rhs: float, margin: float) -> bool:
    """_violates, except that a weak rhs of 0 is decided exactly.

    Weak kernels are non-negative, so nothing cancels: a float lhs > 0 is
    exact, and so is a float t(h, W_e) = 0 once every nonzero product, at
    least min(1, smallest positive value)^e * (smallest measure)^v for the
    e edges and v vertices on them, is above 2^-1000 and cannot underflow.
    """
    if cert.mode == "semi" or rhs != 0.0:
        return _violates(lhs, rhs, margin)
    h = cert.graph
    v = len({u for e in h.edges for u in e})
    for w in cert.decoration.kernels.values():
        smallest = float(w.values[w.values > 0.0].min(initial=1.0))
        floor = h.edge_count * math.log2(smallest) + v * math.log2(float(w.measures.min()))
        if lhs > 0.0 and floor > -1000.0 and density(h, w) == 0.0:
            return True
    return False


def _floor_rule(cert: Certificate, lhs: float, rhs: float, margin: float) -> bool:
    return _violates(lhs, rhs, margin)


def _subgraph_sides(cert: Certificate) -> tuple[float, float] | str:
    # Isolated vertices embed anywhere once the vertex counts allow, so the
    # search skips them: however many a certificate declares cost nothing.
    f, h = cert.subgraph, cert.graph
    if f.vertex_count > h.vertex_count or (
        find_subgraph_embedding(remove_isolated_vertices(f), remove_isolated_vertices(h)) is None
    ):
        return "stored subgraph does not embed into the host"
    return _domination_sides(f, h, cert.kernel)


def _component_sides(cert: Certificate) -> tuple[float, float] | str | None:
    f1, f2 = cert.pair
    # with equal vertex counts, the isolated vertices pair up and the
    # graphs without them decide
    if f1.vertex_count == f2.vertex_count and (
        find_isomorphism(remove_isolated_vertices(f1), remove_isolated_vertices(f2)) is not None
    ):
        return "stored components are isomorphic after all"
    hosted = [c.graph for c in edge_components(cert.graph)]
    if not all(any(find_isomorphism(f, c) is not None for c in hosted) for f in cert.pair):
        return "stored components are not components of the host"
    if cert.kernel is None:
        return None  # non-isomorphic components refute on their own
    return _densest_component_sides(cert.graph, cert.kernel)


_VIOLATION = "violation reproduced: {0!r} > {1!r}"

# certificate kind -> (payload fields it must carry, sides function, its
# violation test at a margin, detail of a passed validation formatted with
# the sides).  A sides function gets that payload and returns the
# recomputed (lhs, rhs), an error for a bad payload, or None when the
# payload carries no inequality.
_KINDS = {
    HOLDER_VIOLATION: (("decoration",), _holder_sides, _holder_rule, _VIOLATION),
    EDGE_COUNT_MISMATCH: (("decoration",), _holder_sides, _holder_rule, _VIOLATION),
    AVG_DEGREE_VIOLATION: (("kernel", "subgraph"), _subgraph_sides, _floor_rule, _VIOLATION),
    DENSITY_DOMINATION_VIOLATION: (("kernel", "subgraph"), _subgraph_sides, _floor_rule, _VIOLATION),
    COMPONENT_NONISOMORPHISM: (("pair",), _component_sides, _floor_rule, "components re-verified non-isomorphic"),
}


def validate_certificate(cert: Certificate, margin: float = CHECK_TOL) -> tuple[bool, str]:
    """Re-evaluate a certificate from its payload alone.

    Checks both that the stored inequality sides reproduce (to 1e-9
    relative) and that the violation clears the given margin.  The margin
    must be finite and at least CHECK_TOL, the tolerance the sides
    reproduce to, so that float noise never passes; ValueError otherwise.
    """
    if not (math.isfinite(margin) and margin >= CHECK_TOL):
        raise ValueError(f"margin {margin} must be finite and at least {CHECK_TOL}")
    if cert.kind not in _KINDS:
        return False, f"unknown certificate kind {cert.kind!r}"
    payload, sides_of, violates, detail = _KINDS[cert.kind]
    for field in payload:
        if getattr(cert, field) is None:
            return False, f"certificate is missing its {field} payload"
    sides = sides_of(cert)
    if isinstance(sides, str):
        return False, sides
    if sides is not None:
        if cert.lhs is None or cert.rhs is None:
            return False, "certificate is missing its inequality sides"
        lhs, rhs = sides
        if not (_consistent(cert.lhs, lhs) and _consistent(cert.rhs, rhs)):
            return False, f"stored sides ({cert.lhs!r}, {cert.rhs!r}) do not reproduce ({lhs!r}, {rhs!r})"
        if not violates(cert, lhs, rhs, margin):
            return False, f"inequality not violated at margin {margin}"
    return True, detail.format(*(sides or ()))


def decoration_to_json(d: Decoration) -> dict:
    edges = [list(e) for e in d.host.sorted_edges]
    return {
        "host": graph_to_json(d.host),
        "edges": edges,
        "kernels": [kernel_to_json(d.kernels[tuple(e)]) for e in edges],
    }


def decoration_from_json(obj: dict) -> Decoration:
    host = graph_from_json(obj["host"])
    edges = [_json_edge(e) for e in obj["edges"]]
    kernels = [kernel_from_json(k) for k in obj["kernels"]]
    if len(edges) != len(kernels):
        raise ValueError("decoration JSON: edges and kernels must align")
    if len({(u, v) if u < v else (v, u) for u, v in edges}) != len(edges):
        raise ValueError("decoration JSON: an edge is listed twice")
    return Decoration(host, dict(zip(edges, kernels)))


# payload field -> (to_json, from_json), in the order certificate JSON lists them
_PAYLOAD = {
    "decoration": (decoration_to_json, decoration_from_json),
    "kernel": (kernel_to_json, kernel_from_json),
    "subgraph": (graph_to_json, graph_from_json),
    "pair": (
        lambda pair: [graph_to_json(pair[0]), graph_to_json(pair[1])],
        lambda obj: (graph_from_json(obj[0]), graph_from_json(obj[1])),
    ),
}


def certificate_to_json(cert: Certificate) -> dict:
    out: dict = {"kind": cert.kind, "mode": cert.mode, "graph": graph_to_json(cert.graph)}
    if cert.lhs is not None:
        out["lhs"] = cert.lhs
    if cert.rhs is not None:
        out["rhs"] = cert.rhs
    for key, (to_json, _) in _PAYLOAD.items():
        value = getattr(cert, key)
        if value is not None:
            out[key] = to_json(value)
    if cert.note:
        out["note"] = cert.note
    return out


def _json_side(obj: dict, key: str) -> float | None:
    x = obj.get(key)
    if x is None:
        return None
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            if math.isfinite(x):
                return float(x)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"'{key}' must be a finite number, got {x!r}")


def certificate_from_json(obj: dict) -> Certificate:
    if not isinstance(obj, dict) or "kind" not in obj or "graph" not in obj:
        raise ValueError("certificate JSON must have 'kind' and 'graph' fields")
    if not isinstance(obj["kind"], str):
        raise ValueError(f"'kind' must be a string, got {obj['kind']!r}")
    mode = obj.get("mode", "weak")
    _require_mode(mode)
    payload = {key: from_json(obj[key]) for key, (_, from_json) in _PAYLOAD.items() if key in obj}
    return Certificate(
        kind=obj["kind"],
        graph=graph_from_json(obj["graph"]),
        mode=mode,
        lhs=_json_side(obj, "lhs"),
        rhs=_json_side(obj, "rhs"),
        note=obj.get("note", ""),
        **payload,
    )


def verdict_to_json(v: Verdict) -> dict:
    return {
        "graph": graph_to_json(v.graph),
        "mode": v.mode,
        "seed": v.seed,
        "trials": v.trials,
        "checks": [{"name": c.name, "status": c.status, "evidence": c.evidence} for c in v.checks],
        "certificates": [certificate_to_json(c) for c in v.certificates],
        "overall": v.overall,
    }

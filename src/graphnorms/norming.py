"""Necessary-condition checks and counterexample certificates for graph norms.

A graph can be *refuted* as weakly norming (or seminorming) by exhibiting a
concrete witness: a decoration violating the defining Hoelder inequality, a
subgraph with too large an average degree, components with mismatched edge
counts, or non-isomorphic components.  Every refutation is packaged as a
Certificate that third parties can re-validate from its payload alone.

The converse is out of reach: no finite computation proves a graph weakly
norming, so the best non-refuted verdict is "consistent".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .density import Decoration, decorated_density, density, density_many, max_batch
from .graphs import (
    Component,
    Graph,
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
    max_subgraph_vertices: int


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
    1 + SEARCH_TOL, and validate_certificate applies _violates at its
    margin (CHECK_TOL by default).  A side whose magnitude
    overflows is reported as inf and leaves the ratio nan: such a
    decoration decides nothing, so it never refutes.
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
    # one batched call per slice that fits the contraction limit; one in all
    # but very wide hosts
    kernels = [d.kernels[e] for e in h.sorted_edges]
    step = max_batch(h, kernels[0].part_count)
    terms = np.concatenate([density_many(h, kernels[i:i + step]) for i in range(0, m, step)])
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


def _indicator_family(h: Graph, seed: int, trial: int) -> Decoration:
    # Two-part partition (theta, 1-theta); each edge independently gets one
    # of the four 0/1 block patterns or all-ones.
    theta = 0.1 + 0.8 * counter_uniform("theta", seed, trial)
    measures = np.array([theta, 1.0 - theta])
    patterns = [
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
    ]
    kernels = {}
    for ei, e in enumerate(h.sorted_edges):
        pick = int(counter_uniform("indicator", seed, trial, ei) * len(patterns))
        kernels[e] = StepKernel(measures, patterns[min(pick, len(patterns) - 1)])
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
        kernels[e] = StepKernel(measures, np.outer(vec, vec))
    return Decoration(h, kernels)


def _signed_block_family(h: Graph, seed: int, trial: int) -> Decoration:
    base = _block_family(h, seed, trial, _VALUE_GRID)
    kernels = {e: combine(2.0, w, -1.0, ones_like(w)) for e, w in base.kernels.items()}
    return Decoration(h, kernels)


def _component_decoration(h: Graph, comp: Component) -> Decoration:
    """The dyadic diagonal kernel for coefficients (1, 1) on the edges of one
    component of h, constant 1 elsewhere.  Exact arithmetic when the
    component's average degree is 2."""
    gamma = Fraction(comp.graph.vertex_count, comp.graph.edge_count)
    kernel = absolute(special_kernel(float(gamma), (1.0, 1.0)))
    ones = ones_like(kernel)
    marked = {(comp.vertices[a], comp.vertices[b]) for a, b in comp.graph.sorted_edges}
    return Decoration(h, {e: (kernel if e in marked else ones) for e in h.sorted_edges})


def _structured_component_decorations(h: Graph) -> list[Decoration]:
    """For disconnected hosts with equal component average degrees: one
    _component_decoration per component."""
    comps = edge_components(h)
    if len(comps) < 2 or len({average_degree(c.graph) for c in comps}) != 1:
        return []
    return [_component_decoration(h, comp) for comp in comps]


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
    kernels, two-part indicators, dyadic diagonal kernels, rank-one kernels,
    and (first, for disconnected hosts) the structured one-component
    decorations.  A hit must clear ratio > 1 + SEARCH_TOL before it is certified.
    """
    _require_mode(mode)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")

    structured = _structured_component_decorations(h)
    families = _FAMILIES[mode]
    for trial in range(trials):
        d = structured[trial] if trial < len(structured) else families[trial % len(families)](h, seed, trial)
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
    for validating every certificate (at the caller's margin)."""
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


def subgraph_avg_degree_check(
    h: Graph, max_subgraph_vertices: int = 8
) -> tuple[CheckResult, Certificate | None]:
    """Fail if some subgraph of h has strictly larger average degree.

    Comparison is exact rational.  Enumeration covers every edge-subset
    subgraph spanning at most max_subgraph_vertices vertices; the cap is
    reported as a completeness qualifier.
    """
    if h.vertex_count == 0 or h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")
    if min(h.degrees()) == 0:
        raise ValueError("strip isolated vertices before the subgraph check")
    count = 0
    for f in enumerate_subgraphs(h, max_subgraph_vertices):
        count += 1
        # e(f)/v(f) > e(h)/v(h) in integers; Fractions only for the evidence text
        if f.edge_count * h.vertex_count > h.edge_count * f.vertex_count:
            host_degree = average_degree(h)
            cert = _half_square_certificate(
                h,
                f,
                f"subgraph with {f.edge_count} edges on {f.vertex_count} vertices has "
                f"average degree {average_degree(f)} > {host_degree}",
            )
            result = CheckResult(
                "subgraph-average-degree",
                "fail",
                f"subgraph average degree {average_degree(f)} exceeds {host_degree}",
            )
            return result, cert
    result = CheckResult(
        "subgraph-average-degree",
        "pass",
        f"checked {count} edge-subset subgraphs up to {max_subgraph_vertices} vertices",
    )
    return result, None


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
    decoration = _component_decoration(h, smallest)
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


@lru_cache(maxsize=64)
def _first_nonisomorphic_component(g: Graph) -> Component | None:
    """The first component with edges of g not isomorphic to the first one;
    None when all are isomorphic (cached per graph)."""
    comps = edge_components(g)
    return next((c for c in comps[1:] if find_isomorphism(comps[0].graph, c.graph) is None), None)


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

    mismatch = _first_nonisomorphic_component(g)
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
    """Per-component star-or-Eulerian test plus the even-edge-count report.

    After stripping isolated vertices, passes when all components are
    isomorphic and the common component is a star or Eulerian.  The edge
    parity entry is reported alongside as separate evidence; neither entry
    carries a numeric certificate.
    """
    g = remove_isolated_vertices(h)
    checks: list[CheckResult] = []
    if g.edge_count == 0:
        checks.append(CheckResult("star-or-eulerian", "pass", "no edges"))
        checks.append(CheckResult("edge-count-parity", "pass", "no edges"))
        return checks
    comps = edge_components(g)
    all_isomorphic = _first_nonisomorphic_component(g) is None
    rep = comps[0].graph
    shape_ok = is_star(rep) or is_eulerian(rep)
    if all_isomorphic and shape_ok:
        kind = "star" if is_star(rep) else "Eulerian"
        checks.append(
            CheckResult("star-or-eulerian", "pass", f"{len(comps)} isomorphic component(s), each a {kind}")
        )
    elif not all_isomorphic:
        checks.append(CheckResult("star-or-eulerian", "fail", "components are not all isomorphic"))
    else:
        checks.append(
            CheckResult("star-or-eulerian", "fail", "component is neither a star nor Eulerian")
        )
    parity = "pass" if g.edge_count % 2 == 0 else "fail"
    if len({c.graph.edge_count for c in comps}) == 1:
        evidence = f"{g.edge_count} edges in {len(comps)} component(s) of {comps[0].graph.edge_count} each"
    else:
        evidence = f"{g.edge_count} edges total"
    checks.append(CheckResult("edge-count-parity", parity, evidence))
    return checks


# ---------------------------------------------------------------------------
# Aggregate verdict
# ---------------------------------------------------------------------------

def full_verdict(
    h: Graph,
    mode: str = "weak",
    trials: int = 1000,
    seed: int = 0,
    max_subgraph_vertices: int = 8,
) -> Verdict:
    """Run all structural checks and the randomized search; aggregate.

    The verdict is one-sided: "refuted" always carries certificates, and
    the best positive outcome is "consistent".  A failed structural check
    without an attached certificate (possible only for the semi-mode shape
    and parity entries) yields "inconclusive".
    """
    _require_mode(mode)
    if h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")
    checks: list[CheckResult] = []
    certs: list[Certificate] = []

    g = remove_isolated_vertices(h)
    dropped = h.vertex_count - g.vertex_count
    checks.append(
        CheckResult(
            "isolated-vertices",
            "pass",
            f"removed {dropped} isolated vertex(es)" if dropped else "none present",
        )
    )

    comp_checks, comp_certs = component_analysis(g)
    checks.extend(comp_checks)
    certs.extend(comp_certs)

    sub_check, sub_cert = subgraph_avg_degree_check(g, max_subgraph_vertices)
    checks.append(sub_check)
    if sub_cert is not None:
        certs.append(sub_cert)

    if mode == "semi":
        checks.extend(star_or_eulerian_check(g))

    found = holder_search(g, trials=trials, seed=seed, mode=mode)
    if found is not None:
        certs.append(found)
        checks.append(CheckResult("holder-search", "fail", found.note))
    else:
        checks.append(CheckResult("holder-search", "pass", f"no violation in {trials} trials (seed {seed})"))

    if certs:
        overall = REFUTED
    elif any(c.status == "fail" for c in checks):
        overall = INCONCLUSIVE
    else:
        overall = CONSISTENT
    return Verdict(
        graph=h,
        mode=mode,
        checks=tuple(checks),
        certificates=tuple(certs),
        overall=overall,
        seed=seed,
        trials=trials,
        max_subgraph_vertices=max_subgraph_vertices,
    )


# ---------------------------------------------------------------------------
# Certificate validation and serialization
# ---------------------------------------------------------------------------

def _consistent(stored: float, recomputed: float) -> bool:
    return abs(stored - recomputed) <= CHECK_TOL * max(1.0, abs(stored), abs(recomputed))


def _holder_sides(cert: Certificate) -> tuple[float, float]:
    report = holder_check(cert.graph, cert.decoration, cert.mode)
    return report.lhs, report.rhs


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

# certificate kind -> (payload fields it must carry, sides function, detail
# of a passed validation formatted with the sides).  A sides function gets
# that payload and returns the recomputed (lhs, rhs), an error for a bad
# payload, or None when the payload carries no inequality.
_KINDS = {
    HOLDER_VIOLATION: (("decoration",), _holder_sides, _VIOLATION),
    EDGE_COUNT_MISMATCH: (("decoration",), _holder_sides, _VIOLATION),
    AVG_DEGREE_VIOLATION: (("kernel", "subgraph"), _subgraph_sides, _VIOLATION),
    DENSITY_DOMINATION_VIOLATION: (("kernel", "subgraph"), _subgraph_sides, _VIOLATION),
    COMPONENT_NONISOMORPHISM: (("pair",), _component_sides, "components re-verified non-isomorphic"),
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
    payload, sides_of, detail = _KINDS[cert.kind]
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
        if not _violates(lhs, rhs, margin):
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
    edges = [tuple(int(x) for x in e) for e in obj["edges"]]
    kernels = [kernel_from_json(k) for k in obj["kernels"]]
    if len(edges) != len(kernels):
        raise ValueError("decoration JSON: edges and kernels must align")
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
        "max_subgraph_vertices": v.max_subgraph_vertices,
        "checks": [{"name": c.name, "status": c.status, "evidence": c.evidence} for c in v.checks],
        "certificates": [certificate_to_json(c) for c in v.certificates],
        "overall": v.overall,
    }

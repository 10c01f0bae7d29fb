"""Desk-scale geometry experiments for the absolute-density norm.

Block-random kernels with {0,1} values concentrate, so two independent
samples normalized onto the unit sphere sit far apart while their midpoint
stays close to the sphere: an upper-bound witness for the modulus of
convexity that decays with the block count n.  The same construction with
a scaled second sample produces lower-bound witnesses for the modulus of
smoothness approaching eps/2.  Neither modulus is estimated beyond these
one-sided witnesses.

A witness sample is consumed whole, so all n(n+1)/2 of its block values
come from one SHAKE-256 stream keyed by (role, seed, attempt, n) instead
of one sha256 per block, which made hashing most of a scan's time.  The
concentration experiments keep sample_block_random and its per-block
keys: their 20-trial acceptance check is decided by the particular
samples.

Also here: concentration experiments for block-random densities and the
exact sequence-space embedding identity for connected graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Sequence

import numpy as np

from .density import CONTRACTION_LIMIT, _contraction_jobs, density, norm_rh
from .graphs import Graph, disjoint_union, is_connected
from .kernels import (
    DiracMixture,
    StepKernel,
    _equal_parts,
    _trusted,
    combine,
    dirac_d1,
    sample_block_random,
    scale,
    special_kernel,
)
from .seeding import derive_seed, key_uniforms

CONVEXITY = "convexity-upper-bound"
SMOOTHNESS = "smoothness-lower-bound"

_MAX_RESAMPLES = 8
_COIN = dirac_d1()


@dataclass(frozen=True, eq=False)
class ModulusEstimate:
    """One witness value plus the kernels realizing it."""

    graph: Graph
    kind: str
    epsilon: float
    n: int
    seed: int
    value: float
    witnesses: tuple[StepKernel, StepKernel]
    separation: float | None = None  # ||x - y|| for convexity witnesses

    def revalidate(self) -> float:
        """Recompute the witness value from the stored kernels."""
        if self.kind == CONVEXITY:
            return _midpoint_deficiency(self.graph, *self.witnesses)
        return _smoothness_value(self.graph, *self.witnesses, self.epsilon)


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """Per-n deviation statistics for a concentration experiment."""

    graph: Graph
    mixture: DiracMixture
    n_grid: tuple[int, ...]
    rows: tuple[dict, ...]
    tolerance: float
    passed: bool


def _midpoint_deficiency(h: Graph, x: StepKernel, y: StepKernel) -> float:
    """1 - ||(x + y)/2||, the convexity witness value."""
    return 1.0 - norm_rh(h, combine(0.5, x, 0.5, y))


def _smoothness_value(h: Graph, x: StepKernel, y: StepKernel, eps: float) -> float:
    """(||x + eps y|| + ||x - eps y|| - 2) / 2, the smoothness witness value."""
    plus = norm_rh(h, combine(1.0, x, eps, y))
    minus = norm_rh(h, combine(1.0, x, -eps, y))
    return 0.5 * (plus + minus - 2.0)


def _witness_sample(n: int, seed: int, role: str, attempt: int) -> StepKernel:
    """n equal parts with i.i.d. fair-coin {0,1} block values.

    Block (i, j), i <= j, takes the k-th uniform of the stream keyed by
    (role, seed, attempt, n), k counting the upper triangle row by row, and
    picks its value by the rule of DiracMixture.pick.
    """
    upper = ~np.tri(n, k=-1, dtype=bool)
    values = np.zeros((n, n))
    values[upper] = _COIN.pick_many(key_uniforms(f"moduli/{role}/{seed}/{attempt}/{n}", n * (n + 1) // 2))
    return _trusted(_equal_parts(n), np.where(upper, values, values.T))


def _sample_normalized(h: Graph, n: int, seed: int, role: str) -> tuple[StepKernel, StepKernel]:
    """A block-random {0,1} sample and its rescaling to unit absolute norm.

    The normalization divides by the exactly computed norm (not its
    large-n limit 1/2), so the rescaled kernel has norm 1 up to one
    rounding.  Resamples with the next attempt's stream if the norm
    vanishes.
    """
    for attempt in range(_MAX_RESAMPLES):
        u = _witness_sample(n, seed, role, attempt)
        nu = norm_rh(h, u)
        if nu > 0.0:
            return u, scale(u, 1.0 / nu)
    raise RuntimeError(f"sampled kernel had zero norm {_MAX_RESAMPLES} times (n={n}, seed={seed})")


_KINDS = {"convexity": CONVEXITY, "smoothness": SMOOTHNESS, CONVEXITY: CONVEXITY, SMOOTHNESS: SMOOTHNESS}


def _require_witness_inputs(h: Graph, eps_grid: Sequence[float], n_grid: Sequence[int]) -> None:
    """Reject a bad epsilon, an edgeless graph or a block count whose samples
    or contraction steps would not fit, before any sample is drawn."""
    for eps in eps_grid:
        if not (0.0 < eps < 1.0):
            raise ValueError(f"epsilon {eps} outside the supported range (0, 1)")
    if h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")
    for n in n_grid:
        if n < 1:
            raise ValueError(f"block count {n} must be at least 1")
        if n * n > CONTRACTION_LIMIT:
            raise ValueError(f"block count {n} needs {n * n} kernel values, over the {CONTRACTION_LIMIT} limit")
        _contraction_jobs(h, n)  # raises when a contraction step would not fit


def _witnesses(h: Graph, kind: str, eps_grid: Sequence[float], n: int, seed: int) -> list[ModulusEstimate]:
    """Witnesses of one kind at one (n, seed), one per epsilon, in grid order.

    The normalized pair (x, y) does not depend on epsilon, so it is drawn
    once and shared by every estimate.  A convexity witness does not
    depend on epsilon at all, so its two norms are computed once.
    """
    _, x = _sample_normalized(h, n, seed, "u1")
    _, y = _sample_normalized(h, n, seed, "u2")
    pair = (x, y)
    if kind == CONVEXITY:
        separation = norm_rh(h, combine(1.0, x, -1.0, y))
        deficiency = _midpoint_deficiency(h, x, y)
        return [ModulusEstimate(h, kind, eps, n, seed, deficiency, pair, separation) for eps in eps_grid]
    return [ModulusEstimate(h, kind, eps, n, seed, _smoothness_value(h, x, y, eps), pair) for eps in eps_grid]


def convexity_witness(h: Graph, epsilon: float, n: int, seed: int) -> ModulusEstimate:
    """Upper-bound witness for the modulus of convexity at epsilon.

    Two independent normalized samples x, y give the pair
    (||x - y||, 1 - ||(x + y)/2||); whenever the separation reaches
    epsilon, the second number upper-bounds the modulus.  Both the
    separation and the midpoint deficiency are O(1/n) away from their
    limits 1 and 0.  Neither depends on epsilon.
    """
    _require_witness_inputs(h, [epsilon], [n])
    return _witnesses(h, CONVEXITY, [epsilon], n, seed)[0]


def smoothness_witness(h: Graph, epsilon: float, n: int, seed: int) -> ModulusEstimate:
    """Lower-bound witness for the modulus of smoothness at epsilon.

    For unit vectors x, y the value (||x + eps y|| + ||x - eps y|| - 2) / 2
    is a valid lower bound since ||eps y|| = eps; it approaches eps / 2 as
    n grows.
    """
    _require_witness_inputs(h, [epsilon], [n])
    return _witnesses(h, SMOOTHNESS, [epsilon], n, seed)[0]


def modulus_scan(
    h: Graph,
    kind: str,
    eps_grid: Sequence[float],
    n_grid: Sequence[int],
    seeds: Sequence[int],
) -> list[ModulusEstimate]:
    """Witnesses over the full (epsilon, n, seed) grid, in that loop order.

    Each cell equals the corresponding single witness call bit for bit, so
    scans can be reproduced piecewise.  The sample pair is drawn once per
    (n, seed) and shared by the estimates of every epsilon; a convexity
    witness does not depend on epsilon, so its value is the same in every
    epsilon row.  Epsilon values outside (0, 1) are rejected: the witness
    construction is only meaningful on that range.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'convexity' or 'smoothness', got {kind!r}")
    eps_grid = list(eps_grid)
    n_grid = list(n_grid)
    _require_witness_inputs(h, eps_grid, n_grid)
    cells = {(n, seed): _witnesses(h, _KINDS[kind], eps_grid, n, seed) for n in n_grid for seed in seeds}
    return [cells[n, seed][k] for k in range(len(eps_grid)) for n in n_grid for seed in seeds]


def estimates_to_csv(estimates: Sequence[ModulusEstimate]) -> str:
    """Plot-ready table with the fixed header graph,kind,epsilon,n,seed,value."""
    lines = ["graph,kind,epsilon,n,seed,value"]
    for e in estimates:
        label = graph_label(e.graph)
        lines.append(f"{label},{e.kind},{e.epsilon:.12g},{e.n},{e.seed},{e.value:.12g}")
    return "\n".join(lines) + "\n"


def estimate_to_json(e: ModulusEstimate, include_witnesses: bool = False) -> dict:
    from .kernels import kernel_to_json

    out = {
        "graph": graph_label(e.graph),
        "kind": e.kind,
        "epsilon": e.epsilon,
        "n": e.n,
        "seed": e.seed,
        "value": e.value,
    }
    if e.separation is not None:
        out["separation"] = e.separation
    if include_witnesses:
        out["witnesses"] = [kernel_to_json(w) for w in e.witnesses]
    return out


def graph_label(g: Graph) -> str:
    edges = ";".join(f"{u}-{v}" for u, v in g.sorted_edges)
    return f"v{g.vertex_count}:{edges}"


# ---------------------------------------------------------------------------
# Concentration of block-random densities
# ---------------------------------------------------------------------------

def _deviations(h: Graph, n: int, d: DiracMixture, trials: int, seed: int) -> list[float]:
    target = d.mean ** h.edge_count
    devs = []
    for t in range(trials):
        u = sample_block_random(n, d, derive_seed("concentration", seed, n, t))
        devs.append(abs(density(h, u) - target))
    return devs


def _row(n: int, devs: list[float], target: float) -> dict:
    return {
        "n": n,
        "trials": len(devs),
        "target": target,
        "mean_dev": sum(devs) / len(devs),
        "median_dev": median(devs),
        "max_dev": max(devs),
    }


def concentration_check(
    h: Graph, n: int, d: DiracMixture, trials: int, seed: int, tolerance: float = 0.1
) -> ExperimentRecord:
    """Deviation statistics of t(h, U) from mean(d)^e(h) at a single n."""
    return concentration_scan(h, d, (n,), trials, seed, tolerance)


def concentration_scan(
    h: Graph,
    d: DiracMixture,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    tolerance: float = 0.1,
) -> ExperimentRecord:
    """Concentration trend over a grid of block counts.

    Passes when the median deviation decreases monotonically along the
    (strictly increasing) grid and the final median is within tolerance.
    The tolerance is configuration, not a derived rate.  Raises ValueError
    for an edgeless graph, fewer than 1 trial or an empty grid.
    """
    grid = tuple(n_grid)
    if h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not grid:
        raise ValueError("n_grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    target = d.mean ** h.edge_count
    rows = tuple(_row(n, _deviations(h, n, d, trials, seed), target) for n in grid)
    medians = [r["median_dev"] for r in rows]
    monotone = all(b < a for a, b in zip(medians, medians[1:]))
    return ExperimentRecord(
        graph=h,
        mixture=d,
        n_grid=grid,
        rows=rows,
        tolerance=tolerance,
        passed=monotone and medians[-1] <= tolerance,
    )


# ---------------------------------------------------------------------------
# Sequence-space embedding identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EmbeddingReport:
    graph: Graph
    a: tuple[float, ...]
    gamma: float
    value: float
    coefficient_sum: float
    rel_error: float
    ok: bool
    contrast_value: float
    contrast_sum: float
    contrast_ratio: float


def lp_embedding_check(h: Graph, a: Sequence[float], rel_tol: float = 1e-10) -> EmbeddingReport:
    """Certify t(h, K) = sum_i a_i^e(h) for the dyadic diagonal kernel K.

    Requires h connected without isolated vertices; the kernel exponent is
    v(h)/e(h).  The identity hinges on connectivity: the report also
    evaluates h + h against the naive sum of a_i^(2 e(h)), which differs
    whenever a has two or more comparable entries.
    """
    if h.edge_count == 0:
        raise ValueError("need a graph with at least one edge")
    if min(h.degrees()) == 0:
        raise ValueError("strip isolated vertices first")
    if not is_connected(h):
        raise ValueError("graph must be connected; the disconnected contrast runs internally on h + h")
    coeffs = tuple(float(x) for x in a)
    m = h.edge_count
    gamma = h.vertex_count / m
    kernel = special_kernel(gamma, coeffs)
    value = density(h, kernel)
    expected = math.fsum(x**m for x in coeffs)
    scale_ref = max(abs(expected), 1e-300)
    rel = abs(value - expected) / scale_ref
    ok = rel <= rel_tol if expected != 0.0 else abs(value) <= 1e-12

    doubled = disjoint_union(h, h)
    contrast_value = density(doubled, kernel)
    contrast_sum = math.fsum(x ** (2 * m) for x in coeffs)
    contrast_ratio = contrast_value / contrast_sum if contrast_sum != 0.0 else math.inf
    return EmbeddingReport(
        graph=h,
        a=coeffs,
        gamma=gamma,
        value=value,
        coefficient_sum=expected,
        rel_error=rel,
        ok=ok,
        contrast_value=contrast_value,
        contrast_sum=contrast_sum,
        contrast_ratio=contrast_ratio,
    )

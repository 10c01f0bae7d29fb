"""Hoelder checks, structural refutations, certificates, and verdicts."""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np
import pytest

from graphnorms import (
    Decoration,
    Graph,
    StepKernel,
    absolute,
    certificate_from_json,
    certificate_to_json,
    complete,
    complete_bipartite,
    component_analysis,
    constant_kernel,
    cycle,
    decorated_density,
    density,
    disjoint_union,
    distinguishing_kernel_search,
    domination_check,
    edge_mismatch_certificate,
    full_verdict,
    graph_to_json,
    half_square_kernel,
    holder_check,
    holder_search,
    path,
    sample_block_random,
    special_kernel,
    star,
    star_or_eulerian_check,
    subgraph_avg_degree_check,
    validate_certificate,
    verdict_to_json,
    dirac_d2,
)
from graphnorms import norming
from graphnorms.norming import (
    AVG_DEGREE_VIOLATION,
    COMPONENT_NONISOMORPHISM,
    CONSISTENT,
    EDGE_COUNT_MISMATCH,
    HOLDER_VIOLATION,
    INCONCLUSIVE,
    REFUTED,
)
from conftest import random_kernel


def _random_decoration(g, rng, parts=3):
    kernels = {}
    for e in g.sorted_edges:
        kernels[e] = sample_block_random(parts, dirac_d2(), rng.randint(0, 10**9))
    return Decoration(g, kernels)


# ---------------------------------------------------------------------------
# Hoelder check
# ---------------------------------------------------------------------------

def test_equal_kernels_give_ratio_one(c4):
    rng = random.Random(0)
    for _ in range(10):
        w = random_kernel(rng, max_parts=3)
        report = holder_check(c4, Decoration.uniform(c4, w), "weak")
        if report.rhs > 0:
            assert report.ratio == pytest.approx(1.0, abs=1e-12)
        assert not report.violated


def test_c4_random_nonneg_decorations_never_violate(c4):
    rng = random.Random(1)
    for _ in range(100):
        report = holder_check(c4, _random_decoration(c4, rng), "weak")
        assert report.ratio <= 1.0 + 1e-9


def test_weak_mode_rejects_signed_kernels(c4):
    rng = random.Random(2)
    w = random_kernel(rng, max_parts=2, signed=True)
    while bool(np.all(w.values >= 0)):
        w = random_kernel(rng, max_parts=2, signed=True)
    with pytest.raises(ValueError, match="non-negative"):
        holder_check(c4, Decoration.uniform(c4, w), "weak")
    holder_check(c4, Decoration.uniform(c4, w), "semi")  # allowed


def test_edge_mismatch_decoration_ratio_is_four(c4, c6):
    h = disjoint_union(c4, c6)
    cert = edge_mismatch_certificate(h)
    assert cert.lhs == 2.0**10
    assert cert.rhs == 2.0**8
    report = holder_check(h, cert.decoration, "weak")
    assert report.ratio == 4.0


def test_overflowing_side_never_violates(c4):
    # t(C4, 1e20) = 1e80 is finite, but its fourth power and the product
    # side overflow the float range.
    report = holder_check(c4, Decoration.uniform(c4, constant_kernel(1e20)), "weak")
    assert report.lhs == math.inf
    assert math.isnan(report.ratio)
    assert not report.violated


def test_holder_check_splits_a_batch_over_the_contraction_limit(monkeypatch):
    # K11 at 4 parts needs 55 x 4^10 elements for its rhs batch, over the
    # limit, while each density fits; the same shape here is K4 at 8 parts
    # under a limit that fits 4 of its 6 edge kernels.
    core = sys.modules["graphnorms.density"]
    h, parts = complete(4), 8
    rng = random.Random(11)
    d = Decoration(h, {e: sample_block_random(parts, dirac_d2(), rng.randint(0, 10**9)) for e in h.sorted_edges})
    calls = []

    def counted(g, kernels):
        calls.append(len(kernels))
        return core.density_many(g, kernels)

    monkeypatch.setattr(norming, "density_many", counted)
    whole = holder_check(h, d)
    assert calls == [6]
    per_kernel = core.CONTRACTION_LIMIT // core.max_batch(h, parts)
    monkeypatch.setattr(core, "CONTRACTION_LIMIT", 4 * per_kernel)
    with pytest.raises(ValueError, match="limit"):
        core.density_many(h, list(d.kernels.values()))
    calls.clear()
    split = holder_check(h, d)
    assert calls == [4, 2]
    assert split.lhs == whole.lhs
    assert split.rhs == pytest.approx(whole.rhs, rel=1e-14)
    assert split.rhs == pytest.approx(math.prod(density(h, d.kernels[e]) for e in h.sorted_edges), rel=1e-12)


# ---------------------------------------------------------------------------
# Hoelder search
# ---------------------------------------------------------------------------

def test_search_refutes_triangle(k3):
    cert = holder_search(k3, trials=10_000, seed=0)
    assert cert is not None
    assert cert.kind == HOLDER_VIOLATION
    ok, detail = validate_certificate(cert)
    assert ok, detail


def test_search_never_refutes_single_edge():
    k2 = path(2)
    assert holder_search(k2, trials=300, seed=0) is None


def test_search_finds_structured_mismatch(c4, c6):
    cert = holder_search(disjoint_union(c4, c6), trials=50, seed=0)
    assert cert is not None
    ok, detail = validate_certificate(cert)
    assert ok, detail


def test_weak_k44_search_survives_overflowing_trials():
    # Trial 648 of seed 3 (a dyadic diagonal decoration) overflows both sides.
    verdict = full_verdict(complete_bipartite(4, 4), "weak", 1000, seed=3)
    assert verdict.overall != REFUTED


@pytest.mark.parametrize("seed", [0, 1])
def test_search_quiet_on_known_norming_graphs(seed):
    for g in (path(2), star(2), cycle(4), complete_bipartite(2, 2)):
        assert holder_search(g, trials=200, seed=seed) is None


# ---------------------------------------------------------------------------
# Subgraph average degree
# ---------------------------------------------------------------------------

def test_subgraph_check_passes_c4(c4):
    result, cert = subgraph_avg_degree_check(c4)
    assert result.status == "pass"
    assert cert is None


def test_subgraph_check_passes_two_stars(k12):
    result, cert = subgraph_avg_degree_check(disjoint_union(k12, k12))
    assert result.status == "pass"
    assert cert is None


def test_subgraph_check_fails_triangle_plus_edge(k3):
    # Host average degree 2*4/5; the triangle subgraph has 2*3/3 > 8/5.
    h = disjoint_union(k3, path(2))
    result, cert = subgraph_avg_degree_check(h)
    assert result.status == "fail"
    assert cert is not None and cert.kind == AVG_DEGREE_VIOLATION
    assert cert.subgraph is not None and cert.subgraph.edge_count == 3
    ok, detail = validate_certificate(cert)
    assert ok, detail


def test_subgraph_check_requires_stripped_input(c4):
    with pytest.raises(ValueError, match="isolated"):
        subgraph_avg_degree_check(Graph.from_edges(c4.edges, vertex_count=5))


# ---------------------------------------------------------------------------
# Component analysis
# ---------------------------------------------------------------------------

def test_component_analysis_two_isomorphic_stars(k12):
    checks, certs = component_analysis(disjoint_union(k12, k12))
    assert all(c.status == "pass" for c in checks)
    assert certs == []


def test_component_analysis_edge_mismatch(c4, c6):
    checks, certs = component_analysis(disjoint_union(c4, c6))
    by_name = {c.name: c.status for c in checks}
    assert by_name["component-average-degree"] == "pass"
    assert by_name["component-edge-count"] == "fail"
    assert any(c.kind == EDGE_COUNT_MISMATCH for c in certs)


def test_component_analysis_degree_mismatch(c4, k12):
    checks, certs = component_analysis(disjoint_union(c4, k12))
    by_name = {c.name: c.status for c in checks}
    assert by_name["component-average-degree"] == "fail"
    assert any(c.kind == AVG_DEGREE_VIOLATION for c in certs)
    for cert in certs:
        ok, detail = validate_certificate(cert)
        assert ok, detail


def test_component_analysis_nonisomorphic_same_counts():
    # C6 vs a triangle with three pendant edges: 6 vertices, 6 edges,
    # equal average degree, not isomorphic.
    other = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    h = disjoint_union(cycle(6), other)
    checks, certs = component_analysis(h)
    by_name = {c.name: c.status for c in checks}
    assert by_name["component-edge-count"] == "pass"
    assert by_name["component-isomorphism"] == "fail"
    noniso = [c for c in certs if c.kind == COMPONENT_NONISOMORPHISM]
    assert noniso
    assert noniso[0].kernel is not None  # distinguishing kernel found
    ok, detail = validate_certificate(noniso[0])
    assert ok, detail


def test_component_certificates_on_copies():
    rng = random.Random(77)
    for g in (cycle(4), star(3), path(4)):
        for copies in (2, 3):
            h = disjoint_union(*[g] * copies)
            checks, certs = component_analysis(h)
            assert all(c.status == "pass" for c in checks), g
            assert certs == []


# ---------------------------------------------------------------------------
# Edge mismatch certificate preconditions
# ---------------------------------------------------------------------------

def test_edge_mismatch_requires_distinct_counts(c4):
    with pytest.raises(ValueError, match="equal"):
        edge_mismatch_certificate(disjoint_union(c4, c4))


def test_edge_mismatch_requires_equal_degrees(c4, k12):
    with pytest.raises(ValueError, match="average degree"):
        edge_mismatch_certificate(disjoint_union(c4, k12))


def test_edge_mismatch_three_components(c4, c6):
    h = disjoint_union(c6, c6, c4)
    cert = edge_mismatch_certificate(h)
    ok, detail = validate_certificate(cert)
    assert ok, detail
    # decorated component is the 4-edge one
    assert "4" in cert.note


# ---------------------------------------------------------------------------
# Domination
# ---------------------------------------------------------------------------

def test_domination_equality_on_self(c4):
    rng = random.Random(3)
    w = random_kernel(rng, max_parts=3)
    report = domination_check(c4, c4, w)
    assert report.lhs == pytest.approx(report.rhs, rel=1e-12)
    assert not report.violated


def test_domination_k2_in_c4(c4):
    report = domination_check(path(2), c4, half_square_kernel())
    assert report.lhs == 0.25
    assert report.rhs == pytest.approx((1 / 16) ** 0.25, rel=1e-12)
    assert not report.violated


def test_domination_violated_for_mixed_cycles(c4, c6):
    h = disjoint_union(c4, c6)
    k = absolute(special_kernel(1.0, (1.0, 1.0)))
    report = domination_check(c4, h, k)
    assert report.violated
    assert report.certificate is not None
    ok, detail = validate_certificate(report.certificate)
    assert ok, detail


def test_domination_mints_only_what_validates(k3):
    # t(K3, W) = 0 for a bipartite W; lhs = 5e-13 is below the absolute
    # floor that validation demands when the bound is 0, so nothing is minted.
    w = StepKernel(np.array([0.5, 0.5]), np.array([[0.0, 1e-12], [1e-12, 0.0]]))
    report = domination_check(path(2), k3, w)
    assert report.lhs == pytest.approx(5e-13, rel=1e-12)
    assert report.rhs == 0.0
    assert not report.violated
    assert report.certificate is None


def test_domination_requires_embedding(c4, k3):
    with pytest.raises(ValueError, match="embed"):
        domination_check(k3, c4, half_square_kernel())


# ---------------------------------------------------------------------------
# Distinguishing kernels
# ---------------------------------------------------------------------------

def test_distinguish_by_edge_count(c4, p4):
    u = distinguishing_kernel_search(c4, p4)
    assert u is not None
    assert u.part_count == 1  # constant kernel suffices


def test_distinguish_equal_edge_counts():
    other = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    u = distinguishing_kernel_search(cycle(6), other, trials=100, seed=0)
    assert u is not None
    assert abs(density(cycle(6), u) - density(other, u)) > 1e-6


def test_distinguish_rejects_isomorphic(c4):
    with pytest.raises(ValueError, match="isomorphic"):
        distinguishing_kernel_search(c4, complete_bipartite(2, 2))


# ---------------------------------------------------------------------------
# Star-or-Eulerian
# ---------------------------------------------------------------------------

def test_star_or_eulerian_entries(c4, k12, p4):
    entries = {c.name: c.status for c in star_or_eulerian_check(disjoint_union(k12, k12))}
    assert entries["star-or-eulerian"] == "pass"
    assert entries["edge-count-parity"] == "pass"
    entries = {c.name: c.status for c in star_or_eulerian_check(c4)}
    assert entries["star-or-eulerian"] == "pass"
    entries = {c.name: c.status for c in star_or_eulerian_check(p4)}
    assert entries["star-or-eulerian"] == "fail"


# ---------------------------------------------------------------------------
# Full verdict
# ---------------------------------------------------------------------------

def test_verdict_consistent_for_c4(c4):
    v = full_verdict(c4, trials=300, seed=0)
    assert v.overall == CONSISTENT
    assert v.certificates == ()


def test_verdict_refutes_mixed_cycles(c4, c6):
    v = full_verdict(disjoint_union(c4, c6), trials=50, seed=0)
    assert v.overall == REFUTED
    assert v.certificates[0].kind == EDGE_COUNT_MISMATCH


def test_verdict_refutes_triangle(k3):
    v = full_verdict(k3, trials=2000, seed=0)
    assert v.overall == REFUTED
    assert any(c.kind == HOLDER_VIOLATION for c in v.certificates)


def test_verdict_handles_isolated_vertices(k12):
    padded = Graph.from_edges(k12.edges, vertex_count=6)
    v = full_verdict(padded, trials=100, seed=0)
    assert v.overall == CONSISTENT
    entry = next(c for c in v.checks if c.name == "isolated-vertices")
    assert "3" in entry.evidence


def test_semi_mode_path_is_inconclusive_without_certificate(p4):
    v = full_verdict(p4, mode="semi", trials=60, seed=0)
    if not v.certificates:
        assert v.overall == INCONCLUSIVE
    else:
        assert v.overall == REFUTED


def test_semi_verdict_searches_each_component_pair_once(monkeypatch, c4, c6):
    # component_analysis and star_or_eulerian_check read one cached answer.
    norming._first_nonisomorphic_component.cache_clear()
    searched = []
    search = norming.find_isomorphism

    def counted(g1, g2):
        searched.append((g1, g2))
        return search(g1, g2)

    monkeypatch.setattr(norming, "find_isomorphism", counted)
    v = full_verdict(disjoint_union(c4, c4, c6), mode="semi", trials=20, seed=0)
    assert v.overall == REFUTED
    statuses = {c.name: c.status for c in v.checks}
    assert statuses["component-isomorphism"] == "fail"
    assert statuses["star-or-eulerian"] == "fail"
    assert searched == [(c4, c4), (c4, c6)]


def test_weak_verdict_searches_a_nonisomorphic_pair_once(monkeypatch, p4):
    # The distinguishing kernel is drawn without searching the pair again.
    norming._first_nonisomorphic_component.cache_clear()
    k13 = star(3)
    searched = []
    search = norming.find_isomorphism

    def counted(g1, g2):
        searched.append((g1, g2))
        return search(g1, g2)

    monkeypatch.setattr(norming, "find_isomorphism", counted)
    v = full_verdict(disjoint_union(p4, k13), trials=20, seed=0)
    assert v.overall == REFUTED
    assert any(c.kind == COMPONENT_NONISOMORPHISM and c.kernel is not None for c in v.certificates)
    assert searched == [(p4, k13)]


def test_verdict_json_is_deterministic(c4, c6):
    h = disjoint_union(c4, c6)
    a = json.dumps(verdict_to_json(full_verdict(h, trials=40, seed=3)))
    b = json.dumps(verdict_to_json(full_verdict(h, trials=40, seed=3)))
    assert a == b


# ---------------------------------------------------------------------------
# Certificate serialization and validation
# ---------------------------------------------------------------------------

def test_certificate_json_round_trip(c4, c6):
    cert = edge_mismatch_certificate(disjoint_union(c4, c6))
    back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert back.kind == cert.kind
    assert back.lhs == cert.lhs and back.rhs == cert.rhs
    ok, detail = validate_certificate(back)
    assert ok, detail


def test_perturbed_certificate_fails_validation(c4, c6):
    cert = edge_mismatch_certificate(disjoint_union(c4, c6))
    doc = certificate_to_json(cert)
    doc["decoration"]["kernels"][0]["values"][0][0] *= 1.1
    tampered = certificate_from_json(doc)
    ok, detail = validate_certificate(tampered)
    assert not ok
    assert "reproduce" in detail


def test_nonisomorphism_pair_must_be_host_components(c4, c6):
    cert = next(c for c in component_analysis(disjoint_union(c4, c6))[1] if c.kind == COMPONENT_NONISOMORPHISM)
    assert validate_certificate(cert)[0]
    doc = certificate_to_json(cert)
    # C4+C4 is weakly norming; C4+C5 holds only one of the pair
    for host in (disjoint_union(c4, c4), disjoint_union(c4, cycle(5))):
        doc["graph"] = graph_to_json(host)
        ok, detail = validate_certificate(certificate_from_json(doc))
        assert not ok
        assert "not components of the host" in detail


def test_tampered_sides_fail_validation(k3):
    cert = holder_search(k3, trials=5000, seed=0)
    doc = certificate_to_json(cert)
    doc["lhs"] = doc["lhs"] * 0.5
    assert not validate_certificate(certificate_from_json(doc))[0]


# ---------------------------------------------------------------------------
# Factorization identities for disjoint copies
# ---------------------------------------------------------------------------

def test_two_copies_factorize(c4):
    rng = random.Random(9)
    h = disjoint_union(c4, c4)
    for _ in range(20):
        d = _random_decoration(h, rng)
        w1 = {e: d.kernels[e] for e in c4.sorted_edges}
        w2 = {
            (u, v): d.kernels[(u + 4, v + 4)]
            for u, v in c4.sorted_edges
        }
        split = decorated_density(Decoration(c4, w1)) * decorated_density(Decoration(c4, w2))
        assert decorated_density(d) == pytest.approx(split, rel=1e-12)


def test_repeated_copy_holder_chain(c4):
    # k copies all carrying the same per-edge kernels: the decorated value
    # is the k-th power, and the product bound holds with k-squared powers.
    rng = random.Random(10)
    k = 2
    h = disjoint_union(c4, c4)
    u = {e: sample_block_random(3, dirac_d2(), rng.randint(0, 10**9)) for e in c4.sorted_edges}
    kernels = {}
    for copy in range(k):
        for a, b in c4.sorted_edges:
            kernels[(a + 4 * copy, b + 4 * copy)] = u[(a, b)]
    d = Decoration(h, kernels)
    t_h = decorated_density(d)
    t_f = decorated_density(Decoration(c4, u))
    assert t_h == pytest.approx(t_f**k, rel=1e-12)
    lhs = t_f ** (k * k * c4.edge_count)
    rhs = 1.0
    for e in c4.sorted_edges:
        rhs *= density(c4, u[e]) ** (k * k)
    assert lhs <= rhs * (1 + 1e-9)

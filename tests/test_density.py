"""Density engine vs the brute-force oracle, plus its algebraic invariants."""

from __future__ import annotations

import math
import random
from itertools import product

import numpy as np
import pytest

from graphnorms import (
    Decoration,
    Graph,
    complete,
    constant_kernel,
    cycle,
    decorated_density,
    decorated_density_bruteforce,
    density,
    density_bruteforce,
    density_many,
    disjoint_union,
    elimination_plan,
    half_square_kernel,
    norm_h,
    norm_rh,
    ones_like,
    path,
    sample_block_random,
    scale,
    special_kernel,
    star,
    dirac_d1,
)
from conftest import random_graph, random_graph_with_edges, random_kernel


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

def test_constant_kernel_powers(c4, k12):
    assert density(c4, constant_kernel(0.5)) == 0.0625
    assert density(k12, constant_kernel(0.5)) == 0.25


def test_half_square_gives_two_to_minus_v(c4, c6, k12):
    u = half_square_kernel()
    for g in (path(2), k12, c4, c6):
        assert density(g, u) == 2.0 ** -g.vertex_count


def test_special_kernel_c4_value(c4):
    # For the dyadic diagonal kernel with exponent v/e = 1 and a = (1, 1),
    # block i contributes (2^-i)^4 * (2^i)^4 = 1, so the density is 2.
    assert density(c4, special_kernel(1.0, (1.0, 1.0))) == 2.0


def test_edgeless_graph_density_is_one():
    g = Graph(3, frozenset())
    w = constant_kernel(0.25)
    assert density(g, w) == 1.0
    assert density_bruteforce(g, w) == 1.0


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------

def test_bruteforce_k2_is_quadratic_form():
    rng = random.Random(0)
    w = random_kernel(rng, max_parts=3, signed=True)
    expected = math.fsum(
        w.measures[i] * w.measures[j] * w.values[i, j]
        for i in range(w.part_count)
        for j in range(w.part_count)
    )
    assert density_bruteforce(path(2), w) == pytest.approx(expected, rel=1e-14)


def test_engine_matches_bruteforce_random():
    rng = random.Random(14)
    for _ in range(60):
        g = random_graph(rng, max_vertices=6)
        w = random_kernel(rng, max_parts=4, signed=True)
        a, b = density(g, w), density_bruteforce(g, w)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_bruteforce_guard():
    w = sample_block_random(10, dirac_d1(), 0)
    with pytest.raises(ValueError, match="limit"):
        density_bruteforce(complete(9), w)


# ---------------------------------------------------------------------------
# Decorations
# ---------------------------------------------------------------------------

def test_uniform_decoration_equals_plain_density(c4):
    rng = random.Random(21)
    for _ in range(10):
        w = random_kernel(rng, max_parts=3, signed=True)
        d = Decoration.uniform(c4, w)
        assert decorated_density(d) == density(c4, w)


def test_zero_edge_kernel_kills_density(c4):
    w = half_square_kernel()
    zero = scale(w, 0.0)
    kernels = {e: w for e in c4.sorted_edges}
    kernels[(0, 1)] = zero
    assert decorated_density(Decoration(c4, kernels)) == 0.0


def test_single_decorated_edge_matches_hand_sum(c4):
    # One half-square edge, constant 1 elsewhere: brute-force over the 2^4
    # part assignments gives t(K2, half-square) = 1/4.
    u = half_square_kernel()
    ones = ones_like(u)
    kernels = {e: ones for e in c4.sorted_edges}
    kernels[(0, 1)] = u
    d = Decoration(c4, kernels)
    hand = math.fsum(
        0.5**4 * u.values[a[0], a[1]]
        for a in product(range(2), repeat=4)
    )
    assert hand == 0.25
    assert decorated_density(d) == pytest.approx(0.25, rel=1e-14)
    assert decorated_density_bruteforce(d) == pytest.approx(0.25, rel=1e-14)


def test_decorated_engine_matches_bruteforce_random():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph_with_edges(rng, max_vertices=5)
        measures_rng = random.Random(rng.randint(0, 10**6))
        base = random_kernel(measures_rng, max_parts=3, signed=True)
        kernels = {}
        for e in g.sorted_edges:
            vals = np.empty_like(base.values)
            k = base.part_count
            for i in range(k):
                for j in range(i, k):
                    x = rng.uniform(-1, 1)
                    vals[i, j] = vals[j, i] = x
            kernels[e] = type(base)(base.measures, vals)
        d = Decoration(g, kernels)
        assert decorated_density(d) == pytest.approx(decorated_density_bruteforce(d), rel=1e-10, abs=1e-12)


def test_decoration_validation(c4):
    w = half_square_kernel()
    with pytest.raises(ValueError, match="every host edge"):
        Decoration(c4, {(0, 1): w})
    bad = {e: w for e in c4.sorted_edges}
    bad[(0, 1)] = constant_kernel(1.0)
    with pytest.raises(ValueError, match="partition"):
        Decoration(c4, bad)


# ---------------------------------------------------------------------------
# Elimination plans
# ---------------------------------------------------------------------------

def test_plan_widths():
    assert elimination_plan(path(6)).width == 1
    assert elimination_plan(star(5)).width == 1
    for n in (3, 4, 7):
        assert elimination_plan(cycle(n)).width == 2
    assert elimination_plan(complete(4)).width == 3
    assert elimination_plan(Graph(4, frozenset())).width == 0


def test_any_elimination_order_gives_same_density(c6):
    rng = random.Random(40)
    w = random_kernel(rng, max_parts=4, signed=True)
    reference = density(c6, w)
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        # a relabeling changes the greedy plan's tie-breaks, and so the order
        assert density(c6.relabel(dict(enumerate(perm))), w) == pytest.approx(reference, rel=1e-12)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def test_multiplicative_over_components():
    rng = random.Random(50)
    for _ in range(30):
        g1 = random_graph_with_edges(rng, max_vertices=5)
        g2 = random_graph_with_edges(rng, max_vertices=5)
        w = random_kernel(rng, max_parts=3)
        whole = density(disjoint_union(g1, g2), w)
        assert whole == pytest.approx(density(g1, w) * density(g2, w), rel=1e-12)


def test_isomorphism_invariance():
    rng = random.Random(51)
    for _ in range(25):
        g = random_graph_with_edges(rng, max_vertices=6)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabeled = g.relabel(dict(enumerate(perm)))
        w = random_kernel(rng, max_parts=3, signed=True)
        assert density(g, w) == pytest.approx(density(relabeled, w), rel=1e-12, abs=1e-15)


def test_part_permutation_invariance(c4):
    rng = random.Random(52)
    for _ in range(15):
        w = random_kernel(rng, max_parts=4, signed=True)
        perm = list(range(w.part_count))
        rng.shuffle(perm)
        permuted = type(w)(w.measures[perm], w.values[np.ix_(perm, perm)])
        assert density(c4, permuted) == pytest.approx(density(c4, w), rel=1e-12, abs=1e-15)


def test_norm_homogeneity(c4):
    rng = random.Random(53)
    for _ in range(15):
        w = random_kernel(rng, max_parts=3, signed=True)
        c = rng.uniform(-3, 3)
        assert norm_rh(c4, scale(w, c)) == pytest.approx(abs(c) * norm_rh(c4, w), rel=1e-12, abs=1e-15)


def test_norms_basics(c4):
    assert norm_rh(c4, constant_kernel(-0.5)) == pytest.approx(0.5, rel=1e-15)
    rng = random.Random(54)
    w = random_kernel(rng, max_parts=3)  # non-negative
    assert norm_h(c4, w) == pytest.approx(norm_rh(c4, w), rel=1e-14)
    with pytest.raises(ValueError):
        norm_h(Graph(2, frozenset()), constant_kernel(1.0))


def test_block_random_norm_concentrates_near_half(c4):
    for seed in range(3):
        u = sample_block_random(128, dirac_d1(), seed)
        assert abs(norm_rh(c4, u) - 0.5) < 0.05


def test_density_many_matches_loop(c6):
    rng = random.Random(55)
    base = random_kernel(rng, max_parts=3, signed=True)
    kernels = [base]
    for _ in range(4):
        vals = np.empty_like(base.values)
        k = base.part_count
        for i in range(k):
            for j in range(i, k):
                x = rng.uniform(-1, 1)
                vals[i, j] = vals[j, i] = x
        kernels.append(type(base)(base.measures, vals))
    batch = density_many(c6, kernels)
    for i, w in enumerate(kernels):
        assert batch[i] == pytest.approx(density(c6, w), rel=1e-12, abs=1e-15)


def test_connected_embedding_identity_and_disconnected_contrast():
    # Connected host with exponent v/e: density is the plain coefficient
    # power sum; two disjoint copies square it instead.
    c4 = cycle(4)
    a = (0.9, 0.4, 1.1)
    k = special_kernel(1.0, a)
    expected = sum(x**4 for x in a)
    assert density(c4, k) == pytest.approx(expected, rel=1e-12)
    doubled = disjoint_union(c4, c4)
    assert density(doubled, k) == pytest.approx(expected**2, rel=1e-12)
    assert density(doubled, k) != pytest.approx(sum(x**8 for x in a), rel=0.2)

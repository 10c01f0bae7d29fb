"""Concentration, modulus witnesses, distribution identities, embedding checks."""

from __future__ import annotations

import tracemalloc
from statistics import median

import numpy as np
import pytest
from scipy.stats import chisquare

from graphnorms import (
    DiracMixture,
    Graph,
    absolute,
    add,
    combine,
    complete,
    complete_bipartite,
    concentration_check,
    concentration_scan,
    convexity_witness,
    dirac_d1,
    dirac_d2,
    dirac_d3,
    dirac_d4,
    disjoint_union,
    estimates_to_csv,
    lp_embedding_check,
    modulus_scan,
    norm_rh,
    sample_block_random,
    scale,
    smoothness_witness,
    star,
    subtract,
)
from graphnorms.moduli import CONVEXITY, _witness_sample, graph_label
from graphnorms.seeding import derive_seed, key_uniforms


# ---------------------------------------------------------------------------
# Concentration
# ---------------------------------------------------------------------------

def test_single_atom_deviation_is_zero(c4):
    # Every sample is the constant kernel, so the deviation degenerates.
    d = DiracMixture(((0.5, 1.0),))
    for n in (1, 4, 16):
        rec = concentration_check(c4, n, d, trials=5, seed=0)
        assert rec.rows[0]["max_dev"] == 0.0
        assert rec.passed
    generic = concentration_check(c4, 4, DiracMixture(((0.6, 1.0),)), trials=5, seed=0)
    assert generic.rows[0]["max_dev"] <= 1e-15  # pow vs product rounding only


def test_concentration_trend_d1(c4):
    rec = concentration_scan(c4, dirac_d1(), (16, 32, 64, 128), trials=10, seed=1)
    medians = [r["median_dev"] for r in rec.rows]
    assert medians == sorted(medians, reverse=True)
    assert rec.rows[0]["target"] == 0.5**4
    assert rec.passed


def test_concentration_d4_target(c4):
    rec = concentration_check(c4, 64, dirac_d4(0.5), trials=10, seed=0)
    assert rec.rows[0]["target"] == 0.375**4


def test_concentration_grid_must_increase(c4):
    with pytest.raises(ValueError, match="increasing"):
        concentration_scan(c4, dirac_d1(), (32, 16), trials=2, seed=0)


@pytest.mark.parametrize(
    "edges,n_grid,trials,match",
    [(True, (16, 32), 0, "trials"), (True, (), 2, "n_grid"), (False, (16, 32), 2, "edge")],
    ids=["no-trials", "empty-grid", "edgeless"],
)
def test_concentration_rejects_degenerate_inputs(c4, edges, n_grid, trials, match):
    h = c4 if edges else Graph(4, frozenset())
    with pytest.raises(ValueError, match=match):
        concentration_scan(h, dirac_d1(), n_grid, trials=trials, seed=0)
    if n_grid:
        with pytest.raises(ValueError, match=match):
            concentration_check(h, n_grid[0], dirac_d1(), trials=trials, seed=0)


# ---------------------------------------------------------------------------
# Distribution identities for block-random combinations
# ---------------------------------------------------------------------------

def _block_values(w):
    # Upper triangle including the diagonal: one entry per sampled block.
    idx = np.triu_indices(w.part_count)
    return w.values[idx]


def _chi_square_atoms(observed, mixture):
    values, counts = np.unique(observed, return_counts=True)
    atom_probs = {}
    for v, p in mixture.atoms:
        atom_probs[v] = atom_probs.get(v, 0.0) + p
    assert set(values) <= set(atom_probs), f"unexpected atoms {set(values) - set(atom_probs)}"
    total = counts.sum()
    f_obs = [counts[list(values).index(v)] if v in values else 0 for v in atom_probs]
    f_exp = [p * total for p in atom_probs.values()]
    return chisquare(f_obs, f_exp)


def _paired_samples(n, seeds):
    for seed in seeds:
        u1 = sample_block_random(n, dirac_d1(), derive_seed("ident", seed, 1))
        u2 = sample_block_random(n, dirac_d1(), derive_seed("ident", seed, 2))
        yield u1, u2


def test_difference_distributed_like_coin():
    observed = np.concatenate(
        [_block_values(absolute(subtract(u1, u2))) for u1, u2 in _paired_samples(64, range(50))]
    )
    result = _chi_square_atoms(observed, dirac_d1())
    assert result.pvalue > 0.001


def test_midpoint_distributed_like_three_atom_mixture():
    observed = np.concatenate(
        [_block_values(scale(add(u1, u2), 0.5)) for u1, u2 in _paired_samples(64, range(50))]
    )
    result = _chi_square_atoms(observed, dirac_d2())
    assert result.pvalue > 0.001


def test_scaled_difference_matches_four_atom_mixture():
    eps = 0.3
    observed = np.concatenate(
        [
            _block_values(absolute(combine(1.0, u1, -eps, u2)))
            for u1, u2 in _paired_samples(48, range(40))
        ]
    )
    result = _chi_square_atoms(observed, dirac_d3(eps))
    assert result.pvalue > 0.001


def test_scaled_sum_matches_shifted_mixture():
    eps = 0.3
    observed = np.concatenate(
        [
            _block_values(scale(combine(1.0, u1, eps, u2), 0.5))
            for u1, u2 in _paired_samples(48, range(40))
        ]
    )
    result = _chi_square_atoms(observed, dirac_d4(eps))
    assert result.pvalue > 0.001


# ---------------------------------------------------------------------------
# Convexity witnesses
# ---------------------------------------------------------------------------

def test_convexity_witness_values(c4):
    est = convexity_witness(c4, 0.5, 128, seed=0)
    assert est.kind == CONVEXITY
    assert abs(est.separation - 1.0) < 0.1
    assert abs(est.value) < 0.1
    assert est.value >= -1e-9


def test_degenerate_midpoint_has_zero_deficiency(c4):
    est = convexity_witness(c4, 0.5, 32, seed=0)
    x, _ = est.witnesses
    # Midpoint of x with itself is x; deficiency vanishes up to rounding.
    self_mid = 1.0 - norm_rh(c4, combine(0.5, x, 0.5, x))
    assert self_mid == pytest.approx(0.0, abs=1e-12)


def test_witness_normalization_contract(c4):
    for seed in range(5):
        est = convexity_witness(c4, 0.5, 64, seed=seed)
        for w in est.witnesses:
            assert norm_rh(c4, w) == pytest.approx(1.0, abs=1e-12)


def test_witness_revalidation(c4):
    for seed in (0, 3):
        est = convexity_witness(c4, 0.5, 32, seed=seed)
        assert est.revalidate() == pytest.approx(est.value, abs=1e-9)
        est = smoothness_witness(c4, 0.25, 32, seed=seed)
        assert est.revalidate() == pytest.approx(est.value, abs=1e-9)


def test_deficiency_trend(c4):
    medians = []
    for n in (16, 64):
        medians.append(median(convexity_witness(c4, 0.5, n, seed=s).value for s in range(10)))
    assert medians[1] < medians[0]


def test_tiny_block_counts_resample_zero_norms(c4):
    # A sample is all-zero with probability 1/2 at n=1 and 1/8 at n=2, which
    # forces a retry on the next attempt's stream; the witness must still
    # come back normalized.
    assert any(not _witness_sample(1, seed, "u1", 0).values.any() for seed in range(10))
    for n in (1, 2):
        for seed in range(10):
            est = convexity_witness(c4, 0.5, n, seed=seed)
            for w in est.witnesses:
                assert norm_rh(c4, w) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
def test_witness_samples_are_symmetric_coin_kernels(n):
    for seed, role, attempt in [(0, "u1", 0), (7, "u2", 0), (2**64 - 1, "u1", 3)]:
        w = _witness_sample(n, seed, role, attempt)
        assert np.array_equal(w.measures, np.full(n, 1.0 / n))
        assert np.array_equal(w.values, w.values.T)
        assert set(np.unique(w.values)) <= {0.0, 1.0}
        # block (i, j), i <= j, takes the next uniform of the stream, row by row
        u = iter(key_uniforms(f"moduli/{role}/{seed}/{attempt}/{n}", n * (n + 1) // 2).tolist())
        for i in range(n):
            for j in range(i, n):
                assert w.values[i, j] == dirac_d1().pick(next(u))
    big = _witness_sample(128, 0, "u1", 0).values
    assert 0.45 < big.mean() < 0.55


# ---------------------------------------------------------------------------
# Smoothness witnesses
# ---------------------------------------------------------------------------

def test_smoothness_witness_near_half_eps(c4):
    vals = [smoothness_witness(c4, 0.5, 128, seed=s).value for s in range(10)]
    assert abs(median(vals) - 0.25) < 0.1


def test_smoothness_witness_nonnegative(c4):
    for seed in range(5):
        est = smoothness_witness(c4, 0.25, 32, seed=seed)
        assert est.value >= -1e-9


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5])
def test_witness_eps_range(c4, eps):
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        convexity_witness(c4, eps, 16, seed=0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        smoothness_witness(c4, eps, 16, seed=0)


def test_triangle_inequality_on_sampled_pairs(c4, k12):
    # Valid for these hosts since the absolute-density functional is a norm.
    for g in (c4, k12):
        for seed in range(10):
            u1 = sample_block_random(16, dirac_d1(), derive_seed("tri", seed, 1))
            u2 = sample_block_random(16, dirac_d1(), derive_seed("tri", seed, 2))
            lhs = norm_rh(g, add(u1, u2))
            rhs = norm_rh(g, u1) + norm_rh(g, u2)
            assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def test_scan_cell_matches_witness(c4):
    ests = modulus_scan(c4, "smoothness", [0.5], [32], [7])
    direct = smoothness_witness(c4, 0.5, 32, 7)
    assert len(ests) == 1
    assert ests[0].value == direct.value


@pytest.mark.parametrize("kind", ["convexity", "smoothness"])
def test_every_scan_cell_matches_its_witness(kind):
    h = complete_bipartite(2, 3)
    eps_grid, n_grid, seeds = [0.25, 0.5, 0.75], [8, 24], [0, 11]
    witness = convexity_witness if kind == "convexity" else smoothness_witness
    ests = modulus_scan(h, kind, eps_grid, n_grid, seeds)
    cells = [(eps, n, seed) for eps in eps_grid for n in n_grid for seed in seeds]
    assert [(e.epsilon, e.n, e.seed) for e in ests] == cells
    for e, (eps, n, seed) in zip(ests, cells):
        direct = witness(h, eps, n, seed)
        assert (e.kind, e.value, e.separation) == (direct.kind, direct.value, direct.separation)
        for a, b in zip(e.witnesses, direct.witnesses):
            assert a.values.tobytes() == b.values.tobytes()
    # one sample pair per (n, seed), shared by every epsilon
    by_cell = {(e.n, e.seed): e.witnesses for e in ests[: len(n_grid) * len(seeds)]}
    assert all(e.witnesses is by_cell[e.n, e.seed] for e in ests)


def test_scan_rejects_out_of_range_eps(c4):
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        modulus_scan(c4, "convexity", [1.5], [16], [0])


@pytest.mark.parametrize("n", [0, -1])
def test_block_count_below_one_rejected(c4, n):
    with pytest.raises(ValueError, match="at least 1"):
        modulus_scan(c4, "convexity", [0.5], [16, n], [0])
    with pytest.raises(ValueError, match="at least 1"):
        smoothness_witness(c4, 0.5, n, seed=0)


def test_block_count_rejected_before_any_sample_when_a_step_would_not_fit():
    # K4 contracts through a parts^3 step: 400 parts need 6.4e7 elements,
    # while one 400-part sample would already take 1.28 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="contraction needs a step"):
            modulus_scan(complete(4), "convexity", [0.5], [16, 400], [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scan_csv_format(c4):
    ests = modulus_scan(c4, "convexity", [0.5], [16, 32], [0, 1])
    csv = estimates_to_csv(ests)
    lines = csv.strip().splitlines()
    assert lines[0] == "graph,kind,epsilon,n,seed,value"
    assert len(lines) == 5
    assert lines[1].startswith(graph_label(c4))


# ---------------------------------------------------------------------------
# Sequence-space embedding
# ---------------------------------------------------------------------------

def test_embedding_identity_c4(c4):
    report = lp_embedding_check(c4, (1.0, 1.0))
    assert report.value == pytest.approx(2.0, rel=1e-12)
    assert report.ok
    assert report.contrast_value == pytest.approx(4.0, rel=1e-10)
    assert report.contrast_sum == pytest.approx(2.0, rel=1e-12)
    assert report.contrast_ratio >= 1.5


def test_embedding_single_coefficient(k12):
    report = lp_embedding_check(k12, (0.7,))
    assert report.value == pytest.approx(0.7**2, rel=1e-12)
    assert report.ok


def test_embedding_rejects_disconnected(c4):
    with pytest.raises(ValueError, match="connected"):
        lp_embedding_check(disjoint_union(c4, c4), (1.0,))


def test_embedding_star_exponent():
    g = star(3)
    report = lp_embedding_check(g, (0.5, 1.2, 0.9))
    assert report.gamma == pytest.approx(4 / 3)
    assert report.value == pytest.approx(sum(x**3 for x in (0.5, 1.2, 0.9)), rel=1e-10)

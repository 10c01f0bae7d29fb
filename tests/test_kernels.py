"""Step kernel constructors, pointwise algebra, sampling, serialization."""

from __future__ import annotations

import hashlib
import math
import random
from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import (
    DiracMixture,
    PartitionMismatchError,
    SpecialKernelSpec,
    StepKernel,
    absolute,
    add,
    combine,
    common_refinement,
    constant_kernel,
    cycle,
    density,
    dirac_d1,
    dirac_d2,
    dirac_d3,
    dirac_d4,
    half_square_kernel,
    is_graphon,
    is_nonnegative,
    kernel_from_json,
    kernel_to_json,
    ones_like,
    sample_block_random,
    scale,
    special_kernel,
    subtract,
)
from graphnorms.norming import _VALUE_GRID
from conftest import random_kernel


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def test_constant_kernel_density_is_power(c4):
    assert density(c4, constant_kernel(1.0)) == 1.0
    assert density(c4, constant_kernel(0.0)) == 0.0
    assert density(c4, constant_kernel(0.5)) == 0.5**4


def test_half_square_kernel_shape():
    w = half_square_kernel()
    assert w.measures.tolist() == [0.5, 0.5]
    assert w.values.tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_special_kernel_single_coefficient():
    w = special_kernel(1.0, (1.0,))
    assert w.measures.tolist() == [0.5, 0.5]
    assert w.values.tolist() == [[2.0, 0.0], [0.0, 0.0]]


def test_special_kernel_two_coefficients():
    w = special_kernel(1.0, (1.0, 1.0))
    assert w.measures.tolist() == [0.5, 0.25, 0.25]
    assert np.diag(w.values).tolist() == [2.0, 4.0, 0.0]
    off = w.values - np.diag(np.diag(w.values))
    assert not off.any()


@pytest.mark.parametrize("depth", [1, 5, 20, 50])
def test_special_kernel_measures_exactly_dyadic(depth):
    w = special_kernel(0.7, tuple(1.0 for _ in range(depth)))
    assert math.fsum(w.measures.tolist()) == 1.0
    assert float(w.measures.sum()) == 1.0


def test_special_kernel_keeps_the_checks_its_construction_can_fail():
    # 2^1000 * 1e300 overflows to inf; 2^1200 alone passes float range
    for gamma, a in ((1000.0, (1e300,)), (600.0, (1.0, 1.0))):
        with pytest.raises(ValueError, match="^measures and values must be finite$"):
            special_kernel(gamma, a)
    with pytest.raises(ValueError, match="positive"):
        special_kernel(0.5, (1.0,) * 1100)  # 2^-1100 underflows to 0


def test_special_kernel_spec_round_trip():
    spec = SpecialKernelSpec(gamma=1.5, a=(0.3, 0.7))
    assert spec.depth == 2
    w = spec.build()
    assert w.part_count == 3
    with pytest.raises(ValueError):
        SpecialKernelSpec(gamma=0.0, a=(1.0,))
    with pytest.raises(ValueError):
        SpecialKernelSpec(gamma=1.0, a=())


def test_kernel_validation_errors():
    with pytest.raises(ValueError, match="positive"):
        StepKernel(np.array([0.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="sum to 1"):
        StepKernel(np.array([0.3, 0.3]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        StepKernel(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        StepKernel(np.array([1.0]), np.array([[np.inf]]))


def test_kernels_are_frozen():
    w = half_square_kernel()
    with pytest.raises(ValueError):
        w.values[0, 0] = 2.0


# ---------------------------------------------------------------------------
# Dirac mixtures
# ---------------------------------------------------------------------------

def test_mixture_means():
    assert dirac_d1().mean == 0.5
    assert dirac_d2().mean == 0.5
    for eps in (0.1, 0.5, 0.9):
        assert dirac_d3(eps).mean == pytest.approx(0.5, abs=1e-15)
        assert dirac_d4(eps).mean == pytest.approx((1 + eps) / 4, abs=1e-15)
    assert dirac_d4(0.5).mean == 0.375


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 1.5])
def test_mixture_eps_range(eps):
    with pytest.raises(ValueError):
        dirac_d3(eps)
    with pytest.raises(ValueError):
        dirac_d4(eps)


def test_mixture_validation():
    with pytest.raises(ValueError):
        DiracMixture(((1.5, 1.0),))
    with pytest.raises(ValueError):
        DiracMixture(((0.5, 0.7), (0.6, 0.7)))
    with pytest.raises(ValueError):
        DiracMixture(())


def test_mixture_pick_quantiles():
    d = dirac_d2()
    assert d.pick(0.0) == 0.0
    assert d.pick(0.3) == 0.5
    assert d.pick(0.9) == 1.0


# ---------------------------------------------------------------------------
# Block-random sampling
# ---------------------------------------------------------------------------

def test_sampling_reproducible_bit_exact():
    a = sample_block_random(16, dirac_d1(), 123)
    b = sample_block_random(16, dirac_d1(), 123)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.measures, b.measures)
    c = sample_block_random(16, dirac_d1(), 124)
    assert not np.array_equal(a.values, c.values)


def test_sampling_single_atom_is_constant():
    d = DiracMixture(((0.7, 1.0),))
    for seed in (0, 1, 99):
        w = sample_block_random(5, d, seed)
        assert np.all(w.values == 0.7)


def test_sampling_single_part():
    w = sample_block_random(1, dirac_d1(), 3)
    assert w.part_count == 1
    assert w.values[0, 0] in (0.0, 1.0)


def test_sampling_symmetric():
    w = sample_block_random(20, dirac_d2(), 5)
    assert np.array_equal(w.values, w.values.T)


def _reference_pick(d: DiracMixture, u: float) -> float:
    """The original DiracMixture.pick: a linear scan of the running sums."""
    acc = 0.0
    for v, p in d.atoms:
        acc += p
        if u < acc:
            return v
    return d.atoms[-1][0]


def _reference_block_random(n: int, d: DiracMixture, seed: int) -> np.ndarray:
    """Block values by the original per-block formula: one sha256 counter
    per block, picked by the linear scan."""
    values = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            key = "/".join(str(p) for p in ("block", seed, i, j))
            u = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big") / 2.0**64
            values[i, j] = values[j, i] = _reference_pick(d, u)
    return values


_MIXTURES = [dirac_d1(), dirac_d2(), dirac_d3(0.3), _VALUE_GRID]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 33]),
    st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    st.sampled_from(_MIXTURES),
)
def test_sampling_matches_per_block_formula(n, seed, d):
    w = sample_block_random(n, d, seed)
    assert w.values.tobytes() == _reference_block_random(n, d, seed).tobytes()
    assert np.array_equal(w.measures, np.full(n, 1.0 / n))


# ten atoms of 0.1: the running sums end at 0.9999999999999999 < 1
_PICK_MIXTURES = _MIXTURES + [DiracMixture(tuple((k / 10, 0.1) for k in range(10)))]


def _boundaries(d: DiracMixture) -> list[float]:
    return [sum(p for _, p in d.atoms[: k + 1]) for k in range(len(d.atoms))]


@given(st.sampled_from(_PICK_MIXTURES), st.floats(0.0, 1.0, exclude_max=True))
def test_mixture_pick_matches_linear_scan(d, u):
    for q in (u, *_boundaries(d)):
        assert d.pick(q) == _reference_pick(d, q)


@given(st.sampled_from(_PICK_MIXTURES), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_mixture_pick_many_matches_pick(d, us):
    # every atom boundary, the float just below it, and the free draws
    edges = _boundaries(d)
    qs = np.array(us + edges + [math.nextafter(b, 0.0) for b in edges])
    picked = d.pick_many(qs)
    assert picked.shape == qs.shape
    assert picked.tolist() == [d.pick(q) for q in qs.tolist()]


@st.composite
def mixtures(draw):
    """1-4 atoms with values in [0, 1] and integer weights over their sum."""
    count = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    weights = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    return DiracMixture(tuple((v, w / sum(weights)) for v, w in zip(values, weights)))


@given(mixtures(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_random_mixture_pick_many_matches_pick(d, us):
    # pick_many counts the running sums at or below each quantile; pick
    # bisects them.  Each running sum and its neighboring floats are drawn.
    edges = _boundaries(d)
    qs = np.array(us + [0.0] + [q for b in edges for q in (math.nextafter(b, 0.0), b, math.nextafter(b, 1.0))])
    qs = qs[qs < 1.0]
    assert d.pick_many(qs).tolist() == [d.pick(q) for q in qs.tolist()]


def test_one_minus_sample_looks_like_sample():
    # 1 - U has the same block distribution as U; paired densities at n=64
    # should show no systematic gap.
    c4 = cycle(4)
    gaps = []
    for seed in range(50):
        u = sample_block_random(64, dirac_d1(), seed)
        flipped = combine(-1.0, u, 1.0, ones_like(u))
        gaps.append(abs(density(c4, u) - density(c4, flipped)))
    assert median(gaps) < 0.02


# ---------------------------------------------------------------------------
# Pointwise algebra
# ---------------------------------------------------------------------------

def test_absolute_of_negative_constant():
    w = absolute(constant_kernel(-0.5))
    assert w.values.tolist() == [[0.5]]


def test_combine_cancels():
    rng = random.Random(1)
    w = random_kernel(rng, signed=True)
    z = combine(1.0, w, -1.0, w)
    assert not z.values.any()


def test_pointwise_add_sub_scale():
    rng = random.Random(4)
    w = random_kernel(rng, max_parts=3)
    assert np.allclose(add(w, w).values, 2 * w.values)
    assert not subtract(w, w).values.any()
    assert np.allclose(scale(w, -2.0).values, -2.0 * w.values)


def test_mismatched_partitions_rejected():
    with pytest.raises(PartitionMismatchError, match="common_refinement"):
        add(constant_kernel(1.0), half_square_kernel())


def test_values_outside_unit_interval_allowed():
    w = constant_kernel(3.5)
    assert not is_graphon(w)
    assert is_nonnegative(w)
    assert is_graphon(half_square_kernel())
    assert not is_nonnegative(constant_kernel(-1.0))


@settings(max_examples=40)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_combine_matches_manual_arithmetic(alpha, beta):
    w1 = half_square_kernel()
    w2 = StepKernel(np.array([0.5, 0.5]), np.array([[0.25, 1.0], [1.0, -0.5]]))
    out = combine(alpha, w1, beta, w2)
    assert np.allclose(out.values, alpha * w1.values + beta * w2.values)


@st.composite
def _kernel_pairs(draw):
    """Two signed kernels on one partition, given as equal but distinct measure arrays."""
    parts = draw(st.integers(1, 5))
    raw = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=parts, max_size=parts)))
    measures = raw / raw.sum()
    finite = st.floats(-1e3, 1e3, allow_subnormal=False)
    pair = []
    for _ in range(2):
        upper = np.triu(np.array(draw(st.lists(finite, min_size=parts * parts, max_size=parts * parts))).reshape(
            parts, parts))
        pair.append(StepKernel(measures.copy(), upper + np.triu(upper, 1).T))
    return pair


@settings(max_examples=60, deadline=None)
@given(_kernel_pairs(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_derived_kernels_equal_their_validated_construction(pair, alpha, beta):
    w1, w2 = pair
    cases = [
        (add(w1, w2), w1.values + w2.values),
        (subtract(w1, w2), w1.values - w2.values),
        (scale(w1, alpha), alpha * w1.values),
        (absolute(w1), np.abs(w1.values)),
        (combine(alpha, w1, beta, w2), alpha * w1.values + beta * w2.values),
        (ones_like(w1), np.ones(w1.values.shape)),
    ]
    for derived, values in cases:
        checked = StepKernel(w1.measures, values)
        assert derived.measures is w1.measures
        assert derived.values.dtype == checked.values.dtype == np.float64
        assert derived.values.tobytes() == checked.values.tobytes()
        assert np.array_equal(derived.values, derived.values.T)
        assert not derived.values.flags.writeable
        assert derived.same_partition(w1) and derived.same_partition(w2)


def test_derived_kernel_overflow_is_rejected():
    w = constant_kernel(1e300)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            scale(w, 1e10)
        with pytest.raises(ValueError, match="finite"):
            combine(1e10, w, 1e10, w)
        with pytest.raises(ValueError, match="finite"):
            add(constant_kernel(1.7e308), constant_kernel(1.7e308))


# ---------------------------------------------------------------------------
# Common refinement
# ---------------------------------------------------------------------------

def test_refinement_of_constants():
    a, b = common_refinement(constant_kernel(0.3), constant_kernel(0.8))
    assert np.all(a.values == 0.3)
    assert np.all(b.values == 0.8)


def test_refinement_part_count():
    w2 = half_square_kernel()
    w3 = sample_block_random(3, dirac_d2(), 0)
    a, b = common_refinement(w2, w3)
    assert a.part_count == b.part_count == 6
    assert a.same_partition(b)


def test_refinement_preserves_density():
    c4 = cycle(4)
    rng = random.Random(8)
    for _ in range(10):
        w1 = random_kernel(rng, max_parts=3, signed=True)
        w2 = random_kernel(rng, max_parts=3)
        r1, r2 = common_refinement(w1, w2)
        assert density(c4, r1) == pytest.approx(density(c4, w1), rel=1e-12)
        assert density(c4, r2) == pytest.approx(density(c4, w2), rel=1e-12)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_kernel_json_round_trip():
    rng = random.Random(6)
    for _ in range(10):
        w = random_kernel(rng, signed=True)
        back = kernel_from_json(kernel_to_json(w))
        assert np.array_equal(back.measures, w.measures)
        assert np.array_equal(back.values, w.values)


def test_kernel_json_rejects_values_beyond_float_range():
    with pytest.raises(ValueError, match="bad kernel JSON"):
        kernel_from_json({"measures": [1.0], "values": [[10**400]]})
    with pytest.raises(ValueError, match="bad kernel JSON"):
        kernel_from_json({"measures": [10**400], "values": [[1.0]]})


def test_kernel_json_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        kernel_from_json({"measures": [0.5, 0.5], "values": [[0.0, 1.0], [0.9, 0.0]]})
    with pytest.raises(ValueError):
        kernel_from_json({"values": [[1.0]]})

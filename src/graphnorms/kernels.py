"""Step kernels: symmetric piecewise-constant functions on a partitioned space.

A kernel is a vector of part measures (positive, summing to 1) plus a
symmetric matrix of block values.  Values may leave [0, 1]: being a
graphon is a predicate here, not an invariant.  Kernels are immutable
after construction; the backing arrays are locked read-only.

Outside data always goes through the full validation of `StepKernel(...)`:
`kernel_from_json` in particular keeps every check.  Internal builders
whose arrays are valid by construction go through the private `_trusted`
instead, which locks the arrays without copying them and checks only that
the values are finite, since a computed value can overflow:

- the pointwise algebra (`add`, `subtract`, `scale`, `absolute`, `combine`,
  `ones_like`), through `_derived`: elementwise operations on exactly
  symmetric arrays of one shape are exactly symmetric, and the result
  shares its operand's validated measures array;
- `sample_block_random` and `moduli._witness_sample`: n equal parts from the
  cached `_equal_parts(n)`, and values mirrored across the diagonal;
- `special_kernel`: dyadic measures 2^-1, ..., 2^-n, 2^-n, whose exact sum
  is 1 (an underflowing 2^-n is still rejected), on a diagonal matrix;
- the Hoelder search's indicator family: measures (theta, 1 - theta) with
  theta in [0.1, 0.9], on fixed symmetric 0/1 patterns;
- its rank-one family: n equal parts, and values v v^T, exactly symmetric
  because floating-point products commute.

Kernels of one builder that share a measures array pass `same_partition`
by identity, so a `Decoration` of them is checked without comparing arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .seeding import key_uniform

MEASURE_TOL = 1e-12


class PartitionMismatchError(ValueError):
    """Binary kernel operation attempted across different partitions."""


@dataclass(frozen=True, eq=False)
class StepKernel:
    measures: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        measures = np.array(self.measures, dtype=np.float64)
        values = np.array(self.values, dtype=np.float64)
        if measures.ndim != 1 or measures.size == 0:
            raise ValueError("measures must be a non-empty vector")
        k = measures.size
        if values.shape != (k, k):
            raise ValueError(f"values must be a {k}x{k} matrix, got shape {values.shape}")
        if not np.all(np.isfinite(measures)) or not np.all(np.isfinite(values)):
            raise ValueError("measures and values must be finite")
        if not np.all(measures > 0.0):
            raise ValueError("part measures must be strictly positive")
        if abs(float(measures.sum()) - 1.0) > MEASURE_TOL:
            raise ValueError(f"part measures must sum to 1 (got {float(measures.sum())!r})")
        if not np.array_equal(values, values.T):
            raise ValueError("values matrix must be exactly symmetric")
        measures.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "values", values)

    @property
    def part_count(self) -> int:
        return self.measures.size

    def same_partition(self, other: "StepKernel") -> bool:
        return self.measures is other.measures or np.array_equal(self.measures, other.measures)


def _trusted(measures: np.ndarray, values: np.ndarray) -> StepKernel:
    """A kernel from float64 arrays that are valid by construction: positive
    measures summing to 1 and an exactly symmetric values matrix to match.
    Both are locked, not copied; only the values' finiteness is checked."""
    if not np.isfinite(values).all():
        raise ValueError("measures and values must be finite")
    measures.setflags(write=False)
    values.setflags(write=False)
    out = object.__new__(StepKernel)
    object.__setattr__(out, "measures", measures)
    object.__setattr__(out, "values", values)
    return out


def _derived(w: StepKernel, values: np.ndarray) -> StepKernel:
    """A kernel on w's partition whose values were just computed pointwise
    from validated kernels of that partition; values is locked, not copied."""
    return _trusted(w.measures, values)


@lru_cache(maxsize=256)
def _equal_parts(n: int) -> np.ndarray:
    """The read-only measures of n equal parts, one array per n, so kernels
    built on it share their partition by identity."""
    measures = np.full(n, 1.0 / n)
    measures.setflags(write=False)
    return measures


def _require_same_partition(w1: StepKernel, w2: StepKernel, op: str) -> None:
    if not w1.same_partition(w2):
        raise PartitionMismatchError(
            f"{op}: kernels live on different partitions "
            f"({w1.part_count} vs {w2.part_count} parts); align them with common_refinement first"
        )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def constant_kernel(p: float) -> StepKernel:
    """One part of full measure with constant value p."""
    if not np.isfinite(p):
        raise ValueError("constant value must be finite")
    return StepKernel(np.array([1.0]), np.array([[float(p)]]))


def half_square_kernel() -> StepKernel:
    """Indicator of X x X for a set X of measure 1/2."""
    return StepKernel(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 0.0]]))


@dataclass(frozen=True)
class SpecialKernelSpec:
    """Diagonal kernel on dyadic parts: block i of measure 2^-i carries 2^(i*gamma) * a_i."""

    gamma: float
    a: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        if len(self.a) < 1:
            raise ValueError("coefficient vector must have length at least 1")

    @property
    def depth(self) -> int:
        return len(self.a)

    def build(self) -> StepKernel:
        return special_kernel(self.gamma, self.a)


def special_kernel(gamma: float, a: Sequence[float]) -> StepKernel:
    """Realize SpecialKernelSpec(gamma, a) as a step kernel.

    Uses N = len(a) dyadic parts plus a zero-valued remainder part of
    measure 2^-N, so the measures sum to 1 exactly.  For a truncated
    infinite coefficient sequence the homomorphism-density error of a
    connected m-edge graph is the dropped tail sum of |a_i|^m.
    """
    spec = SpecialKernelSpec(float(gamma), tuple(a))
    n = spec.depth
    measures = np.array([2.0 ** -(i + 1) for i in range(n)] + [2.0**-n])
    if measures[-1] == 0.0:  # 2^-n underflowed
        raise ValueError("part measures must be strictly positive")
    values = np.zeros((n + 1, n + 1))
    try:
        for i in range(n):
            values[i, i] = 2.0 ** ((i + 1) * spec.gamma) * spec.a[i]
    except OverflowError:  # the power alone passes float range
        raise ValueError("measures and values must be finite") from None
    return _trusted(measures, values)


# ---------------------------------------------------------------------------
# Mixtures of point masses on [0, 1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracMixture:
    """Finitely supported probability distribution on [0, 1]."""

    atoms: tuple[tuple[float, float], ...]
    _cumulative: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _values: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _value_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = tuple((float(v), float(p)) for v, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        for v, p in atoms:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"atom value {v} outside [0, 1]")
            if p <= 0.0:
                raise ValueError("atom probabilities must be positive")
        if abs(sum(p for _, p in atoms) - 1.0) > MEASURE_TOL:
            raise ValueError("atom probabilities must sum to 1")
        # Running probability sums, added left to right in atom order.  A
        # quantile past the last sum (it can fall short of 1 by rounding)
        # picks the last atom, hence the repeated last value.
        object.__setattr__(self, "_cumulative", tuple(accumulate(p for _, p in atoms)))
        object.__setattr__(self, "_values", tuple(v for v, _ in atoms) + (atoms[-1][0],))
        object.__setattr__(self, "_value_array", np.array(self._values))

    @property
    def mean(self) -> float:
        return sum(v * p for v, p in self.atoms)

    def pick(self, u: float) -> float:
        """Atom value at quantile u in [0, 1): the first atom whose running
        probability sum exceeds u."""
        return self._values[bisect_right(self._cumulative, u)]

    def pick_many(self, u: np.ndarray) -> np.ndarray:
        """pick applied to every entry of the quantile array u: the index
        of its atom is the number of running sums at or below it."""
        return self._value_array[sum(u >= c for c in self._cumulative)]


def dirac_d1() -> DiracMixture:
    """Fair coin on {0, 1}."""
    return DiracMixture(((0.0, 0.5), (1.0, 0.5)))


def dirac_d2() -> DiracMixture:
    """Quarter/half/quarter mixture on {0, 1/2, 1}."""
    return DiracMixture(((0.0, 0.25), (0.5, 0.5), (1.0, 0.25)))


def dirac_d3(eps: float) -> DiracMixture:
    """Uniform on {0, eps, 1-eps, 1}; requires eps in (0, 1)."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return DiracMixture(((0.0, 0.25), (float(eps), 0.25), (1.0 - eps, 0.25), (1.0, 0.25)))


def dirac_d4(eps: float) -> DiracMixture:
    """Uniform on {0, eps/2, 1/2, (1+eps)/2}; requires eps in (0, 1)."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return DiracMixture(((0.0, 0.25), (eps / 2.0, 0.25), (0.5, 0.25), ((1.0 + eps) / 2.0, 0.25)))


def sample_block_random(n: int, d: DiracMixture, seed: int) -> StepKernel:
    """Random block kernel: n equal parts, block (i, j) value drawn i.i.d. from d.

    The value of block (i, j), i <= j, is d.pick(counter_uniform("block",
    seed, i, j)), a pure function of (seed, i, j), so the sample is
    bit-exact reproducible and independent of iteration order.
    """
    if n < 1:
        raise ValueError("need at least one part")
    pick = d.pick
    rows: list[list[float]] = []
    for i in range(n):
        # row i: column i of the rows above it, then blocks (i, i), ..., (i, n - 1)
        rows.append([row[i] for row in rows] + [pick(key_uniform(f"block/{seed}/{i}/{j}")) for j in range(i, n)])
    return _trusted(_equal_parts(n), np.array(rows))


# ---------------------------------------------------------------------------
# Pointwise algebra
# ---------------------------------------------------------------------------

def add(w1: StepKernel, w2: StepKernel) -> StepKernel:
    _require_same_partition(w1, w2, "add")
    return _derived(w1, w1.values + w2.values)


def subtract(w1: StepKernel, w2: StepKernel) -> StepKernel:
    _require_same_partition(w1, w2, "subtract")
    return _derived(w1, w1.values - w2.values)


def scale(w: StepKernel, c: float) -> StepKernel:
    if not np.isfinite(c):
        raise ValueError("scale factor must be finite")
    return _derived(w, c * w.values)


def absolute(w: StepKernel) -> StepKernel:
    return _derived(w, np.abs(w.values))


def combine(alpha: float, w1: StepKernel, beta: float, w2: StepKernel) -> StepKernel:
    """alpha * w1 + beta * w2 on the shared partition."""
    _require_same_partition(w1, w2, "combine")
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError("coefficients must be finite")
    return _derived(w1, alpha * w1.values + beta * w2.values)


def ones_like(w: StepKernel) -> StepKernel:
    """Constant-1 kernel on the same partition as w."""
    k = w.part_count
    return _derived(w, np.ones((k, k)))


def is_nonnegative(w: StepKernel) -> bool:
    return bool(np.all(w.values >= 0.0))


def is_graphon(w: StepKernel) -> bool:
    return bool(np.all(w.values >= 0.0) and np.all(w.values <= 1.0))


def common_refinement(w1: StepKernel, w2: StepKernel) -> tuple[StepKernel, StepKernel]:
    """Re-express both kernels on the product partition.

    Part (i, j) of the refinement gets measure mu_i * mu'_j; each kernel
    keeps its own block values, so homomorphism densities are unchanged.
    """
    k1, k2 = w1.part_count, w2.part_count
    measures = np.outer(w1.measures, w2.measures).reshape(-1)
    ref1 = np.kron(w1.values, np.ones((k2, k2)))
    ref2 = np.kron(np.ones((k1, k1)), w2.values)
    return StepKernel(measures, ref1), StepKernel(measures, ref2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_JSON_NUMBERS = {int, float}


def kernel_to_json(w: StepKernel) -> dict:
    return {"measures": w.measures.tolist(), "values": w.values.tolist()}


def kernel_from_json(obj: dict) -> StepKernel:
    if not isinstance(obj, dict) or "measures" not in obj or "values" not in obj:
        raise ValueError("kernel JSON must have 'measures' and 'values' fields")
    measures, values = obj["measures"], obj["values"]
    try:
        # one C-level pass over the entries; numpy alone would read true as 1 and "0.5" as 0.5
        if not set(map(type, chain(measures, chain.from_iterable(values)))) <= _JSON_NUMBERS:
            raise ValueError("measures and values must be JSON numbers")
        return StepKernel(np.array(measures, dtype=np.float64), np.array(values, dtype=np.float64))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad kernel JSON: {exc}") from None

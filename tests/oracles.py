"""Test-local oracles: constructors and reference computations that only the
tests use, kept out of the library.

The kernel and splitting oracles run on the library's own uniformization
(``_poisson_sweep`` at the default tail), so they see the same floats that
``semigroup_apply`` computes.
"""

from fractions import Fraction

import numpy as np

from spincorr.dynamics import (
    DEFAULT_POISSON_TAIL,
    Generator,
    RateTable,
    _check_time,
    _poisson_sweep,
    birth_submodularity,
    semigroup_apply,
)
from spincorr.harness import _rng
from spincorr.lattice import BudgetError, configs, lattice_pairs, single_bit_pairs
from spincorr.measures import ProbabilityMeasure, WeightVector

BIRTH_REJECTION_BUDGET = 5000


def point_mass(n: int, config: int) -> ProbabilityMeasure:
    """All mass on one configuration: the product with site probabilities 0 or 1."""
    return ProbabilityMeasure.product([config >> x & 1 for x in range(n)])


def uniform(n: int) -> ProbabilityMeasure:
    return ProbabilityMeasure.product([Fraction(1, 2)] * n)


def scaled(vector: WeightVector, factor) -> WeightVector:
    return WeightVector(vector.n, tuple(w * factor for w in vector.weights), vector.mode)


def determinant_value(poly, weights):
    """p11 p00 - p10 p01 of an association determinant's four events."""
    p11, p00, p10, p01 = poly.event_probabilities(weights)
    return p11 * p00 - p10 * p01


def generator_sum(g1: Generator, g2: Generator) -> Generator:
    """The generator of both systems at once: rates added site by site."""
    if g1.n != g2.n:
        raise ValueError(f"site counts differ: {g1.n} vs {g2.n}")

    def added(a, b):
        return tuple(tuple(p + q for p, q in zip(ta, tb)) for ta, tb in zip(a, b))

    a, b = g1.rates, g2.rates
    return Generator(RateTable(g1.n, added(a.birth, b.birth), added(a.death, b.death)))


def uniformized_kernel(gen: Generator, t) -> np.ndarray:
    """Full transition matrix P_t under uniformization: the identity swept
    from the left, so row x is the law at time t started from x."""
    return _poisson_sweep(gen, np.eye(1 << gen.n), _check_time(t), DEFAULT_POISSON_TAIL)


def trotter_compose(g1: Generator, g2: Generator, measure, t, steps: int) -> ProbabilityMeasure:
    """[S1(t/m) S2(t/m)]^m acting on a measure; converges to the semigroup
    of g1 + g2 with first-order error in 1/m."""
    if g1.n != g2.n:
        raise ValueError(f"site counts differ: {g1.n} vs {g2.n}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    dt = _check_time(t) / steps
    for _ in range(steps):
        measure = semigroup_apply(g2, semigroup_apply(g1, measure, dt), dt)
    return measure


def tilt_table_is_valid(values, n: int, tolerance: float = 0.0):
    """Direct check of an arbitrary table: positive, decreasing, and
    log-supermodular (h(or)*h(and) >= h(eta)*h(zeta) over all pairs).
    Returns (ok, reason)."""
    vals = list(values)
    if len(vals) != 1 << n:
        return False, f"expected {1 << n} values"
    if any(not v > 0 for v in vals):
        return False, "not strictly positive"
    for lo, hi in single_bit_pairs(n):
        if vals[hi] - vals[lo] > tolerance * max(abs(vals[lo]), 1):
            return False, f"not decreasing at pair ({lo}, {hi})"
    # every incomparable pair, not only the squares: a tolerance granted on
    # each square compounds along a far pair, so squares would accept more
    for a, b in lattice_pairs(n, strictly_positive=False):
        slack = vals[a & b] * vals[a | b] - vals[a] * vals[b]
        if slack < -tolerance * max(abs(vals[a] * vals[b]), 1):
            return False, f"supermodularity fails at pair ({a}, {b})"
    return True, None


def random_single_site_birth(seed: int, n: int, site: int) -> RateTable:
    """Single-site birth system whose rate table is increasing and
    submodular, found by rejection over monotone closures of draws in
    {0, 1/4, ..., 3}."""
    rng = _rng(seed, n, salt=101 + site)
    for _ in range(BIRTH_REJECTION_BUDGET):
        values = [Fraction(rng.randrange(0, 13), 4) for _ in configs(n)]
        for lo, hi in single_bit_pairs(n):
            values[hi] = max(values[hi], values[lo])
        table = RateTable.single_site_birth(n, site, values)
        if birth_submodularity(table).holds:
            return table
    raise BudgetError(f"no increasing submodular table found in {BIRTH_REJECTION_BUDGET} draws")

"""The paper's claims at t = 0, audited exactly.

The Harris and conditional audits evaluate D, the t = 0 derivative of an
association determinant from a product start (``derivative_coefficients``),
at every start of the 9 x 9 grid (rho, lam) = (i/8, j/8), edges included,
with every other site at a background of 0, 1/8, 1/2, 7/8 or 1.  Each value
is exact: an integer over 8^4 times D's positive denominator.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from spincorr.dynamics import (
    RateTable,
    association_determinant_poly,
    birth_submodularity,
    births_additive,
    births_increasing,
    build_generator,
    contact_process,
    deaths_constant,
    derivative_at_zero,
    derivative_coefficients,
    is_attractive,
    path_edges,
    product_corners,
)
from spincorr.harness import random_spin_system, supermodular_single_birth
from spincorr.lattice import configs
from spincorr.measures import ProbabilityMeasure

BACKGROUNDS = tuple(Fraction(k, 8) for k in (0, 1, 4, 7, 8))


def grid_numerators(coefficients):
    """8^4 D(i/8, j/8) times D's denominator, for i, j = 0 .. 8."""
    for i in range(9):
        for j in range(9):
            yield sum(c * i**a * 8 ** (2 - a) * j**b * 8 ** (2 - b)
                      for a, row in enumerate(coefficients) for b, c in enumerate(row))


def determinant_values(system, conditioned=False):
    """Every grid value of D for each site pair x < y and background: of the
    plain determinant, or conditioned on zeros at each third site u."""
    n = system.n
    gen = build_generator(system)
    values = []
    for x, y in combinations(range(n), 2):
        zero_sets = [(u,) for u in range(n) if u not in (x, y)] if conditioned else [()]
        for background in BACKGROUNDS:
            corners = product_corners(gen, x, y, background)
            for zero_sites in zero_sets:
                poly = association_determinant_poly(n, x, y, zero_sites=zero_sites)
                coefficients, denominator = derivative_coefficients(poly, corners)
                assert denominator > 0
                values.extend(Fraction(v, denominator * 8**4) for v in grid_numerators(coefficients))
    return values


def assert_no_negative_value(system, conditioned=False):
    values = determinant_values(system, conditioned)
    assert len(values) == 405 * system.n * (system.n - 1) // 2 * (system.n - 2 if conditioned else 1)
    assert [v for v in values if v < 0] == []


def contact_path(k):
    return contact_process(path_edges(k))


class TestHarris:
    """Theorem 1.4: an attractive system preserves association, so no
    product start has a negative derivative of any site pair's determinant."""

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (2, 3, 4) for seed in range(6)])
    def test_attractive_draws(self, n, seed):
        system = random_spin_system(seed, n, "attractive")
        assert is_attractive(system).holds
        assert_no_negative_value(system)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_contact_paths(self, k):
        assert_no_negative_value(contact_path(k))


class TestConverse:
    """Section 2: a system that is not attractive breaks association.  From
    ``is_attractive``'s witness (site x, a birth or death, configurations
    lower and upper = lower + site y), the product start with p_x = 0 for a
    birth (1 for a death), p_y = 1/2 and every other site pinned to its spin
    in lower has cov(x, y) = 0 and derivative Var(y) times the witness slack,
    the report's margin / 4."""

    def test_the_witness_start_has_derivative_margin_over_four(self):
        kinds, mismatches = Counter(), []
        for n in (2, 3, 4, 5):
            for seed in range(15):
                system = random_spin_system(seed, n, "generic")
                report = is_attractive(system)
                if report.holds:
                    continue
                witness = report.witness
                x, lower = witness["site"], witness["lower"]
                y = (witness["upper"] ^ lower).bit_length() - 1
                ps = [Fraction(lower >> site & 1) for site in range(n)]
                ps[x] = Fraction(witness["kind"] == "death")
                ps[y] = Fraction(1, 2)
                derivative = derivative_at_zero(build_generator(system), ProbabilityMeasure.product(ps),
                                                association_determinant_poly(n, x, y))
                kinds[witness["kind"]] += 1
                if derivative != report.margin / 4:
                    mismatches.append((n, seed, derivative, report.margin))
        assert mismatches == []
        assert kinds == {"birth": 43, "death": 16}


def additive_system(seed, n):
    """Constant deaths; each birth rate a nonnegative combination of
    'some site of A occupied' over nonempty sets A of other sites."""
    rng = random.Random(seed)
    coefficients = [{a: Fraction(rng.randrange(3), 2) for a in configs(n) if a and not a >> x & 1}
                    for x in range(n)]
    deaths = [Fraction(rng.randrange(1, 5), 2) for _ in range(n)]
    return RateTable.from_site_functions(
        n, lambda x, c: sum((w for a, w in coefficients[x].items() if a & c), Fraction(0)),
        lambda x, c: deaths[x])


def capped_system(seed, n):
    """Constant deaths; births w * min(cap, number of occupied other sites),
    increasing and submodular."""
    rng = random.Random(seed)
    weights = [Fraction(rng.randrange(1, 5), 2) for _ in range(n)]
    caps = [rng.randrange(1, n) for _ in range(n)]
    deaths = [Fraction(rng.randrange(1, 5), 2) for _ in range(n)]
    return RateTable.from_site_functions(
        n, lambda x, c: weights[x] * min(caps[x], (c & ~(1 << x)).bit_count()),
        lambda x, c: deaths[x])


class TestConditionalTheorems:
    """Constant deaths with additive births preserve downward FKG, and with
    increasing, submodular births preserve DCA.  Either way the determinant
    conditioned on a zero at a third site has no negative derivative at a
    product start."""

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (3, 4) for seed in range(10)])
    def test_additive_births(self, n, seed):
        system = additive_system(seed, n)
        assert births_additive(system).holds and deaths_constant(system).holds
        assert_no_negative_value(system, conditioned=True)

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (3, 4) for seed in range(10)])
    def test_increasing_submodular_births(self, n, seed):
        system = capped_system(seed, n)
        assert births_increasing(system).holds and birth_submodularity(system).holds
        assert deaths_constant(system).holds
        assert_no_negative_value(system, conditioned=True)

    def test_capped_births_reach_past_additive(self):
        assert sum(births_additive(capped_system(seed, 4)).fails for seed in range(10)) == 6

    @pytest.mark.parametrize("k", [3, 4])
    def test_contact_paths(self, k):
        assert_no_negative_value(contact_path(k), conditioned=True)

    def test_a_supermodular_birth_goes_negative(self):
        assert min(determinant_values(supermodular_single_birth(), conditioned=True)) == Fraction(-1, 16)

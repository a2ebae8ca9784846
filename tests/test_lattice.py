import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import uniform
from test_measures import covariance

from spincorr.dynamics import RateTable
from spincorr.harness import evaluate_property, random_increasing_table, random_measure
from spincorr.lattice import (
    BudgetError,
    enumerate_up_sets,
    lattice_pairs,
    single_bit_pairs,
    up_set_matrix,
    up_set_members,
)
from spincorr.measures import (
    ProbabilityMeasure,
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
    satisfies_lattice,
)
from spincorr.tilts import dca_falsify


def is_up_set(members, n):
    """Oracle: the membership mask is closed under raising any coordinate."""
    return all(members >> hi & 1 or not members >> lo & 1 for lo, hi in single_bit_pairs(n))


def decompose_increasing(values, n):
    """Oracle: the layer-cake decomposition of an increasing f, as
    (constant, ((coefficient, up-set mask), ...)).

    The term for level v is (v - previous level) times the indicator of
    {f >= v}, an up-set because f is increasing; reconstruction is exact.
    """
    levels = sorted(set(values))
    terms = []
    for prev, level in zip(levels, levels[1:]):
        members = sum(1 << c for c in range(1 << n) if values[c] >= level)
        terms.append((level - prev, members))
    return levels[0], tuple(terms)


def brute_force_up_sets(n):
    """Oracle: filter every subset of the configuration space for upward closure."""
    size = 1 << n
    return [m for m in range(1 << size) if is_up_set(m, n)]


def count_antichains(n):
    """Oracle: count antichains of the configuration poset by DFS extension.

    Every up-set is determined by its antichain of minimal elements, so
    the counts agree.
    """
    size = 1 << n

    def incomparable(a, b):
        return (a & ~b != 0) and (b & ~a != 0)

    def extend(start, chosen):
        total = 1  # the antichain 'chosen' itself
        for nxt in range(start, size):
            if all(incomparable(nxt, c) for c in chosen):
                chosen.append(nxt)
                total += extend(nxt + 1, chosen)
                chosen.pop()
        return total

    return extend(0, [])


class TestOrderPrimitives:
    def test_single_bit_pairs_ascending_by_lower(self):
        pairs = list(single_bit_pairs(3))
        assert len(pairs) == 3 * 4
        assert all((hi ^ lo).bit_count() == 1 and hi > lo for lo, hi in pairs)
        assert [lo for lo, _ in pairs] == sorted(lo for lo, _ in pairs)

    def test_positive_tables_get_the_squares(self):
        pairs = list(lattice_pairs(3, strictly_positive=True))
        assert len(pairs) == 3 * 2
        assert sorted(pairs) == [
            (a, b) for a in range(8) for b in range(a + 1, 8)
            if (a ^ b).bit_count() == 2 and a & ~b and b & ~a
        ]

    def test_other_tables_get_every_incomparable_pair(self):
        oracle = [
            (a, b) for a in range(8) for b in range(a + 1, 8)
            if a & ~b and b & ~a
        ]
        assert list(lattice_pairs(3, strictly_positive=False)) == oracle


class TestSiteCount:
    def test_bool_is_not_a_site_count(self):
        # isinstance(True, int) holds, so True used to count as one site
        with pytest.raises(ValueError, match="site count must be an integer"):
            WeightVector(True, (1, 1))
        for build in (
            lambda: RateTable.independent_flips(True, [1], [1]),
            lambda: RateTable.from_site_functions(True, lambda x, c: 1, lambda x, c: 1),
        ):
            with pytest.raises(ValueError, match="site count must be an integer"):
                build()


class TestEnumerateUpSets:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 6), (3, 20), (4, 168)])
    def test_counts_match_filter_oracle(self, n, count):
        oracle = brute_force_up_sets(n)
        got = enumerate_up_sets(n)
        assert list(got) == oracle
        assert len(got) == count

    def test_five_sites_cross_checked_by_antichain_count(self):
        got = enumerate_up_sets(5)
        assert len(got) == 7581
        assert count_antichains(5) == 7581
        assert all(is_up_set(m, 5) for m in got)
        assert list(got) == sorted(set(got))

    def test_six_sites_refused_by_up_set_checks(self):
        limit = "up-set checks stop at 5 sites"
        mu = normalize(random_measure(0, 6, "generic"))
        checks = [
            lambda: enumerate_up_sets(6),
            lambda: up_set_matrix(6),
            lambda: is_associated(mu),
            lambda: is_associated(ProbabilityMeasure.floats(mu.as_float_array())),
            lambda: is_downward_fkg(mu),
            lambda: dca_falsify(mu, budget=1),
        ] + [
            lambda name=name: evaluate_property(name, mu, tilt_budget=1)
            for name in ("associated", "downward-fkg", "dca")
        ]
        for check in checks:
            with pytest.raises(BudgetError, match=limit):
                check()
        # the lattice condition still decides six sites
        assert satisfies_lattice(uniform(6)).holds
        assert satisfies_lattice(mu).fails

    def test_membership_matrix_matches_masks(self):
        masks = enumerate_up_sets(3)
        matrix = up_set_matrix(3)
        for i, members in enumerate(masks):
            assert tuple(c for c in range(8) if matrix[i, c]) == up_set_members(members)


class TestDecomposeIncreasing:
    def test_coordinate_function(self):
        values = [Fraction(c >> 0 & 1) for c in range(8)]
        base, terms = decompose_increasing(values, 3)
        assert base == 0
        assert len(terms) == 1
        coeff, members = terms[0]
        assert coeff == 1
        assert up_set_members(members) == tuple(c for c in range(8) if c & 1)

    def test_constant(self):
        base, terms = decompose_increasing([Fraction(5)] * 8, 3)
        assert base == 5 and terms == ()

    def test_counting_function_reconstructs(self):
        values = [Fraction((c & 1) + (c >> 1 & 1)) for c in range(4)]
        base, terms = decompose_increasing(values, 2)
        for c in range(4):
            rebuilt = base + sum(coeff for coeff, members in terms if members >> c & 1)
            assert rebuilt == values[c]

    @given(st.lists(st.integers(0, 8), min_size=8, max_size=8), st.integers(0, 5))
    @settings(max_examples=60)
    def test_reconstruction_is_exact_on_closures(self, raw, shiftnum):
        # monotone closure of a random table, shifted to exercise the constant
        values = [Fraction(v + shiftnum) for v in raw]
        for c in range(8):
            for x in range(3):
                if c >> x & 1:
                    values[c] = max(values[c], values[c & ~(1 << x)])
        base, terms = decompose_increasing(values, 3)
        assert all(coeff > 0 for coeff, _ in terms)
        assert all(is_up_set(members, 3) for _, members in terms)
        for c in range(8):
            rebuilt = base + sum(coeff for coeff, members in terms if members >> c & 1)
            assert rebuilt == values[c]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_up_set_pairs_decide_increasing_covariances(self, n):
        # cov(f, g) expands bilinearly over the layer-cake terms into the
        # up-set pair covariances that the association sweep checks
        rng = random.Random(n)
        for seed in range(6):
            mu = normalize(random_measure(seed, n, "generic"))
            associated = is_associated(mu).holds

            def prob(members, weights=mu.weights):
                return sum(weights[c] for c in up_set_members(members))

            for _ in range(3):
                f, g = random_increasing_table(rng, n), random_increasing_table(rng, n)
                expansion = sum(
                    a * b * (prob(u & v) - prob(u) * prob(v))
                    for a, u in decompose_increasing(f, n)[1]
                    for b, v in decompose_increasing(g, n)[1]
                )
                assert covariance(mu, f, g) == expansion
                if associated:
                    assert expansion >= 0

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from spincorr.dynamics import (
    DEFAULT_POISSON_TAIL,
    RateTable,
    _poisson_weights,
    additive_decomposition,
    association_determinant_poly,
    birth_submodularity,
    births_additive,
    births_increasing,
    build_generator,
    contact_process,
    deaths_constant,
    deaths_constant_on_occupied,
    derivative_at_zero,
    derivative_coefficients,
    has_independent_flips,
    is_attractive,
    measure_flow,
    path_edges,
    product_corners,
    semigroup_apply,
    semigroup_apply_expm,
    trotter_compose,
    uniformized_kernel,
)
from spincorr.harness import (
    _PARAM_GRID,
    SEARCH_TARGETS,
    _search_plan,
    corner_flip_system,
    crossed_birth_pair,
    random_measure,
    random_single_site_birth,
    random_spin_system,
    supermodular_single_birth,
)
from spincorr.lattice import configs
from spincorr.measures import ProbabilityMeasure, normalize


def zero_system(n):
    size = 1 << n
    zeros = [[0] * size for _ in range(n)]
    return RateTable.from_tables(zeros, [list(z) for z in zeros])


class TestBuildGenerator:
    # Every rate here is a multiple of 1/8, so the float matrix entries and
    # their row sums are exact.
    def test_zero_rates_give_zero_matrix(self):
        gen = build_generator(zero_system(2))
        assert all(q == 0 for row in gen.matrix for q in row)

    def test_two_state_chain(self):
        gen = build_generator(RateTable.independent_flips(1, [1], [1]))
        assert gen.matrix.tolist() == [[-1.0, 1.0], [1.0, -1.0]]

    def test_contact_path_entries(self):
        gen = build_generator(contact_process(path_edges(3)))
        assert gen.matrix[0b010][0b011] == 1  # birth at site 0 next to occupied site 1
        assert gen.matrix[0b010][0b000] == 1  # death at site 1

    def test_rows_sum_to_zero_exactly(self):
        for seed in range(5):
            gen = build_generator(random_spin_system(seed, 3, "generic"))
            for c, row in enumerate(gen.matrix):
                assert sum(row) == 0
                assert all(q >= 0 for e, q in enumerate(row) if e != c)
            assert sum(measure_flow(gen, random_measure(seed, 3, "generic"))) == 0

    def test_off_diagonals_only_one_bit_away(self):
        gen = build_generator(random_spin_system(1, 3, "generic"))
        for c, row in enumerate(gen.matrix):
            for e, q in enumerate(row):
                if q != 0 and e != c:
                    assert bin(c ^ e).count("1") == 1


class TestSemigroupApply:
    def test_time_zero_is_identity(self):
        gen = build_generator(random_spin_system(2, 3, "generic"))
        mu = normalize(random_measure(2, 3, "strictly-positive"))
        out = semigroup_apply(gen, mu, 0.0)
        assert np.allclose(out.as_float_array(), mu.as_float_array(), atol=1e-15)

    def test_symmetric_two_state_chain_mixes(self):
        gen = build_generator(RateTable.independent_flips(1, [1], [1]))
        out = semigroup_apply(gen, ProbabilityMeasure.point_mass(1, 0), 20.0)
        assert abs(out.weights[0] - 0.5) < 1e-9
        assert abs(out.weights[1] - 0.5) < 1e-9

    def test_mass_stays_normalized_across_times(self):
        gen = build_generator(random_spin_system(3, 3, "generic"))
        mu = normalize(random_measure(3, 3, "generic"))
        for t in (0.0, 0.05, 0.5, 2.0, 7.0, 20.0):
            out = semigroup_apply(gen, mu, t)
            assert abs(sum(out.weights) - 1.0) < 1e-12
            assert all(w >= 0 for w in out.weights)

    def test_negative_time_rejected(self):
        gen = build_generator(zero_system(1))
        with pytest.raises(ValueError):
            semigroup_apply(gen, ProbabilityMeasure.uniform(1), -0.1)
        # negative, NaN and infinite times, at every entry point that takes one
        gen = build_generator(contact_process(path_edges(3)))
        mu = ProbabilityMeasure.uniform(3)
        calls = (
            lambda t: semigroup_apply(gen, mu, t),
            lambda t: semigroup_apply_expm(gen, mu, t),
            lambda t: uniformized_kernel(gen, t),
        )
        for call in calls:
            for t in (-0.1, -1, math.nan, math.inf):
                with pytest.raises(ValueError):
                    call(t)

    def test_semigroup_property(self):
        gen = build_generator(random_spin_system(4, 3, "generic"))
        mu = normalize(random_measure(4, 3, "generic"))
        for s, t in ((0.3, 0.7), (1.1, 0.4), (2.0, 2.5)):
            twice = semigroup_apply(gen, semigroup_apply(gen, mu, s), t)
            once = semigroup_apply(gen, mu, s + t)
            assert np.abs(twice.as_float_array() - once.as_float_array()).max() < 1e-10

    def test_against_scaling_and_squaring_oracle(self):
        for seed in range(8):
            n = 2 + seed % 3
            gen = build_generator(random_spin_system(seed, n, "generic"))
            mu = normalize(random_measure(seed + 50, n, "generic"))
            t = 0.25 + 0.5 * seed
            fast = semigroup_apply(gen, mu, t)
            oracle = semigroup_apply_expm(gen, mu, t)
            assert np.abs(fast.as_float_array() - oracle.as_float_array()).max() < 1e-10

    def test_corner_flip_closed_form(self):
        # off the constant configurations mass decays at exactly rate one;
        # the constants absorb what their neighbours shed
        system = corner_flip_system(3)
        gen = build_generator(system)
        mu = normalize(random_measure(12, 3, "strictly-positive"))
        for t in (0.1, 0.8, 2.0):
            out = semigroup_apply(gen, mu, t).as_float_array()
            decay = math.exp(-t)
            grow = 1.0 - decay
            w = mu.as_float_array()
            expected = np.array(
                [
                    w[0b000] + grow * (w[0b001] + w[0b010] + w[0b100]),
                    decay * w[0b001],
                    decay * w[0b010],
                    decay * w[0b011],
                    decay * w[0b100],
                    decay * w[0b101],
                    decay * w[0b110],
                    w[0b111] + grow * (w[0b011] + w[0b101] + w[0b110]),
                ]
            )
            assert np.abs(out - expected).max() < 1e-10


def scalar_poisson_weights(lt, tail):
    """The scalar recursion for the Poisson weights of one leaf: w_0 = e^-lt,
    w_k = w_{k-1} lt / k, until 1 - (w_0 + ... + w_k) <= tail or k = k_max.
    Returns the weights and k_max."""
    k_max = int(lt + 60.0 * (lt + 1.0) ** 0.5 + 100.0)
    weight = math.exp(-lt)
    weights, cumulative, k = [weight], weight, 0
    while 1.0 - cumulative > tail and k < k_max:
        k += 1
        weight *= lt / k
        cumulative += weight
        weights.append(weight)
    return weights, k_max


class TestPoissonWeights:
    # lambda*s on a grid in (0, 500], the range every leaf lies in
    GRID = [1e-9, 1e-3, 0.01, 0.1, 0.3] + [500.0 * i / 400 for i in range(1, 401)]

    @pytest.mark.parametrize("tail", [DEFAULT_POISSON_TAIL, 1e-16])
    def test_accumulated_weights_equal_the_scalar_recursion(self, tail):
        capped = 0
        for lt in self.GRID:
            weights, k_max = scalar_poisson_weights(lt, tail)
            got = _poisson_weights(lt, tail)
            # bit for bit: the same weights, so the same truncation index K
            assert got.tolist() == weights, lt
            capped += len(weights) == k_max + 1
        # 1e-16 is below the float step of 1 - cumulative near 1: about half
        # of the grid never meets it and stops at k_max
        assert (capped > 0) == (tail < DEFAULT_POISSON_TAIL)

    @pytest.mark.parametrize("lt", [0.5, 37.0, 300.0])
    def test_a_tail_met_exactly_stops_the_sum(self, lt):
        # tails equal to a remaining mass 1 - (w_0 + ... + w_k): the sum
        # stops where the remaining mass is no longer above the tail
        weights, _ = scalar_poisson_weights(lt, DEFAULT_POISSON_TAIL)
        for cumulative in list(itertools.accumulate(weights))[::7]:
            tail = 1.0 - cumulative
            assert _poisson_weights(lt, tail).tolist() == scalar_poisson_weights(lt, tail)[0]

    @pytest.mark.parametrize("lt", [1e-9, 0.5, 37.0, 500.0])
    def test_k_max_caps_an_unreachable_tail(self, lt):
        # no remaining mass is below a negative tail
        weights, k_max = scalar_poisson_weights(lt, -1.0)
        assert len(weights) == k_max + 1
        assert _poisson_weights(lt, -1.0).tolist() == weights


def sequential_leaves(gen, vector, t, tail=DEFAULT_POISSON_TAIL):
    """Reference for long horizons: halve t until lambda*s <= 500, then run
    the truncated Poisson sweep of that leaf on the row vector 2^d times in
    sequence, one term after another.  Returns the result and the number of
    leaves."""
    lam = float(gen.uniformization_rate)
    s, leaves = t, 1
    while lam * s > 500.0:
        s /= 2.0
        leaves *= 2
    transition = np.eye(1 << gen.n) + gen.matrix / lam
    k_max = int(lam * s + 60.0 * (lam * s + 1.0) ** 0.5 + 100.0)
    for _ in range(leaves):
        weight = math.exp(-lam * s)
        cumulative, acc, current, k = weight, weight * vector, vector, 0
        while 1.0 - cumulative > tail and k < k_max:
            k += 1
            current = current @ transition
            weight *= lam * s / k
            cumulative += weight
            acc = acc + weight * current
        vector = acc
    return vector, leaves


class TestLongHorizonSquaring:
    # lambda*t from 2 000 to 4 000 takes two or three halvings, so at most
    # 8 * DEFAULT_POISSON_TAIL < 1e-12 of mass is lost
    @pytest.mark.parametrize("lam_t", [2000.0, 3000.0, 4000.0])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_squared_leaf_matches_sequential_leaves(self, n, lam_t):
        gen = build_generator(random_spin_system(n, n, "generic"))
        t = lam_t / float(gen.uniformization_rate)
        mu = normalize(random_measure(n + 10, n, "generic"))
        got = semigroup_apply(gen, mu, t).as_float_array()
        reference, leaves = sequential_leaves(gen, mu.as_float_array(), t)
        assert leaves in (4, 8)
        assert np.abs(got - reference).max() < 1e-13
        oracle = semigroup_apply_expm(gen, mu, t).as_float_array()
        assert np.abs(got - oracle).max() < 1e-10
        assert abs(got.sum() - 1.0) < 1e-12

    # short horizons too: no halving (0.5, 10), one halving (750)
    @pytest.mark.parametrize("lam_t", [0.5, 10.0, 750.0, 2000.0, 3000.0, 4000.0])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kernel_rows_and_functions_agree(self, n, lam_t):
        gen = build_generator(contact_process(path_edges(n), infection=Fraction(3, 2)))
        t = lam_t / float(gen.uniformization_rate)
        kernel = uniformized_kernel(gen, t)
        for x in configs(n):
            row = semigroup_apply(gen, ProbabilityMeasure.point_mass(n, x), t).as_float_array()
            assert np.abs(row - kernel[x]).max() < 1e-13
        # duality: <mu S(t), f> = <mu, S(t) f> with S(t) f = P_t f
        f = np.random.default_rng(n).standard_normal(1 << n)
        mu = normalize(random_measure(n, n, "generic"))
        evolved = semigroup_apply(gen, mu, t).as_float_array()
        assert abs(evolved @ f - mu.as_float_array() @ (kernel @ f)) < 1e-13

    # No halving (up to 500) or one (750, 1 000): the vector's leaves are
    # summed in blocks, not term by term, so they agree with the sequential
    # leaves to rounding, not bit for bit.  A tail of 1e-16 runs to k_max.
    @pytest.mark.parametrize("tail", [DEFAULT_POISSON_TAIL, 1e-16])
    @pytest.mark.parametrize("lam_t", [0.5, 10.0, 100.0, 500.0, 750.0, 1000.0])
    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_blocked_leaf_matches_sequential_leaves(self, n, lam_t, tail):
        gen = build_generator(random_spin_system(n + 3, n, "generic"))
        t = lam_t / float(gen.uniformization_rate)
        mu = normalize(random_measure(n + 13, n, "generic"))
        got = semigroup_apply(gen, mu, t, tail=tail).as_float_array()
        reference, leaves = sequential_leaves(gen, mu.as_float_array(), t, tail)
        assert leaves <= 2
        assert np.abs(got - reference).max() < 1e-13
        assert abs(got.sum() - 1.0) < 1e-12


class TestTrotter:
    def test_zero_second_generator(self):
        g1 = build_generator(random_spin_system(5, 2, "generic"))
        g2 = build_generator(zero_system(2))
        mu = normalize(random_measure(5, 2, "generic"))
        split = trotter_compose(g1, g2, mu, 1.3, 4)
        direct = semigroup_apply(g1, mu, 1.3)
        assert np.abs(split.as_float_array() - direct.as_float_array()).max() < 1e-11

    def test_disjoint_sites_commute_exactly(self):
        size = 4
        b1 = [[Fraction(1)] * size, [Fraction(0)] * size]
        d1 = [[Fraction(2)] * size, [Fraction(0)] * size]
        b2 = [[Fraction(0)] * size, [Fraction(3)] * size]
        d2 = [[Fraction(0)] * size, [Fraction(1)] * size]
        g1 = build_generator(RateTable.from_tables(b1, d1))
        g2 = build_generator(RateTable.from_tables(b2, d2))
        mu = normalize(random_measure(6, 2, "generic"))
        split = trotter_compose(g1, g2, mu, 0.9, 1)
        direct = semigroup_apply(g1 + g2, mu, 0.9)
        assert np.abs(split.as_float_array() - direct.as_float_array()).max() < 1e-11

    def test_time_checked_before_it_is_split(self):
        # the error names the time given, not the step t / steps
        gen = build_generator(random_spin_system(5, 2, "generic"))
        mu = ProbabilityMeasure.uniform(2)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"got {t}"):
                trotter_compose(gen, gen, mu, t, 4)

    def test_mismatched_sizes_rejected(self):
        g1 = build_generator(zero_system(2))
        g2 = build_generator(zero_system(3))
        with pytest.raises(ValueError):
            trotter_compose(g1, g2, ProbabilityMeasure.uniform(2), 1.0, 2)
        with pytest.raises(ValueError):
            g1 + g2

    def test_first_order_error_halves_with_doubled_steps(self):
        g1 = build_generator(random_spin_system(21, 3, "generic"))
        g2 = build_generator(random_spin_system(22, 3, "generic"))
        mu = normalize(random_measure(21, 3, "generic"))
        exact = semigroup_apply(g1 + g2, mu, 1.0).as_float_array()

        def err(steps):
            out = trotter_compose(g1, g2, mu, 1.0, steps).as_float_array()
            return np.abs(out - exact).max()

        ratio = err(8) / err(16)
        assert 1.7 <= ratio <= 2.3


class TestRateClassifiers:
    def test_contact_process_attractive(self):
        assert is_attractive(contact_process(path_edges(4))).holds

    def test_independent_flips_attractive(self):
        assert is_attractive(RateTable.independent_flips(2, [1, 2], [3, 4])).holds

    def test_crossed_births_not_attractive(self):
        report = is_attractive(crossed_birth_pair())
        assert report.fails
        assert report.witness["kind"] == "birth"

    def test_independent_flips_detection(self):
        assert has_independent_flips(RateTable.independent_flips(3, [1, 1, 1], [2, 2, 2])).holds
        assert has_independent_flips(contact_process(path_edges(3))).fails
        assert has_independent_flips(corner_flip_system(3)).fails

    def test_deaths_constant(self):
        assert deaths_constant(contact_process(path_edges(3))).holds
        rising = RateTable.from_site_functions(
            2, lambda x, c: Fraction(0), lambda x, c: Fraction(1 + (c >> (1 - x) & 1))
        )
        assert deaths_constant(rising).fails

    def test_deaths_constant_on_occupied_exempts_lone_occupant(self):
        def death(x, c):
            others = 0b111 & ~(1 << x)
            return Fraction(5) if c & others == 0 else Fraction(2)

        table = RateTable.from_site_functions(3, lambda x, c: Fraction(0), death)
        assert deaths_constant_on_occupied(table).holds
        assert deaths_constant(table).fails

    @pytest.mark.parametrize("kind", ["generic", "attractive", "independent"])
    def test_single_site_rates_are_constant(self, kind):
        # one site: the own-spin representative is the empty config, so every
        # table is constant, and no configuration has another occupied site
        for seed in range(5):
            rates = random_spin_system(seed, 1, kind)
            assert has_independent_flips(rates).holds
            assert deaths_constant(rates).holds
            assert deaths_constant_on_occupied(rates).holds

    def test_deaths_varying_on_occupied_fails(self):
        rising = RateTable.from_site_functions(
            3, lambda x, c: Fraction(0), lambda x, c: Fraction(1 + (c >> ((x + 1) % 3) & 1))
        )
        assert deaths_constant_on_occupied(rising).fails


class TestAdditiveDecomposition:
    def test_contact_process_neighbour_coefficients(self):
        rates = contact_process(path_edges(3), infection=Fraction(3, 2))
        dec = additive_decomposition(rates, 0)
        assert dec.additive
        coeffs = dict(dec.coefficients)
        assert coeffs[0b010] == Fraction(3, 2)  # the unique neighbour of site 0
        assert all(c == 0 for mask, c in coeffs.items() if mask != 0b010)

    def test_corner_flip_births_not_additive(self):
        dec = additive_decomposition(corner_flip_system(3), 0)
        assert dec.exact and not dec.additive
        coeffs = dict(dec.coefficients)
        # singletons +1, the pair -1: inclusion-exclusion of 'all others full'
        assert coeffs[0b010] == 1 and coeffs[0b100] == 1 and coeffs[0b110] == -1

    def test_zero_rates_trivially_additive(self):
        dec = additive_decomposition(zero_system(3), 1)
        assert dec.additive
        assert all(c == 0 for _, c in dec.coefficients)

    @pytest.mark.parametrize("kind", ["generic", "attractive", "independent"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reconstruction_exact_iff_empty_rate_zero(self, n, kind):
        for seed in range(20):
            rates = random_spin_system(seed, n, kind)
            for site in range(n):
                dec = additive_decomposition(rates, site)
                matches = all(
                    dec.reconstruct(c) == rates.birth[site][c]
                    for c in configs(n)
                    if not c >> site & 1
                )
                assert matches == dec.exact
                assert dec.exact == (rates.birth[site][0] == 0)

    def test_coefficients_match_the_direct_submask_sum(self):
        # reference: coefficient of A = sum over D <= A of (-1)^|A minus D| G(D)
        for kind in ("generic", "attractive"):
            for seed in range(5):
                rates = random_spin_system(seed, 4, kind)
                for site in range(4):
                    table = rates.birth[site]
                    full = 0b1111 & ~(1 << site)
                    expected = tuple(
                        (a, sum(
                            (-1) ** (a & ~d).bit_count() * (table[full] - table[full & ~d])
                            for d in configs(4) if d & ~a == 0
                        ))
                        for a in configs(4) if a and a & ~full == 0
                    )
                    assert additive_decomposition(rates, site).coefficients == expected

    def test_additive_implies_submodular_and_increasing(self):
        rates = contact_process(path_edges(4), infection=Fraction(2, 3))
        assert births_additive(rates).holds
        assert birth_submodularity(rates).holds
        assert births_increasing(rates).holds


class TestBirthSubmodularity:
    def test_additive_births_pass(self):
        assert birth_submodularity(contact_process(path_edges(3))).holds

    def test_product_birth_fails_at_the_two_singletons(self):
        report = birth_submodularity(supermodular_single_birth())
        assert report.fails
        assert report.witness == {"site": 2, "base": 0, "raised": [0, 1]}

    def test_constant_births_hold_with_equality(self):
        rates = RateTable.independent_flips(3, [2, 2, 2], [0, 0, 0])
        report = birth_submodularity(rates)
        assert report.holds and report.margin == 0

    def test_two_site_check_equals_full_pair_sweep(self):
        for seed in range(15):
            rates = random_spin_system(seed, 3, "generic")
            for site in range(3):
                table = rates.birth[site]
                full = min(
                    table[a] + table[b] - table[a | b] - table[a & b]
                    for a in configs(3)
                    for b in configs(3)
                )
                single = RateTable.single_site_birth(3, site, table)
                assert birth_submodularity(single).holds == (full >= 0)


def independent_flip_kernel(rates, t):
    """Oracle: the product of the closed-form two-state kernels, one per site.

    Site z with constant birth b and death d mixes to equilibrium at rate
    b + d: p_t(0 -> 1) = b/(b+d) * (1 - exp(-(b+d)t)).  Only valid when
    the system has independent flips."""
    out = np.array([[1.0]])
    for z in reversed(range(rates.n)):
        b = float(rates.birth[z][0])
        d = float(rates.death[z][0])
        mixed = 1.0 - math.exp(-(b + d) * t)
        up, down = (b / (b + d) * mixed, d / (b + d) * mixed) if b + d else (0.0, 0.0)
        out = np.kron(out, np.array([[1.0 - up, up], [down, 1.0 - down]]))
    return out


class TestIndependentFlipKernel:
    def test_time_zero_identity(self):
        gen = build_generator(RateTable.independent_flips(2, [1, 2], [3, 4]))
        assert np.array_equal(uniformized_kernel(gen, 0.0), np.eye(4))

    def test_two_state_closed_form(self):
        gen = build_generator(RateTable.independent_flips(1, [1], [1]))
        for t in (0.1, 0.5, 2.0):
            kernel = uniformized_kernel(gen, t)
            assert abs(kernel[0, 1] - (1 - math.exp(-2 * t)) / 2) < 1e-12

    def test_matches_uniformization(self):
        rates = RateTable.independent_flips(2, [Fraction(1, 2), 2], [1, Fraction(1, 3)])
        gen = build_generator(rates)
        for t in (0.2, 1.0, 3.0):
            assert np.abs(
                independent_flip_kernel(rates, t) - uniformized_kernel(gen, t)
            ).max() < 1e-10


class TestDerivativeAtZero:
    def test_zero_generator_gives_zero_derivative(self):
        gen = build_generator(zero_system(3))
        mu = normalize(random_measure(7, 3, "generic"))
        for zero_sites in ((), (2,)):
            poly = association_determinant_poly(3, 0, 1, zero_sites)
            assert poly.value(mu.weights) != 0
            assert derivative_at_zero(gen, mu, poly) == 0

    def test_association_determinant_zero_at_product_measures(self):
        poly = association_determinant_poly(2, 0, 1)
        mu = ProbabilityMeasure.product([Fraction(1, 3), Fraction(2, 7)])
        assert poly.value(mu.weights) == 0

    @pytest.mark.parametrize("n, x, y, zero_sites", [
        (3, 0, 1, ()), (3, 2, 0, (1,)), (4, 1, 3, ()), (4, 0, 2, (3,)), (4, 3, 1, (0, 2)),
    ])
    def test_association_determinant_value_is_the_two_by_two_determinant(self, n, x, y, zero_sites):
        poly = association_determinant_poly(n, x, y, zero_sites)
        expected_values = []
        for seed in range(5):
            mu = normalize(random_measure(seed, n, "generic"))
            cell = {(1, 1): 0, (0, 0): 0, (1, 0): 0, (0, 1): 0}
            for c, w in enumerate(mu.weights):
                if not any(c >> z & 1 for z in zero_sites):
                    cell[c >> x & 1, c >> y & 1] += w
            expected = cell[1, 1] * cell[0, 0] - cell[1, 0] * cell[0, 1]
            got = poly.value(mu.weights)
            assert isinstance(got, Fraction) and got == expected
            expected_values.append(expected)
        # non-product measures: the determinant is not identically zero
        assert any(expected_values)

    def test_two_site_expansion_identity(self):
        # the derivative of the association determinant from a product
        # measure collapses to the four monotonicity difference quotients
        import random

        rng = random.Random(99)
        for _ in range(25):
            birth = [[Fraction(rng.randrange(0, 9), 4) for _ in range(4)] for _ in range(2)]
            death = [[Fraction(rng.randrange(0, 9), 4) for _ in range(4)] for _ in range(2)]
            rates = RateTable.from_tables(birth, death)
            gen = build_generator(rates)
            rho = Fraction(rng.randrange(1, 8), 8)
            lam = Fraction(rng.randrange(1, 8), 8)
            mu = ProbabilityMeasure.product([rho, lam])
            poly = association_determinant_poly(2, 0, 1)
            got = derivative_at_zero(gen, mu, poly)
            bx0, bx1 = rates.birth[0][0b00], rates.birth[0][0b10]
            by0, by1 = rates.birth[1][0b00], rates.birth[1][0b01]
            dx0, dx1 = rates.death[0][0b00], rates.death[0][0b10]
            dy0, dy1 = rates.death[1][0b00], rates.death[1][0b01]
            expected = (
                rho * (1 - rho) * lam * (1 - lam)
                * (
                    (bx1 - bx0) / rho
                    + (by1 - by0) / lam
                    + (dx0 - dx1) / (1 - rho)
                    + (dy0 - dy1) / (1 - lam)
                )
            )
            assert got == expected

    def test_matches_one_sided_finite_differences(self):
        h = 1e-5
        for seed in range(10):
            n = 2 + seed % 3
            gen = build_generator(random_spin_system(seed, n, "generic"))
            mu = normalize(random_measure(seed + 9, n, "generic"))
            poly = association_determinant_poly(n, 0, 1)
            exact = float(derivative_at_zero(gen, mu, poly))

            def value_at(t):
                evolved = semigroup_apply(gen, mu, t, tail=1e-16)
                return float(poly.value(evolved.as_float_array()))

            fd = (-3 * value_at(0.0) + 4 * value_at(h) - value_at(2 * h)) / (2 * h)
            assert abs(exact - fd) < 1e-6

    @pytest.mark.parametrize("x,y,zero_sites,bad", [
        (0, 5, (), 5), (0, -1, (), -1), (0, 1, (7,), 7), (3, 1, (2,), 3),
    ])
    def test_association_determinant_sites_range_checked(self, x, y, zero_sites, bad):
        with pytest.raises(ValueError, match=f"site {bad} out of range for 3 sites"):
            association_determinant_poly(3, x, y, zero_sites)


def biquadratic(coeffs, rho, lam):
    return sum(c * rho**a * lam**b for a, row in enumerate(coeffs) for b, c in enumerate(row))


class TestDerivativeCoefficients:
    @pytest.mark.parametrize("kind, n, seed", [
        ("contact", 3, None),
        ("contact", 4, None),
        *((kind, n, seed) for kind in ("generic", "attractive") for n in (3, 4) for seed in (0, 1)),
    ])
    def test_biquadratic_equals_reference_on_the_search_grid(self, kind, n, seed):
        # every search case and background, every grid point, exactly
        system = contact_process(path_edges(n)) if kind == "contact" else random_spin_system(seed, n, kind)
        gen = build_generator(system)
        for target in SEARCH_TARGETS:
            cases, backgrounds, _ = _search_plan(target, n)
            for zero_sites, x, y in cases:
                poly = association_determinant_poly(n, x, y, zero_sites=zero_sites)
                for background in backgrounds:
                    coeffs = derivative_coefficients(poly, product_corners(gen, x, y, background))
                    for rho in _PARAM_GRID:
                        for lam in _PARAM_GRID:
                            ps = [background] * n
                            ps[x], ps[y] = rho, lam
                            mu = ProbabilityMeasure.product(ps)
                            assert biquadratic(coeffs, rho, lam) == derivative_at_zero(gen, mu, poly)

    def test_corners_reproduce_the_reference_off_the_grid(self):
        # the interpolation holds on the whole square, corners included
        gen = build_generator(random_spin_system(3, 3, "generic"))
        poly = association_determinant_poly(3, 2, 0, zero_sites=(1,))
        coeffs = derivative_coefficients(poly, product_corners(gen, 2, 0, Fraction(1, 3)))
        for rho, lam in ((0, 0), (1, 0), (0, 1), (1, 1), (Fraction(2, 7), Fraction(5, 9))):
            mu = ProbabilityMeasure.product([lam, Fraction(1, 3), rho])
            assert biquadratic(coeffs, rho, lam) == derivative_at_zero(gen, mu, poly)

    def test_site_counts_must_agree(self):
        gen = build_generator(contact_process(path_edges(3)))
        with pytest.raises(ValueError):
            derivative_coefficients(
                association_determinant_poly(4, 0, 1), product_corners(gen, 0, 1, Fraction(1, 2))
            )
        with pytest.raises(ValueError):
            product_corners(gen, 1, 1, Fraction(1, 2))


class TestSingleSiteClosedForm:
    def test_function_evolution_matches_survival_mixture(self):
        # with only a birth rate at one site, the start either keeps its
        # configuration (probability exp(-t*rate)) or jumps once
        for seed in range(6):
            rates = random_single_site_birth(seed, 3, 1)
            gen = build_generator(rates)
            f = [float(v) for v in random_measure(seed, 3, "strictly-positive").weights]
            for t in (0.25, 1.0, 4.0):
                got = uniformized_kernel(gen, t) @ f
                for c in configs(3):
                    if c >> 1 & 1:
                        expected = f[c]
                    else:
                        b = math.exp(-t * float(rates.birth[1][c]))
                        expected = b * f[c] + (1 - b) * f[c | 0b010]
                    assert abs(got[c] - expected) < 1e-12

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import point_mass, reference_lattice, scaled, uniform

from spincorr.harness import (
    MEASURE_MODES,
    derangement_measure,
    implication_gap_measures,
    random_measure,
)
from spincorr.lattice import configs
from spincorr.measures import (
    FAILS,
    FLOAT,
    ProbabilityMeasure,
    PropertyReport,
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
    project_zeros,
    reverify_witness,
    satisfies_lattice,
    tilt,
)
from spincorr.three_site import classify

EPS = Fraction(1, 100)


def covariance(measure, f, g):
    """Oracle: E[fg] - E[f]E[g], exact when the measure and both functions are."""
    def mean(values):
        return sum(w * v for w, v in zip(measure.weights, values))

    return mean([a * b for a, b in zip(f, g)]) - mean(f) * mean(g)


def condition_zeros(measure, sites):
    """Oracle: condition on spin 0 at every site in ``sites``, kept on the
    full cube."""
    pm = measure if isinstance(measure, ProbabilityMeasure) else normalize(measure)
    mask = 0
    for x in set(sites):
        assert 0 <= x < pm.n
        mask |= 1 << x
    zero = Fraction(0) if pm.mode == "exact" else 0.0
    restricted = [w if c & mask == 0 else zero for c, w in enumerate(pm.weights)]
    total = sum(restricted)
    if not total > 0:
        raise ValueError(f"zeros on sites {sorted(set(sites))} have zero probability")
    return ProbabilityMeasure(pm.n, tuple(w / total for w in restricted), pm.mode)


def three_site_cov(measure, kind):
    """Independent closed forms for covariances of the eight-weight measure."""
    w = measure.weights
    a, d = w[0b111], w[0b000]
    b1, b2, b3 = w[0b110], w[0b101], w[0b011]
    c1, c2, c3 = w[0b001], w[0b010], w[0b100]
    if kind == "site1-vs-others-product":
        return a * (c2 + c3 + d) - b1 * (b2 + b3 + c1)
    if kind == "site1-vs-others-union":
        return d * (b2 + b3 + a) - c1 * (c2 + c3 + b1)
    if kind == "site2-vs-site3":
        return (b1 + a) * (c1 + d) - (c3 + b2) * (b3 + c2)
    raise ValueError(kind)


class TestNormalize:
    def test_uniform(self):
        assert normalize(WeightVector.exact([1, 1, 1, 1])).weights == (Fraction(1, 4),) * 4

    def test_point_mass(self):
        assert normalize(WeightVector.exact([2, 0, 0, 0])).weights[0] == 1

    def test_scale_invariance(self):
        w = random_measure(3, 3, "generic")
        assert normalize(scaled(w, 7)) == normalize(w)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            WeightVector.exact([0, 0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightVector.floats([bad, 1.0])
        with pytest.raises(ValueError, match="weights must be finite"):
            ProbabilityMeasure.floats([0.5, bad])


class TestAsFloatArray:
    @staticmethod
    def assert_bits_match_float(vector):
        expected = np.array([float(w) for w in vector.weights], dtype=np.float64)
        assert vector.as_float_array().view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_weights_round_like_float(self, n):
        for mode in MEASURE_MODES:
            for seed in range(5):
                vector = random_measure(seed, n, mode)
                self.assert_bits_match_float(vector)
                self.assert_bits_match_float(normalize(vector))

    def test_long_rationals_round_like_float(self):
        # 3^-k ends in the subnormal range and then underflows to zero
        for k in range(0, 800, 7):
            self.assert_bits_match_float(
                WeightVector.exact([Fraction(1, 3**k), Fraction(2**k + 1, 3**k), 1, 5])
            )

    def test_huge_rationals_divide_as_ints(self):
        # numpy converts a Fraction with float(), p / q as ints: the same bits
        # for 3 000-bit numerators and denominators, and 0.0 on underflow
        rng = random.Random(0)
        for _ in range(50):
            weights = [Fraction(rng.getrandbits(3000) + 1, rng.getrandbits(3000) + 1)
                       for _ in range(7)] + [Fraction(1, 2**1100)]
            vector = WeightVector.exact(weights)
            expected = np.array([w.numerator / w.denominator for w in vector.weights])
            assert expected[-1] == 0.0
            assert vector.as_float_array().tobytes() == expected.tobytes()

    def test_a_weight_past_the_float_range_overflows_both_ways(self):
        weight = Fraction(10**400, 3)
        with pytest.raises(OverflowError):
            WeightVector.exact([weight, 1]).as_float_array()
        with pytest.raises(OverflowError):
            weight.numerator / weight.denominator


class TestExpectationCovariance:
    def test_bernoulli_half_variance(self):
        mu = uniform(1)
        f = [0, 1]
        assert covariance(mu, f, f) == Fraction(1, 4)

    def test_product_measure_independent_coordinates(self):
        mu = ProbabilityMeasure.product([Fraction(1, 3), Fraction(2, 5)])
        f = [c & 1 for c in range(4)]
        g = [c >> 1 & 1 for c in range(4)]
        assert covariance(mu, f, g) == 0

    def test_three_site_covariance_identities(self):
        # cov of coordinate 1 against: the product of the others, the union
        # of the others, and the pairwise case, in the eight-weight coords.
        for seed in range(25):
            mu = normalize(random_measure(seed, 3, "generic"))
            f1 = [c & 1 for c in range(8)]
            g1 = [(c >> 1 & 1) * (c >> 2 & 1) for c in range(8)]
            h1 = [1 if c & 0b110 else 0 for c in range(8)]
            f2 = [c >> 1 & 1 for c in range(8)]
            f3 = [c >> 2 & 1 for c in range(8)]
            assert covariance(mu, f1, g1) == three_site_cov(mu, "site1-vs-others-product")
            assert covariance(mu, f1, h1) == three_site_cov(mu, "site1-vs-others-union")
            assert covariance(mu, f2, f3) == three_site_cov(mu, "site2-vs-site3")


class TestIsAssociated:
    def test_convex_combinations_of_nested_conditionals_associated(self):
        mu = derangement_measure(4)
        low = condition_zeros(mu, [0, 1]).weights
        high = condition_zeros(mu, [0]).weights
        for lam in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
            mixed = [lam * a + (1 - lam) * b for a, b in zip(low, high)]
            assert is_associated(WeightVector.exact(mixed)).holds

    def test_product_measures_hold(self):
        for seed in range(10):
            mu = normalize(random_measure(seed, 3, "product"))
            report = is_associated(mu)
            assert report.holds
            assert report.margin >= 0

    def test_two_site_determinant_equivalence(self):
        for seed in range(40):
            mu = normalize(random_measure(seed, 2, "generic"))
            w = mu.weights
            det = w[0b11] * w[0b00] - w[0b10] * w[0b01]
            assert is_associated(mu).holds == (det >= 0)

    def test_three_site_matches_classifier(self):
        for seed in range(40):
            mu = normalize(random_measure(seed, 3, "generic"))
            assert is_associated(mu).holds == classify(mu)["associated"]

    def test_failing_witness_reverifies(self):
        _, gap2 = implication_gap_measures(EPS)
        mu = normalize(gap2)
        cond = condition_zeros(mu, [0])
        report = is_associated(cond)
        if report.fails:
            assert reverify_witness(cond, report) < 0
        # the unconditioned measure is associated
        assert is_associated(mu).holds

    def test_witness_reverifies_on_the_exactly_normalized_measure(self):
        # the float total is 1 + 4e-13; cov(1_U, 1) is identically 0 all the same
        mu = ProbabilityMeasure.floats([0.25, 0.25, 0.25, 0.25 + 4e-13])
        report = PropertyReport("associated", FAILS, {"up_set_u": [3], "up_set_v": [0, 1, 2, 3]})
        assert reverify_witness(mu, report) == 0
        # a product measure, unnormalized: its lattice slack is exactly 0, but
        # dividing each float by the float total 20 rounds it
        product = WeightVector(2, (2.0, 3.0, 6.0, 9.0), FLOAT)
        report = PropertyReport("fkg-lattice", FAILS, {"eta": 1, "zeta": 2})
        assert reverify_witness(product, report) == 0

    def test_homogeneity(self):
        w = random_measure(11, 3, "generic")
        assert is_associated(w).verdict == is_associated(scaled(w, 7)).verdict

    def test_float_mode_agrees_with_exact(self):
        for seed in range(20):
            mu = normalize(random_measure(seed, 3, "generic"))
            fl = ProbabilityMeasure.floats([float(v) for v in mu.weights])
            exact = is_associated(mu)
            approx = is_associated(fl)
            if abs(float(exact.margin)) > 1e-7:
                assert exact.holds == approx.holds


class TestSatisfiesLattice:
    def test_product_measure_equality_everywhere(self):
        mu = ProbabilityMeasure.product([Fraction(1, 3), Fraction(1, 5), Fraction(4, 7)])
        report = satisfies_lattice(mu)
        assert report.holds
        assert report.margin == 0

    def test_gap_measure_fails_by_one_slice_determinant(self):
        gap1, _ = implication_gap_measures(EPS)
        report = satisfies_lattice(gap1)
        assert report.fails
        # witness meet/join pair realizes c1*a < b2*b3 (or a permutation of it)
        assert reverify_witness(gap1, report) < 0
        w = normalize(gap1).weights
        assert w[0b001] * w[0b111] < w[0b101] * w[0b011]

    def test_derangement_fails(self):
        mu = derangement_measure(3)
        report = satisfies_lattice(mu)
        assert report.fails
        assert reverify_witness(mu, report) < 0

    def test_homogeneity(self):
        w = random_measure(5, 3, "strictly-positive")
        assert satisfies_lattice(w).verdict == satisfies_lattice(scaled(w, 7)).verdict

    def test_sparse_sweep_catches_complement_pair(self):
        # strictly positive two-site determinants but a complementary pair violation
        weights = [Fraction(0)] * 8
        weights[0b000] = Fraction(1, 3)
        weights[0b001] = Fraction(1, 3)
        weights[0b110] = Fraction(1, 3)
        report = satisfies_lattice(WeightVector.exact(weights))
        assert report.fails
        assert {report.witness["eta"], report.witness["zeta"]} == {0b001, 0b110}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exact_scan_matches_the_fraction_reference(self, n):
        """The exact scan, over integer numerators, has the margin, witness
        and pair count of a scan over Fraction slacks: on every family,
        unnormalized, scaled, and with weights of 1e-30."""
        for family in MEASURE_MODES:
            for seed in range(6):
                drawn = random_measure(seed, n, family)
                tiny = [Fraction(1, 10**30) if c % 3 == 1 else w
                        for c, w in enumerate(drawn.weights)]
                for vector in (drawn, normalize(drawn), scaled(drawn, Fraction(1, 10**30)),
                               WeightVector.exact(tiny)):
                    report = satisfies_lattice(vector)
                    margin, witness, checked = reference_lattice(vector)
                    assert type(report.margin) is Fraction and report.margin == margin
                    assert report.witness == witness
                    assert report.details["pairs_checked"] == checked


@pytest.mark.parametrize("check", [is_associated, satisfies_lattice, is_downward_fkg])
def test_checkers_refuse_a_plain_sequence(check):
    # satisfies_lattice used to wrap a sequence with WeightVector.exact
    with pytest.raises(TypeError, match="^expected a WeightVector or ProbabilityMeasure, got "):
        check([Fraction(1, 4)] * 4)


class TestConditionZeros:
    def test_empty_set_is_identity(self):
        mu = normalize(random_measure(2, 3, "generic"))
        assert condition_zeros(mu, []) == mu

    def test_product_measure_pins_coordinates(self):
        mu = ProbabilityMeasure.product([Fraction(1, 3), Fraction(2, 5)])
        cond = condition_zeros(mu, [1])
        expected = ProbabilityMeasure.product([Fraction(1, 3), Fraction(0)])
        assert cond == expected

    def test_derangement_conditioned_is_smaller_derangement(self):
        mu = derangement_measure(3)
        sub, remaining = project_zeros(mu, [1])
        assert remaining == (0, 2)
        assert sub.weights == derangement_measure(2).weights

    def test_zero_probability_event_rejected(self):
        mu = point_mass(2, 0b11)
        with pytest.raises(ValueError):
            condition_zeros(mu, [0])
        with pytest.raises(ValueError, match="zero probability"):
            project_zeros(mu, [0])
        # a null event is reported before the empty remainder
        with pytest.raises(ValueError, match="zero probability"):
            project_zeros(mu, [0, 1])
        with pytest.raises(ValueError, match="at least one remaining site"):
            project_zeros(point_mass(2, 0), [0, 1])

    @pytest.mark.parametrize("site", [1.5, 0.0, True])
    def test_non_integer_sites_refused(self, site):
        # a float used to fail in a shift with a TypeError; True was site 1
        mu = normalize(random_measure(1, 3, "strictly-positive"))
        with pytest.raises(ValueError, match=f"site {site!r} is not an integer"):
            project_zeros(mu, [site])

    def test_witness_with_non_integer_conditioned_site_refused(self):
        _, gap2 = implication_gap_measures(EPS)
        mu = normalize(gap2)
        report = is_downward_fkg(mu)
        assert report.fails and report.witness["conditioned_sites"]
        site = report.witness["conditioned_sites"][0]
        forged = dict(report.witness, conditioned_sites=[float(site)])
        with pytest.raises(ValueError, match=f"site {float(site)!r} is not an integer"):
            reverify_witness(mu, replace(report, witness=forged))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_projection_is_conditioning_then_gather(self, n):
        # bit for bit, on exact measures and on their float roundings
        for mode in MEASURE_MODES:
            for seed in range(3):
                exact = normalize(random_measure(seed, n, mode))
                floats = WeightVector.floats([float(w) for w in exact.weights])
                for mu in (exact, floats):
                    for amask in range((1 << n) - 1):
                        sites = [x for x in range(n) if amask >> x & 1]
                        try:
                            cond = condition_zeros(mu, sites)
                        except ValueError:
                            with pytest.raises(ValueError, match="zero probability"):
                                project_zeros(mu, sites)
                            continue
                        remaining = tuple(x for x in range(n) if x not in sites)
                        gathered = [
                            cond.weights[sum(1 << x for i, x in enumerate(remaining) if s >> i & 1)]
                            for s in configs(len(remaining))
                        ]
                        sub, got = project_zeros(mu, sites)
                        assert got == remaining
                        assert (sub.n, sub.mode) == (len(remaining), mu.mode)
                        assert [repr(w) for w in sub.weights] == [repr(w) for w in gathered]


class TestTilt:
    def test_constant_tilt_is_identity(self):
        mu = normalize(random_measure(4, 3, "generic"))
        assert tilt(mu, [Fraction(1)] * 8) == mu

    def test_multiplicativity(self):
        mu = normalize(random_measure(6, 2, "strictly-positive"))
        h1 = [Fraction(3, 2), Fraction(1), Fraction(2), Fraction(1, 2)]
        h2 = [Fraction(1, 3), Fraction(2), Fraction(1), Fraction(5)]
        combined = [a * b for a, b in zip(h1, h2)]
        assert tilt(tilt(mu, h1), h2) == tilt(mu, combined)

    def test_soft_conditioning_approaches_hard_conditioning(self):
        mu = normalize(random_measure(9, 3, "strictly-positive"))
        target = condition_zeros(mu, [0, 2])

        def distance(eps):
            h = [(eps / (1 + eps)) ** ((c & 1) + (c >> 2 & 1)) for c in range(8)]
            tilted = tilt(mu, h)
            return sum(abs(a - b) for a, b in zip(tilted.weights, target.weights))

        assert distance(Fraction(1, 10**6)) < Fraction(1, 10**4)
        assert distance(Fraction(1, 10**6)) < distance(Fraction(1, 10**3))

    def test_nonpositive_tilt_rejected(self):
        mu = uniform(2)
        with pytest.raises(ValueError):
            tilt(mu, [1, 1, 0, 1])

    def test_tilt_whose_float_weights_all_underflow_is_rejected(self):
        mu = normalize(WeightVector.floats([0.25] * 4))
        with pytest.raises(ValueError, match="total weight must be positive"):
            tilt(mu, [5e-324] * 4)


class TestIsDownwardFkg:
    def test_derangement_holds(self):
        report = is_downward_fkg(derangement_measure(3))
        assert report.holds

    def test_gap_measure_two_fails(self):
        _, gap2 = implication_gap_measures(EPS)
        report = is_downward_fkg(normalize(gap2))
        assert report.fails
        assert reverify_witness(normalize(gap2), report) < 0

    def test_lattice_measures_are_downward_fkg(self):
        for seed in range(10):
            mu = normalize(random_measure(seed, 3, "lattice"))
            assert is_downward_fkg(mu).holds

    def test_zero_mass_conditionings_skipped(self):
        mu = point_mass(3, 0b111)
        report = is_downward_fkg(mu)
        assert report.holds
        assert report.details["subsets_skipped"] == 7


class TestChainInvariant:
    def test_implication_chain_on_random_measures(self):
        for seed in range(60):
            for mode in ("generic", "strictly-positive"):
                mu = normalize(random_measure(seed, 3, mode))
                lattice = satisfies_lattice(mu).holds
                dfkg = is_downward_fkg(mu).holds
                assoc = is_associated(mu).holds
                if lattice:
                    assert dfkg
                if dfkg:
                    assert assoc


@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3]))
@settings(max_examples=30, deadline=None)
def test_normalized_measures_always_total_one(seed, n):
    mu = normalize(random_measure(seed, n, "generic"))
    assert mu.total == 1

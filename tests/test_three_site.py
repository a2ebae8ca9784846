from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scaled, uniform

from spincorr import three_site
from spincorr.harness import derangement_measure, implication_gap_measures, random_measure
from spincorr.measures import (
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
    satisfies_lattice,
)
from spincorr.three_site import (
    COORDINATES,
    SYSTEMS,
    classify,
    complement_products,
    from_coordinates,
    margins,
)

EPS = Fraction(1, 100)


def system_holds(measure, system):
    return all(slack >= 0 for _, slack in margins(measure, system))


class TestCoordinates:
    def test_names_address_their_configurations(self):
        # a on 111, b_i with the unique 0 and c_i with the unique 1 at site i
        assert list(COORDINATES) == ["a", "b1", "b2", "b3", "c1", "c2", "c3", "d"]
        for i in range(3):
            assert COORDINATES[f"b{i + 1}"] == 0b111 ^ 1 << i
            assert COORDINATES[f"c{i + 1}"] == 1 << i
        assert (COORDINATES["a"], COORDINATES["d"]) == (0b111, 0b000)

    def test_from_coordinates_places_each_name(self):
        values = {name: Fraction(k + 1) for k, name in enumerate(COORDINATES)}
        measure = from_coordinates(**values)
        assert (measure.n, measure.mode) == (3, "exact")
        assert all(measure.weights[COORDINATES[name]] == v for name, v in values.items())

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_other_site_counts_refused(self, n):
        measure = uniform(n)
        for call in (
            lambda: margins(measure, "cov-prod"),
            lambda: complement_products(measure),
            lambda: classify(measure),
        ):
            with pytest.raises(ValueError, match=f"need 3 sites, got n={n}"):
                call()


class TestMargins:
    def test_uniform_measure(self):
        coords = WeightVector.exact([Fraction(1, 8)] * 8)
        for system in SYSTEMS:
            assert system_holds(coords, system)
        for system in ("det-zero-slice", "det-one-slice"):
            assert all(slack == 0 for _, slack in margins(coords, system))

    def test_gap_measure_one_slice_slack(self):
        gap1, _ = implication_gap_measures(EPS)
        slacks = margins(gap1, "det-one-slice")
        assert slacks[0][1] == EPS * Fraction(1, 6) - Fraction(1, 36)
        assert slacks[0][1] < 0

    def test_derangement_first_product_slack_is_zero(self):
        mu = derangement_measure(3)
        w = {name: mu.weights[mask] for name, mask in COORDINATES.items()}
        assert w["a"] == Fraction(1, 3)
        assert w["b1"] == w["b2"] == w["b3"] == Fraction(1, 6)
        assert w["c1"] == w["c2"] == w["c3"] == 0
        assert w["d"] == Fraction(1, 6)
        slacks = margins(mu, "cov-prod")
        assert slacks[0][1] == 0

    @given(st.integers(0, 10**6), st.integers(2, 9))
    @settings(max_examples=40)
    def test_scale_invariance_of_verdicts(self, seed, factor):
        mu = random_measure(seed, 3, "generic")
        blown_up = scaled(mu, Fraction(factor))
        for system in SYSTEMS:
            original = [slack for _, slack in margins(mu, system)]
            blown = [slack for _, slack in margins(blown_up, system)]
            assert [s * factor * factor for s in original] == blown

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            margins(random_measure(0, 3, "generic"), "nonsense")


class TestClassify:
    def test_gap_measure_one(self):
        gap1, _ = implication_gap_measures(EPS)
        assert classify(gap1) == {
            "lattice": False,
            "dca": True,
            "downward_fkg": True,
            "associated": True,
        }

    def test_gap_measure_two(self):
        _, gap2 = implication_gap_measures(EPS)
        assert classify(gap2) == {
            "lattice": False,
            "dca": False,
            "downward_fkg": False,
            "associated": True,
        }

    def test_product_measures_satisfy_everything(self):
        for seed in range(10):
            assert all(classify(random_measure(seed, 3, "product")).values())

    def test_matches_brute_force_on_random_measures(self):
        for seed in range(60):
            for mode in ("generic", "strictly-positive"):
                mu = normalize(random_measure(seed, 3, mode))
                verdicts = classify(mu)
                assert verdicts["lattice"] == satisfies_lattice(mu).holds
                assert verdicts["downward_fkg"] == is_downward_fkg(mu).holds
                assert verdicts["associated"] == is_associated(mu).holds

    def test_boundary_completion_needed_for_lattice(self):
        # two-site determinants all hold trivially, complement pair fails
        weights = [Fraction(0)] * 8
        weights[0b000] = Fraction(1, 3)
        weights[0b001] = Fraction(1, 3)
        weights[0b110] = Fraction(1, 3)
        coords = WeightVector.exact(weights)
        assert system_holds(coords, "det-zero-slice")
        assert system_holds(coords, "det-one-slice")
        assert any(slack < 0 for _, slack in complement_products(coords))
        assert not classify(coords)["lattice"]
        assert not satisfies_lattice(normalize(coords)).holds


def complement_bound_holds(coords):
    """The lemma: cov-prod and det-zero-slice imply a*d >= b_i*c_i for each i
    (multiply the cov-prod inequality for site i by d and reduce with the
    other two zero-slice determinants)."""
    assert system_holds(coords, "cov-prod") and system_holds(coords, "det-zero-slice")
    return all(slack >= 0 for _, slack in complement_products(coords))


class TestComplementBound:
    def test_uniform_equality(self):
        coords = WeightVector.exact([Fraction(1, 8)] * 8)
        assert complement_bound_holds(coords)
        assert all(slack == 0 for _, slack in complement_products(coords))

    def test_gap_measure_one(self):
        gap1, _ = implication_gap_measures(EPS)
        assert complement_bound_holds(gap1)

    def test_gap_measure_two_fails_precondition(self):
        _, gap2 = implication_gap_measures(EPS)
        assert not (system_holds(gap2, "cov-prod") and system_holds(gap2, "det-zero-slice"))

    def test_randomized_implication(self):
        # the bound must follow from cov-prod plus det-zero-slice; integer
        # coordinates are enough by scale invariance and keep this fast
        import random

        rng = random.Random(1234)
        checked = 0
        draws = 0
        while checked < 10**4:
            draws += 1
            if draws > 10**6:
                raise AssertionError("not enough qualifying samples")
            a, b1, b2, b3, c1, c2, c3, d = (rng.randrange(0, 13) for _ in range(8))
            if not (a or b1 or b2 or b3 or c1 or c2 or c3 or d):
                continue
            # independently transcribed precondition, raw integer arithmetic
            if b1 * d < c2 * c3 or b2 * d < c1 * c3 or b3 * d < c1 * c2:
                continue
            if (
                a * (c2 + c3 + d) < b1 * (b2 + b3 + c1)
                or a * (c1 + c3 + d) < b2 * (b1 + b3 + c2)
                or a * (c1 + c2 + d) < b3 * (b1 + b2 + c3)
            ):
                continue
            coords = from_coordinates(a=a, b1=b1, b2=b2, b3=b3, c1=c1, c2=c2, c3=c3, d=d)
            assert complement_bound_holds(coords)
            checked += 1


class TestChainConsistency:
    def test_verdict_sets_respect_the_chain(self):
        for seed in range(300):
            verdicts = classify(random_measure(seed, 3, "generic"))
            if verdicts["lattice"]:
                assert verdicts["dca"]
            if verdicts["dca"]:
                assert verdicts["downward_fkg"]
            if verdicts["downward_fkg"]:
                assert verdicts["associated"]

    def test_float_slacks_at_zero_tolerance_return_verdicts(self):
        # a float product measure: its slacks are rounding noise around 0,
        # which at tolerance 0 can put the lattice condition outside DCA
        mu = WeightVector.floats([0.029514837584755538, 0.075784238614897, 0.01958029447340307,
                                  0.05027565217871138, 0.13899210617405308, 0.35688527540202564,
                                  0.09220807536383419, 0.23675952020832014])
        verdicts = classify(mu, tolerance=0)
        assert verdicts["lattice"] and not verdicts["dca"]

    def test_chain_is_asserted_on_exact_input(self, monkeypatch):
        # a cov-any system that always fails would put DCA outside association
        slacks = three_site.margins
        monkeypatch.setattr(three_site, "margins",
                            lambda measure, system:
                            ((1, -1),) * 3 if system == "cov-any" else slacks(measure, system))
        with pytest.raises(AssertionError):
            classify(random_measure(0, 3, "product"))
        assert not classify(WeightVector.floats([1.0] * 8))["associated"]

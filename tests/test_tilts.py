from fractions import Fraction
from itertools import islice

import pytest
from oracles import tilt_table_is_valid

from spincorr.harness import derangement_measure, implication_gap_measures, random_measure
from spincorr.measures import (
    FAILS,
    HOLDS,
    SEARCH_EXHAUSTED,
    ProbabilityMeasure,
    WeightVector,
    is_associated,
    normalize,
    satisfies_lattice,
    tilt,
)
from spincorr.tilts import (
    TiltFunction,
    TiltSampler,
    conditioning_tilt,
    dca_falsify,
    reverify_tilt_witness,
)

EPS = Fraction(1, 100)


class TestTiltFunction:
    def test_sampled_family_is_valid_by_table_check(self):
        for tf in islice(iter(TiltSampler(3, seed=5)), 60):
            tf.validate()
            ok, reason = tilt_table_is_valid(tf.values_exact(), 3)
            assert ok, reason

    def test_conditioning_tilt_values(self):
        tf = conditioning_tilt(2, [0], Fraction(1))
        assert tf.values_exact() == (1, Fraction(1, 2), 1, Fraction(1, 2))

    @pytest.mark.parametrize("sites,bad", [([5], 5), ([0, -1], -1), ([3], 3)])
    def test_conditioning_tilt_sites_range_checked(self, sites, bad):
        with pytest.raises(ValueError, match=f"site {bad} out of range for 3 sites"):
            conditioning_tilt(3, sites, 1)

    def test_interaction_factor_below_one_rejected(self):
        tf = TiltFunction(2, (Fraction(1, 2), Fraction(1, 2)), ((0b11, Fraction(1, 2)),))
        with pytest.raises(ValueError):
            tf.validate()

    def test_increasing_direction_rejected(self):
        tf = TiltFunction(2, (Fraction(1), Fraction(1)), ((0b11, Fraction(2)),))
        with pytest.raises(ValueError):
            tf.validate()

    def test_sampler_is_deterministic(self):
        first = [tf.values_exact() for tf in islice(iter(TiltSampler(3, seed=9)), 40)]
        second = [tf.values_exact() for tf in islice(iter(TiltSampler(3, seed=9)), 40)]
        assert first == second

    def test_table_check_flags_increasing_table(self):
        ok, reason = tilt_table_is_valid([1, 2], 1)
        assert not ok
        assert "decreasing" in reason


class TestDcaFalsify:
    def test_single_site_always_holds(self):
        mu = normalize(random_measure(0, 1, "generic"))
        assert dca_falsify(mu).verdict == HOLDS

    def test_two_site_determinant(self):
        for seed in range(30):
            mu = normalize(random_measure(seed, 2, "generic"))
            w = mu.weights
            det = w[0b11] * w[0b00] - w[0b10] * w[0b01]
            report = dca_falsify(mu)
            assert report.holds == (det >= 0)
            assert report.margin == det

    def test_gap_measures(self):
        gap1, gap2 = implication_gap_measures(EPS)
        assert dca_falsify(normalize(gap1)).verdict == HOLDS
        report = dca_falsify(normalize(gap2))
        assert report.verdict == FAILS
        assert reverify_tilt_witness(normalize(gap2), report) < 0

    def test_fails_verdict_is_sound(self):
        # any fails witness must reproduce a strict association violation
        for seed in range(40):
            mu = normalize(random_measure(seed, 3, "generic"))
            report = dca_falsify(mu)
            if report.fails:
                h = [Fraction(v) for v in report.witness["tilt_values"]]
                tilted = tilt(mu, h)
                assert is_associated(tilted).fails
                assert reverify_tilt_witness(mu, report) < 0

    def test_lattice_measures_never_falsified_at_four_sites(self):
        for seed in range(3):
            mu = normalize(random_measure(seed, 4, "lattice"))
            report = dca_falsify(mu, budget=120)
            assert report.verdict == SEARCH_EXHAUSTED
            assert report.details["downward_fkg_screen"] == HOLDS

    def test_four_site_screen_produces_tilt_witness(self):
        # product of the three-site gap measure with an independent point:
        # still associated but not downward FKG, so not DCA
        _, gap2 = implication_gap_measures(EPS)
        base = normalize(gap2)
        weights = []
        for c in range(16):
            low = c & 0b111
            w = base.weights[low] * (Fraction(1, 3) if c >> 3 & 1 else Fraction(2, 3))
            weights.append(w)
        mu = ProbabilityMeasure(4, tuple(weights))
        report = dca_falsify(mu, budget=50)
        assert report.verdict == FAILS
        assert reverify_tilt_witness(mu, report) < 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_witness_when_the_conditioned_slice_is_tiny(self, n):
        # conditioned on site 0 empty, sites 1 and 2 are negatively
        # correlated, but that slice weighs 10^-400 against the full
        # configuration, so no eps down to 10^-12 reproduces the violation
        three = [1, 0, 1, 0, 1, 0, 0, 10**400]
        mu = normalize(WeightVector.exact([three[c & 0b111] for c in range(1 << n)]))
        report = dca_falsify(mu, budget=5)
        assert report.verdict == FAILS
        assert report.witness["tilt_label"].startswith("conditioning-[0]-")
        assert reverify_tilt_witness(mu, report) < 0

    def test_derangement_holds(self):
        assert dca_falsify(derangement_measure(3)).verdict == HOLDS

    def test_chain_against_lattice_at_three_sites(self):
        for seed in range(40):
            mu = normalize(random_measure(seed, 3, "generic"))
            if satisfies_lattice(mu).holds:
                assert dca_falsify(mu).verdict == HOLDS

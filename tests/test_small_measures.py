"""Small-measure checks against the same checks done the long way.

``is_downward_fkg`` hands its slices to ``is_associated`` unnormalized and
folds a one-site slice's margin 0 in without a sweep; ``dca_falsify``
sweeps each tilt's float64 weights without building a measure.  Their
reports must equal those of ``oracles.reference_downward_fkg`` and of
``is_associated`` on the normalized measure, margins to the last bit.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import fresh_family_dca, reference_downward_fkg

from spincorr import measures, tilts
from spincorr.cli import main
from spincorr.dynamics import build_generator, contact_process, path_edges, semigroup_apply
from spincorr.harness import MEASURE_MODES, derangement_measure, random_measure
from spincorr.measures import (
    ProbabilityMeasure,
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
)
from spincorr.tilts import dca_falsify

# weights whose float sum is 1 + 2^-52 once normalized: association fails
# just past the default tolerance, on the measure itself
EDGE_WEIGHTS = [0.554050247808328, 0.44045810180270206, 0.018081980827037603,
                0.33149788914199063, 0.623927073891864, 0.5122622844634556,
                0.06429079259075188, 0.41632357340147996]


def report_key(report):
    """Verdict, witness, details and the margin bit for bit."""
    margin = report.margin
    if isinstance(margin, float):
        margin = margin.hex()
    return (report.verdict, report.witness, report.details, type(report.margin), margin)


def differential_measures():
    """Every random_measure family, exact and float, and evolved contact-path measures."""
    out = []
    for family in MEASURE_MODES:
        for n in range(1, 6):
            for seed in range(6 if n <= 4 else 2):
                exact = normalize(random_measure(seed, n, family))
                out.append(exact)
                out.append(ProbabilityMeasure.floats([float(w) for w in exact.weights]))
    for n in (3, 4):
        gen = build_generator(contact_process(path_edges(n)))
        for seed in range(3):
            start = normalize(random_measure(seed, n, "generic"))
            out.extend(semigroup_apply(gen, start, t) for t in (0.1, 1.0))
    return out


class TestDownwardFkgAgainstReference:
    @pytest.mark.parametrize("tolerance", [None, 0])
    def test_reports_are_identical(self, tolerance):
        measures = differential_measures()
        assert {m.n for m in measures} == {1, 2, 3, 4, 5}
        for measure in measures:
            assert (report_key(is_downward_fkg(measure, tolerance=tolerance))
                    == report_key(reference_downward_fkg(measure, tolerance=tolerance)))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_one_site_measures_carry_margin_zero(self, mode):
        weights = [Fraction(1, 3), Fraction(2, 3)] if mode == "exact" else [1 / 3, 2 / 3]
        measure = normalize(WeightVector(1, weights, mode))
        report = is_downward_fkg(measure)
        assert report.holds and report.details["subsets_checked"] == 2
        assert type(report.margin) is type(weights[0]) and report.margin == 0

    def test_the_empty_conditioning_is_the_measure_itself(self, tmp_path, capsys):
        # renormalized, the empty slice held at -9.9999995e-10 while
        # association failed at -1.0000000222e-9 on the same document
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"mode": "float", "weights": EDGE_WEIGHTS}))
        assert main(["check-measure", "--input", str(path)]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        association, downward = reports["associated"], reports["downward-fkg"]
        assert association["verdict"] == downward["verdict"] == "fails"
        assert downward["witness"]["conditioned_sites"] == []
        pair = ("mask_u", "mask_v", "up_set_u", "up_set_v")
        assert [downward["witness"][k] for k in pair] == [association["witness"][k] for k in pair]
        assert downward["margin"] == association["margin"]


@st.composite
def exact_vectors(draw):
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 40), min_size=1 << n, max_size=1 << n)
                   .filter(any))
    return WeightVector.exact([Fraction(w, 7) for w in weights])


class TestExactScaleInvariance:
    @given(exact_vectors(), st.fractions(min_value=Fraction(1, 10**9), max_value=10**9))
    def test_a_scaled_vector_reports_as_its_normalization(self, vector, factor):
        scaled = WeightVector.exact([w * factor for w in vector.weights])
        report, expected = is_associated(scaled), is_associated(normalize(vector))
        assert report.verdict == expected.verdict
        assert report.witness == expected.witness
        assert report.details["pairs_checked"] == expected.details["pairs_checked"]
        assert type(report.margin) is Fraction and report.margin == expected.margin


class TestDcaTiltSweep:
    def test_a_tilt_that_loses_its_mass_is_refused(self, monkeypatch):
        def family(n):
            return ((tilts.conditioning_tilt(n, [0], 1), np.full(1 << n, np.nan)),)

        monkeypatch.setattr(tilts, "_conditioning_family", family)
        with pytest.raises(ValueError, match="^float measure sums to nan, outside 1e-12 of 1$"):
            dca_falsify(derangement_measure(4), budget=1)

    def test_a_tilt_that_underflows_a_weight_sweeps_its_own_support(self, monkeypatch):
        # a measure on the chain 0b0001 < 0b0011 < 0b1111, so DCA holds;
        # 5e-324 times a tilt value below 1/2 rounds to 0, and such a tilt
        # gives mass 1 to the up-sets holding configurations 3 and 15 only
        weights = [0.0] * 16
        weights[0b0001], weights[0b0011], weights[0b1111] = 5e-324, 0.25, 0.75
        measure = ProbabilityMeasure.floats(weights)
        sweep, supports = tilts._float_sweep, []

        def recording(n, tilted, null, tol):
            assert np.array_equal(null, measures._null_up_sets(n, tilted > 0))
            supports.append(np.count_nonzero(tilted))
            return sweep(n, tilted, null, tol)

        monkeypatch.setattr(tilts, "_float_sweep", recording)
        for tolerance in (None, 0):
            assert (report_key(dca_falsify(measure, budget=60, tolerance=tolerance))
                    == report_key(fresh_family_dca(measure, 60, tolerance=tolerance)))
        full = np.count_nonzero(weights)
        assert set(supports) == {full - 1, full}

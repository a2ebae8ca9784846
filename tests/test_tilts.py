import contextlib
import hashlib
import inspect
import io
import json
import re
from fractions import Fraction
from itertools import islice
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import fraction_tilt_values, fresh_family_dca, sampled_tilts, tilt_table_is_valid

from spincorr import tilts
from spincorr.cli import build_parser, main
from spincorr.harness import (
    ExperimentSpec,
    _factor_table,
    derangement_measure,
    evaluate_property,
    implication_gap_measures,
    random_measure,
)
from spincorr.measures import (
    DEFAULT_FLOAT_TOLERANCE,
    FAILS,
    HOLDS,
    SEARCH_EXHAUSTED,
    ProbabilityMeasure,
    PropertyReport,
    WeightVector,
    is_associated,
    normalize,
    satisfies_lattice,
    tilt,
)
from spincorr.three_site import margins
from spincorr.tilts import conditioning_tilt, dca_falsify, reverify_tilt_witness

EPS = Fraction(1, 100)


def _digest(stream) -> str:
    lines = (f"{label}:{','.join(map(str, h))}" for label, h in stream)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def joint_conditioning_factors(amask: int, eps: Fraction) -> dict:
    """Factor eps^((-1)^(|B|+1)) on each nonempty B within A, keyed by B's mask:
    their product is h = eps^[eta != 0 on A], below 1 on every odd B with |B| >= 3."""
    return {b: eps if b.bit_count() % 2 else 1 / eps
            for b in range(1, amask + 1) if b & amask == b}


def multiplied(*factor_maps) -> dict:
    out = {}
    for factors in factor_maps:
        for mask, v in factors.items():
            out[mask] = out.get(mask, 1) * v
    return out


def factored_table(n: int, factors: dict) -> tuple[Fraction, ...]:
    """The table of the tilt whose factor on mask B is factors[B]; a one-site
    mask holds a site factor."""
    nums, den = _factor_table(
        [factors.get(1 << x, 1) for x in range(n)],
        [(m, v) for m, v in sorted(factors.items()) if m.bit_count() >= 2])
    return tuple(Fraction(v, den) for v in nums)


def interaction_masks(n: int) -> list:
    return [m for m in range(1 << n) if m.bit_count() >= 2]


@st.composite
def factorizations(draw):
    """n in 2..4, site factors in (0, 1], each interaction factor (in [1/4, 4])
    present with probability 1/10, times up to two joint-conditioning tilts,
    on three sites or more where there are three: their triple factors are
    below 1."""
    n = draw(st.integers(2, 4))
    masks = interaction_masks(n)
    factors = {1 << x: Fraction(draw(st.integers(1, 16)), 16) for x in range(n)}
    factors.update((m, Fraction(draw(st.integers(1, 16)), 4))
                   for m in masks if draw(st.integers(0, 9)) == 0)
    joint = [m for m in masks if m.bit_count() >= 3] or masks
    planted = draw(st.lists(st.tuples(st.sampled_from(joint), st.integers(2, 10)), max_size=2))
    return n, multiplied(factors, *(joint_conditioning_factors(a, Fraction(1, k))
                                    for a, k in planted))


class TestTiltFunction:
    def test_sampled_family_is_valid_by_table_check(self):
        for label, h in islice(sampled_tilts(3, seed=5), 60):
            ok, reason = tilt_table_is_valid(h, 3)
            assert ok, (label, reason)

    def test_conditioning_tilt_values(self):
        assert conditioning_tilt(2, [0], Fraction(1)) == (
            "conditioning-[0]-eps=1", (1, Fraction(1, 2), 1, Fraction(1, 2)))

    @pytest.mark.parametrize("sites,bad", [([5], 5), ([0, -1], -1), ([3], 3)])
    def test_conditioning_tilt_sites_range_checked(self, sites, bad):
        with pytest.raises(ValueError, match=f"site {bad} out of range for 3 sites"):
            conditioning_tilt(3, sites, 1)

    @pytest.mark.parametrize("eps", [float("inf"), float("-inf"), float("nan"), "1/0", None,
                                     "x", [1], 0, -1, "-1/2"])
    def test_conditioning_tilt_eps_must_be_a_positive_finite_rational(self, eps):
        with pytest.raises(ValueError, match="eps must be a positive finite rational"):
            conditioning_tilt(3, [0], eps)

    @pytest.mark.parametrize("n", [0, 7, True])
    def test_conditioning_tilt_site_count_checked(self, n):
        with pytest.raises(ValueError, match=r"^site count must be an integer in \[1, 6\], got "):
            conditioning_tilt(n, [], 1)

    def test_interaction_factor_below_one_rejected(self):
        # h = (1, 1/2, 1/2, 1/8): decreasing, but h(00) h(11) < h(01) h(10)
        h = factored_table(2, {0b01: Fraction(1, 2), 0b10: Fraction(1, 2), 0b11: Fraction(1, 2)})
        assert tilt_table_is_valid(h, 2) == (False, "supermodularity fails at pair (1, 2)")

    def test_increasing_direction_rejected(self):
        # h = (1, 1, 1, 2): the first rising edge is 01 -> 11
        h = factored_table(2, {0b11: 2})
        assert tilt_table_is_valid(h, 2) == (False, "not decreasing at pair (1, 3)")

    @pytest.mark.parametrize("sites,interactions,message", [
        ((Fraction(1, 2), 0), (), r"h\(0b10\) = 0 is not strictly positive"),
        ((Fraction(1, 2), Fraction(1, 2)), ((0b11, -1),), r"h\(0b11\) = -1/4 is not strictly positive"),
    ])
    def test_nonpositive_entry_rejected(self, sites, interactions, message):
        nums, den = _factor_table(sites, interactions)
        ok, reason = tilt_table_is_valid([Fraction(v, den) for v in nums], 2)
        assert not ok
        assert re.fullmatch(message, reason)

    def test_int_factors_are_exact(self):
        nums, den = _factor_table((1, Fraction(1, 2)), ((0b11, 1),))
        assert tuple(Fraction(v, den) for v in nums) == (1, 1, Fraction(1, 2), Fraction(1, 2))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_factor_tables_match_the_fraction_product(self, data):
        # factors below and above 1, as ints or Fractions, and repeated masks
        n = data.draw(st.integers(1, 5))
        factor = st.one_of(st.integers(1, 4), st.fractions(Fraction(1, 64), 8, max_denominator=64))
        site_factors = data.draw(st.lists(factor, min_size=n, max_size=n))
        masks = interaction_masks(n)
        interactions = data.draw(st.lists(st.tuples(st.sampled_from(masks), factor), max_size=6)
                                 if masks else st.just([]))
        nums, den = _factor_table(site_factors, interactions)
        reference = fraction_tilt_values(n, site_factors, interactions)
        assert tuple(Fraction(v, den) for v in nums) == reference

    @pytest.mark.parametrize("n,seed,digest", [
        (2, 0, "645fb07e7836c1fb"), (2, 1, "4c996c815f99d028"),
        (3, 0, "4ac9056437e1755f"), (3, 1, "b2068f27f5444f81"),
        (4, 0, "afaf06c2960fd13e"), (4, 1, "6b98d08c6ba0e82a"),
        (5, 0, "06ba3b7befce8651"), (5, 1, "7aa3d993fb156873"),
    ])
    def test_sampled_stream_is_pinned(self, n, seed, digest):
        # the first 200 tilts, conditioning family included, label and table;
        # each is valid by the table check
        stream = list(islice(sampled_tilts(n, seed), 200))
        assert _digest(stream) == digest
        for label, h in stream:
            assert tilt_table_is_valid(h, n) == (True, None), label

    @pytest.mark.parametrize("n,digest", [
        (2, "eecae46b77603527"), (3, "e1384b8fbef62a21"),
        (4, "0e97217590c63c2a"), (5, "5026733183735ccd"),
    ])
    def test_conditioning_family_is_pinned(self, n, digest):
        # the (2^n - 1) * 3 tilts that dca_falsify sweeps, label and table
        family = tilts._conditioning_family(n)
        assert len(family) == ((1 << n) - 1) * 3
        assert _digest((label, h) for label, h, _ in family) == digest

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conditioning_family_is_valid_with_its_float_tables(self, n):
        # each h is positive, decreasing and log-supermodular exactly, and its
        # float table is the correctly rounded h, byte for byte
        for label, h, table in tilts._conditioning_family(n):
            assert tilt_table_is_valid(h, n) == (True, None), label
            assert table.tobytes() == np.array([float(v) for v in h]).tobytes()

    def test_table_check_flags_increasing_table(self):
        ok, reason = tilt_table_is_valid([1, 2], 1)
        assert not ok
        assert "decreasing" in reason


class TestTiltCone:
    """Validity is a property of h's table, whatever factors write it down."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_joint_conditioning_tilts_are_accepted(self, n):
        for amask in interaction_masks(n):
            for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
                h = factored_table(n, joint_conditioning_factors(amask, eps))
                assert h == tuple(eps if c & amask else 1 for c in range(1 << n))
                ok, reason = tilt_table_is_valid(h, n)
                assert ok, reason

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_products_of_joint_conditioning_tilts_are_accepted(self, n):
        masks = interaction_masks(n)
        products = [[(a, Fraction(1, 2)), (b, Fraction(1, 1000))]
                    for a in masks for b in masks if n < 5 or a == (1 << n) - 1]
        products.append([(a, Fraction(1, 10)) for a in masks])
        for planted in products:
            h = factored_table(n, multiplied(*(joint_conditioning_factors(a, eps)
                                               for a, eps in planted)))
            ok, reason = tilt_table_is_valid(h, n)
            assert ok, reason

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_table_check_ignores_site_labels(self, data):
        # relabelling the sites moves every factor with them: validity stays
        n, factors = data.draw(factorizations())
        ok, _ = tilt_table_is_valid(factored_table(n, factors), n)
        perm = data.draw(st.permutations(range(n)))
        moved = {sum(1 << perm[x] for x in range(n) if m >> x & 1): v for m, v in factors.items()}
        assert tilt_table_is_valid(factored_table(n, moved), n)[0] == ok


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

    def test_a_sampled_tilt_confirms_past_a_holding_screen(self, monkeypatch):
        # the gap measure times an independent fair site fails the screen;
        # no known four-site measure is downward FKG but not DCA, so the
        # screen is patched to hold and the sampled tilts must find it
        base = normalize(implication_gap_measures(EPS)[1])
        mu = ProbabilityMeasure(4, tuple(base.weights[c & 0b111] / 2 for c in range(16)))
        report = dca_falsify(mu, budget=45)
        assert report.fails and report.details["downward_fkg_screen"] == FAILS
        assert "tilts_sampled" not in report.details
        holding = PropertyReport("downward-fkg", HOLDS, None, None, {})
        monkeypatch.setattr(tilts, "is_downward_fkg", lambda *args, **kwargs: holding)
        floats = ProbabilityMeasure.floats(mu.as_float_array())
        for measure in (mu, floats):
            report = dca_falsify(measure, budget=45)
            assert report.fails and report.details["downward_fkg_screen"] == HOLDS
            assert report.details["tilts_sampled"] == 1
            assert report.witness["tilt_label"] == "conditioning-[0]-eps=1"
            assert float(reverify_tilt_witness(measure, report)) == pytest.approx(-0.0103, abs=1e-4)
        assert dca_falsify(mu, budget=45).margin == Fraction(-100, 4851)

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

    def test_float_witness_reverifies_on_the_exactly_normalized_measure(self):
        # the binary sum of these floats is not exactly 1
        mu = ProbabilityMeasure.floats([0.1, 0.4, 0.4, 0.1])
        report = dca_falsify(mu)
        assert report.fails
        exact = normalize(WeightVector.exact(mu.as_fractions()))
        assert reverify_tilt_witness(mu, report) == reverify_tilt_witness(exact, report) < 0

    def test_an_unconfirmed_violation_raises_only_when_exact(self, monkeypatch):
        # exact: the eps = 1/(6 T^2) bound guarantees a witness, so a miss is a
        # bug; float: the violation sits within rounding of -tolerance
        monkeypatch.setattr(tilts, "_tilt_witness", lambda *args: None)
        mu = normalize(implication_gap_measures(EPS)[1])
        with pytest.raises(RuntimeError, match="could not be reproduced"):
            dca_falsify(mu)
        floats = ProbabilityMeasure.floats(mu.as_float_array())
        report = dca_falsify(floats)
        assert report.holds and report.margin < -DEFAULT_FLOAT_TOLERANCE
        # at four sites the failed screen falls through to tilt sampling
        four = ProbabilityMeasure.floats([w / 2 for w in floats.weights for _ in range(2)])
        report = dca_falsify(four, budget=3)
        assert report.verdict == SEARCH_EXHAUSTED
        assert report.details["downward_fkg_screen"] == FAILS

    def test_chain_against_lattice_at_three_sites(self):
        for seed in range(40):
            mu = normalize(random_measure(seed, 3, "generic"))
            if satisfies_lattice(mu).holds:
                assert dca_falsify(mu).verdict == HOLDS

    @pytest.mark.parametrize("caller", [
        "dca_falsify", "evaluate_property", "ExperimentSpec", "check-measure", "verify-theorem"])
    def test_one_default_tilt_budget_sweeps_every_family(self, caller):
        # every entry point defaults to the same budget, past the largest family
        parser = build_parser()
        default = {
            "dca_falsify": lambda: inspect.signature(dca_falsify).parameters["budget"].default,
            "evaluate_property": lambda: inspect.signature(
                evaluate_property).parameters["tilt_budget"].default,
            "ExperimentSpec": lambda: ExperimentSpec.__dataclass_fields__["tilt_budget"].default,
            "check-measure": lambda: parser.parse_args(["check-measure", "--input", "m"]).budget,
            "verify-theorem": lambda: parser.parse_args(
                ["verify-theorem", "--system", "s", "--property", "dca"]).budget,
        }[caller]()
        assert default == tilts.DEFAULT_TILT_BUDGET
        assert all(len(tilts._conditioning_family(n)) <= default for n in range(2, 7))


def _same_report(actual, expected):
    """Verdict, witness, details and margin agree, floats bit for bit."""
    def exact(value):
        return float.hex(value) if isinstance(value, float) else value
    assert actual.verdict == expected.verdict
    assert actual.witness == expected.witness
    assert {k: exact(v) for k, v in actual.details.items()} == {
        k: exact(v) for k, v in expected.details.items()}
    assert exact(actual.margin) == exact(expected.margin)


def _stream_measures(n):
    """Exact and float measures that pass the screen, and one that fails it."""
    _, gap2 = implication_gap_measures(EPS)
    base = normalize(gap2)
    failing = ProbabilityMeasure(n, tuple(
        base.weights[c & 0b111] * Fraction(1, 1 << (n - 3)) for c in range(1 << n)))
    derangement = derangement_measure(n)
    return [derangement, ProbabilityMeasure.floats(derangement.as_float_array()),
            normalize(random_measure(1, n, "lattice")), failing]


class TestTiltStream:
    """dca_falsify sweeps the soft-conditioning family, built once per n; its
    reports match the sweep over a freshly built family whatever the order
    of calls, and the seed changes nothing."""

    def _check(self, calls, measures):
        tilts._conditioning_family.cache_clear()
        for budget, seed in calls:
            for mu in measures:
                _same_report(dca_falsify(mu, budget=budget, seed=seed), fresh_family_dca(mu, budget))

    def test_budgets_across_the_conditioning_family(self):
        # n = 4 has 45 conditioning tilts: a budget past 45 sweeps those 45
        self._check([(b, 0) for b in (0, 1, 45, 46, 60, 200)], _stream_measures(4))

    def test_a_shorter_call_after_longer_ones(self):
        self._check([(60, 0), (200, 0), (10, 0)], _stream_measures(4))

    def test_five_sites(self):
        # a five-site float sweep takes about 0.07 s (2-CPU host), so only a few
        # tilts here; test_conditioning_family_is_pinned pins their tables
        derangement = derangement_measure(5)
        self._check([(0, 0), (1, 0), (2, 1), (3, 0)], [derangement])

    def test_tables_are_shared_and_read_only(self):
        tilts._conditioning_family.cache_clear()
        first, again = tilts._conditioning_family(4), tilts._conditioning_family(4)
        assert all(a is b for a, b in zip(first, again))
        with pytest.raises(ValueError):
            first[0][2][0] = 2.0

    @pytest.mark.parametrize("seed", ["x", None, 1.5, True])
    def test_seed_must_be_an_int(self, seed):
        mu = derangement_measure(4)
        with pytest.raises(ValueError, match="^tilt seed must be an int, got "):
            dca_falsify(mu, budget=50, seed=seed)

    @pytest.mark.parametrize("budget", [True, 2.0, -1, "3", None])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        mu = derangement_measure(4)
        with pytest.raises(ValueError, match="tilt budget must be a nonnegative integer"):
            dca_falsify(mu, budget=budget)


# Float measures at the DCA boundary on which the two- and three-site
# checks used to raise: an unconfirmed witness (RuntimeError), an empty
# zero-slice set ("min() arg is an empty sequence"), or the chain
# assertion of three_site.classify.
BOUNDARY_DOCUMENTS = [
    [0.3595674775994071, 0.16543350663712514, 0.3253216738415143, 0.14967734192195345],
    [0.2975, 0.1275, 0.4025, 0.1725],
    [0.14425508335743753, 0.11779223807836836, 0.30848182410193437, 0.8161263591200314,
     0.18072637992393747, 0.5816001636624663, 0.6389134689261841, 2.6327041729725185],
    [0.554050247808328, 0.44045810180270206, 0.018081980827037603, 0.33149788914199063,
     0.623927073891864, 0.5122622844634556, 0.06429079259075188, 0.41632357340147996],
    [0.029514837584755538, 0.075784238614897, 0.01958029447340307, 0.05027565217871138,
     0.13899210617405308, 0.35688527540202564, 0.09220807536383419, 0.23675952020832014],
]


def _closed_form_margin(weights):
    pm = normalize(WeightVector.floats(weights))
    if pm.n == 2:
        w = pm.weights
        return w[0b11] * w[0b00] - w[0b10] * w[0b01]
    return min(slack for system in ("cov-prod", "cov-pair", "det-zero-slice")
               for _, slack in margins(pm, system))


def _float_report(weights, tolerance):
    """dca_falsify on a float measure: a closed-form verdict and margin,
    and a failure only below -tolerance."""
    report = dca_falsify(WeightVector.floats(weights), tolerance=tolerance)
    assert report.verdict in (HOLDS, FAILS)
    assert report.margin == _closed_form_margin(weights)
    tol = DEFAULT_FLOAT_TOLERANCE if tolerance is None else tolerance
    assert not report.fails or report.margin < -tol
    return report


class TestFloatBoundary:
    @pytest.mark.parametrize("tolerance", [None, 0])
    @pytest.mark.parametrize("weights", BOUNDARY_DOCUMENTS)
    def test_documents_end_in_a_verdict(self, tmp_path, weights, tolerance):
        report = _float_report(weights, tolerance)
        if report.fails:
            assert reverify_tilt_witness(WeightVector.floats(weights), report) < 0
        path = tmp_path / "measure.json"
        path.write_text(json.dumps({"weights": weights}))
        option = [] if tolerance is None else ["--tolerance", str(tolerance)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check-measure", "--input", str(path), *option])
        assert code in (0, 1)
        assert err.getvalue() == ""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda n: st.lists(st.floats(0.001, 1), min_size=1 << n, max_size=1 << n)),
        st.sampled_from([None, 0]))
    def test_bisected_to_the_boundary(self, target, tolerance):
        # from a ferromagnet, whose margin is positive, towards a measure
        # that is not DCA, until the margin crosses -tolerance
        tol = DEFAULT_FLOAT_TOLERANCE if tolerance is None else tolerance
        assume(_closed_form_margin(target) < -tol)
        start = [2.0 ** (c.bit_count() * (c.bit_count() - 1) // 2) for c in range(len(target))]

        def mix(s):
            return [(1 - s) * a + s * b for a, b in zip(start, target)]

        lo, hi = 0.0, 1.0
        while lo < (mid := (lo + hi) / 2) < hi:
            if _closed_form_margin(mix(mid)) >= -tol:
                lo = mid
            else:
                hi = mid
        for s in (lo, hi):
            report = _float_report(mix(s), tolerance)
            if report.fails and tolerance is None:
                assert reverify_tilt_witness(WeightVector.floats(mix(s)), report) < 0

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda n: st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
    def test_float_products_at_zero_tolerance(self, probabilities):
        weights = [prod(p if c >> x & 1 else 1 - p for x, p in enumerate(probabilities))
                   for c in range(1 << len(probabilities))]
        _float_report(weights, 0)

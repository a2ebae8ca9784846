"""The association sweep against an exact reference of its block rule.

``is_associated`` screens up-set pairs in floats, float32 at five sites
and float64 below, rechecks the undecided pairs in float64 and certifies
what stays undecided over Python ints; whatever the screen does, its
reports must equal the rule evaluated exactly pair by pair: sweep the
up-set rows in blocks of (1 << 23) // K, stop after the first block
holding a violation, report that pair (lexicographically first), the
minimum over the blocks swept, and the number of pairs in them.  The
screen and recheck values themselves must lie within their a-priori
rounding bounds of the exact covariances.

An exact measure that satisfies (1.3) is associated by Theorem 1.2, and
``is_associated`` reports it without a sweep; these tests sweep it anyway
(``sweeping``), so that every family still exercises the screen, and
``TestLatticeShortcut`` checks that the unswept report is the sweep's.
An exact five-site measure fixed by site permutations sweeps one up-set
row per orbit first; ``TestOrbitSweep`` checks that its reports are those
of the full sweep.
"""

import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import permuted_configs, point_mass

from spincorr import measures
from spincorr.harness import derangement_measure, implication_gap_measures, random_measure
from spincorr.lattice import BudgetError, enumerate_up_sets, up_set_matrix, up_set_members
from spincorr.measures import (
    FAILS,
    ProbabilityMeasure,
    PropertyReport,
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
    reverify_witness,
    satisfies_lattice,
    tilt,
)
from spincorr.tilts import conditioning_tilt, dca_falsify

FAMILIES = ("lattice", "product", "strictly-positive", "generic")


def integer_weights(weights):
    """(T, numerators) of the normalized weights over their common denominator T."""
    fracs = [Fraction(w) for w in weights]
    fracs = [f / sum(fracs) for f in fracs]
    total = math.lcm(*(f.denominator for f in fracs))
    return total, [f.numerator * (total // f.denominator) for f in fracs]


def reference_association(weights):
    """(verdict, (mask_u, mask_v) or None, margin, pairs) by the block rule.

    With T the common denominator of the normalized weights and S(U) the sum
    of their numerators over U, every pair is evaluated as the integer
    T*S(U & V) - S(U)*S(V) = T^2 cov(1_U, 1_V); no float is involved.  Both
    products are at most T^2, so below 2^62 int64 holds them exactly.
    """
    total, ints = integer_weights(weights)
    masks = enumerate_up_sets(len(ints).bit_length() - 1)
    mask_array = np.array(masks, dtype=np.int64)
    sums = np.array([sum(ints[c] for c in up_set_members(m)) for m in masks],
                    dtype=np.int64 if total**2 < 2**62 else object)
    k = len(masks)
    block = max(1, min(k, (1 << 23) // k))
    best = None
    pairs = 0
    for start in range(0, k, block):
        witness = None
        for i in range(start, min(start + block, k)):
            inter = np.searchsorted(mask_array, mask_array[i] & mask_array[i:])
            values = total * sums[inter] - sums[i] * sums[i:]
            pairs += k - i
            row_min = values.min()
            best = row_min if best is None else min(best, row_min)
            negative = np.flatnonzero(values < 0)
            if witness is None and negative.size:
                witness = (masks[i], masks[i + int(negative[0])])
        if witness is not None:
            return "fails", witness, Fraction(int(best), total * total), pairs
    return "holds", None, Fraction(int(best), total * total), pairs


@contextmanager
def sweeping():
    """Within it ``is_associated`` sweeps an exact measure that satisfies
    (1.3) too, which it otherwise reports by Theorem 1.2 without a sweep."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "satisfies_lattice",
                      lambda vector: PropertyReport("fkg-lattice", FAILS))
        yield


def engine(measure):
    with sweeping():
        report = is_associated(measure)
    witness = report.witness and (report.witness["mask_u"], report.witness["mask_v"])
    return report.verdict, witness, report.margin, report.details["pairs_checked"]


def assert_matches_reference(measure):
    assert engine(measure) == reference_association(measure.weights)


def two_site_violation(x: int) -> ProbabilityMeasure:
    """Weights (x-1, x, x, x+1) / 4x: the sites' covariance is -1/(4x)^2."""
    total = 4 * x
    return ProbabilityMeasure(
        2, tuple(Fraction(a, total) for a in (x - 1, x, x, x + 1)), "exact"
    )


weights = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(1, 20), st.integers(1, 12)),
    st.builds(Fraction, st.integers(1, 2**70), st.integers(2**60, 2**64)),
)
probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.builds(Fraction, st.integers(1, 11), st.just(12)),
    st.builds(Fraction, st.integers(1, 2**60 - 1), st.just(2**60 + 33)),
)


@st.composite
def exact_measures(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return ProbabilityMeasure.product(draw(st.lists(probabilities, min_size=n, max_size=n)))
    vector = draw(st.lists(weights, min_size=1 << n, max_size=1 << n))
    assume(any(vector))
    return WeightVector.exact(vector)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(exact_measures())
    def test_small_measures(self, measure):
        assert_matches_reference(measure)

    def test_five_site_spot_checks(self):
        # one scaled total below 2^31, one far above it; both fail in the
        # first block, which is all the reference has to sweep
        small = normalize(random_measure(0, 5, "generic"))
        perturbed = list(normalize(random_measure(1, 5, "strictly-positive")).weights)
        perturbed[3] += Fraction(1, 10**15)
        for measure in (small, WeightVector.exact(perturbed)):
            verdict, _, _, pairs = expected = reference_association(measure.weights)
            assert verdict == "fails" and pairs < 7581 * 7582 // 2
            assert engine(measure) == expected


class TestPathIndependence:
    def test_total_above_two_to_the_31_keeps_the_block_rule(self):
        base = normalize(random_measure(0, 3, "generic"))
        weights = list(base.weights)
        weights[1] += Fraction(1, 10**12)
        perturbed = normalize(WeightVector.exact(weights))
        assert math.lcm(*(w.denominator for w in perturbed.weights)) > 2**31
        first, second = engine(base), engine(perturbed)
        assert first[:2] == second[:2]
        assert first[0] == "fails"
        assert first[3] == second[3] == 210
        assert first[2] == Fraction(-659, 11552)
        assert second == reference_association(perturbed.weights)
        assert abs(second[2] - first[2]) < Fraction(1, 10**9)


class TestCertification:
    def test_violation_below_float_resolution_at_total_two_to_the_80(self):
        measure = two_site_violation(2**78)
        report = is_associated(measure)
        assert report.fails
        assert report.witness["up_set_u"] == [1, 3]
        assert report.witness["up_set_v"] == [2, 3]
        assert report.margin == Fraction(-1, 2**160)
        assert reverify_witness(measure, report) == report.margin
        # the float screen alone cannot see it
        assert is_associated(ProbabilityMeasure.floats([float(w) for w in measure.weights])).holds

    def test_products_with_denominators_3003_hold_with_margin_zero(self):
        cases = [ProbabilityMeasure.product([Fraction(97 * (i + 1), 3 * 7 * 11 * 13)
                                             for i in range(n)]) for n in (4, 5)]
        # a point mass is the product with every site probability 0 or 1
        cases.append(ProbabilityMeasure.product([1, 0, 1, 0, 0]))
        for measure in cases:
            with sweeping():
                report = is_associated(measure)
            assert report == is_associated(measure)  # by Theorem 1.2, without a sweep
            assert report.holds
            assert report.margin == 0
            assert report.details["pairs_checked"] == {4: 14196, 5: 28739571}[measure.n]

    def test_weight_that_underflows_float64(self):
        tiny = Fraction(1, 10**400)
        assert float(tiny) == 0.0
        failing = WeightVector.exact([0, tiny, 1, 1])
        report = is_associated(failing)
        assert report.fails
        assert report.margin < 0
        assert reverify_witness(failing, report) == report.margin
        assert_matches_reference(failing)
        holding = WeightVector.exact([tiny, 0, 1, 1])
        assert is_associated(holding).holds
        assert_matches_reference(holding)

    def test_total_whose_square_overflows_float64(self):
        measure = two_site_violation(2**598)
        report = is_associated(measure)
        assert report.fails
        assert report.margin == Fraction(-1, 2**1200)
        ps = [Fraction(1, 3) + Fraction(1, 2**600 + x) for x in range(3)]
        product = ProbabilityMeasure.product(ps)
        assert is_associated(product).holds
        assert is_associated(product).margin == 0
        assert_matches_reference(product)


class TestFloatScreening:
    """An up-set of probability 0 or 1 has covariance exactly 0 with every
    up-set, so the float sweep screens it as the exact sweep does instead
    of ranking its rounding noise."""

    def test_null_up_sets_never_violate_at_tolerance_zero(self):
        gap = normalize(implication_gap_measures(Fraction(1, 100))[0])
        for exact in (derangement_measure(4), gap):
            measure = ProbabilityMeasure.floats([float(w) for w in exact.weights])
            report = is_associated(measure, tolerance=0)
            assert report.holds, report.witness
            assert report.margin == 0.0
        # the gap measure is DCA, which implies association
        assert dca_falsify(measure, tolerance=0).verdict != "fails"

    def test_point_mass_holds_with_margin_zero(self):
        report = is_associated(ProbabilityMeasure.floats([0.0] * 5 + [1.0] + [0.0] * 26))
        assert report.holds
        assert report.margin == 0.0
        assert report.details["pairs_checked"] == 28739571


@st.composite
def dyadic_counts(draw):
    """Counts summing to 2^10 over 2^n configurations, n = 2-5."""
    n = draw(st.integers(2, 5))
    cuts = sorted(draw(st.lists(st.integers(0, 1024), min_size=(1 << n) - 1,
                                max_size=(1 << n) - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [1024])]


def assert_modes_agree(exact):
    """With dyadic weights every float GEMM value is exact, so the float
    sweep at tolerance 0 and the exact sweep apply the same block rule to
    the same numbers."""
    floats = ProbabilityMeasure.floats([float(w) for w in exact.weights])
    report = is_associated(floats, tolerance=0)
    with sweeping():
        expected = is_associated(exact)
    assert report.verdict == expected.verdict
    assert report.witness == expected.witness
    assert report.details["pairs_checked"] == expected.details["pairs_checked"]
    assert isinstance(report.margin, float)
    assert Fraction(report.margin) == expected.margin
    return report


class TestModesAgree:
    @settings(max_examples=40, deadline=None)
    @given(dyadic_counts())
    def test_counts_over_two_to_the_ten(self, counts):
        assert_modes_agree(ProbabilityMeasure.exact([Fraction(c, 1024) for c in counts]))

    def test_five_site_products_hold_over_every_block(self):
        for ps in ([1, 3, 5, 7, 9], [15, 8, 1, 12, 4], [16, 2, 0, 13, 7]):
            measure = ProbabilityMeasure.product([Fraction(k, 16) for k in ps])
            report = assert_modes_agree(measure)
            assert report.holds and report.margin == 0.0
            assert report.details["pairs_checked"] == 7581 * 7582 // 2


class TestChunking:
    def test_reports_do_not_depend_on_chunk_or_batch_size(self, monkeypatch):
        near_point = [Fraction(1, 10**30)] * 16
        near_point[5] = Fraction(1)
        cases = [normalize(random_measure(seed, 4, mode))
                 for seed in range(3) for mode in ("generic", "product", "lattice")]
        cases += [derangement_measure(4), WeightVector.exact(near_point), two_site_violation(2**78)]
        expected = [engine(measure) for measure in cases]
        # three-row chunks and three-pair certification batches
        monkeypatch.setattr(measures, "_CHUNK_ENTRIES", 1 << 9)
        monkeypatch.setattr(measures, "_CERT_BATCH", 3)
        measures._sweep_tables.cache_clear()
        try:
            assert [engine(measure) for measure in cases] == expected
        finally:
            measures._sweep_tables.cache_clear()
        for measure, report in zip(cases, expected):
            assert report == reference_association(measure.weights)


def five_site_underflow_sibling():
    """A five-site sibling of ``test_weight_that_underflows_float64``: the
    failing two-site weights (0, tiny, 1, 1) times the uniform measure on
    three more sites, with a tiny weight that float32 flushes to 0 and
    float64 keeps."""
    tiny = Fraction(1, 10**50)
    assert np.float32(float(tiny)) == 0 < float(tiny)
    return WeightVector.exact([0, tiny, 1, 1] * 8)


def near_point_mass(n: int, rest: Fraction) -> WeightVector:
    """Weight 1 on configuration 5 and ``rest`` on every other configuration."""
    weights = [rest] * (1 << n)
    weights[5] = Fraction(1)
    return WeightVector.exact(weights)


def non_dyadic_product() -> ProbabilityMeasure:
    """Five sites whose exact zero covariances float32 rounds either side of 0."""
    return ProbabilityMeasure.product(
        [Fraction(1, 3), Fraction(2, 7), Fraction(3, 5), Fraction(5, 11), Fraction(4, 9)])


def soft_conditioned(measure):
    """``measure`` tilted by soft conditioning on zeros with eps = 1/100 on all five sites."""
    return tilt(measure, conditioning_tilt(5, range(5), "1/100")[1])


def float_screen_precision(monkeypatch):
    """Set the five-site screen to float64, with the float64 bound, as below five sites."""
    tables = measures._sweep_tables
    monkeypatch.setattr(measures, "_sweep_tables",
                        lambda n: (*tables(n)[:3], np.float64, tables(n)[5], tables(n)[5]))


class TestScreenPrecision:
    def test_reports_do_not_depend_on_the_screen_precision(self, monkeypatch):
        cases = [random_measure(0, 5, family) for family in FAMILIES]
        cases += [derangement_measure(5), five_site_underflow_sibling()]
        tables = measures._sweep_tables
        assert tables(5)[3] is np.float32
        assert tables(4)[3:] == (np.float64, (2**4 + 2) * 2.0**-50, (2**4 + 2) * 2.0**-50)
        expected = [engine(measure) for measure in cases]
        float_screen_precision(monkeypatch)
        assert [engine(measure) for measure in cases] == expected
        assert [report[0] for report in expected] == ["holds"] * 2 + ["fails"] * 2 + ["holds", "fails"]
        for measure, report in zip(cases, expected):
            assert report == reference_association(measure.weights)


five_site_weights = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(1, 2**40), st.integers(2**80, 2**81)),
    st.sampled_from([Fraction(1, 10**40), Fraction(1, 10**50), Fraction(1, 2**149)]),
)


@st.composite
def five_site_measures(draw):
    """A five-site draw of any family, with a few weights replaced: totals
    above 2^80 and weights below float32's normal range, some of which it
    flushes to 0."""
    family = draw(st.sampled_from(["generic", "strictly-positive", "lattice", "product"]))
    weights = list(normalize(random_measure(draw(st.integers(0, 10**6)), 5, family)).weights)
    for config, weight in draw(st.lists(st.tuples(st.integers(0, 31), five_site_weights), max_size=4)):
        weights[config] = weight
    assume(any(weights))
    return WeightVector.exact(weights), draw(st.integers(0, 2**32 - 1))


def exact_covariances(weights, i, j):
    """cov(1_U, 1_V) of the up-set pairs (i[k], j[k]), each correctly
    rounded to float64 from N / T^2 over Python ints."""
    total, ints = integer_weights(weights)
    masks = enumerate_up_sets(5)

    def s(mask):
        return sum(ints[c] for c in up_set_members(mask))

    return np.array([(total * s(masks[a] & masks[b]) - s(masks[a]) * s(masks[b])) / total**2
                     for a, b in zip(i.tolist(), j.tolist())])


class TestRoundingBounds:
    @settings(max_examples=25, deadline=None)
    @given(five_site_measures())
    def test_screen_and_recheck_values_lie_within_their_bounds(self, drawn):
        """Sampled float32 screen values of the first and last chunk swept,
        with each chunk's extremes, lie within the screen's band of the
        exact covariance, and their float64 rechecks within the recheck's
        bound."""
        measure, seed = drawn
        sweep, spied = measures._sweep, {}

        def spy(n, weights, null, low, high, certify):
            result = sweep(n, weights, null, low, high, certify)
            spied.update(band=high, minima=result[2], screen=result[3], recheck=result[4])
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "_sweep", spy)
            # the sweep itself: is_associated reports a (1.3) draw without one
            measures._exact_sweep(5, measure.weights)
        rng = np.random.default_rng(seed)
        # a float64 quotient is within 2^-53 of the exact covariance (|cov| <= 1/4)
        band = spied["band"] - 2.0**-53
        bound = measures._sweep_tables(5)[5] - 2.0**-53
        chunks = [block for block in spied["minima"] if block]
        for lo, hi, _ in {chunks[0][0], chunks[-1][-1]}:
            values, ncols = spied["screen"](lo, hi)
            assert values.dtype == np.float32
            finite = np.isfinite(values).nonzero()[0]
            flat = np.unique(np.concatenate([
                rng.choice(finite, min(finite.size, 1500), replace=False),
                finite[[values[finite].argmin(), values[finite].argmax()]],
            ]))
            i, j, _, rechecked = spied["recheck"](lo, flat, ncols)
            exact = exact_covariances(measure.weights, i, j)
            assert np.abs(values[flat].astype(np.float64) - exact).max() <= band
            assert np.abs(rechecked - exact).max() <= bound


def lattice_measures(n: int) -> list:
    """Exact measures that satisfy (1.3): lattice and product draws, and
    three with zero weights: a product with a site at p = 0 and one at
    p = 1, a point mass, and the lattice draw 0 restricted to the up-set of
    configurations with site 0 on, which is closed under meets."""
    pinned = [Fraction(1, 3)] * n
    pinned[0], pinned[-1] = Fraction(0), Fraction(1)  # one site: p = 1
    lattice = random_measure(0, n, "lattice").weights
    return [random_measure(seed, n, family) for family in ("lattice", "product")
            for seed in range(3)] + [
        ProbabilityMeasure.product(pinned),
        point_mass(n, (1 << n) // 3),
        WeightVector.exact([w if c & 1 else 0 for c, w in enumerate(lattice)]),
    ]


class TestLatticeShortcut:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reports_are_those_of_the_sweep(self, n, monkeypatch):
        """An exact measure that satisfies (1.3) is associated by Theorem
        1.2: is_associated and is_downward_fkg report it without a sweep,
        in the reports the sweep builds (verdict, witness, margin, details,
        ``pairs_checked`` counting every pair)."""
        cases = lattice_measures(n)

        def no_sweep(*args):
            raise AssertionError("an exact (1.3) measure was swept")

        with monkeypatch.context() as patch:
            patch.setattr(measures, "_exact_sweep", no_sweep)
            assert all(satisfies_lattice(measure).holds for measure in cases)
            reports = [(is_associated(measure), is_downward_fkg(measure)) for measure in cases]
        with sweeping():
            swept = [(is_associated(measure), is_downward_fkg(measure)) for measure in cases]
        assert reports == swept
        assert all(type(report.margin) is Fraction for pair in reports for report in pair)

    def test_float_mode_and_six_sites_are_not_shortcut(self, monkeypatch):
        """Passing (1.3) within a tolerance proves nothing, so a float copy
        of a lattice draw is swept; six sites still exceed the budget."""
        measure = random_measure(0, 5, "lattice")
        floats = WeightVector.floats([float(w) for w in measure.weights])
        sweep, swept = measures._sweep, []
        monkeypatch.setattr(measures, "_sweep", lambda *args: swept.append(args) or sweep(*args))
        assert satisfies_lattice(floats).holds
        report = is_associated(floats)
        assert len(swept) == 1 and report.holds and type(report.margin) is float
        with pytest.raises(BudgetError):
            is_associated(random_measure(0, 6, "lattice"))

    def test_downward_fkg_scans_the_lattice_condition_once(self, monkeypatch):
        """Every zero slice of a (1.3) measure is a sublattice, so one exact
        scan covers them all; a float copy sweeps its 26 slices with two or
        more sites left, and six sites still exceed the budget."""
        scan, scans = measures.satisfies_lattice, []
        monkeypatch.setattr(measures, "satisfies_lattice",
                            lambda *args, **kwargs: scans.append(args) or scan(*args, **kwargs))
        for measure in lattice_measures(5):
            scans.clear()
            assert is_downward_fkg(measure).holds and len(scans) == 1
        measure = random_measure(0, 5, "lattice")
        floats = WeightVector.floats([float(w) for w in measure.weights])
        sweep, swept = measures._sweep, []
        monkeypatch.setattr(measures, "_sweep", lambda *args: swept.append(args) or sweep(*args))
        assert is_downward_fkg(floats).holds and len(swept) == 26
        with pytest.raises(BudgetError):
            is_downward_fkg(random_measure(0, 6, "lattice"))


def hidden_violation() -> WeightVector:
    """The five-site lattice draw 0 mixed, with weight t, with the uniform
    measure on the configurations in exactly one of the up-sets of rows 315
    and 6815, t chosen so that their covariance is about -1e-10: a
    violation at tolerance 0 that float32 rounds to a positive value, in a
    chunk whose float32 minimum lies in the band."""
    masks = enumerate_up_sets(5)
    differ = [c for c in range(32) if (masks[315] ^ masks[6815]) >> c & 1]
    t = Fraction(0.034447648349607486)
    lattice = normalize(random_measure(0, 5, "lattice")).weights
    return WeightVector.exact([(1 - t) * w + (t / len(differ) if c in differ else 0)
                               for c, w in enumerate(lattice)])


class TestFloatScreenPrecision:
    def test_float_reports_do_not_depend_on_the_screen_precision(self, monkeypatch):
        """Float mode computes in float64 only the five-site chunks its
        screen cannot decide, so its reports are those of a float64 screen,
        bit for bit: on sweeps the screen decides, that fail in their first
        chunk, whose every chunk lies in the band, and whose one violation
        float32 cannot see."""
        cases = [random_measure(0, 5, family) for family in FAMILIES]
        cases += [derangement_measure(5), soft_conditioned(derangement_measure(5))]
        cases += [near_point_mass(5, Fraction(1, 10**e)) for e in (3, 7, 12, 30)]
        cases += [non_dyadic_product(), five_site_underflow_sibling(), hidden_violation()]
        cases = [WeightVector.floats([float(w) for w in measure.weights]) for measure in cases]
        assert np.float32(cases[-2].weights[1]) == 0 < cases[-2].weights[1]

        def reports():
            # budget 3 reaches the first eps = 1/100 tilt
            return [(is_associated(measure), is_associated(measure, tolerance=0),
                     dca_falsify(measure, 3)) for measure in cases]

        expected = reports()
        float_screen_precision(monkeypatch)
        assert reports() == expected


def traced_peak(call) -> float:
    """The tracemalloc peak of ``call()`` above the memory traced before it, in MiB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


class TestSweepMemory:
    def test_a_sweep_holds_its_buffers_and_operands_only(self):
        """A five-site sweep allocates one buffer per operand type and
        nothing per chunk: a float is_associated peaks at about 18-19 MiB
        (its float32 screen buffer, 4.2 MB, its float64 chunk buffer, 8.4 MB,
        and 6 MB of operands), and an exact one at about 7 MiB, since its
        only buffer is float32.  A float64 chunk kept alive beside the
        buffers, or a float64 buffer for an exact sweep, breaks the bounds."""
        cases = [(WeightVector.floats([float(w) for w in random_measure(0, 5, family).weights]), 20)
                 for family in ("lattice", "generic", "product")]
        cases += [(random_measure(0, 5, "generic"), 8), (derangement_measure(5), 8)]
        for measure, bound in cases:
            is_associated(measure)  # the per-n tables, built once per process
            assert traced_peak(lambda: is_associated(measure)) < bound, measure.mode


@st.composite
def five_site_float_measures(draw):
    """Float weights of a five-site draw of any family, perhaps soft
    conditioned with eps = 1/100 on all five sites, with a few weights
    replaced by 0 or by weights below float32's normal range, some of which
    it flushes to 0."""
    family = draw(st.sampled_from(FAMILIES))
    measure = normalize(random_measure(draw(st.integers(0, 10**6)), 5, family))
    if draw(st.booleans()):
        measure = soft_conditioned(measure)
    weights = [float(w) for w in measure.weights]
    tiny = st.sampled_from([0.0, 1e-39, 1e-42, 2.0**-149, 1e-50])
    for config, weight in draw(st.lists(st.tuples(st.integers(0, 31), tiny), max_size=4)):
        weights[config] = weight
    assume(any(weights))
    return WeightVector.floats(weights), draw(st.integers(0, 2**32 - 1))


class TestFloatRoundingBounds:
    @settings(max_examples=25, deadline=None)
    @given(five_site_float_measures())
    def test_float_screen_and_gemm_values_lie_within_their_bands(self, drawn):
        """Sampled float32 screen values of the first and last chunk swept,
        with each chunk's extremes, lie within the screen's band, and their
        float64 GEMM values within the float64 band, of the exact value
        mu(U & V) - mu(U)*mu(V) of the binary weights swept, read as
        Fractions: a screen value at or above the sum of the bands has a
        float64 value above 0."""
        measure, seed = drawn
        sweep, spied = measures._sweep, {}

        def spy(n, weights, *args):
            result = sweep(n, weights, *args)
            spied.update(weights=weights, swept=len(result[2]), screen=result[3],
                         recheck=result[4])
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "_sweep", spy)
            is_associated(measure)
        fractions = [Fraction(w) for w in spied["weights"].tolist()]
        total = math.lcm(*(f.denominator for f in fractions))
        ints = np.array([f.numerator * (total // f.denominator) for f in fractions], dtype=object)
        _, _, blocks, _, band, bound = measures._sweep_tables(5)
        rng = np.random.default_rng(seed)
        for lo, hi in {blocks[0][1][0], blocks[spied["swept"] - 1][1][-1]}:
            screened, ncols = spied["screen"](lo, hi, True)
            screened = screened.astype(np.float64)  # a copy: the next call overwrites the buffer
            values, _ = spied["screen"](lo, hi, False)
            assert values.dtype == np.float64
            finite = np.isfinite(values).nonzero()[0]
            if not finite.size:
                continue
            flat = np.unique(np.concatenate([
                rng.choice(finite, min(finite.size, 1500), replace=False),
                finite[[values[finite].argmin(), values[finite].argmax(),
                        screened[finite].argmin(), screened[finite].argmax()]],
            ]))
            i, j, inter, _ = spied["recheck"](lo, flat, ncols)
            rows = np.unique(np.concatenate([i, j, inter]))
            sums = dict(zip(rows.tolist(), up_set_matrix(5)[rows].astype(object) @ ints))
            # a float64 quotient is within 2^-53 of the exact value (|value| <= 1/4 + 1e-12)
            exact = np.array([(total * sums[c] - sums[a] * sums[b]) / total**2
                              for a, b, c in zip(i.tolist(), j.tolist(), inter.tolist())])
            assert np.abs(screened[flat] - exact).max() <= band - 2.0**-53
            assert np.abs(values[flat] - exact).max() <= bound - 2.0**-53


def symmetrized(weights, perms) -> WeightVector:
    """The sum of the images of ``weights`` under ``perms``, a group of site
    permutations, so fixed by each of them."""
    out = [0] * len(weights)
    for perm in perms:
        for w, image in zip(weights, permuted_configs(5, perm)):
            out[image] += w
    return WeightVector.exact(out)


def orbit_sweep_measures() -> dict:
    """Exact five-site measures by the order of the group of site
    permutations that fixes them, and the measures themselves."""
    generic = random_measure(0, 5, "generic").weights
    cycle = [tuple((x + k) % 5 for x in range(5)) for k in range(5)]
    derangement = derangement_measure(5).weights

    def marked(config):  # weight where no permutation has its fixed points
        return WeightVector.exact([w + (c == config) / Fraction(1000)
                                   for c, w in enumerate(derangement)])

    return {
        "derangement": (120, derangement_measure(5)),
        "product 3/7": (120, ProbabilityMeasure.product([Fraction(3, 7)] * 5)),
        "product 1/2": (120, ProbabilityMeasure.product([Fraction(1, 2)] * 5)),
        "product with p = 0 and 1": (6, ProbabilityMeasure.product([Fraction(1, 3)] * 3 + [0, 1])),
        "generic, one transposition": (2, symmetrized(generic, [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)])),
        # a binary necklace of five beads equals its mirror image: the dihedral group
        "generic, a 5-cycle": (10, symmetrized(generic, cycle)),
        "exchangeable, failing": (120, WeightVector.exact(
            [(1, 4, 1, 1, 1, 2)[c.bit_count()] for c in range(32)])),
        # each fails only on pairs least in no orbit of a larger group:
        # the swap of sites 0 and 1, or every permutation, skips them
        "derangement, site 1 marked": (24, marked(0b00010)),
        "derangement, site 3 marked": (24, marked(0b01000)),
        "1e-30 near point mass": (12, near_point_mass(5, Fraction(1, 10**30))),
        "1e-7 near point mass": (12, near_point_mass(5, Fraction(1, 10**7))),
    }


class TestOrbitSweep:
    def test_reports_are_those_of_the_full_sweep(self, monkeypatch):
        """An exact five-site measure fixed by a group G of more than two site
        permutations first sweeps the up-set rows least in their G-orbit:
        every pair has an image under G with such a row and the same
        covariance.  If they hold no violation it holds; otherwise the full
        sweep runs.  Either way the report (verdict, witness, exact margin,
        ``pairs_checked``) is the one G forced to the identity gives, and
        a holding measure pays no full sweep."""
        cases = orbit_sweep_measures()
        sweep, swept = measures._sweep, []  # a full sweep has six arguments, an orbit sweep seven
        monkeypatch.setattr(measures, "_sweep",
                            lambda *args: swept.append(len(args)) or sweep(*args))
        reduced = {}
        with sweeping():
            for name, (order, measure) in cases.items():
                assert len(measures._site_symmetries(measure)) == order, name
                swept.clear()
                reduced[name] = is_associated(measure)
                orbit_sweeps = [] if order <= 2 else [7]
                full_sweeps = [] if orbit_sweeps and reduced[name].holds else [6]
                assert swept == orbit_sweeps + full_sweeps, name
            monkeypatch.setattr(measures, "_site_symmetries",
                                lambda vector: measures._config_permutations(vector.n)[:1])
            full = {name: is_associated(measure) for name, (_, measure) in cases.items()}
        assert reduced == full
        assert all(type(report.margin) is Fraction for report in full.values())
        assert {name for name, report in full.items() if report.holds} == {
            "derangement", "product 3/7", "product 1/2", "product with p = 0 and 1"}

    def test_the_orbit_sweep_meets_the_first_violation(self, monkeypatch):
        """Uniform on the five one-site configurations, every up-set of the
        first rows has probability 0, but not every one least in its orbit:
        the first chunk of the orbit sweep is swept, and stops at the full
        sweep's first violation, whose row is least in its orbit."""
        measure = WeightVector.exact([c.bit_count() == 1 for c in range(32)])
        sweep, violations = measures._sweep, []

        def recording(*args):
            result = sweep(*args)
            violations.append(result[0])
            return result

        monkeypatch.setattr(measures, "_sweep", recording)
        rows, chunk = measures._orbit_rows(measure), measures._sweep_tables(5)[2][0][1][0][1]
        null = measures._null_up_sets(5, [w > 0 for w in measure.weights])
        assert null[:chunk].all() and not null[rows[:chunk]].all()
        assert is_associated(measure).fails
        assert violations == [(167, 315)] * 2 and 167 in rows[:chunk]

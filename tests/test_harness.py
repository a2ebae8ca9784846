import hashlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    fraction_search,
    generator_sum,
    point_mass,
    random_single_site_birth,
)

from spincorr import harness
from spincorr.dynamics import (
    RateTable,
    birth_submodularity,
    births_increasing,
    build_generator,
    contact_process,
    path_edges,
    semigroup_apply,
)
from spincorr.fixtures import fixture_corpus
from spincorr.harness import (
    DEFAULT_SEARCH_BUDGET,
    SEARCH_TARGETS,
    ExperimentSpec,
    SearchOutcome,
    corner_flip_system,
    crossed_birth_pair,
    derangement_measure,
    implication_gap_measures,
    random_measure,
    random_spin_system,
    search_counterexample,
    supermodular_single_birth,
    verify_preservation,
)
from spincorr.measures import (
    ProbabilityMeasure,
    PropertyReport,
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
    project_zeros,
    satisfies_lattice,
)
from spincorr.serialize import rate_table_from_dict, search_outcome_to_dict
from spincorr.three_site import COORDINATES, classify


class TestRandomMeasure:
    def test_product_mode_satisfies_everything(self):
        for seed in range(5):
            assert all(classify(random_measure(seed, 3, "product")).values())

    def test_lattice_mode_postcondition(self):
        for seed in range(8):
            assert satisfies_lattice(random_measure(seed, 3, "lattice")).holds
        assert satisfies_lattice(random_measure(0, 4, "lattice")).holds

    def test_fixed_seed_reproducible(self):
        for mode in ("generic", "strictly-positive", "lattice", "product"):
            assert random_measure(42, 3, mode) == random_measure(42, 3, mode)

    def test_generic_mode_produces_sparse_supports(self):
        sparse = sum(
            1
            for seed in range(50)
            if 0 in random_measure(seed, 3, "generic").weights
        )
        assert sparse > 10

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            random_measure(0, 3, "bogus")


class TestGeneratorSeeds:
    """Both seeded generators refuse a seed that is not an int (a bool
    included) and draw for an int seed what they always drew."""

    @pytest.mark.parametrize("seed", [1.5, True, "x", None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="^seed must be an int, got "):
            random_measure(seed, 3)
        with pytest.raises(ValueError, match="^seed must be an int, got "):
            random_spin_system(seed, 3)

    @pytest.mark.parametrize("seed, measures, systems", [
        (0, "c0e2f6900e5fc39e", "784d30f692909daa"),
        (1, "dcb4c895b9dcac5f", "f481375d8b455f1b"),
        (10**6, "03d6f15da47c2ed9", "8d2352fb3b14b622"),
    ])
    def test_int_seeds_draw_as_before(self, seed, measures, systems):
        drawn = [random_measure(seed, 3, mode).weights for mode in harness.MEASURE_MODES]
        tables = [random_spin_system(seed, 3, kind)
                  for kind in ("generic", "attractive", "independent")]
        assert hashlib.sha256(repr(drawn).encode()).hexdigest()[:16] == measures
        rates = [(table.birth, table.death) for table in tables]
        assert hashlib.sha256(repr(rates).encode()).hexdigest()[:16] == systems

    @pytest.mark.parametrize("n, seed, digest", [
        (4, 0, "6fdbe1ce6a25bd2e"),
        (4, 1, "2f9a44ed75ead02d"),
        (4, 10**6, "10945ba267879381"),
        (5, 0, "71f0302440a43c0d"),
        (5, 1, "cb231d8f725cb433"),
        (5, 10**6, "28016fc56eeaba77"),
        (6, 0, "8fd105e083dc63c0"),
        (6, 1, "a00717bd850f4278"),
        (6, 10**6, "f481156791bf6bc6"),
    ])
    def test_lattice_draws_as_before(self, n, seed, digest):
        # for n >= 4 the product-interaction draw usually wins
        weights = random_measure(seed, n, "lattice").weights
        assert hashlib.sha256(repr(weights).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("seed, digest", [
        (0, "8f979ead2bfeba6c"),
        (1, "eac66384fc8cae63"),
        (10**6, "f83b80870b1bde50"),
    ])
    def test_product_draws_as_before(self, seed, digest):
        drawn = random_measure(seed, 5, "product")
        assert type(drawn) is WeightVector
        assert hashlib.sha256(repr(drawn.weights).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("kind", ["generic", "attractive", "independent"])
    @pytest.mark.parametrize("n", [0, True, 2.5, "3", 7])
    def test_spin_systems_refuse_a_bad_site_count(self, kind, n):
        # True used to draw a one-site system and 2.5 to fail with a TypeError
        with pytest.raises(ValueError, match="^site count must be an integer in"):
            random_spin_system(0, n, kind)


class TestRandomSingleSiteBirth:
    def test_postconditions(self):
        for seed in range(5):
            rates = random_single_site_birth(seed, 3, 1)
            assert births_increasing(rates).holds
            assert birth_submodularity(rates).holds
            assert all(v == 0 for x in (0, 2) for v in rates.birth[x])
            assert all(v == 0 for x in range(3) for v in rates.death[x])


class TestDerangementMeasure:
    def test_two_points(self):
        assert derangement_measure(2).weights == (
            Fraction(1, 2),
            Fraction(0),
            Fraction(0),
            Fraction(1, 2),
        )

    def test_three_point_coordinates(self):
        w = derangement_measure(3).weights
        coords = {name: w[mask] for name, mask in COORDINATES.items()}
        assert (coords["a"], coords["d"]) == (Fraction(1, 3), Fraction(1, 6))
        assert coords["b1"] == coords["b2"] == coords["b3"] == Fraction(1, 6)
        assert coords["c1"] == coords["c2"] == coords["c3"] == 0

    def test_three_point_verdicts(self):
        verdicts = classify(derangement_measure(3))
        assert verdicts == {
            "lattice": False,
            "dca": True,
            "downward_fkg": True,
            "associated": True,
        }

    @pytest.mark.parametrize("k", [3, 4])
    def test_associated_and_downward_fkg_but_not_lattice(self, k):
        mu = derangement_measure(k)
        assert is_associated(mu).holds
        assert is_downward_fkg(mu).holds
        assert satisfies_lattice(mu).fails

    def test_conditioning_descends_to_fewer_points(self):
        mu4 = derangement_measure(4)
        mu3 = derangement_measure(3)
        for pinned in range(4):
            sub, remaining = project_zeros(mu4, [pinned])
            assert len(remaining) == 3
            assert sub.weights == mu3.weights

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            derangement_measure(1)
        with pytest.raises(ValueError):
            derangement_measure(6)

    @pytest.mark.parametrize("k, digest", [
        (2, "c258bbe4ec5f4bd8"),
        (3, "1190a8077570a457"),
        (4, "b9e80fc8a0430be7"),
        (5, "2696bbf1cd77e134"),
    ])
    def test_weights_as_before(self, k, digest):
        mu = derangement_measure(k)
        assert type(mu) is ProbabilityMeasure
        assert hashlib.sha256(repr(mu.weights).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("k", [2.5, "3", 3.0])
    def test_non_int_sizes_refused(self, k):
        # 2.5 used to fail in a shift with a TypeError
        with pytest.raises(ValueError, match="permutation size must be in"):
            derangement_measure(k)


class TestImplicationGapMeasures:
    def test_unnormalized_totals(self):
        eps = Fraction(1, 100)
        gap1, gap2 = implication_gap_measures(eps)
        assert gap1.total == 1 + 3 * eps
        assert gap2.total == 1 + 3 * eps

    def test_out_of_range_eps_rejected(self):
        with pytest.raises(ValueError):
            implication_gap_measures(Fraction(1, 36))
        with pytest.raises(ValueError):
            implication_gap_measures(0)


class TestVerifyPreservation:
    def test_independent_flips_preserve_lattice(self):
        spec = ExperimentSpec(
            system=RateTable.independent_flips(3, (1, Fraction(1, 2), 2), (1, 1, Fraction(1, 3))),
            property="fkg-lattice",
            times=(0.1, 0.5, 1.0),
            measure_mode="lattice",
            measure_count=5,
            seed=3,
        )
        outcome = verify_preservation(spec)
        assert outcome.hypotheses_satisfied
        assert outcome.summary == "all-hold"
        assert not outcome.violations

    def test_corner_flip_preserves_lattice_despite_failed_hypothesis(self):
        spec = ExperimentSpec(
            system=corner_flip_system(),
            property="fkg-lattice",
            times=(0.1, 0.5, 1.0, 2.0),
            measure_mode="lattice",
            measure_count=5,
            seed=1,
        )
        outcome = verify_preservation(spec)
        assert not outcome.hypotheses_satisfied  # no independent flips here
        assert outcome.summary == "all-hold"

    def test_contact_process_preserves_downward_fkg_from_full_start(self):
        spec = ExperimentSpec(
            system=contact_process(path_edges(4)),
            property="downward-fkg",
            times=(0.1, 1.0),
            measures=(WeightVector(4, point_mass(4, 0b1111).weights),),
        )
        outcome = verify_preservation(spec)
        assert outcome.hypotheses_satisfied
        assert outcome.summary == "all-hold"

    def test_violation_reported_with_witness(self):
        spec = ExperimentSpec(
            system=crossed_birth_pair(),
            property="associated",
            times=(0.05, 0.2),
            measure_mode="product",
            measure_count=4,
            seed=0,
        )
        outcome = verify_preservation(spec)
        assert outcome.summary == "violation-found"
        assert not outcome.hypotheses_satisfied
        assert not outcome.build_failing  # the attractiveness hypothesis fails
        assert outcome.witness is not None
        # the witness re-verifies from its serialized weights alone
        evolved = ProbabilityMeasure.floats(
            [float(w) for w in map(float, outcome.witness["evolved_weights"])]
        )
        assert is_associated(evolved).fails

    def test_outcome_verdicts_derive_from_its_cells(self):
        # a violation under satisfied hypotheses fails the build
        held = harness.CellOutcome(0, 0.1, PropertyReport("associated", "holds", None, 0.0))
        failed = harness.CellOutcome(0, 1.0, PropertyReport("associated", "fails", {}, -1.0))
        satisfied, unsatisfied = (("attractive", True),), (("attractive", False),)
        outcome = harness.ExperimentOutcome("associated", satisfied, (held, failed), ())
        assert outcome.violations == (failed,)
        assert (outcome.summary, outcome.build_failing) == ("violation-found", True)
        outcome = harness.ExperimentOutcome("associated", unsatisfied, (held, failed), ())
        assert (outcome.hypotheses_satisfied, outcome.build_failing) == (False, False)
        outcome = harness.ExperimentOutcome("associated", satisfied, (held,), (1,))
        assert (outcome.summary, outcome.violations, outcome.build_failing) == (
            "all-hold", (), False)
        outcome = harness.ExperimentOutcome("associated", satisfied, (), (0,))
        assert outcome.summary == "no-qualifying-measures"

    def test_empty_measure_list_refused(self):
        # an explicit empty list checks nothing; a count of 0 draws nothing
        with pytest.raises(ValueError, match="at least one measure"):
            ExperimentSpec(system=crossed_birth_pair(), property="associated", measures=())
        spec = ExperimentSpec(system=crossed_birth_pair(), property="associated", measure_count=0)
        assert verify_preservation(spec).summary == "no-qualifying-measures"

    def test_empty_time_grid_refused(self):
        with pytest.raises(ValueError, match="^times must hold at least one time$"):
            ExperimentSpec(system=crossed_birth_pair(), property="associated", times=())

    @pytest.mark.parametrize("count", [2.5, "2", True, -1, None])
    def test_measure_count_must_be_a_nonnegative_integer(self, count):
        with pytest.raises(ValueError, match="^measure count must be a nonnegative integer, got "):
            ExperimentSpec(system=crossed_birth_pair(), property="associated", measure_count=count)

    @pytest.mark.parametrize("seed", [1.5, "0", None, False])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="^seed must be an int, got "):
            ExperimentSpec(system=crossed_birth_pair(), property="associated", seed=seed)

    @pytest.mark.parametrize("budget", [True, 2.0, -1, "3"])
    def test_tilt_budget_must_be_a_nonnegative_integer(self, budget):
        with pytest.raises(ValueError, match="tilt budget must be a nonnegative integer"):
            ExperimentSpec(system=crossed_birth_pair(), property="dca", tilt_budget=budget)

    def test_unqualified_measures_are_skipped(self):
        gap1, _ = implication_gap_measures(Fraction(1, 100))
        spec = ExperimentSpec(
            system=RateTable.independent_flips(3, (1, 1, 1), (1, 1, 1)),
            property="fkg-lattice",
            times=(0.5,),
            measures=(gap1,),
        )
        outcome = verify_preservation(spec)
        assert outcome.skipped_measures == (0,)
        assert outcome.summary == "no-qualifying-measures"

    def test_attractive_system_preserves_association(self):
        from spincorr.harness import random_spin_system

        spec = ExperimentSpec(
            system=random_spin_system(5, 3, "attractive"),
            property="associated",
            times=(0.1, 0.5, 1.5),
            measure_mode="generic",
            measure_count=8,
            seed=11,
        )
        outcome = verify_preservation(spec)
        assert outcome.hypotheses_satisfied
        assert not outcome.violations

    def test_contact_process_preserves_conditional_association(self):
        # constant deaths plus increasing submodular (here: additive) births
        spec = ExperimentSpec(
            system=contact_process(path_edges(3)),
            property="dca",
            times=(0.1, 0.5, 1.0),
            measure_mode="lattice",
            measure_count=5,
            seed=4,
        )
        outcome = verify_preservation(spec)
        assert outcome.hypotheses_satisfied
        assert outcome.summary == "all-hold"

    def test_summed_generator_still_preserves_lattice(self):
        # corner flips plus constant flips: each part preserves the lattice
        # condition, and so does their sum
        corner = corner_flip_system()
        constant = RateTable.independent_flips(3, (1, 1, 1), (1, 1, 1))
        gen = generator_sum(build_generator(corner), build_generator(constant))
        for seed in range(4):
            mu = normalize(random_measure(seed, 3, "lattice"))
            for t in (0.2, 1.0):
                evolved = semigroup_apply(gen, mu, t)
                assert satisfies_lattice(evolved).holds


class TestSearchCounterexample:
    def test_crossed_births_break_association(self):
        outcome = search_counterexample("association", crossed_birth_pair())
        assert outcome.found
        assert Fraction(outcome.derivative_certificate["derivative"]) < 0
        assert outcome.witness["report_margin"] < -1e-9

    def test_supermodular_birth_breaks_downward_fkg(self):
        outcome = search_counterexample("downward-fkg", supermodular_single_birth())
        assert outcome.found
        assert Fraction(outcome.derivative_certificate["derivative"]) < 0
        assert outcome.witness["report_margin"] < -1e-9
        assert outcome.witness["report_witness"]["conditioned_sites"] == [2]

    def test_attractive_system_exhausts_search(self):
        outcome = search_counterexample("association", contact_process(path_edges(3)))
        assert not outcome.found
        assert outcome.summary == "search-exhausted"

    @pytest.mark.parametrize("target", ["association", "downward-fkg"])
    def test_budget_caps_derivative_evaluations_too(self, target):
        # On contact path4 no derivative is negative, so both searches would
        # run all 1 176 or 1 764 derivatives if only confirmations counted.
        outcome = search_counterexample(target, contact_process(path_edges(4)), budget=5)
        assert outcome.evaluations <= 5
        assert outcome.summary == "search-exhausted"

    @pytest.mark.parametrize("target, evaluations", [("association", 1176), ("downward-fkg", 1764)])
    def test_contact_path4_exhausts_every_grid_point(self, target, evaluations):
        outcome = search_counterexample(target, contact_process(path_edges(4)))
        assert outcome == SearchOutcome(target, False, None, None, evaluations, "search-exhausted")

    @pytest.mark.parametrize("system", [
        crossed_birth_pair(),  # has negative grid values
        RateTable.independent_flips(3, (1, 2, 3), (3, 2, 1)),  # every grid value is exactly 0
    ], ids=["crossed_birth_pair", "independent_flips3"])
    def test_closed_form_is_checked_against_the_reference(self, monkeypatch, system):
        # a grid value that disagrees with derivative_at_zero on the product
        # measure itself, here by one unit of its denominator, is an error
        grid_values = harness._grid_values

        def shifted(coefficients):
            return ((i, j, value - 1) for i, j, value in grid_values(coefficients))

        monkeypatch.setattr(harness, "_grid_values", shifted)
        with pytest.raises(ArithmeticError):
            search_counterexample("association", system)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            search_counterexample("bogus", crossed_birth_pair())

    @pytest.mark.parametrize("budget", [True, 2.5, -1, "3", None])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        # True would run one evaluation and 2.5 three; "3" used to be a TypeError
        with pytest.raises(ValueError, match="search budget must be a nonnegative integer"):
            search_counterexample("association", crossed_birth_pair(), budget)


class TestSearchOutcomeDocument:
    """``search_outcome_to_dict`` writes exactly the ``SearchOutcome``
    fields, every Fraction as a "p/q" string."""

    def test_found_search(self):
        outcome = search_counterexample("association", crossed_birth_pair())
        assert search_outcome_to_dict(outcome) == {
            "target": "association",
            "found": True,
            "witness": {
                "product_probabilities": ["1/8", "1/8"],
                "t": 0.01,
                "report_property": "associated",
                "report_witness": {"up_set_u": [1, 3], "up_set_v": [2, 3],
                                   "mask_u": 10, "mask_v": 12},
                "report_margin": outcome.witness["report_margin"],  # a float, not pinned
            },
            "derivative_certificate": {"sites": [0, 1], "rho": "1/8", "lambda": "1/8",
                                       "background": "1/8", "derivative": "-49/256"},
            "evaluations": 2,
            "summary": "violation-found",
        }

    def test_exhausted_search(self):
        outcome = search_counterexample("association", contact_process(path_edges(3)))
        assert search_outcome_to_dict(outcome) == {
            "target": "association",
            "found": False,
            "witness": None,
            "derivative_certificate": None,
            "evaluations": 588,
            "summary": "search-exhausted",
        }

    def test_fractions_become_strings_named_by_field(self):
        outcome = SearchOutcome("association", True, {"p": (Fraction(1, 8),)},
                                {"derivative": Fraction(-49, 256)}, 1, "violation-found")
        doc = search_outcome_to_dict(outcome)
        assert (doc["witness"], doc["derivative_certificate"]) == (
            {"p": ["1/8"]}, {"derivative": "-49/256"})
        huge = SearchOutcome("association", True, None,
                             {"derivative": Fraction(10**5000, 3)}, 1, "violation-found")
        with pytest.raises(ValueError, match=r"^derivative_certificate\.derivative: "):
            search_outcome_to_dict(huge)


class TestBenchmarkTracerBindings:
    """The benchmark's tracer wraps module attributes by name; each binding
    it reads must exist, be called on a small run, and be restored."""

    def test_bindings_install_record_and_restore(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        originals = [(module, name, getattr(module, name))
                     for module, name, _, _ in tracing._bindings()]
        tracer = tracing.Tracer()
        try:
            tracer.install()
            # through the module attributes, which the tracer wraps
            harness.verify_preservation(ExperimentSpec(
                contact_process(path_edges(4)), "dca", measure_count=1, tilt_budget=5
            ))
            harness.search_counterexample("association", crossed_birth_pair())
        finally:
            tracer.remove()
        assert all(getattr(module, name) is original for module, name, original in originals)
        layers = {span[2] for span in tracer.spans}
        assert {
            "harness.random_measure",
            "measures.lattice",
            "harness.preservation",
            "tilts.dca",
            "measures.downward_fkg",
            "dynamics.semigroup",
            "harness.search",
            "dynamics.derivative",
        } <= layers


def differential_systems():
    systems = [(f"contact_path{k}", contact_process(path_edges(k))) for k in (3, 4, 5)]
    systems += [
        (f"fixture-{name}", rate_table_from_dict(doc))
        for name, doc in sorted(fixture_corpus().items()) if "weights" not in doc
    ]
    systems += [
        (f"{kind}{n}-seed{seed}", random_spin_system(seed, n, kind))
        for kind in ("generic", "attractive", "independent") for n in (2, 3, 4, 5) for seed in (0, 1, 2)
    ]
    return [pytest.param(system, id=name) for name, system in systems]


@pytest.mark.parametrize("system", differential_systems())
def test_search_matches_the_fraction_screen(system):
    # the integer screen against the Fraction screen it replaced: same
    # outcome, evaluations, witness and certificate at every budget
    for target in SEARCH_TARGETS:
        for budget in (0, 1, 7, 50, 51, 52, 300, DEFAULT_SEARCH_BUDGET):
            assert search_counterexample(target, system, budget) == fraction_search(target, system, budget)

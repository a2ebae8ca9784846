"""Exact correlation-property checkers and spin-system semigroups on {0,1}^n."""

from .lattice import BudgetError, enumerate_up_sets
from .measures import (
    EXACT,
    FAILS,
    FLOAT,
    HOLDS,
    SEARCH_EXHAUSTED,
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
from .tilts import TiltFunction, conditioning_tilt, dca_falsify
from .dynamics import (
    EventPolynomial,
    Generator,
    RateTable,
    association_determinant_poly,
    birth_submodularity,
    births_additive,
    build_generator,
    contact_process,
    deaths_constant,
    deaths_constant_on_occupied,
    derivative_at_zero,
    has_independent_flips,
    is_attractive,
    path_edges,
    semigroup_apply,
    semigroup_apply_expm,
)
from .three_site import COORDINATES, SYSTEMS, classify, margins
from .harness import (
    ExperimentOutcome,
    ExperimentSpec,
    SearchOutcome,
    corner_flip_system,
    crossed_birth_pair,
    derangement_measure,
    implication_gap_measures,
    random_measure,
    search_counterexample,
    supermodular_single_birth,
    verify_preservation,
)

__version__ = "0.1.0"

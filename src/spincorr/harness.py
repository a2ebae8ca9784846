"""Randomized generators, preservation experiments, counterexample search,
and constructors for the classical example measures and systems.

Preservation experiments evolve a family of initial measures that satisfy
a property and re-check the property along a time grid, each (measure,
time) cell once.  When the rate classifiers confirm the hypotheses under
which preservation is known to hold, any violation beyond the float
tolerance is flagged as build-failing.

Counterexample search runs the cheap exact derivative-at-zero functionals
over small parameter grids first and only then confirms candidates by
actually evolving a measure, mirroring how such violations are proved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .dynamics import (
    RateTable,
    _check_time,
    association_determinant_poly,
    birth_submodularity,
    births_additive,
    births_increasing,
    build_generator,
    deaths_constant,
    derivative_at_zero,
    derivative_coefficients,
    has_independent_flips,
    is_attractive,
    product_corners,
    semigroup_apply,
)
from .lattice import configs, single_bit_pairs, site_product, validate_site_count
from .measures import (
    DEFAULT_FLOAT_TOLERANCE,
    FLOAT,
    ProbabilityMeasure,
    PropertyReport,
    WeightVector,
    _as_probability,
    _resolve_tolerance,
    is_associated,
    is_downward_fkg,
    normalize,
    satisfies_lattice,
)
from .three_site import classify, from_coordinates
from .tilts import DEFAULT_TILT_BUDGET, dca_falsify, validate_int

DEFAULT_TIME_GRID = (0.1, 0.5, 1.0, 2.0)
DEFAULT_MEASURE_MODE = "lattice"
DEFAULT_MEASURE_COUNT = 20
DEFAULT_SEARCH_BUDGET = 20000
# No library caller: kept only for the benchmark tracer's `rerun` span
# attribute, which reads it; ROADMAP item 4 step 3 deletes both.
REVERIFY_TAIL = 1e-16

MEASURE_MODES = ("generic", "strictly-positive", "lattice", "product")
PROPERTIES = ("associated", "fkg-lattice", "downward-fkg", "dca")


# ---------------------------------------------------------------------------
# random generators (all exact rationals, reproducible from the seed)


def _salt(label: str) -> int:
    # Stable across processes (str.__hash__ is randomized per run).
    value = 0
    for ch in label:
        value = (value * 131 + ord(ch)) & 0xFFFFFFFF
    return value


def _rng(seed: int, n: int, salt: int = 0) -> random.Random:
    return random.Random((seed * 1000003 + n) * 1000003 + salt)


def _factor_table(site_factors, interaction_factors=()) -> tuple[tuple[int, ...], int]:
    """The table of h(eta) = prod_x u_x^eta(x) * prod_A v_A^[eta = 1 on A] as
    integer numerators over one denominator, for ``int`` or ``Fraction`` factors."""
    nums = site_product((u.denominator, u.numerator) for u in site_factors)
    den = nums[0]  # no site on: the product of the site denominators
    for mask, factor in interaction_factors:
        p, q = factor.numerator, factor.denominator
        nums = [v * p if c & mask == mask else v * q for c, v in enumerate(nums)]
        den *= q
    return tuple(nums), den


def random_measure(seed: int, n: int, mode: str = "generic") -> WeightVector:
    """Seeded exact-rational weight vector.

    ``generic`` zeroes each coordinate with probability 1/4 (so sparse
    supports occur), ``strictly-positive`` keeps every weight positive,
    ``lattice`` returns a strictly positive draw if it is lattice and else
    a product-interaction vector (interaction factors >= 1), which always
    is; ``product`` factorizes over sites.
    """
    validate_int(seed, "seed")
    validate_site_count(n)
    rng = _rng(seed, n, salt=_salt(mode))
    size = 1 << n
    if mode == "generic":
        while True:
            weights = [
                Fraction(0) if rng.random() < 0.25 else Fraction(rng.randrange(1, 49), 48)
                for _ in range(size)
            ]
            if any(weights):
                return WeightVector.exact(weights)
    if mode == "strictly-positive":
        return WeightVector.exact([Fraction(rng.randrange(1, 49), 48) for _ in range(size)])
    if mode == "lattice":
        # The first draw is rarely lattice for n >= 4; the second has every
        # interaction factor >= 1, so it is log-supermodular and always is.
        candidate = WeightVector.exact([Fraction(rng.randrange(1, 49), 48) for _ in range(size)])
        if satisfies_lattice(candidate).holds:
            return candidate
        site_factors = [Fraction(rng.randrange(1, 25), 8) for _ in range(n)]
        interactions = [(m, 1 + Fraction(rng.randrange(0, 9), 8))
                        for m in range(size) if m.bit_count() >= 2 and rng.random() < 0.5]
        nums, den = _factor_table(site_factors, interactions)
        candidate = WeightVector.exact([Fraction(v, den) for v in nums])
        if not satisfies_lattice(candidate).holds:
            raise RuntimeError(f"internal consistency failure: lattice draw (n={n}, seed={seed})")
        return candidate
    if mode == "product":
        ps = [Fraction(rng.randrange(1, 16), 16) for _ in range(n)]
        return WeightVector(n, tuple(site_product((1 - p, p) for p in ps)))
    raise ValueError(f"unknown measure mode {mode!r}; known: {MEASURE_MODES}")


def random_increasing_table(rng: random.Random, n: int):
    """Random increasing function with values in {0, 1/8, ..., 3}, via
    monotone closure."""
    out = [Fraction(rng.randrange(0, 25), 8) for _ in configs(n)]
    # pairs come in ascending order of the lower config, so out[lo] is
    # final (the maximum below lo) before it is pushed up
    for lo, hi in single_bit_pairs(n):
        out[hi] = max(out[hi], out[lo])
    return tuple(out)


def random_spin_system(seed: int, n: int, kind: str = "generic") -> RateTable:
    """Seeded rate tables: ``generic`` unconstrained nonnegative rationals,
    ``attractive`` monotone rates, ``independent`` constant rates."""
    validate_int(seed, "seed")
    validate_site_count(n)
    rng = _rng(seed, n, salt=_salt(kind))
    if kind == "generic":
        size = 1 << n
        birth = [[Fraction(rng.randrange(0, 17), 8) for _ in range(size)] for _ in range(n)]
        death = [[Fraction(rng.randrange(0, 17), 8) for _ in range(size)] for _ in range(n)]
        return RateTable.from_tables(birth, death)
    if kind == "attractive":
        birth = [random_increasing_table(rng, n) for _ in range(n)]
        death = []
        for _ in range(n):
            inc = random_increasing_table(rng, n)
            peak = max(inc)
            death.append(tuple(peak - v for v in inc))
        return RateTable.from_tables(birth, death)
    if kind == "independent":
        birth = [Fraction(rng.randrange(1, 17), 8) for _ in range(n)]
        death = [Fraction(rng.randrange(1, 17), 8) for _ in range(n)]
        return RateTable.independent_flips(n, birth, death)
    raise ValueError(f"unknown system kind {kind!r}")


# ---------------------------------------------------------------------------
# named examples


def derangement_measure(k: int) -> ProbabilityMeasure:
    """Law of the non-fixed-point indicators of a uniform permutation of k
    points.  Associated and downward FKG, but not lattice FKG for k >= 3."""
    if not isinstance(k, int) or not 2 <= k <= 5:
        raise ValueError(f"permutation size must be in [2, 5], got {k}")
    counts = [0] * (1 << k)
    for pi in permutations(range(k)):
        mask = 0
        for i in range(k):
            if pi[i] != i:
                mask |= 1 << i
        counts[mask] += 1
    return normalize(WeightVector.exact(counts))


def corner_flip_system() -> RateTable:
    """Births only one step below the full configuration, deaths only one
    step above the empty one: site x turns on at rate 1 when every other
    site is occupied, and off at rate 1 when it is the lone occupant.
    For three sites this preserves the lattice condition without having
    independent flips; every non-constant configuration loses mass at
    exactly rate exp(-t)."""
    n = 3

    def birth(x, c):
        others = ((1 << n) - 1) & ~(1 << x)
        return Fraction(1) if c & others == others else Fraction(0)

    def death(x, c):
        others = ((1 << n) - 1) & ~(1 << x)
        return Fraction(1) if c & others == 0 else Fraction(0)

    return RateTable.from_site_functions(n, birth, death)


def crossed_birth_pair() -> RateTable:
    """Two sites, each born at rate 1 minus the other's spin, no deaths.
    Strictly anti-monotone births: the standard non-attractive fixture."""
    def birth(x, c):
        other = 1 - x
        return Fraction(1 - (c >> other & 1))

    def death(x, c):
        return Fraction(0)

    return RateTable.from_site_functions(2, birth, death)


def supermodular_single_birth() -> RateTable:
    """Three sites; the only rate is a birth at site 2 equal to the product
    of the other two spins.  Increasing but strictly supermodular, so it
    breaks the submodularity needed to preserve conditional association."""
    def birth(x, c):
        return Fraction((c >> 0 & 1) * (c >> 1 & 1)) if x == 2 else Fraction(0)

    def death(x, c):
        return Fraction(0)

    return RateTable.from_site_functions(3, birth, death)


def implication_gap_measures(eps) -> tuple[WeightVector, WeightVector]:
    """The two three-site weight vectors separating the implication chain.

    For small eps the first (a = b_i = 1/6, c_i = eps, d = 1/3) satisfies
    DCA but not the lattice condition; the second (a = 1/3, b_i = eps,
    c_i = d = 1/6) is associated but not downward FKG.  Both sum to
    1 + 3*eps before normalization.  Raises if eps lands outside the range
    where those verdicts hold.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 36):
        raise ValueError(f"eps must lie in (0, 1/36), got {eps}")
    sixth = Fraction(1, 6)
    first = from_coordinates(
        a=sixth, b1=sixth, b2=sixth, b3=sixth, c1=eps, c2=eps, c3=eps, d=Fraction(1, 3)
    )
    second = from_coordinates(
        a=Fraction(1, 3), b1=eps, b2=eps, b3=eps, c1=sixth, c2=sixth, c3=sixth, d=sixth
    )
    v1 = classify(first)
    v2 = classify(second)
    if not (v1["dca"] and v1["associated"] and not v1["lattice"]):
        raise ValueError(f"eps={eps} gives unintended verdicts for the first measure: {v1}")
    if not (v2["associated"] and not v2["downward_fkg"] and not v2["lattice"]):
        raise ValueError(f"eps={eps} gives unintended verdicts for the second measure: {v2}")
    return first, second


# ---------------------------------------------------------------------------
# property evaluation shared by the experiments


def evaluate_property(
    name: str,
    measure,
    *,
    tolerance=None,
    tilt_budget: int = DEFAULT_TILT_BUDGET,
) -> PropertyReport:
    if name == "associated":
        return is_associated(measure, tolerance=tolerance)
    if name == "fkg-lattice":
        return satisfies_lattice(measure, tolerance=tolerance)
    if name == "downward-fkg":
        return is_downward_fkg(measure, tolerance=tolerance)
    if name == "dca":
        return dca_falsify(measure, budget=tilt_budget, tolerance=tolerance)
    raise ValueError(f"unknown property {name!r}; known: {PROPERTIES}")


def hypothesis_reports(name: str, system: RateTable) -> tuple[tuple[str, bool], ...]:
    """Rate-classifier conditions under which the property is preserved."""
    if name == "associated":
        return (("attractive", is_attractive(system).holds),)
    if name == "fkg-lattice":
        return (("independent-flips", has_independent_flips(system).holds),)
    if name == "downward-fkg":
        return (
            ("constant-deaths", deaths_constant(system).holds),
            ("additive-births", births_additive(system).holds),
        )
    if name == "dca":
        return (
            ("constant-deaths", deaths_constant(system).holds),
            ("increasing-births", births_increasing(system).holds),
            ("submodular-births", birth_submodularity(system).holds),
        )
    raise ValueError(f"unknown property {name!r}; known: {PROPERTIES}")


# ---------------------------------------------------------------------------
# preservation experiments


@dataclass(frozen=True)
class ExperimentSpec:
    """One preservation run: evolve qualifying initial measures under the
    system and re-check the property along the time grid."""

    system: RateTable
    property: str
    times: tuple[float, ...] = DEFAULT_TIME_GRID
    seed: int = 0
    measure_mode: str = DEFAULT_MEASURE_MODE
    measure_count: int = DEFAULT_MEASURE_COUNT
    measures: tuple[WeightVector, ...] | None = None
    tolerance: float = DEFAULT_FLOAT_TOLERANCE
    tilt_budget: int = DEFAULT_TILT_BUDGET

    def __post_init__(self):
        if self.property not in PROPERTIES:
            raise ValueError(f"unknown property {self.property!r}")
        if self.measures is not None and not self.measures:
            raise ValueError("measures must hold at least one measure")
        if not self.times:
            raise ValueError("times must hold at least one time")
        validate_int(self.seed, "seed")
        validate_int(self.measure_count, "measure count", nonnegative=True)
        validate_int(self.tilt_budget, "tilt budget", nonnegative=True)
        _resolve_tolerance(FLOAT, self.tolerance)  # refuses NaN, inf and negative values
        for i, measure in enumerate(self.measures or ()):
            if measure.n != self.system.n:
                raise ValueError(
                    f"measures[{i}]: {measure.n} sites, but the system has {self.system.n}"
                )
        object.__setattr__(self, "times", tuple(_check_time(t) for t in self.times))

    def initial_measures(self) -> tuple[WeightVector, ...]:
        if self.measures is not None:
            return tuple(self.measures)
        return tuple(
            random_measure(self.seed + i, self.system.n, self.measure_mode)
            for i in range(self.measure_count)
        )


@dataclass(frozen=True)
class CellOutcome:
    measure_index: int
    t: float
    report: PropertyReport


@dataclass(frozen=True)
class ExperimentOutcome:
    """What a preservation run observed; its verdicts derive from these."""

    property: str
    hypotheses: tuple[tuple[str, bool], ...]
    cells: tuple[CellOutcome, ...]
    skipped_measures: tuple[int, ...]
    witness: dict | None = None

    @property
    def hypotheses_satisfied(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    @property
    def violations(self) -> tuple[CellOutcome, ...]:
        return tuple(cell for cell in self.cells if cell.report.fails)

    @property
    def build_failing(self) -> bool:
        return bool(self.violations) and self.hypotheses_satisfied

    @property
    def summary(self) -> str:
        if self.violations:
            return "violation-found"
        return "all-hold" if self.cells else "no-qualifying-measures"


def verify_preservation(spec: ExperimentSpec) -> ExperimentOutcome:
    """Run the preservation experiment an ExperimentSpec describes.

    Initial measures that do not satisfy the property are skipped and
    recorded.  Each (measure, time) cell is evolved once, at the default
    Poisson tail, and checked once.
    """
    gen = build_generator(spec.system)
    cells = []
    skipped = []
    witness = None
    for i, start in enumerate(spec.initial_measures()):
        base = evaluate_property(
            spec.property, start, tolerance=None, tilt_budget=spec.tilt_budget
        )
        if base.fails:
            skipped.append(i)
            continue
        initial = _as_probability(start)  # normalized once for every semigroup_apply
        for t in spec.times:
            evolved = semigroup_apply(gen, initial, t)
            report = evaluate_property(
                spec.property, evolved, tolerance=spec.tolerance, tilt_budget=spec.tilt_budget
            )
            cells.append(CellOutcome(i, t, report))
            if report.fails and witness is None:
                witness = {
                    "measure_index": i,
                    "initial_weights": [str(w) for w in start.weights],
                    "t": t,
                    "evolved_weights": [repr(float(w)) for w in evolved.weights],
                    "report_property": report.property,
                    "report_witness": report.witness,
                    "report_margin": float(report.margin),
                }
    return ExperimentOutcome(
        property=spec.property,
        hypotheses=hypothesis_reports(spec.property, spec.system),
        cells=tuple(cells),
        skipped_measures=tuple(skipped),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# counterexample search


SEARCH_TARGETS = ("association", "downward-fkg")

_PARAM_GRID = range(1, 8)  # rho and lambda run over i/8 for i in this range
_CONFIRM_TIMES = (0.01, 0.05, 0.1, 0.25, 0.5)


def _grid_values(coefficients):
    """(i, j, 8^4 D(i/8, j/8)) in search order from D's integer coefficients c[a][b]."""
    for i in _PARAM_GRID:
        q0, q1, q2 = (64 * c0 + 8 * i * c1 + i * i * c2 for c0, c1, c2 in zip(*coefficients))
        for j in _PARAM_GRID:
            yield i, j, 64 * q0 + 8 * j * q1 + j * j * q2


@dataclass(frozen=True)
class SearchOutcome:
    target: str
    found: bool
    witness: dict | None
    derivative_certificate: dict | None
    evaluations: int
    summary: str


def _search_plan(target: str, n: int):
    """The (zero sites, x, y) cases, the backgrounds and the checker of a
    search target, in search order."""
    if target == "association":
        cases = [((), x, y) for x in range(n) for y in range(n) if x != y]
        return cases, (Fraction(1, 8), Fraction(7, 8)), is_associated
    if target == "downward-fkg":
        cases = [
            ((u,), x, y)
            for u in range(n)
            for x in range(n)
            for y in range(x + 1, n)
            if u not in (x, y)
        ]
        return cases, (Fraction(1, 2), Fraction(1, 8), Fraction(7, 8)), is_downward_fkg
    raise ValueError(f"unknown search target {target!r}; known: {SEARCH_TARGETS}")


def search_counterexample(
    target: str, system: RateTable, budget: int = DEFAULT_SEARCH_BUDGET
) -> SearchOutcome:
    """Search for an initial measure and time at which the evolved measure
    violates the target property.

    Product measures with two free sites x, y on a parameter grid are
    screened by the exact t = 0 derivative of the association determinant
    of (x, y) (for ``downward-fkg``, conditioned on zeros at a third site).
    For each pair and background that derivative is one biquadratic in
    (rho, lambda) with integer coefficients over one common denominator
    (``derivative_coefficients``), and each grid value, an integer over that
    denominator times 8^4, is compared with 0 as an integer.  Only a negative
    value becomes a Fraction; it is recomputed by ``derivative_at_zero`` on
    the product measure itself, then confirmed by evolving the measure over
    a small time grid and running the target checker.  ``budget`` caps the
    grid evaluations and confirmations together.

    A found witness for ``downward-fkg`` is also a DCA violation, since
    conditional association implies the downward FKG property.
    """
    validate_int(budget, "search budget", nonnegative=True)
    n = system.n
    cases, backgrounds, check = _search_plan(target, n)
    gen = build_generator(system)
    evaluations = 0

    def exhausted():
        return SearchOutcome(target, False, None, None, evaluations, "search-exhausted")

    corners = {}  # the corner flows do not depend on the conditioned site
    for zero_sites, x, y in cases:
        poly = association_determinant_poly(n, x, y, zero_sites=zero_sites)
        for background in backgrounds:
            key = (x, y, background)
            if key not in corners:
                corners[key] = product_corners(gen, x, y, background)
            coefficients, denominator = derivative_coefficients(poly, corners[key])
            for i, j, value in _grid_values(coefficients):
                if evaluations >= budget:
                    return exhausted()
                evaluations += 1
                if value >= 0:
                    continue
                deriv = Fraction(value, denominator * 8**4)
                rho, lam = Fraction(i, 8), Fraction(j, 8)
                ps = [background] * n
                ps[x], ps[y] = rho, lam
                mu = ProbabilityMeasure.product(ps)
                reference = derivative_at_zero(gen, mu, poly)
                if reference != deriv:
                    raise ArithmeticError(
                        f"closed-form derivative {deriv} differs from {reference} "
                        f"at sites {x}, {y}, rho={rho}, lambda={lam}"
                    )
                certificate = {
                    **{"conditioned_site": u for u in zero_sites},
                    "sites": [x, y],
                    "rho": str(rho),
                    "lambda": str(lam),
                    "background": str(background),
                    "derivative": str(deriv),
                }
                for t in _CONFIRM_TIMES:
                    if evaluations >= budget:
                        return exhausted()
                    evolved = semigroup_apply(gen, mu, t)
                    report = check(evolved)
                    evaluations += 1
                    if report.fails:
                        witness = {
                            "product_probabilities": [str(p) for p in ps],
                            "t": t,
                            "report_property": report.property,
                            "report_witness": report.witness,
                            "report_margin": float(report.margin),
                        }
                        return SearchOutcome(
                            target, True, witness, certificate, evaluations, "violation-found"
                        )
    return exhausted()

"""Test-local oracles: constructors and reference computations that only the
tests use, kept out of the library.

The kernel and splitting oracles run on the library's own uniformization
(``_poisson_sweep`` at the default tail), so they see the same floats that
``semigroup_apply`` computes.  ``fraction_search`` is the counterexample
search with the derivative screen over ``Fraction`` and numpy object arrays
that the library's integer screen replaced, kept as its reference.
``fraction_tilt_values`` is the factor product over ``Fraction`` that
``harness._factor_table`` computes over integers.  ``sampled_tilts`` is the
DCA tilt stream the library once swept, the soft-conditioning family
followed by random draws from a subcone of the valid tilts, as
(label, ``Fraction`` table) pairs, and
``fresh_family_dca`` the DCA sweep over a freshly built family with
``Fraction`` tables.  ``reference_downward_fkg`` sweeps every conditioning
of at least one site, normalized, through ``is_associated``.
``reference_lattice`` scans the lattice condition over ``Fraction``
slacks, the reference for ``satisfies_lattice``'s integer scan.  ``permute``
and ``flip`` map a vector by a site permutation and by the global spin
flip; association and the lattice condition are invariant under both,
downward FKG under permutations.  ``permute_rates`` and ``flip_rates`` map
a spin system the same way; the flip swaps births and deaths.
"""

import random
from fractions import Fraction
from math import prod

import numpy as np

from spincorr.dynamics import (
    DEFAULT_POISSON_TAIL,
    Generator,
    RateTable,
    _check_time,
    _poisson_sweep,
    association_determinant_poly,
    birth_submodularity,
    build_generator,
    measure_flow,
    semigroup_apply,
)
from spincorr.harness import (
    _CONFIRM_TIMES,
    DEFAULT_SEARCH_BUDGET,
    SearchOutcome,
    _factor_table,
    _rng,
    _search_plan,
)
from spincorr.lattice import BudgetError, configs, lattice_pairs, single_bit_pairs
from spincorr.measures import (
    EXACT,
    FAILS,
    HOLDS,
    SEARCH_EXHAUSTED,
    ProbabilityMeasure,
    PropertyReport,
    WeightVector,
    _as_probability,
    _resolve_tolerance,
    is_associated,
    is_downward_fkg,
)
from spincorr.tilts import _materialize_conditioning_witness, _tilt_witness, conditioning_tilt

BIRTH_REJECTION_BUDGET = 5000


def point_mass(n: int, config: int) -> ProbabilityMeasure:
    """All mass on one configuration: the product with site probabilities 0 or 1."""
    return ProbabilityMeasure.product([config >> x & 1 for x in range(n)])


def uniform(n: int) -> ProbabilityMeasure:
    return ProbabilityMeasure.product([Fraction(1, 2)] * n)


def scaled(vector: WeightVector, factor) -> WeightVector:
    return WeightVector(vector.n, tuple(w * factor for w in vector.weights), vector.mode)


def permuted_configs(n: int, perm) -> list[int]:
    """The image of each configuration when site x moves to site perm[x]."""
    return [sum(1 << perm[x] for x in range(n) if c >> x & 1) for c in range(1 << n)]


def permute(vector: WeightVector, perm) -> WeightVector:
    """The same vector type with site x moved to site perm[x]."""
    weights = [None] * len(vector.weights)
    for w, image in zip(vector.weights, permuted_configs(vector.n, perm)):
        weights[image] = w
    return type(vector)(vector.n, tuple(weights), vector.mode)


def flip(vector: WeightVector) -> WeightVector:
    """The global spin flip eta -> 1 - eta: configuration c takes the
    weight of its complement."""
    return type(vector)(vector.n, vector.weights[::-1], vector.mode)


def permute_rates(rates: RateTable, perm) -> RateTable:
    """The same system with site x moved to site perm[x]."""
    images = permuted_configs(rates.n, perm)

    def move(tables):
        out = [[None] * len(images) for _ in tables]
        for x, table in enumerate(tables):
            for c, image in enumerate(images):
                out[perm[x]][image] = table[c]
        return out

    return RateTable.from_tables(move(rates.birth), move(rates.death))


def flip_rates(rates: RateTable) -> RateTable:
    """The global spin flip: a death at configuration c becomes a birth at
    its complement, and a birth a death."""
    full = (1 << rates.n) - 1

    def move(tables):
        return [[table[full ^ c] for c in range(full + 1)] for table in tables]

    return RateTable.from_tables(move(rates.death), move(rates.birth))


def determinant_value(poly, weights):
    """p11 p00 - p10 p01 of an association determinant's four events."""
    p11, p00, p10, p01 = poly.event_probabilities(weights)
    return p11 * p00 - p10 * p01


def generator_sum(g1: Generator, g2: Generator) -> Generator:
    """The generator of both systems at once: rates added site by site."""
    if g1.n != g2.n:
        raise ValueError(f"site counts differ: {g1.n} vs {g2.n}")

    def added(a, b):
        return tuple(tuple(p + q for p, q in zip(ta, tb)) for ta, tb in zip(a, b))

    a, b = g1.rates, g2.rates
    return Generator(RateTable(g1.n, added(a.birth, b.birth), added(a.death, b.death)))


def uniformized_kernel(gen: Generator, t) -> np.ndarray:
    """Full transition matrix P_t under uniformization: the identity swept
    from the left, so row x is the law at time t started from x."""
    return _poisson_sweep(gen, np.eye(1 << gen.n), _check_time(t), DEFAULT_POISSON_TAIL)


def trotter_compose(g1: Generator, g2: Generator, measure, t, steps: int) -> ProbabilityMeasure:
    """[S1(t/m) S2(t/m)]^m acting on a measure; converges to the semigroup
    of g1 + g2 with first-order error in 1/m."""
    if g1.n != g2.n:
        raise ValueError(f"site counts differ: {g1.n} vs {g2.n}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    dt = _check_time(t) / steps
    for _ in range(steps):
        measure = semigroup_apply(g2, semigroup_apply(g1, measure, dt), dt)
    return measure


def tilt_table_is_valid(values, n: int, tolerance: float = 0.0):
    """Direct check of an arbitrary table: positive, decreasing, and
    log-supermodular (h(or)*h(and) >= h(eta)*h(zeta) over all pairs).
    Returns (ok, reason)."""
    vals = list(values)
    if len(vals) != 1 << n:
        return False, f"expected {1 << n} values"
    for c, v in enumerate(vals):
        if not v > 0:
            return False, f"h({c:#b}) = {v} is not strictly positive"
    for lo, hi in single_bit_pairs(n):
        if vals[hi] - vals[lo] > tolerance * max(abs(vals[lo]), 1):
            return False, f"not decreasing at pair ({lo}, {hi})"
    # every incomparable pair, not only the squares: a tolerance granted on
    # each square compounds along a far pair, so squares would accept more
    for a, b in lattice_pairs(n, strictly_positive=False):
        slack = vals[a & b] * vals[a | b] - vals[a] * vals[b]
        if slack < -tolerance * max(abs(vals[a] * vals[b]), 1):
            return False, f"supermodularity fails at pair ({a}, {b})"
    return True, None


def fraction_tilt_values(n: int, site_factors, interactions) -> tuple[Fraction, ...]:
    """The table of h(eta) = prod_x u_x^eta(x) * prod_A v_A^[eta = 1 on A],
    configuration by configuration, as a product of ``Fraction`` factors."""
    out = []
    for c in configs(n):
        v = Fraction(1)
        for x, u in enumerate(site_factors):
            if c >> x & 1:
                v *= u
        for mask, factor in interactions:
            if c & mask == mask:
                v *= factor
        out.append(v)
    return tuple(out)


def conditioning_family(n: int) -> list[tuple[str, tuple[Fraction, ...]]]:
    """Soft conditioning on every nonempty site set, by ascending mask, each
    with eps = 1, 1/10, 1/100, as (label, h) pairs."""
    return [conditioning_tilt(n, [x for x in range(n) if amask >> x & 1], eps)
            for amask in range(1, 1 << n)
            for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100))]


def sampled_tilts(n: int, seed: int = 0):
    """The conditioning family, then forever random members of the subcone
    h(eta) = prod_x u_x^eta(x) * prod_A v_A^[eta = 1 on A] with v_A >= 1 and
    u_x * prod_{A owning x} v_A <= 1, labelled "sampled"."""
    yield from conditioning_family(n)
    rng = random.Random(seed * 1000003 + n)
    interaction_masks = [m for m in range(1 << n) if m.bit_count() >= 2]
    while True:
        interactions = [(mask, Fraction(4 + rng.randrange(0, 9), 4))
                        for mask in interaction_masks if rng.random() < 0.4]
        site_factors = [Fraction(rng.randrange(1, 17), 16)
                        / prod(v for mask, v in interactions if mask >> x & 1)
                        for x in range(n)]
        nums, den = _factor_table(site_factors, interactions)
        yield "sampled", tuple(Fraction(v, den) for v in nums)


def fresh_family_dca(measure, budget: int, *, tolerance=None) -> PropertyReport:
    """``dca_falsify`` for n >= 4: the downward-FKG screen, then the first
    ``budget`` tilts of a freshly built conditioning family with ``Fraction``
    tables."""
    pm = _as_probability(measure)
    n = pm.n
    assert n >= 4
    tol = _resolve_tolerance(pm.mode, tolerance)
    details = {"mode": pm.mode, "sites": n}
    if pm.mode != EXACT:
        details["tolerance"] = tol
    screen = is_downward_fkg(pm, tolerance=tolerance)
    details["downward_fkg_screen"] = screen.verdict
    if screen.fails:
        confirmed = _materialize_conditioning_witness(
            pm, screen.witness["conditioned_sites"], tolerance
        )
        if confirmed is not None:
            return PropertyReport("dca", FAILS, *confirmed, details)
    weights = pm.as_float_array()
    best = None
    sampled = 0
    for label, h in conditioning_family(n)[:budget]:
        sampled += 1
        tilted = weights * np.array([float(v) for v in h])
        tilted /= tilted.sum()
        margin = is_associated(ProbabilityMeasure.floats(tilted), tolerance=tolerance).margin
        if best is None or margin < best:
            best = margin
        if margin < -max(tol, 1e-12):
            confirmed = _tilt_witness(pm, label, h, tolerance)
            if confirmed is not None:
                witness, exact_margin = confirmed
                details["tilts_sampled"] = sampled
                return PropertyReport("dca", FAILS, witness, exact_margin, details)
    details["tilts_sampled"] = sampled
    details["min_sampled_margin"] = best
    return PropertyReport("dca", SEARCH_EXHAUSTED, None, best, details)


def reference_lattice(vector: WeightVector) -> tuple:
    """(margin, witness, pairs checked) of the exact lattice condition: the
    ``Fraction`` slacks w(a&b) w(a|b) - w(a) w(b) of the weights as given,
    over ``lattice_pairs`` in order up to the first negative one."""
    w = vector.as_fractions()
    best = witness = None
    checked = 0
    for a, b in lattice_pairs(vector.n, all(v > 0 for v in w)):
        checked += 1
        slack = w[a & b] * w[a | b] - w[a] * w[b]
        best = slack if best is None else min(best, slack)
        if slack < 0:
            witness = {"eta": a, "zeta": b, "meet": a & b, "join": a | b}
            break
    return best, witness, checked


def reference_downward_fkg(measure, *, tolerance=None) -> PropertyReport:
    """``is_downward_fkg`` with no shortcut: every slice of at least one
    site goes through ``is_associated``, the empty conditioning as the
    measure itself and every other one as a ``ProbabilityMeasure`` divided
    by its mass (exactly, or by the Python sum of its floats)."""
    pm = _as_probability(measure)
    n = pm.n
    tol = _resolve_tolerance(pm.mode, tolerance)
    floor = 0 if pm.mode == EXACT else 1e-12
    best = witness = None
    checked = skipped = 0
    for amask in range(1 << n):
        weights = [w for c, w in enumerate(pm.weights) if c & amask == 0]
        mass = sum(weights)
        if not mass > floor:
            skipped += 1
            continue
        checked += 1
        if len(weights) == 1:
            continue  # no site left: no up-set pair to check
        remaining = [x for x in range(n) if not amask >> x & 1]
        sub = pm if amask == 0 else ProbabilityMeasure(
            len(remaining), tuple(w / mass for w in weights), pm.mode)
        report = is_associated(sub, tolerance=tolerance)
        if best is None or report.margin < best:
            best = report.margin
        if report.fails:
            witness = {"conditioned_sites": [x for x in range(n) if amask >> x & 1],
                       "remaining_sites": remaining, **report.witness}
            break
    details = {"mode": pm.mode, "subsets_checked": checked, "subsets_skipped": skipped}
    if pm.mode != EXACT:
        details["tolerance"] = tol
    return PropertyReport("downward-fkg", FAILS if witness else HOLDS, witness, best, details)


def random_single_site_birth(seed: int, n: int, site: int) -> RateTable:
    """Single-site birth system whose rate table is increasing and
    submodular, found by rejection over monotone closures of draws in
    {0, 1/4, ..., 3}."""
    rng = _rng(seed, n, salt=101 + site)
    for _ in range(BIRTH_REJECTION_BUDGET):
        values = [Fraction(rng.randrange(0, 13), 4) for _ in configs(n)]
        for lo, hi in single_bit_pairs(n):
            values[hi] = max(values[hi], values[lo])
        table = RateTable.from_site_functions(
            n, lambda x, c: values[c] if x == site else 0, lambda x, c: 0)
        if birth_submodularity(table).holds:
            return table
    raise BudgetError(f"no increasing submodular table found in {BIRTH_REJECTION_BUDGET} draws")


def huge_denominator_system(seed: int, n: int) -> RateTable:
    """Generic rates near 10^-10: numerators near 10^30 over denominators near
    10^40, a different one for each rate, so their lcm has hundreds of digits."""
    rng = random.Random(seed)
    size = 1 << n

    def table():
        return [[Fraction(10**30 + rng.randrange(10**6), 10**40 + 7 + 2 * rng.randrange(10**6))
                 for _ in range(size)] for _ in range(n)]

    return RateTable.from_tables(table(), table())


def _fraction_corners(gen: Generator, x: int, y: int, background) -> tuple:
    """The four product measures with sites x, y pinned to (0, 0), (1, 0),
    (0, 1), (1, 1) and ``background`` elsewhere, as (weights, flow mu Q)."""
    corners = []
    for sx, sy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        ps = [background] * gen.n
        ps[x], ps[y] = sx, sy
        pm = ProbabilityMeasure.product(ps)
        corners.append((pm.weights, measure_flow(gen, pm)))
    return corners


def _fraction_bilinear(v00, v10, v01, v11) -> np.ndarray:
    out = np.zeros((3, 3), dtype=object)
    out[0, 0], out[1, 0], out[0, 1], out[1, 1] = v00, v10 - v00, v01 - v00, v11 - v10 - v01 + v00
    return out


def _fraction_bilinear_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((3, 3), dtype=object)
    for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
        out[i:i + 2, j:j + 2] += a[i, j] * b[:2, :2]
    return out


def _fraction_coefficients(poly, corners) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients of rho^a lam^b in the t = 0 derivative, over Fraction
    and numpy object arrays."""

    def interpolated(values):
        per_corner = [poly.event_probabilities(v) for v in values]
        return [_fraction_bilinear(*corner) for corner in zip(*per_corner)]

    p11, p00, p10, p01 = interpolated(w for w, _ in corners)
    f11, f00, f10, f01 = interpolated(f for _, f in corners)
    times = _fraction_bilinear_product
    grid = times(f11, p00) + times(f00, p11) - times(f10, p01) - times(f01, p10)
    return tuple(tuple(Fraction(v) for v in row) for row in grid)


def fraction_search(target: str, system: RateTable, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """``search_counterexample`` with its derivative screen over Fraction:
    the same cases, grid, visit order, budget accounting, confirmations and
    certificates, each grid value evaluated from the rational coefficients."""
    n = system.n
    cases, backgrounds, check = _search_plan(target, n)
    gen = build_generator(system)
    grid = [Fraction(i, 8) for i in range(1, 8)]
    evaluations = 0

    def exhausted():
        return SearchOutcome(target, False, None, None, evaluations, "search-exhausted")

    corners = {}
    for zero_sites, x, y in cases:
        poly = association_determinant_poly(n, x, y, zero_sites=zero_sites)
        for background in backgrounds:
            key = (x, y, background)
            if key not in corners:
                corners[key] = _fraction_corners(gen, x, y, background)
            coefficients = _fraction_coefficients(poly, corners[key])
            for rho in grid:
                q0, q1, q2 = (c0 + rho * (c1 + rho * c2) for c0, c1, c2 in zip(*coefficients))
                for lam in grid:
                    if evaluations >= budget:
                        return exhausted()
                    deriv = q0 + lam * (q1 + lam * q2)
                    evaluations += 1
                    if deriv >= 0:
                        continue
                    ps = [background] * n
                    ps[x], ps[y] = rho, lam
                    mu = ProbabilityMeasure.product(ps)
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

"""Spin-system rate tables, generators, semigroups, and rate classifiers.

A spin system flips one site at a time: site x turns on at rate
birth(x, eta) and off at rate death(x, eta), neither depending on the
spin at x itself.  Tables store one exact rational per (site, config)
with the own-spin independence enforced at construction: the value at a
configuration is taken from the representative with the site's own bit
cleared.  Conditions stated "off x" (all other sites empty/full) are
therefore conditions on that representative.

The semigroup exp(tQ) is evaluated from the left only: mu S(t) = mu e^{tQ}
for a measure, and the kernel P_t is the identity swept the same way
(S(t)f = P_t f), by uniformization, which keeps every entry nonnegative.
Horizons with lambda*t > 500 are halved d times; for d >= 2 the leaf kernel
P_{t/2^d} is built once and squared d times.  A leaf's K Poisson terms are
summed in blocks of about sqrt(K), in about 2 sqrt(K) matrix products, and
truncated at the tail, so up to 2^d * tail of mass is lost (ROADMAP item 2).
Dense scaling and squaring (scipy's expm) is kept as a cross-check oracle;
it is the only user of scipy and imports it on its first call.  Outputs are
floats; only the derivative at t=0 is exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import exp, inf, isqrt

import numpy as np

from .lattice import (
    configs,
    scan_slacks,
    single_bit_pairs,
    two_site_quadruples,
    validate_site,
    validate_site_count,
)
from .measures import (
    FAILS,
    HOLDS,
    ProbabilityMeasure,
    PropertyReport,
    _as_probability,
    as_fraction,
)

DEFAULT_POISSON_TAIL = 1e-13


def _representative_table(n: int, site: int, values) -> tuple[Fraction, ...]:
    vals = [as_fraction(v) for v in values]
    if len(vals) != 1 << n:
        raise ValueError(f"expected {1 << n} rates per site, got {len(vals)}")
    bit = 1 << site
    table = tuple(vals[c & ~bit] for c in configs(n))
    if any(v < 0 for v in table):
        raise ValueError(f"negative rate at site {site}")
    return table


@dataclass(frozen=True)
class RateTable:
    """Per-site birth and death rates over all configurations."""

    n: int
    birth: tuple[tuple[Fraction, ...], ...]
    death: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_tables(cls, birth, death) -> "RateTable":
        """Build from per-site tables indexed by configuration mask.

        Entries at configurations with the site's own bit set are ignored:
        the value at the own-bit-cleared representative is copied across.
        """
        n = len(birth)
        validate_site_count(n)
        if len(death) != n:
            raise ValueError("birth and death tables must cover the same sites")
        b = tuple(_representative_table(n, x, birth[x]) for x in range(n))
        d = tuple(_representative_table(n, x, death[x]) for x in range(n))
        return cls(n, b, d)

    @classmethod
    def from_site_functions(cls, n: int, birth_fn, death_fn) -> "RateTable":
        validate_site_count(n)
        birth = [[birth_fn(x, c) for c in configs(n)] for x in range(n)]
        death = [[death_fn(x, c) for c in configs(n)] for x in range(n)]
        return cls.from_tables(birth, death)

    @classmethod
    def independent_flips(cls, n: int, births, deaths) -> "RateTable":
        """Constant rates per site: every spin flips on its own."""
        validate_site_count(n)
        births = [as_fraction(b) for b in births]
        deaths = [as_fraction(d) for d in deaths]
        if len(births) != n or len(deaths) != n:
            raise ValueError(f"expected {n} birth and death constants")
        size = 1 << n
        return cls.from_tables(
            [[births[x]] * size for x in range(n)],
            [[deaths[x]] * size for x in range(n)],
        )

    @classmethod
    def single_site_birth(cls, n: int, site: int, values) -> "RateTable":
        """All rates zero except the birth rate at one site."""
        validate_site_count(n)
        validate_site(site, n)
        size = 1 << n
        zero = [Fraction(0)] * size
        birth = [list(zero) for _ in range(n)]
        birth[site] = [as_fraction(v) for v in values]
        death = [list(zero) for _ in range(n)]
        return cls.from_tables(birth, death)

    def rate(self, site: int, config: int) -> Fraction:
        """Flip rate at the site in this configuration (birth or death)."""
        if config >> site & 1:
            return self.death[site][config]
        return self.birth[site][config]

    def exit_rate(self, config: int) -> Fraction:
        return sum(self.rate(x, config) for x in range(self.n))


def contact_process(edges, infection=1, recovery=1, n: int | None = None) -> RateTable:
    """Contact process on a finite graph: births at rate
    infection * (number of occupied neighbours), deaths at constant rate."""
    edges = [tuple(e) for e in edges]
    infection = as_fraction(infection)
    recovery = as_fraction(recovery)
    sites = {x for e in edges for x in e}
    if n is None:
        n = max(sites) + 1 if sites else 1
    validate_site_count(n)
    if any(not 0 <= x < n for x in sites):
        raise ValueError("edge endpoint out of range")
    neighbours = [[] for _ in range(n)]
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at site {i}")
        neighbours[i].append(j)
        neighbours[j].append(i)

    def birth(x, c):
        return infection * sum(1 for y in neighbours[x] if c >> y & 1)

    def death(x, c):
        return recovery

    return RateTable.from_site_functions(n, birth, death)


def path_edges(k: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(k - 1)]


# ---------------------------------------------------------------------------
# generator and semigroup


@dataclass(frozen=True)
class Generator:
    """Rate matrix of single-site flips, kept as its rate table: row eta holds
    the n flip rates out of eta and, on the diagonal, minus their sum."""

    rates: RateTable

    @property
    def n(self) -> int:
        return self.rates.n

    @cached_property
    def exit_rates(self) -> tuple[Fraction, ...]:
        return tuple(self.rates.exit_rate(c) for c in configs(self.n))

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = np.zeros((1 << self.n, 1 << self.n), dtype=np.float64)
        for c, total in enumerate(self.exit_rates):
            for x in range(self.n):
                mat[c, c ^ (1 << x)] = _rate_float(self.rates.rate(x, c))
            mat[c, c] = -_rate_float(total)
        mat.flags.writeable = False
        return mat

    @cached_property
    def uniformization_rate(self) -> Fraction:
        return max(self.exit_rates)

    @cached_property
    def transition(self) -> np.ndarray:
        """The uniformized jump chain I + Q / lambda (for lambda > 0)."""
        mat = np.eye(1 << self.n) + self.matrix / _rate_float(self.uniformization_rate)
        mat.flags.writeable = False
        return mat


def build_generator(rates: RateTable) -> Generator:
    """Q(eta, eta with site x flipped) = flip rate; diagonal balances the row."""
    return Generator(rates)


def _rate_float(rate: Fraction) -> float:
    try:
        return float(rate)
    except OverflowError:
        raise ValueError(f"rate {rate} is beyond the float64 range") from None


def _check_time(t) -> float:
    t = float(t)
    if not 0 <= t < inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    return t


def _poisson_weights(lt: float, tail: float) -> np.ndarray:
    """Poisson(lt) weights w_0 .. w_K, accumulated in order as w_k = w_{k-1} lt / k;
    K is the first k with 1 - (w_0 + ... + w_k) <= ``tail``, capped at k_max."""
    k_max = int(lt + 60.0 * (lt + 1.0) ** 0.5 + 100.0)
    weights = np.multiply.accumulate(np.concatenate(([exp(-lt)], lt / np.arange(1.0, k_max + 1.0))))
    return weights[:min(k_max, int(np.count_nonzero(1.0 - np.add.accumulate(weights) > tail))) + 1]


def _poisson_sweep(gen: Generator, vector: np.ndarray, t: float, tail: float):
    lam = _rate_float(gen.uniformization_rate)
    if lam == 0.0 or t == 0.0:
        return vector.copy()
    # Halve t d times until lam*s <= 500 (exp(-lam*s) stays representable).
    # d <= 1: the vector's 2^d leaves in turn; d >= 2: the leaf of the identity,
    # P_s, squared d times.  Each leaf truncates at ``tail``: up to 2^d*tail lost.
    depth = 0
    while lam * t > 500.0:
        t /= 2.0
        depth += 1
    if depth >= 2:
        kernel = _poisson_sweep(gen, np.eye(1 << gen.n), t, tail)
        for _ in range(depth):
            kernel = kernel @ kernel
        return vector @ kernel
    weights = _poisson_weights(lam * t, tail)
    # The leaf sum_{k<=K} w_k R P^k (R: the vector, or the identity for P_s) in
    # blocks of m (Paterson & Stockmeyer 1973), Horner's rule in P^m over S_j =
    # sum_{i<m} w_{jm+i} R P^i; one block if the chain costs <= an N x N product.
    transition, terms, step = gen.transition, len(weights), None
    m = terms if (terms - 1) * vector.size <= transition.size else isqrt(terms - 1) + 1
    blocks = np.concatenate((weights, np.zeros(-terms % m))).reshape(-1, m)
    heads = np.empty((m,) + vector.shape)
    for _ in range(1 << depth):
        heads[0] = vector
        for prev, head in zip(heads, heads[1:]):
            np.matmul(prev, transition, out=head)
        sums = (blocks @ heads.reshape(m, -1)).reshape((-1,) + vector.shape)
        vector = sums[-1]
        for s in sums[-2::-1]:
            if step is None:  # P^m: the identity's heads are P^i; a vector squares P
                step = (heads[-1] @ transition if heads.ndim == 3
                        else np.linalg.matrix_power(transition, m))
            vector = vector @ step + s
    return vector


def semigroup_apply(
    gen: Generator, measure, t, *, tail: float = DEFAULT_POISSON_TAIL
) -> ProbabilityMeasure:
    """mu S(t) by uniformization: a Poisson mixture of powers of the
    embedded stochastic matrix, truncated when the tail mass drops below
    ``tail``.  Output is a float-mode measure summing to 1 within 1e-12,
    so ``tail`` must stay below that slack."""
    t = _check_time(t)
    pm = _as_probability(measure)
    if pm.n != gen.n:
        raise ValueError(f"site counts differ: measure {pm.n} vs generator {gen.n}")
    out = _poisson_sweep(gen, pm.as_float_array(), t, tail).tolist()
    if not any(out):  # the tails lost by 2^d leaves took all of the mass
        raise ValueError("float measure sums to 0.0, outside 1e-12 of 1")
    return ProbabilityMeasure.floats(out)


def semigroup_apply_expm(gen: Generator, measure, t) -> ProbabilityMeasure:
    """Scaling-and-squaring cross-check oracle for semigroup_apply."""
    import scipy.linalg  # here only, so that importing spincorr loads no scipy

    t = _check_time(t)
    pm = _as_probability(measure)
    kernel = scipy.linalg.expm(gen.matrix * t)
    return ProbabilityMeasure.floats(pm.as_float_array() @ kernel)


# ---------------------------------------------------------------------------
# rate classifiers


def is_attractive(rates: RateTable) -> PropertyReport:
    """Births increasing and deaths decreasing in the configuration."""
    best, witness, _ = scan_slacks(
        ({"site": x, "kind": kind, "lower": lo, "upper": hi}, slack)
        for x in range(rates.n)
        for lo, hi in single_bit_pairs(rates.n)
        for kind, slack in (
            ("birth", rates.birth[x][hi] - rates.birth[x][lo]),
            ("death", rates.death[x][lo] - rates.death[x][hi]),
        )
    )
    return PropertyReport("attractive", FAILS if witness else HOLDS, witness, best)


def _first_change(table, cs):
    """(first config of ``cs``, first later config of ``cs`` whose value in
    ``table`` differs), or None when the value is constant on ``cs``."""
    cs = iter(cs)
    first = next(cs, None)
    for c in cs:
        if table[c] != table[first]:
            return first, c
    return None


def has_independent_flips(rates: RateTable) -> PropertyReport:
    """Every site's birth and death rates ignore the configuration."""
    independent = not any(
        _first_change(table, configs(rates.n)) for table in rates.birth + rates.death
    )
    return PropertyReport("independent-flips", HOLDS if independent else FAILS)


def deaths_constant(rates: RateTable) -> PropertyReport:
    """Death rates independent of the configuration at every site."""
    for x, table in enumerate(rates.death):
        change = _first_change(table, configs(rates.n))
        if change:
            witness = {"site": x, "config": change[1], "values": sorted(str(v) for v in set(table))}
            return PropertyReport("constant-deaths", FAILS, witness, None)
    return PropertyReport("constant-deaths", HOLDS, None, None)


def deaths_constant_on_occupied(rates: RateTable) -> PropertyReport:
    """Death rates take one value per site on configurations with another
    occupied site.

    The comparison runs over own-bit representatives other than the empty
    configuration; the value when the site is the lone occupant (the empty
    representative) is exempt.
    """
    for x, table in enumerate(rates.death):
        change = _first_change(table, (c for c in configs(rates.n) if c and not c >> x & 1))
        if change:
            witness = {
                "site": x,
                "configs": list(change),
                "values": [str(table[c]) for c in change],
            }
            return PropertyReport("constant-deaths-occupied", FAILS, witness, None)
    return PropertyReport("constant-deaths-occupied", HOLDS, None, None)


def births_additive(rates: RateTable) -> PropertyReport:
    """Additivity of the birth rates at every site: each is a nonnegative
    combination of 'some site of A occupied' indicators over nonempty
    subsets A of the other sites.

    With f(B) the birth rate when exactly B (a set of other sites) is
    occupied and G(D) = f(full) - f(full minus D), the coefficient of A is
    sum over D <= A of (-1)^|A minus D| G(D) by Moebius inversion over the
    subset lattice.  The combination reproduces the table iff the rate with
    every other site empty is zero.  A failing witness names the smallest
    mask with a negative coefficient, or None when that empty rate is not
    zero.  Non-additivity is a verdict, not an error.
    """
    for x, table in enumerate(rates.birth):
        own = 1 << x
        full = (1 << rates.n) - 1 ^ own
        bad = None
        if table[0] == 0:
            # G(D) for every mask D, then the Moebius transform over the
            # off-site bits, one in-place pass per site; masks holding the
            # own bit are unused
            coeff = [table[full] - table[full & ~d] for d in configs(rates.n)]
            for y in range(rates.n):
                if y != x:
                    for a in configs(rates.n):
                        if a >> y & 1:
                            coeff[a] -= coeff[a ^ 1 << y]
            bad = next((a for a in configs(rates.n) if not a & own and coeff[a] < 0), None)
            if bad is None:
                continue
        witness = {"site": x, "empty_rate": str(table[0]), "negative_coefficient_mask": bad}
        return PropertyReport("additive-births", FAILS, witness, None)
    return PropertyReport("additive-births", HOLDS, None, None)


def birth_submodularity(rates: RateTable) -> PropertyReport:
    """Submodularity of the birth rate at every site:
    rate(or) + rate(and) <= rate(eta) + rate(zeta).

    Checked site by site on pairs differing at exactly two sites, which is
    equivalent to the condition over all pairs for any real table.
    """
    best, witness, _ = scan_slacks(
        ({"site": site, "base": base, "raised": [x, y]},
         table[base | 1 << x] + table[base | 1 << y] - table[base | 1 << x | 1 << y] - table[base])
        for site, table in enumerate(rates.birth)
        for base, x, y in two_site_quadruples(rates.n)
    )
    return PropertyReport("submodular-births", FAILS if witness else HOLDS, witness, best)


def births_increasing(rates: RateTable) -> PropertyReport:
    """Birth rate at every site increasing in the configuration, site by site."""
    best, witness, _ = scan_slacks(
        ({"site": site, "lower": lo, "upper": hi}, table[hi] - table[lo])
        for site, table in enumerate(rates.birth)
        for lo, hi in single_bit_pairs(rates.n)
    )
    return PropertyReport("increasing-births", FAILS if witness else HOLDS, witness, best)


# ---------------------------------------------------------------------------
# derivative of the association determinant at t = 0


@dataclass(frozen=True)
class EventPolynomial:
    """The 2 x 2 association determinant p11 p00 - p10 p01 of four fixed
    configuration sets E11, E00, E10, E01 (in that order), evaluated along
    the semigroup orbit of a measure."""

    n: int
    events: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size = 1 << self.n
        for event in self.events:
            if any(not 0 <= c < size for c in event):
                raise ValueError(f"event {event!r} contains configs out of range")

    def event_probabilities(self, weights) -> list:
        return [sum(weights[c] for c in event) for event in self.events]


def association_determinant_poly(n: int, x: int, y: int, zero_sites=()) -> EventPolynomial:
    """P(x=1, y=1, Z) P(x=0, y=0, Z) - P(x=1, y=0, Z) P(x=0, y=1, Z) with Z
    the event of zeros on ``zero_sites``; nonnegative whenever the measure
    conditioned on Z is associated, zero at product measures."""
    for site in (x, y):
        validate_site(site, n)
    if x == y:
        raise ValueError("sites must be distinct")
    zmask = 0
    for z in zero_sites:
        validate_site(z, n)
        if z in (x, y):
            raise ValueError("pinned sites must differ from the compared pair")
        zmask |= 1 << z
    events = []
    for sx, sy in ((1, 1), (0, 0), (1, 0), (0, 1)):
        members = tuple(
            c
            for c in configs(n)
            if (c >> x & 1) == sx and (c >> y & 1) == sy and c & zmask == 0
        )
        events.append(members)
    return EventPolynomial(n, tuple(events))


def measure_flow(gen: Generator, measure) -> tuple[Fraction, ...]:
    """mu Q, the exact time derivative of the semigroup orbit at t = 0."""
    pm = _as_probability(measure)
    if pm.n != gen.n:
        raise ValueError(f"site counts differ: measure {pm.n} vs generator {gen.n}")
    weights = pm.as_fractions()
    out = [Fraction(0)] * (1 << gen.n)
    for source, w in enumerate(weights):
        if w == 0:
            continue
        out[source] -= w * gen.exit_rates[source]
        for x in range(gen.n):
            r = gen.rates.rate(x, source)
            if r:
                out[source ^ (1 << x)] += w * r
    return tuple(out)


def _chain_rule(probs, flows, times):
    """d/dt of p11 p00 - p10 p01 along the orbit at t = 0 by the product
    rule; ``times`` multiplies a flow term by an event probability."""
    p11, p00, p10, p01 = probs
    f11, f00, f10, f01 = flows
    return times(f11, p00) + times(f00, p11) - times(f10, p01) - times(f01, p10)


def derivative_at_zero(gen: Generator, measure, poly: EventPolynomial) -> Fraction:
    """Exact d/dt F(mu S(t)) at t = 0 by the chain rule through mu Q."""
    pm = _as_probability(measure)
    if poly.n != gen.n or pm.n != gen.n:
        raise ValueError("functional, measure, and generator must share the site count")
    probs = poly.event_probabilities
    return _chain_rule(probs(pm.as_fractions()), probs(measure_flow(gen, pm)), operator.mul)


def product_corners(gen: Generator, x: int, y: int, background) -> tuple:
    """The four product measures with sites x and y pinned to spins
    (0, 0), (1, 0), (0, 1), (1, 1) and every other site at probability
    ``background``, each as (weights, flow mu Q)."""
    if x == y:
        raise ValueError("sites must be distinct")
    corners = []
    for sx, sy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        ps = [background] * gen.n
        ps[x], ps[y] = sx, sy
        pm = ProbabilityMeasure.product(ps)
        corners.append((pm.weights, measure_flow(gen, pm)))
    return tuple(corners)


def _bilinear(v00, v10, v01, v11) -> np.ndarray:
    # coefficients of rho^a lam^b in the interpolation of the four corner values
    out = np.zeros((3, 3), dtype=object)
    out[0, 0], out[1, 0], out[0, 1], out[1, 1] = v00, v10 - v00, v01 - v00, v11 - v10 - v01 + v00
    return out


def _bilinear_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # both factors have degree at most one in each variable, so the product fits 3 x 3
    out = np.zeros((3, 3), dtype=object)
    for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
        out[i:i + 2, j:j + 2] += a[i, j] * b[:2, :2]
    return out


def derivative_coefficients(poly: EventPolynomial, corners) -> tuple[tuple[Fraction, ...], ...]:
    """Exact coefficients c[a][b] of rho^a lam^b in D(rho, lam), the
    derivative at t = 0 of ``poly`` from the product measure with
    probability rho at x, lam at y and the corners' background elsewhere.

    ``corners`` comes from ``product_corners``.  The product measure, and
    with it every event probability and (mu Q being linear in mu) every
    flow probability, is bilinear in (rho, lam) and interpolates the four
    corners; the chain rule multiplies at most two such factors, so D has
    degree at most two in each variable and equals ``derivative_at_zero``
    at every (rho, lam) in [0, 1]^2.
    """
    if any(len(weights) != 1 << poly.n for weights, _ in corners):
        raise ValueError("functional and corner measures must share the site count")

    def interpolated(values):
        per_corner = [poly.event_probabilities(v) for v in values]
        return [_bilinear(*corner) for corner in zip(*per_corner)]

    probs = interpolated(w for w, _ in corners)
    flow_probs = interpolated(f for _, f in corners)
    grid = _chain_rule(probs, flow_probs, _bilinear_product)
    return tuple(tuple(Fraction(v) for v in row) for row in grid)

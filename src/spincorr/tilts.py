"""Valid tilt functions and the falsification check for downward
conditional association (DCA).

A measure is DCA when every tilt mu_h = h*mu / sum(h*mu) by a strictly
positive, decreasing, log-supermodular h is associated.  The family of
valid h is infinite, so for four or more sites the property is only
semi-decidable: the checker either produces a concrete violating h or
reports the search exhausted.  For one to three sites exact closed forms
decide it.

Sampled tilts are built multiplicatively from exact rational parameters,

    h(eta) = prod_x u_x^eta(x) * prod_A v_A^[eta = 1 on A],   |A| >= 2,

with v_A >= 1 and u_x * prod_{A owning x} v_A <= 1.  Each all-ones
monomial is supermodular, so h is log-supermodular, and the constraint on
u_x makes raising any coordinate shrink h; validity therefore holds
exactly, by construction, and is re-checked per sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

import numpy as np

from .lattice import configs, lattice_pairs, single_bit_pairs, validate_site, validate_site_count
from .measures import (
    EXACT,
    FAILS,
    HOLDS,
    SEARCH_EXHAUSTED,
    ProbabilityMeasure,
    PropertyReport,
    _as_probability,
    _resolve_tolerance,
    _up_set_pair_covariance,
    is_associated,
    is_downward_fkg,
    tilt,
)
from .three_site import ThreeSiteCoords, classify, margins

DEFAULT_TILT_BUDGET = 1000


@dataclass(frozen=True)
class TiltFunction:
    """Strictly positive decreasing log-supermodular reweighting function."""

    n: int
    site_factors: tuple[Fraction, ...]
    interaction_factors: tuple[tuple[int, Fraction], ...] = ()
    label: str = "sampled"

    def validate(self) -> None:
        """Exact structural check of positivity, monotonicity, supermodularity."""
        validate_site_count(self.n)
        if len(self.site_factors) != self.n:
            raise ValueError(f"expected {self.n} site factors")
        for mask, factor in self.interaction_factors:
            if mask.bit_count() < 2 or mask >= 1 << self.n:
                raise ValueError(f"interaction mask {mask:#b} invalid for {self.n} sites")
            if factor < 1:
                raise ValueError(f"interaction factor {factor} below 1 breaks supermodularity")
        for x, u in enumerate(self.site_factors):
            if not u > 0:
                raise ValueError(f"site factor {u} at site {x} not strictly positive")
            bound = u
            for mask, factor in self.interaction_factors:
                if mask >> x & 1:
                    bound *= factor
            if bound > 1:
                raise ValueError(
                    f"site {x}: u * prod(v) = {bound} > 1 would make h increasing there"
                )

    def values_exact(self) -> tuple[Fraction, ...]:
        out = []
        for c in configs(self.n):
            v = Fraction(1)
            for x, u in enumerate(self.site_factors):
                if c >> x & 1:
                    v *= u
            for mask, factor in self.interaction_factors:
                if c & mask == mask:
                    v *= factor
            out.append(v)
        return tuple(out)

    def values_float(self) -> np.ndarray:
        return np.array([float(v) for v in self.values_exact()], dtype=np.float64)


def conditioning_tilt(n: int, sites, eps) -> TiltFunction:
    """Soft conditioning on zeros: h = prod over the listed sites of
    (eps/(1+eps))^eta(x).  As eps -> 0 the tilted measure converges to the
    measure conditioned on zeros there; eps-free sites are untouched."""
    eps = Fraction(eps)
    if not eps > 0:
        raise ValueError("eps must be positive")
    sites = set(sites)
    for x in sites:
        validate_site(x, n)
    factor = eps / (1 + eps)
    site_factors = tuple(factor if x in sites else Fraction(1) for x in range(n))
    return TiltFunction(n, site_factors, (), label=f"conditioning-{sorted(sites)}-eps={eps}")


def tilt_table_is_valid(values, n: int, tolerance: float = 0.0):
    """Direct check of an arbitrary table: positive, decreasing, and
    log-supermodular (h(or)*h(and) >= h(eta)*h(zeta) over all pairs).
    Returns (ok, reason)."""
    vals = list(values)
    if len(vals) != 1 << n:
        return False, f"expected {1 << n} values"
    if any(not v > 0 for v in vals):
        return False, "not strictly positive"
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


@dataclass
class TiltSampler:
    """Deterministic stream of valid tilt functions.

    Starts with the soft-conditioning family over every nonempty site
    subset and eps in {1, 1/10, 1/100}, then draws random members of the
    multiplicative family forever.  Iteration is reproducible from the
    seed; every emitted function passes its own exact validation.
    """

    n: int
    seed: int = 0

    def __iter__(self):
        validate_site_count(self.n)
        for amask in range(1, 1 << self.n):
            sites = [x for x in range(self.n) if amask >> x & 1]
            for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
                tf = conditioning_tilt(self.n, sites, eps)
                tf.validate()
                yield tf
        rng = random.Random(self.seed * 1000003 + self.n)
        interaction_masks = [
            m for m in range(1 << self.n) if m.bit_count() >= 2
        ]
        while True:
            interactions = []
            for mask in interaction_masks:
                if rng.random() < 0.4:
                    interactions.append((mask, 1 + Fraction(rng.randrange(0, 9), 4)))
            site_factors = []
            for x in range(self.n):
                cap = Fraction(1)
                for mask, factor in interactions:
                    if mask >> x & 1:
                        cap *= factor
                rho = Fraction(rng.randrange(1, 17), 16)
                site_factors.append(rho / cap)
            tf = TiltFunction(self.n, tuple(site_factors), tuple(interactions))
            tf.validate()
            yield tf


# ---------------------------------------------------------------------------
# the DCA checker


def _tilt_witness(measure, tf: TiltFunction, tolerance):
    """Exact (or float, matching the measure) confirmation of one tilt."""
    tilted = tilt(measure, tf.values_exact())
    report = is_associated(tilted, tolerance=tolerance)
    if not report.fails:
        return None
    witness = {
        "tilt_values": [str(v) for v in tf.values_exact()],
        "tilt_label": tf.label,
        **report.witness,
    }
    return witness, report.margin


def _materialize_conditioning_witness(pm, sites, tolerance):
    """Find a concrete eps for which soft conditioning on the violating
    zero set already breaks association.  Scaled to integers, the weights
    sum to T and the conditioned slice to B <= T: a violating covariance
    there is <= -1/B^2, and eps = 1/(6 T^2) moves each by < 1/(4 B^2)."""
    total = lcm(*(w.denominator for w in pm.as_fractions()))
    for eps in [Fraction(1, 10**k) for k in range(13)] + [Fraction(1, 6 * total**2)]:
        tf = conditioning_tilt(pm.n, sites, eps)
        confirmed = _tilt_witness(pm, tf, tolerance)
        if confirmed is not None:
            return confirmed
    raise RuntimeError(
        "internal consistency failure: conditional association violation "
        f"on sites {sorted(set(sites))} could not be reproduced by any sampled eps"
    )


def dca_falsify(
    measure,
    budget: int = DEFAULT_TILT_BUDGET,
    *,
    tolerance=None,
    seed: int = 0,
) -> PropertyReport:
    """Decide DCA exactly for n <= 3; otherwise try to falsify it.

    For one site there is nothing to violate; for two sites all four chain
    properties reduce to mu(11)mu(00) >= mu(10)mu(01); for three sites the
    closed forms decide the property.  For n >= 4 the checker first runs
    the downward-FKG screen (a necessary condition whose violation yields
    an explicit soft-conditioning witness) and then samples ``budget``
    valid tilts from ``TiltSampler(n, seed)``; it never certifies `holds`
    at that size.  At most 5 sites for up-set checks; lattice, rates and
    dynamics up to 6: the screen raises ``BudgetError`` for n = 6.
    """
    pm = _as_probability(measure)
    n = pm.n
    tol = _resolve_tolerance(pm.mode, tolerance)
    details = {"mode": pm.mode, "sites": n}
    if pm.mode != EXACT:
        details["tolerance"] = tol

    if n == 1:
        details["method"] = "single site, all measures qualify"
        return PropertyReport("dca", HOLDS, None, None, details)

    if n == 2:
        w = pm.weights
        margin = w[0b11] * w[0b00] - w[0b10] * w[0b01]
        details["method"] = "two-site determinant"
        if margin < -tol:
            witness, _ = _materialize_conditioning_witness(pm, (), tolerance)
            return PropertyReport("dca", FAILS, witness, margin, details)
        return PropertyReport("dca", HOLDS, None, margin, details)

    if n == 3:
        coords = ThreeSiteCoords.from_weights(pm.weights)
        verdicts = classify(coords, tolerance=tol)
        slacks = [
            slack
            for system in ("cov-prod", "cov-pair", "det-zero-slice")
            for _, slack in margins(coords, system)
        ]
        margin = min(slacks)
        details["method"] = "three-site closed form"
        if verdicts.dca:
            return PropertyReport("dca", HOLDS, None, margin, details)
        assoc = is_associated(pm, tolerance=tolerance)
        if assoc.fails:
            witness, _ = _materialize_conditioning_witness(pm, (), tolerance)
            return PropertyReport("dca", FAILS, witness, margin, details)
        # associated but not DCA: some zero-slice determinant must be negative
        bad_site = min(
            site for site, slack in margins(coords, "det-zero-slice") if slack < -tol
        )
        witness, _ = _materialize_conditioning_witness(pm, (bad_site - 1,), tolerance)
        return PropertyReport("dca", FAILS, witness, margin, details)

    # n >= 4: necessary screen, then sampling.
    screen = is_downward_fkg(pm, tolerance=tolerance)
    details["downward_fkg_screen"] = screen.verdict
    if screen.fails:
        witness, margin = _materialize_conditioning_witness(
            pm, screen.witness["conditioned_sites"], tolerance
        )
        return PropertyReport("dca", FAILS, witness, margin, details)

    weights = pm.as_float_array()
    best = None
    sampled = 0
    for tf in islice(iter(TiltSampler(n, seed=seed)), budget):
        sampled += 1
        tilted = weights * tf.values_float()
        tilted /= tilted.sum()
        margin = is_associated(ProbabilityMeasure.floats(tilted), tolerance=tolerance).margin
        if best is None or margin < best:
            best = margin
        if margin < -max(tol, 1e-12):
            confirmed = _tilt_witness(pm, tf, tolerance)
            if confirmed is not None:
                witness, exact_margin = confirmed
                details["tilts_sampled"] = sampled
                return PropertyReport("dca", FAILS, witness, exact_margin, details)
    details["tilts_sampled"] = sampled
    details["min_sampled_margin"] = best
    return PropertyReport("dca", SEARCH_EXHAUSTED, None, best, details)


def reverify_tilt_witness(measure, report: PropertyReport):
    """Exact slack of a dca witness: tilt by the recorded h, then evaluate
    the recorded up-set pair covariance on the tilted measure."""
    if report.witness is None or "tilt_values" not in report.witness:
        raise ValueError("report carries no tilt witness")
    pm = _as_probability(measure)
    h = [Fraction(v) for v in report.witness["tilt_values"]]
    tilted = tilt(ProbabilityMeasure(pm.n, pm.as_fractions(), EXACT), h)
    return _up_set_pair_covariance(tilted.weights, report.witness)

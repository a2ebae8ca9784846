"""Soft-conditioning tilts and the falsification check for downward
conditional association (DCA).

A measure is DCA when every tilt mu_h = h*mu / sum(h*mu) by a strictly
positive, decreasing, log-supermodular h is associated.  The family of
valid h is infinite, so for four or more sites the property is only
semi-decidable: the checker either produces a concrete violating h or
reports the search exhausted.  For one to three sites exact closed forms
decide it.

The only tilts built here are soft conditioning on zeros,
h = (eps/(1+eps))^|eta on A|, held as (label, exact ``Fraction`` table):
positive, decreasing and log-modular by construction, so valid.  At four
sites or more ``dca_falsify`` sweeps the soft-conditioning family:
``conditioning_tilt`` on every nonempty site set with eps in {1, 1/10,
1/100}, built with its float tables once per n per process.  A log-modular
h keeps (1.3), so on an exact (1.3) measure no tilt is swept: each is
associated by Theorem 1.2.  Of two tilts that a site permutation fixing
the measure maps to each other only the first is swept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .lattice import site_product, validate_site, validate_site_count
from .measures import (
    EXACT,
    FAILS,
    FLOAT,
    FLOAT_NORMALIZATION_SLACK,
    HOLDS,
    SEARCH_EXHAUSTED,
    PropertyReport,
    WeightVector,
    _as_probability,
    _check_float_mass,
    _float_sweep,
    _resolve_tolerance,
    _site_symmetries,
    _support_classes,
    _sweep_columns,
    _up_set_pair_covariance,
    is_associated,
    is_downward_fkg,
    satisfies_lattice,
    tilt,
)
from .three_site import classify, margins

DEFAULT_TILT_BUDGET = 200  # past the largest swept family: 93 tilts at n = 5 (n = 6 is refused)


def validate_int(value, name: str, *, nonnegative: bool = False) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or nonnegative and value < 0:
        kind = "a nonnegative integer" if nonnegative else "an int"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def conditioning_tilt(n: int, sites, eps) -> tuple[str, tuple[Fraction, ...]]:
    """Soft conditioning on zeros, as (label, h): h = prod over the listed
    sites of (eps/(1+eps))^eta(x).  As eps -> 0 the tilted measure converges
    to the measure conditioned on zeros there; eps-free sites are untouched."""
    validate_site_count(n)
    try:
        eps = Fraction(eps)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"eps must be a positive finite rational, got {eps!r}") from None
    if not eps > 0:
        raise ValueError(f"eps must be a positive finite rational, got {eps}")
    sites = set(sites)
    for x in sites:
        validate_site(x, n)
    factor = eps / (1 + eps)
    # integer numerators over nums[0], the denominator to the |sites|; h
    # takes |sites| + 1 values, each held once
    nums = site_product((factor.denominator, factor.numerator) if x in sites else (1, 1)
                        for x in range(n))
    values = {v: Fraction(v, nums[0]) for v in set(nums)}
    return f"conditioning-{sorted(sites)}-eps={eps}", tuple(values[v] for v in nums)


# ---------------------------------------------------------------------------
# the DCA checker


@lru_cache(maxsize=None)
def _conditioning_family(n: int) -> tuple[tuple[str, tuple[Fraction, ...], np.ndarray], ...]:
    """The soft-conditioning tilts as (label, h, read-only float table):
    site sets by ascending mask, each with eps = 1, 1/10, 1/100."""
    family = []
    for amask in range(1, 1 << n):
        sites = [x for x in range(n) if amask >> x & 1]
        for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
            label, h = conditioning_tilt(n, sites, eps)
            table = np.array(h, dtype=np.float64)  # correctly rounded
            table.flags.writeable = False
            family.append((label, h, table))
    return tuple(family)


def _tilt_witness(measure, label: str, h, tolerance):
    """Exact (or float, matching the measure) confirmation of one tilt:
    (witness, margin), or None when the tilted measure is associated."""
    report = is_associated(tilt(measure, h), tolerance=tolerance)
    if report.fails:
        witness = {"tilt_values": [str(v) for v in h], "tilt_label": label, **report.witness}
        return witness, report.margin


def _materialize_conditioning_witness(pm, sites, tolerance):
    """Find a concrete eps for which soft conditioning on the violating
    zero set already breaks association.  Scaled to integers, the weights
    sum to T and the conditioned slice to B <= T: a violating covariance
    there is <= -1/B^2, and eps = 1/(6 T^2) moves each by < 1/(4 B^2).
    That proof is exact only: a float violation within rounding of
    -tolerance may have no witness, and then gives None."""
    total = lcm(*(w.denominator for w in pm.as_fractions()))
    for eps in [Fraction(1, 10**k) for k in range(13)] + [Fraction(1, 6 * total**2)]:
        confirmed = _tilt_witness(pm, *conditioning_tilt(pm.n, sites, eps), tolerance)
        if confirmed is not None:
            return confirmed
    if pm.mode == EXACT:
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

    For one site there is nothing to violate.  For two and three sites a
    closed form (mu(11)mu(00) - mu(10)mu(01), or ``classify``: cov-prod &
    cov-pair & det-zero-slice) gives verdict and margin; a failure is
    witnessed by soft conditioning on no site if association fails, else
    on the first site whose zero-slice determinant is negative.  For
    n >= 4 the downward-FKG screen (a necessary condition) runs first,
    then the first ``budget`` tilts of the soft-conditioning family, all
    (2^n - 1) * 3 of them by default; `holds` is never certified there,
    and the screen raises ``BudgetError`` for n = 6; it sweeps no exact
    (1.3) slice (Theorem 1.2; see ``is_associated``), but every float one.
    Nor are the tilts of an exact (1.3) measure swept: each keeps (1.3),
    so the report counts them in ``tilts_sampled`` with the float margin
    0.0 (None for budget 0).  A float measure sweeps them.  Nor is a tilt
    swept whose site set is not the least of its orbit under the site
    permutations fixing the weights: its tilted measure is the image of
    one swept before it, so only a float margin may move, in its last bits.
    ``seed`` has no effect: it is still accepted, and must be an int.  A
    float violation that no soft-conditioning tilt confirms lies within
    rounding of -tolerance: at n <= 3 the verdict is then `holds` with the
    closed-form margin, at n >= 4 the sweep runs.
    """
    validate_int(budget, "tilt budget", nonnegative=True)
    validate_int(seed, "tilt seed")
    pm = _as_probability(measure)
    n = pm.n
    tol = _resolve_tolerance(pm.mode, tolerance)
    details = {"mode": pm.mode, "sites": n}
    if pm.mode != EXACT:
        details["tolerance"] = tol

    if n == 1:
        details["method"] = "single site, all measures qualify"
        return PropertyReport("dca", HOLDS, None, None, details)

    if n <= 3:
        if n == 2:  # the lattice condition's one square
            square = satisfies_lattice(pm, tolerance=tolerance)
            margin, dca, associated = square.margin, square.holds, square.holds
        else:
            margin = min(slack for system in ("cov-prod", "cov-pair", "det-zero-slice")
                         for _, slack in margins(pm, system))
            verdicts = classify(pm, tolerance=tol)
            dca, associated = verdicts["dca"], verdicts["associated"]
        details["method"] = "two-site determinant" if n == 2 else "three-site closed form"
        if not dca:
            # associated but not DCA: cov-prod and cov-pair hold, so det-zero-slice fails
            sites = () if not associated else (next(
                site for site, slack in margins(pm, "det-zero-slice") if slack < -tol) - 1,)
            confirmed = _materialize_conditioning_witness(pm, sites, tolerance)
            if confirmed is not None:
                return PropertyReport("dca", FAILS, confirmed[0], margin, details)
        return PropertyReport("dca", HOLDS, None, margin, details)

    # n >= 4: necessary screen, then the family.
    screen = is_downward_fkg(pm, tolerance=tolerance)
    details["downward_fkg_screen"] = screen.verdict
    if screen.fails:
        sites = screen.witness["conditioned_sites"]
        confirmed = _materialize_conditioning_witness(pm, sites, tolerance)
        if confirmed is not None:
            return PropertyReport("dca", FAILS, *confirmed, details)

    family = _conditioning_family(n)[:budget]
    details["tilts_sampled"] = len(family)
    if pm.mode == EXACT and satisfies_lattice(pm).holds:
        # a log-modular h keeps (1.3), so every tilt is associated by Theorem 1.2, margin 0
        details["min_sampled_margin"] = best = 0.0 if family else None
        return PropertyReport("dca", SEARCH_EXHAUSTED, None, best, details)
    weights = pm.as_float_array()
    support = np.count_nonzero(weights)
    classes = _support_classes(n, weights)[1]  # h > 0 keeps them, unless a weight underflows
    columns = _sweep_columns(n, classes, np.float64)  # the sweeps' [M | p]: each writes its p
    float_tol = _resolve_tolerance(FLOAT, tolerance)
    least = _site_symmetries(pm).min(axis=0)  # per site-set mask, the least of its orbit
    best = None
    for sampled, (label, h, table) in enumerate(family, 1):
        if least[amask := (sampled + 2) // 3] < amask:  # three tilts per site set
            continue  # a symmetry maps it to a tilt on that mask, swept before it
        tilted = weights * table
        tilted /= tilted.sum()
        _check_float_mass(sum(tilted.tolist()))
        rows = _support_classes(n, tilted)[1] if np.count_nonzero(tilted) < support else classes
        margin = _float_sweep(n, tilted, rows, float_tol, columns if rows is classes else None)[2]
        best = margin if best is None else min(best, margin)
        if margin < -max(tol, FLOAT_NORMALIZATION_SLACK):
            confirmed = _tilt_witness(pm, label, h, tolerance)
            if confirmed is not None:
                details["tilts_sampled"] = sampled
                return PropertyReport("dca", FAILS, *confirmed, details)
    details["min_sampled_margin"] = best
    return PropertyReport("dca", SEARCH_EXHAUSTED, None, best, details)


def reverify_tilt_witness(measure, report: PropertyReport):
    """Exact slack of a dca witness: tilt the caller's weights, read exactly
    (floats by their binary values), by the recorded h, then evaluate the
    recorded up-set pair covariance on the tilted measure."""
    if report.witness is None or "tilt_values" not in report.witness:
        raise ValueError("report carries no tilt witness")
    exact = WeightVector(measure.n, measure.as_fractions())
    tilted = tilt(exact, map(Fraction, report.witness["tilt_values"]))
    return _up_set_pair_covariance(tilted.weights, report.witness)

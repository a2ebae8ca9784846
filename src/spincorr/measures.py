"""Probability measures on {0,1}^n and the correlation-property checkers.

Weights are exact `fractions.Fraction`s by default, so static property
verdicts never flap near equality (product measures sit exactly on the
boundary of most of these inequalities).  Measures coming out of the
dynamics are tagged ``"float"`` and checked against a margin tolerance
instead.

Every checker returns a :class:`PropertyReport` whose ``fails`` verdict
carries a witness that re-evaluates to a strict violation on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import (
    DEFAULT_SWEEP_SITES,
    comparable,
    configs,
    enumerate_up_sets,
    scan_slacks,
    two_site_quadruples,
    up_set_matrix,
    up_set_members,
    validate_site_count,
)

EXACT = "exact"
FLOAT = "float"

HOLDS = "holds"
FAILS = "fails"
SEARCH_EXHAUSTED = "falsified-only-search-exhausted"

DEFAULT_FLOAT_TOLERANCE = 1e-9
FLOAT_NORMALIZATION_SLACK = 1e-12

# Integer pair sweeps stay on int64 as long as the scaled total fits;
# T <= 2^31 - 1 keeps every intermediate below 2^62.
_INT64_TOTAL_LIMIT = 2**31 - 1


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions; floats are refused."""
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} in exact context; pass a string rational or use float mode"
        )
    return Fraction(value)


def _coerce_weights(weights, mode: str) -> tuple:
    if mode == EXACT:
        return tuple(as_fraction(w) for w in weights)
    if mode == FLOAT:
        return tuple(float(w) for w in weights)
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def _infer_sites(count: int) -> int:
    n = count.bit_length() - 1
    if count != 1 << n:
        raise ValueError(f"weight vector length {count} is not a power of two")
    validate_site_count(n)
    return n


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weight per configuration; not necessarily normalized."""

    n: int
    weights: tuple
    mode: str = EXACT

    def __post_init__(self):
        validate_site_count(self.n)
        object.__setattr__(self, "weights", _coerce_weights(self.weights, self.mode))
        if len(self.weights) != 1 << self.n:
            raise ValueError(
                f"expected {1 << self.n} weights for {self.n} sites, got {len(self.weights)}"
            )
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if not self.total > 0:
            raise ValueError("total weight must be positive")

    @classmethod
    def exact(cls, weights) -> "WeightVector":
        weights = tuple(weights)
        return cls(_infer_sites(len(weights)), weights, EXACT)

    @classmethod
    def floats(cls, weights) -> "WeightVector":
        weights = tuple(weights)
        return cls(_infer_sites(len(weights)), weights, FLOAT)

    @property
    def total(self):
        return sum(self.weights)

    def scaled(self, factor) -> "WeightVector":
        return WeightVector(self.n, tuple(w * factor for w in self.weights), self.mode)

    def as_float_array(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights], dtype=np.float64)

    def as_fractions(self) -> tuple:
        """Exact weights; float entries convert via their exact binary value."""
        if self.mode == EXACT:
            return self.weights
        return tuple(Fraction(w) for w in self.weights)


@dataclass(frozen=True)
class ProbabilityMeasure(WeightVector):
    """A WeightVector normalized to total mass one."""

    def __post_init__(self):
        super().__post_init__()
        if self.mode == EXACT:
            if self.total != 1:
                raise ValueError(f"exact measure must sum to 1, got {self.total}")
        elif abs(self.total - 1.0) > FLOAT_NORMALIZATION_SLACK:
            raise ValueError(f"float measure sums to {self.total!r}, outside 1e-12 of 1")

    @classmethod
    def point_mass(cls, n: int, config: int) -> "ProbabilityMeasure":
        weights = [Fraction(0)] * (1 << n)
        weights[config] = Fraction(1)
        return cls(n, tuple(weights), EXACT)

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityMeasure":
        w = Fraction(1, 1 << n)
        return cls(n, (w,) * (1 << n), EXACT)

    @classmethod
    def product(cls, ones_probabilities) -> "ProbabilityMeasure":
        """Independent sites with the given probabilities of spin 1."""
        ps = [as_fraction(p) for p in ones_probabilities]
        n = len(ps)
        validate_site_count(n)
        if any(not 0 <= p <= 1 for p in ps):
            raise ValueError("site probabilities must lie in [0, 1]")
        weights = []
        for c in configs(n):
            w = Fraction(1)
            for x in range(n):
                w *= ps[x] if c >> x & 1 else 1 - ps[x]
            weights.append(w)
        return cls(n, tuple(weights), EXACT)


def normalize(weights: WeightVector) -> ProbabilityMeasure:
    """Scale to total mass one.  All property verdicts are scale invariant."""
    total = weights.total
    return ProbabilityMeasure(weights.n, tuple(w / total for w in weights.weights), weights.mode)


def _as_probability(measure) -> ProbabilityMeasure:
    if isinstance(measure, ProbabilityMeasure):
        return measure
    if isinstance(measure, WeightVector):
        return normalize(measure)
    raise TypeError(f"expected a WeightVector or ProbabilityMeasure, got {type(measure)!r}")


def mix(a: ProbabilityMeasure, b: ProbabilityMeasure, weight) -> ProbabilityMeasure:
    """Convex combination weight*a + (1-weight)*b."""
    if a.n != b.n:
        raise ValueError(f"site counts differ: {a.n} vs {b.n}")
    if a.mode == EXACT and b.mode == EXACT:
        lam = as_fraction(weight)
        return ProbabilityMeasure(
            a.n,
            tuple(lam * wa + (1 - lam) * wb for wa, wb in zip(a.weights, b.weights)),
            EXACT,
        )
    lam = float(weight)
    return ProbabilityMeasure(
        a.n,
        tuple(lam * float(wa) + (1 - lam) * float(wb) for wa, wb in zip(a.weights, b.weights)),
        FLOAT,
    )


# ---------------------------------------------------------------------------
# integration


def expectation(measure: ProbabilityMeasure, values):
    vals = list(values)
    if len(vals) != 1 << measure.n:
        raise ValueError(f"expected {1 << measure.n} values, got {len(vals)}")
    return sum(w * v for w, v in zip(measure.weights, vals))


def covariance(measure: ProbabilityMeasure, f, g):
    """E[fg] - E[f]E[g]; exact when the measure and both functions are."""
    f = list(f)
    g = list(g)
    prod = [a * b for a, b in zip(f, g)]
    return expectation(measure, prod) - expectation(measure, f) * expectation(measure, g)


# ---------------------------------------------------------------------------
# conditioning and tilting


def condition_zeros(measure, sites) -> ProbabilityMeasure:
    """Condition on spin 0 at every site in ``sites`` (kept on the full cube)."""
    pm = _as_probability(measure)
    mask = 0
    for x in set(sites):
        if not 0 <= x < pm.n:
            raise ValueError(f"site {x!r} out of range for {pm.n} sites")
        mask |= 1 << x
    zero = Fraction(0) if pm.mode == EXACT else 0.0
    restricted = [w if c & mask == 0 else zero for c, w in enumerate(pm.weights)]
    total = sum(restricted)
    if not total > 0:
        raise ValueError(f"conditioning event (zeros on sites {sorted(set(sites))}) has zero probability")
    return ProbabilityMeasure(pm.n, tuple(w / total for w in restricted), pm.mode)


def project_zeros(measure, sites):
    """condition_zeros followed by dropping the pinned sites.

    Returns (measure on the remaining sites, remaining sites ascending);
    new site i is old site remaining[i].
    """
    pm = _as_probability(measure)
    pinned = sorted(set(sites))
    conditioned = condition_zeros(pm, pinned)
    remaining = tuple(x for x in range(pm.n) if x not in pinned)
    if not remaining:
        raise ValueError("projection needs at least one remaining site")
    weights = []
    for sub in configs(len(remaining)):
        full = 0
        for i, x in enumerate(remaining):
            if sub >> i & 1:
                full |= 1 << x
        weights.append(conditioned.weights[full])
    return ProbabilityMeasure(len(remaining), tuple(weights), pm.mode), remaining


def tilt(measure, h_values) -> ProbabilityMeasure:
    """Reweight by a strictly positive function h and renormalize."""
    pm = _as_probability(measure)
    h = list(h_values)
    if len(h) != 1 << pm.n:
        raise ValueError(f"expected {1 << pm.n} tilt values, got {len(h)}")
    if any(not v > 0 for v in h):
        bad = min(c for c, v in enumerate(h) if not v > 0)
        raise ValueError(f"tilt function must be strictly positive, h({bad}) = {h[bad]!r}")
    out_mode = EXACT if pm.mode == EXACT and not any(isinstance(v, float) for v in h) else FLOAT
    if out_mode == EXACT:
        weights = [w * as_fraction(v) for w, v in zip(pm.weights, h)]
    else:
        weights = [float(w) * float(v) for w, v in zip(pm.weights, h)]
    total = sum(weights)
    return ProbabilityMeasure(pm.n, tuple(w / total for w in weights), out_mode)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PropertyReport:
    """Verdict, witness, and minimum slack for one property check.

    ``margin`` is the minimum of lhs - rhs over all constraints that were
    checked; a ``fails`` verdict carries the lexicographically first
    violating constraint as its witness.
    """

    property: str
    verdict: str
    witness: dict | None = None
    margin: object = None
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def fails(self) -> bool:
        return self.verdict == FAILS


def _resolve_tolerance(mode: str, tolerance) -> float:
    if mode == EXACT:
        return 0.0
    return DEFAULT_FLOAT_TOLERANCE if tolerance is None else float(tolerance)


# ---------------------------------------------------------------------------
# association


def _weights_to_ints(weights) -> tuple[list[int], int]:
    fracs = [Fraction(w) for w in weights]
    denom = math.lcm(*[f.denominator for f in fracs])
    ints = [int(f * denom) for f in fracs]
    return ints, sum(ints)


def _pair_sweep_dense(matrix, w, total, threshold):
    """Blocked sweep of cov(1_U, 1_V) over unordered up-set pairs.

    Works for int64 (exact, threshold 0) and float64 (threshold -tol)
    alike; covariances are computed against the unnormalized total, i.e.
    total*mu(U&V) - mu(U)mu(V), which has the sign of the normalized
    covariance.  Stops after the first block with a violation.  Returns
    (min_value, first_violation, pairs_checked).
    """
    k = matrix.shape[0]
    p = matrix @ w
    weighted = matrix * w
    if matrix.dtype == np.int64:
        sentinel = np.iinfo(np.int64).max
    else:
        sentinel = np.inf
    block = max(1, min(k, (1 << 23) // max(k, 1)))
    best = None
    violation = None
    checked = 0
    for start in range(0, k, block):
        stop = min(start + block, k)
        inter = weighted[start:stop] @ matrix.T
        nums = inter * total - p[start:stop, None] * p[None, :]
        cols = np.arange(k)[None, :]
        rows = np.arange(start, stop)[:, None]
        valid = cols >= rows
        nums = np.where(valid, nums, sentinel)
        checked += int(valid.sum())
        block_min = nums.min()
        if best is None or block_min < best:
            best = block_min
        hits = np.argwhere(nums < threshold)
        if hits.size:
            i, j = hits[0]
            violation = (start + int(i), int(j))
            break
    return best, violation, checked


def _pair_sweep_bigint(masks, weights):
    """Exact fallback when scaled integer weights exceed the int64 budget;
    stops at the first violation."""
    ints, total = _weights_to_ints(weights)
    sums = []
    for members in masks:
        s = 0
        c = 0
        m = members
        while m:
            if m & 1:
                s += ints[c]
            m >>= 1
            c += 1
        sums.append(s)
    index = {m: i for i, m in enumerate(masks)}
    best = None
    checked = 0
    for i, mi in enumerate(masks):
        pi = sums[i]
        for j in range(i, len(masks)):
            num = total * sums[index[mi & masks[j]]] - pi * sums[j]
            checked += 1
            if best is None or num < best:
                best = num
            if num < 0:
                return best, (i, j), checked, total
    return best, None, checked, total


def _association_witness(masks, pair):
    i, j = pair
    return {
        "up_set_u": list(up_set_members(masks[i])),
        "up_set_v": list(up_set_members(masks[j])),
        "mask_u": int(masks[i]),
        "mask_v": int(masks[j]),
    }


def is_associated(
    measure,
    *,
    tolerance=None,
    allow_large: bool = False,
) -> PropertyReport:
    """Positive correlations: cov(f, g) >= 0 for all increasing f, g.

    By the layer-cake decomposition and bilinearity of covariance it is
    enough to sweep indicator pairs of up-sets, so the check is exact.
    The sweep covers unordered pairs in enumeration order and stops at the
    first violation; n=6 is opt-in and expensive (7828354^2 pairs).
    """
    pm = _as_probability(measure)
    n = pm.n
    tol = _resolve_tolerance(pm.mode, tolerance)
    masks = enumerate_up_sets(n, allow_large=allow_large)
    details = {"mode": pm.mode, "up_sets": len(masks)}
    if pm.mode == FLOAT:
        details["tolerance"] = tol

    if n > DEFAULT_SWEEP_SITES:
        # No dense membership matrix at this size; exact big-int sweep.
        best, violation, checked, total = _pair_sweep_bigint(masks, pm.as_fractions())
        margin = Fraction(best, total * total)
    else:
        matrix = up_set_matrix(n)
        if pm.mode == EXACT:
            ints, total = _weights_to_ints(pm.weights)
            if total <= _INT64_TOTAL_LIMIT:
                best, violation, checked = _pair_sweep_dense(
                    matrix.astype(np.int64),
                    np.array(ints, dtype=np.int64),
                    np.int64(total),
                    0,
                )
                best = int(best)
            else:
                best, violation, checked, total = _pair_sweep_bigint(masks, pm.weights)
            margin = Fraction(best, total * total)
        else:
            best, violation, checked = _pair_sweep_dense(
                matrix.astype(np.float64),
                pm.as_float_array(),
                1.0,
                -tol,
            )
            margin = float(best)
    details["pairs_checked"] = checked

    if violation is not None:
        return PropertyReport(
            "associated", FAILS, _association_witness(masks, violation), margin, details
        )
    return PropertyReport("associated", HOLDS, None, margin, details)


def batch_association_margins(n: int, rows: np.ndarray) -> np.ndarray:
    """Minimum up-set-pair covariance for each row of normalized float weights.

    Float-only fast path for audits that evaluate association on many
    measures of the same small size (n <= 4).  Rows must each sum to 1.
    """
    from .lattice import up_set_intersection_table

    matrix = up_set_matrix(n).astype(np.float64)
    table = up_set_intersection_table(n)
    k = matrix.shape[0]
    rows = np.asarray(rows, dtype=np.float64)
    upper = np.triu(np.ones((k, k), dtype=bool))
    out = np.empty(rows.shape[0], dtype=np.float64)
    chunk = max(1, (1 << 24) // (k * k))
    for start in range(0, rows.shape[0], chunk):
        stop = min(start + chunk, rows.shape[0])
        p = rows[start:stop] @ matrix.T
        inter = p[:, table.ravel()].reshape(-1, k, k)
        margins = inter - p[:, :, None] * p[:, None, :]
        margins = np.where(upper[None, :, :], margins, np.inf)
        out[start:stop] = margins.min(axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# FKG lattice condition


def _lattice_pairs(n: int, strictly_positive: bool):
    if strictly_positive:
        # For strictly positive weights the condition for all pairs follows
        # from the pairs differing at exactly two sites.
        for base, x, y in two_site_quadruples(n):
            yield base | 1 << x, base | 1 << y
    else:
        size = 1 << n
        for a in range(size):
            for b in range(a + 1, size):
                if not comparable(a, b):
                    yield a, b


def satisfies_lattice(measure, *, tolerance=None) -> PropertyReport:
    """FKG lattice condition: mu(a&b)*mu(a|b) >= mu(a)*mu(b) for all pairs.

    Scale invariant, so unnormalized weight vectors are accepted.  Pairs
    with comparable configurations hold with equality and are skipped.
    """
    if not isinstance(measure, WeightVector):
        measure = WeightVector.exact(measure)
    w = measure.weights
    tol = _resolve_tolerance(measure.mode, tolerance)
    strictly_positive = all(v > 0 for v in w)
    best, violation, checked = scan_slacks(
        (((a, b), w[a & b] * w[a | b] - w[a] * w[b])
         for a, b in _lattice_pairs(measure.n, strictly_positive)),
        tol,
    )
    details = {
        "mode": measure.mode,
        "strictly_positive": strictly_positive,
        "pairs_checked": checked,
    }
    if measure.mode == FLOAT:
        details["tolerance"] = tol
    if violation is not None:
        a, b = violation
        witness = {"eta": a, "zeta": b, "meet": a & b, "join": a | b}
        return PropertyReport("fkg-lattice", FAILS, witness, best, details)
    return PropertyReport("fkg-lattice", HOLDS, None, best, details)


# ---------------------------------------------------------------------------
# downward FKG


def is_downward_fkg(
    measure,
    *,
    tolerance=None,
    allow_large: bool = False,
) -> PropertyReport:
    """Association of every conditioning on zeros (the empty set included),
    stopping at the first violating slice.

    Conditioning events of zero probability are skipped, matching the
    standing convention for conditional properties.  In float mode,
    slices with mass below 1e-12 are also skipped: their conditional
    weights would be dominated by semigroup truncation noise.
    """
    pm = _as_probability(measure)
    n = pm.n
    tol = _resolve_tolerance(pm.mode, tolerance)
    best = None
    witness = None
    skipped = []
    checked = []
    for amask in range(1 << n):
        sites = tuple(x for x in range(n) if amask >> x & 1)
        mass = sum(w for c, w in enumerate(pm.weights) if c & amask == 0)
        floor = 0 if pm.mode == EXACT else 1e-12
        if not mass > floor:
            skipped.append(sites)
            continue
        checked.append(sites)
        if len(sites) == n:
            continue  # single configuration left: trivially associated
        sub, remaining = project_zeros(pm, sites)
        report = is_associated(sub, tolerance=tolerance, allow_large=allow_large)
        if best is None or report.margin < best:
            best = report.margin
        if report.fails:
            witness = {
                "conditioned_sites": list(sites),
                "remaining_sites": list(remaining),
                **report.witness,
            }
            break
    details = {
        "mode": pm.mode,
        "subsets_checked": len(checked),
        "subsets_skipped": len(skipped),
    }
    if pm.mode == FLOAT:
        details["tolerance"] = tol
    if witness is not None:
        return PropertyReport("downward-fkg", FAILS, witness, best, details)
    return PropertyReport("downward-fkg", HOLDS, None, best, details)


# ---------------------------------------------------------------------------
# stochastic domination


def stochastically_dominates(
    lower,
    upper,
    *,
    tolerance=None,
    allow_large: bool = False,
) -> PropertyReport:
    """lower <= upper iff upper(U) >= lower(U) for every up-set U.

    Equivalent to the expectation ordering over all increasing functions
    via the layer-cake decomposition.
    """
    lo = _as_probability(lower)
    hi = _as_probability(upper)
    if lo.n != hi.n:
        raise ValueError(f"site counts differ: {lo.n} vs {hi.n}")
    mode = EXACT if lo.mode == EXACT and hi.mode == EXACT else FLOAT
    tol = _resolve_tolerance(mode, tolerance)
    if mode == EXACT:
        lo_w, hi_w = lo.as_fractions(), hi.as_fractions()
    else:
        lo_w = [float(w) for w in lo.weights]
        hi_w = [float(w) for w in hi.weights]
    masks = enumerate_up_sets(lo.n, allow_large=allow_large)
    best, violation, checked = scan_slacks(
        ((i, sum(hi_w[c] - lo_w[c] for c in up_set_members(members)))
         for i, members in enumerate(masks)),
        tol,
    )
    details = {"mode": mode, "up_sets_checked": checked}
    if mode == FLOAT:
        details["tolerance"] = tol
    if violation is not None:
        witness = {
            "up_set": list(up_set_members(masks[violation])),
            "mask": int(masks[violation]),
        }
        return PropertyReport("stochastic-domination", FAILS, witness, best, details)
    return PropertyReport("stochastic-domination", HOLDS, None, best, details)


# ---------------------------------------------------------------------------
# witness re-evaluation


def _up_set_pair_covariance(weights, witness):
    """mu(U & V) - mu(U) mu(V) for the witness's up-sets ``up_set_u`` and
    ``up_set_v``, with ``weights`` a probability vector; exact for
    Fraction weights."""
    u, v = witness["up_set_u"], witness["up_set_v"]
    pu = sum(weights[c] for c in u)
    pv = sum(weights[c] for c in v)
    return sum(weights[c] for c in set(u) & set(v)) - pu * pv


def reverify_witness(measure, report: PropertyReport):
    """Re-evaluate a failing report's witness constraint, exactly.

    Float weights convert through their exact binary values, so the
    returned Fraction is a true statement about the serialized measure.
    """
    pm = _as_probability(measure)
    w = pm.as_fractions()
    witness = report.witness
    if witness is None:
        raise ValueError("report carries no witness")
    prop = report.property
    if prop == "associated":
        return _up_set_pair_covariance(w, witness)
    if prop == "fkg-lattice":
        a, b = witness["eta"], witness["zeta"]
        return w[a & b] * w[a | b] - w[a] * w[b]
    if prop == "downward-fkg":
        sub, remaining = project_zeros(pm, witness["conditioned_sites"])
        if list(remaining) != list(witness["remaining_sites"]):
            raise ValueError("witness site bookkeeping does not match the measure")
        return _up_set_pair_covariance(sub.as_fractions(), witness)
    if prop == "stochastic-domination":
        raise ValueError("domination witnesses compare two measures; re-evaluate directly")
    raise ValueError(f"no witness re-evaluation rule for property {prop!r}")

"""Probability measures on {0,1}^n and the correlation-property checkers.

Weights are exact `fractions.Fraction`s by default, so static property
verdicts never flap near equality (product measures sit exactly on the
boundary of most of these inequalities).  Measures coming out of the
dynamics are tagged ``"float"`` and checked against a margin tolerance
instead.

Every checker returns a :class:`PropertyReport` whose ``fails`` verdict
carries a witness that re-evaluates to a strict violation on its own.

Association up to five sites is decided by one blocked sweep over pairs
of up-sets (``is_associated``): a float64 GEMM screens every pair, and in
exact mode the pairs that an a-priori rounding bound leaves undecided are
recomputed over Python ints, so exact verdicts and margins never depend
on the size of the weights' common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import (
    configs,
    enumerate_up_sets,
    lattice_pairs,
    scan_slacks,
    up_set_matrix,
    up_set_members,
    validate_site,
    validate_site_count,
)

EXACT = "exact"
FLOAT = "float"

HOLDS = "holds"
FAILS = "fails"
SEARCH_EXHAUSTED = "falsified-only-search-exhausted"

DEFAULT_FLOAT_TOLERANCE = 1e-9
FLOAT_NORMALIZATION_SLACK = 1e-12


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
        if self.mode == FLOAT and not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
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
        weights = [Fraction(1)]
        for p in ps:  # each site doubles the table: configs without it, then with it
            q = 1 - p
            weights = [w * q for w in weights] + [w * p for w in weights]
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
        validate_site(x, pm.n)
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
    """Fractions over their common denominator: (numerators, their sum)."""
    denom = math.lcm(*[w.denominator for w in weights])
    ints = [w.numerator * (denom // w.denominator) for w in weights]
    return ints, sum(ints)


# The sweep's rule splits the up-set rows into blocks of _BLOCK_ENTRIES // K
# rows (K up-sets).  Each block is computed in chunks of about
# _CHUNK_ENTRIES pairs, and pairs are certified _CERT_BATCH at a time, which
# keeps every array of the sweep small.
_BLOCK_ENTRIES = 1 << 23
_CHUNK_ENTRIES = 1 << 20
_CERT_BATCH = 1 << 16


@lru_cache(maxsize=None)
def _sweep_tables(n: int):
    """Per-n constants of the sweep: the membership matrix as float64, the
    up-set masks as int64 (ascending, so ``searchsorted`` finds the row of
    an intersection), a strictly lower triangle covering one chunk's
    leading square, and per row block the number of pairs i <= j in it and
    its chunks as row ranges."""
    matrix = up_set_matrix(n).astype(np.float64)
    k = matrix.shape[0]
    block = max(1, min(k, _BLOCK_ENTRIES // k))
    step = max(1, min(block, _CHUNK_ENTRIES // k))
    blocks = []
    for start in range(0, k, block):
        stop = min(start + block, k)
        rows = stop - start
        chunks = [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]
        blocks.append((rows * (k - start) - rows * (rows - 1) // 2, chunks))
    masks = np.asarray(enumerate_up_sets(n), dtype=np.int64)
    lower = np.tri(step, step, -1, dtype=bool)
    for shared in (matrix, masks, lower):
        shared.flags.writeable = False
    return matrix, masks, lower, blocks


def _pair_covariances(n: int, weights: np.ndarray):
    """Float64 mu(U & V) - mu(U) mu(V) for up-set pairs, a chunk of rows at a time.

    ``weights`` is one measure, a vector of length 2^n.  Returns
    ``rows(lo, hi)``, whose entry [i - lo, j - lo] belongs to the pair
    (i, j) for lo <= i < hi and j >= lo; entries with j < i are +inf.  Each
    chunk is one GEMM, [M*w | -p] @ [M | p]^T with p = M @ w.
    """
    matrix, _, lower, _ = _sweep_tables(n)
    p = weights @ matrix.T
    left = np.column_stack([matrix * weights, -p])
    right = np.column_stack([matrix, p])

    def rows(lo, hi):
        h = hi - lo
        values = left[lo:hi] @ right[lo:].T
        np.copyto(values[:, :h], np.inf, where=lower[:h, :h])
        return values

    return rows


def _float_sweep(n: int, weights: np.ndarray, tolerance: float):
    """Float sweep with violations below -tolerance, by the block rule of
    ``is_associated``.  Returns (margin, violation pair or None, pairs)."""
    *_, blocks = _sweep_tables(n)
    rows = _pair_covariances(n, weights)
    best = None
    violation = None
    checked = 0
    for pairs, chunks in blocks:
        checked += pairs
        for lo, hi in chunks:
            values = rows(lo, hi)
            chunk_min = float(values.min())
            best = chunk_min if best is None else min(best, chunk_min)
            if violation is None and chunk_min < -tolerance:
                flat = int((values.ravel() < -tolerance).argmax())
                violation = lo + flat // values.shape[1], lo + flat % values.shape[1]
        if violation is not None:
            break
    return best, violation, checked


def _exact_sweep(n: int, weights):
    """Exact sweep: a float64 filter, certified over Python ints.

    Write the weights as integers a_c over their common denominator T and
    S(U) for the sum of a_c over U; the exact value of a pair is
    N(U, V) = T*S(U & V) - S(U)*S(V) = T^2 cov(1_U, 1_V).  The filter runs
    ``_pair_covariances`` on the normalized weights rounded to float64, so
    no denominator overflows it.  Pairs whose float value cannot decide
    what is needed are recomputed as N over Python ints.

    Error bound (u = 2^-53, m = 2^n + 1 terms per GEMM dot product): each
    rounded weight is within u*w_c of w_c (plus an underflow term of
    2^-1075); each p(U) = sum of w over U is within about m*u of mu(U);
    the dot product itself is within gamma_m = m*u/(1 - m*u) times the sum
    of its absolute terms, which is at most about 2, in any summation
    order (Higham, "Accuracy and Stability of Numerical Algorithms",
    section 3.1).  Since every mu is at most 1, each float value lies
    within (4m + 1)*u, plus terms of order u^2 and 2^-1075, of the exact
    covariance.  ``bound`` is twice that, which also covers the rounding of
    the thresholds computed from it.

    Up-sets of probability 0 or 1 have covariance exactly 0 with every
    up-set; their rows and columns are set to +inf and never certified (a
    point mass has no others, so no chunk is computed).  Among them is the
    full up-set, the last one, which lies in every block, so a block
    without a violation has exact minimum 0.  A chunk whose float minimum
    is at least ``bound`` has no violation.  Otherwise its first violation
    is the first pair that is either below -bound or within bound of 0 and
    certified negative.  The exact minimum of a block with a violation is
    the least certified N among its pairs within 2*bound of its float
    minimum; their chunks are computed again, and any evaluation within
    the bound finds them.  Returns (numerator of the margin, violation pair
    or None, pairs, T); the margin is numerator / T^2.
    """
    matrix, masks, _, blocks = _sweep_tables(n)
    membership = up_set_matrix(n)
    ints, total = _weights_to_ints(weights)
    exact_weights = np.array(ints, dtype=object)
    support = [a > 0 for a in ints]
    in_support = matrix @ np.array(support, dtype=np.float64)
    null = (in_support == 0) | (in_support == sum(support))
    if null.all():
        return 0, None, sum(pairs for pairs, _ in blocks), total
    bound = (2**n + 2) * 2.0**-50
    sums = np.zeros(len(masks), dtype=object)
    known = np.zeros(len(masks), dtype=bool)
    rows = _pair_covariances(n, np.array([a / total for a in ints]))

    def screened(lo, hi):
        values = rows(lo, hi)
        values[:, null[lo:]] = np.inf
        values[null[lo:hi]] = np.inf
        return values.ravel(), values.shape[1]

    def exact(lo, flat, ncols):
        """Yield (offset into flat, N of those pairs), a batch at a time."""
        for offset in range(0, flat.size, _CERT_BATCH):
            batch = flat[offset:offset + _CERT_BATCH]
            i, j = lo + batch // ncols, lo + batch % ncols
            inter = masks.searchsorted(masks[i] & masks[j])
            need = np.concatenate([i, j, inter])
            need = need[~known[need]]
            sums[need] = membership[need] @ exact_weights
            known[need] = True
            yield offset, total * sums[inter] - sums[i] * sums[j]

    checked = 0
    for pairs, chunks in blocks:
        checked += pairs
        violation = None
        chunk_mins = []
        for lo, hi in chunks:
            values, ncols = screened(lo, hi)
            chunk_mins.append(values.min())
            if violation is not None or chunk_mins[-1] >= bound:
                continue
            first = values.size
            if chunk_mins[-1] < -bound:
                first = int((values < -bound).argmax())
            flat = (values[:first] < bound).nonzero()[0]
            for offset, certified in exact(lo, flat, ncols):
                negative = (certified < 0).nonzero()[0]
                if negative.size:
                    first = int(flat[offset + negative[0]])
                    break
            if first < values.size:
                violation = lo + first // ncols, lo + first % ncols
        if violation is None:
            continue
        threshold = min(chunk_mins) + 2 * bound
        best = 0
        for (lo, hi), chunk_min in zip(chunks, chunk_mins):
            if chunk_min <= threshold:
                values, ncols = screened(lo, hi)
                flat = (values <= threshold).nonzero()[0]
                best = min([best] + [certified.min() for _, certified in exact(lo, flat, ncols)])
        return best, violation, checked, total
    return 0, None, checked, total


def _association_witness(masks, pair):
    i, j = pair
    return {
        "up_set_u": list(up_set_members(masks[i])),
        "up_set_v": list(up_set_members(masks[j])),
        "mask_u": int(masks[i]),
        "mask_v": int(masks[j]),
    }


def is_associated(measure, *, tolerance=None) -> PropertyReport:
    """Positive correlations: cov(f, g) >= 0 for all increasing f, g.

    By the layer-cake decomposition and bilinearity of covariance it is
    enough to sweep indicator pairs of up-sets, so the check is exact.

    One engine sweeps the unordered pairs (U, V), U <= V in
    enumeration order, in row blocks of (1 << 23) // K up-sets (K
    up-sets): a float64 GEMM per chunk of rows, with threshold -tolerance
    in float mode.  In exact mode the float values only screen: every pair
    they cannot decide, within an a-priori rounding bound of 0 or of a
    block's float minimum, is recomputed over Python ints (see
    ``_exact_sweep``), so the verdict and margin are exact for any
    denominator.  Failing-margin rule: a failing report carries the
    lexicographically first violating pair and the minimum over the row
    blocks up to and including the first block with a violation, and
    ``pairs_checked`` counts the pairs of those blocks.  A holding report
    has swept every pair and carries the global minimum; in exact mode
    that is 0 (the full up-set is uncorrelated with every up-set).

    At most 5 sites for up-set checks; lattice, rates and dynamics up to
    6: ``enumerate_up_sets`` raises ``BudgetError`` for n = 6.
    """
    pm = _as_probability(measure)
    n = pm.n
    tol = _resolve_tolerance(pm.mode, tolerance)
    masks = enumerate_up_sets(n)
    details = {"mode": pm.mode, "up_sets": len(masks)}
    if pm.mode == FLOAT:
        details["tolerance"] = tol

    if pm.mode == EXACT:
        best, violation, checked, total = _exact_sweep(n, pm.weights)
        margin = Fraction(best, total * total)
    else:
        margin, violation, checked = _float_sweep(n, pm.as_float_array(), tol)
    details["pairs_checked"] = checked

    if violation is not None:
        return PropertyReport(
            "associated", FAILS, _association_witness(masks, violation), margin, details
        )
    return PropertyReport("associated", HOLDS, None, margin, details)


# ---------------------------------------------------------------------------
# FKG lattice condition


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
         for a, b in lattice_pairs(measure.n, strictly_positive)),
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


def is_downward_fkg(measure, *, tolerance=None) -> PropertyReport:
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
        report = is_associated(sub, tolerance=tolerance)
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


def stochastically_dominates(lower, upper, *, tolerance=None) -> PropertyReport:
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
    masks = enumerate_up_sets(lo.n)
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

"""Probability measures on {0,1}^n and the correlation-property checkers.

Weights are exact `fractions.Fraction`s by default, so static property
verdicts never flap near equality (product measures sit exactly on the
boundary of most of these inequalities).  Measures coming out of the
dynamics are tagged ``"float"`` and checked against a margin tolerance
instead.

Every checker returns a :class:`PropertyReport` whose ``fails`` verdict
carries a witness that re-evaluates to a strict violation on its own.

Association up to five sites is decided by one blocked sweep over pairs
of up-sets (``_sweep``), one per restriction to the support, shared by
both arithmetic modes: a GEMM screens whole chunks of pairs against two
thresholds.  Float mode sets both to -tolerance; exact mode (float32 at
five sites) sets them to a rounding bound either side of 0 and recomputes
over Python ints, once each, the pairs between not nested on the support
that a float64 recheck leaves undecided: exact verdicts and margins hold
for any weights.  Exact mode sweeps less where it can: by Theorem 1.2 a
measure that satisfies (1.3) is associated, unswept, and a five-site one
fixed by more than two site permutations first sweeps one row per orbit,
holding if those rows do.  Float mode takes neither path; its reports are
a float64 sweep's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np

from .lattice import (
    enumerate_up_sets,
    lattice_pairs,
    scan_slacks,
    site_product,
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
        if self.mode == FLOAT and not math.isfinite(self.total):
            raise ValueError("total weight is beyond the float64 range")
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

    @cached_property
    def total(self):
        return sum(self.weights)

    def as_float_array(self) -> np.ndarray:
        """float64 weights; an exact weight rounds once, by ``float``: p / q as ints."""
        return np.array(self.weights, dtype=np.float64)

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
        else:
            _check_float_mass(self.total)

    @classmethod
    def product(cls, ones_probabilities) -> "ProbabilityMeasure":
        """Independent sites with the given probabilities of spin 1."""
        ps = [as_fraction(p) for p in ones_probabilities]
        n = len(ps)
        validate_site_count(n)
        if any(not 0 <= p <= 1 for p in ps):
            raise ValueError("site probabilities must lie in [0, 1]")
        return cls(n, tuple(site_product((1 - p, p) for p in ps)), EXACT)


def _check_float_mass(total: float) -> None:
    if not abs(total - 1.0) <= FLOAT_NORMALIZATION_SLACK:  # NaN fails too
        raise ValueError(f"float measure sums to {total!r}, outside 1e-12 of 1")


def normalize(weights: WeightVector) -> ProbabilityMeasure:
    """Scale to total mass one.  All property verdicts are scale invariant."""
    total = weights.total
    return ProbabilityMeasure(weights.n, tuple(w / total for w in weights.weights), weights.mode)


def _check_vector(measure) -> None:
    if not isinstance(measure, WeightVector):
        raise TypeError(f"expected a WeightVector or ProbabilityMeasure, got {type(measure)!r}")


def _as_probability(measure) -> ProbabilityMeasure:
    if isinstance(measure, ProbabilityMeasure):
        return measure
    _check_vector(measure)
    return normalize(measure)


# ---------------------------------------------------------------------------
# conditioning and tilting


def _zero_slice(measure, amask: int) -> tuple[list, tuple]:
    """The weights with spin 0 at every site of ``amask`` and the remaining
    sites, both ascending: entry i belongs to configuration i of the
    remaining sites, whose new site j is the j-th remaining old site."""
    remaining = tuple(x for x in range(measure.n) if not amask >> x & 1)
    return [w for c, w in enumerate(measure.weights) if c & amask == 0], remaining


def project_zeros(measure, sites):
    """Condition on spin 0 at every site in ``sites`` and drop those sites.

    Returns (measure on the remaining sites, remaining sites ascending);
    new site i is old site remaining[i].
    """
    pm = _as_probability(measure)
    pinned = sorted(set(sites))
    amask = 0
    for x in pinned:
        validate_site(x, pm.n)
        amask |= 1 << x
    weights, remaining = _zero_slice(pm, amask)
    if not sum(weights) > 0:
        raise ValueError(f"conditioning event (zeros on sites {pinned}) has zero probability")
    if not remaining:
        raise ValueError("projection needs at least one remaining site")
    return normalize(WeightVector(len(remaining), tuple(weights), pm.mode)), remaining


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
    return normalize(WeightVector(pm.n, tuple(weights), out_mode))


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


def _report(prop: str, mode: str, tol: float, witness, margin, details: dict) -> PropertyReport:
    """A checker's report: float mode records the tolerance; a witness fails it."""
    if mode == FLOAT:
        details["tolerance"] = tol
    return PropertyReport(prop, HOLDS if witness is None else FAILS, witness, margin, details)


def _resolve_tolerance(mode: str, tolerance) -> float:
    """0 in exact mode, else the given tolerance or the default.  A given
    tolerance must be finite and nonnegative in either mode: NaN or inf
    would pass every float check."""
    if tolerance is not None and not 0 <= float(tolerance) < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if mode == EXACT:
        return 0.0
    return DEFAULT_FLOAT_TOLERANCE if tolerance is None else float(tolerance)


# ---------------------------------------------------------------------------
# association


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
    an intersection), per row block the number of pairs i <= j in it and
    its end row, the screen's type, float32 where a full sweep has several
    chunks (n = 5), and two bounds from the formula of ``_exact_sweep``:
    ``band`` for the screen type and ``bound`` for float64, which covers the
    float64 recheck and a float64 GEMM."""
    matrix = up_set_matrix(n).astype(np.float64)
    k = matrix.shape[0]
    block = max(1, min(k, _BLOCK_ENTRIES // k))
    blocks = [(rows * (k - start) - rows * (rows - 1) // 2, start + rows)
              for start in range(0, k, block) for rows in [min(block, k - start)]]
    masks = np.asarray(enumerate_up_sets(n), dtype=np.int64)
    matrix.flags.writeable = masks.flags.writeable = False
    screen = np.float32 if _CHUNK_ENTRIES < k * k else np.float64  # several chunks: GEMMs dominate
    bounds = [float((4 * 2**n + 8) * np.finfo(t).eps + (2**(n + 1) + 2) * np.finfo(t).tiny)
              for t in (screen, np.float64)]
    return matrix, masks, blocks, screen, *bounds


@lru_cache(maxsize=None)
def _minimal_configurations(n: int) -> np.ndarray:
    """Per up-set, the mask of its minimal members, with no lower neighbour c - 2^x in it."""
    masks, configs = _sweep_tables(n)[1], np.arange(1 << n)
    table = masks & ~np.bitwise_or.reduce(
        [masks << (1 << x) & int(((configs >> x & 1) << configs).sum()) for x in range(n)])
    table.flags.writeable = False
    return table


def _support_classes(n: int, weights):
    """The up-sets' restrictions to the support of ``weights`` (int64 masks) and, ascending, the
    least up-set of each, its up-closure, but the empty one and the support's: the up-sets whose
    minimal configurations lie in the support.  cov(1_U, 1_V) depends only on the restrictions, in
    float64 too (off the support every term is 0), and is 0 if U or V has probability 0 or 1."""
    masks, support = _sweep_tables(n)[1], np.asarray(weights) > 0
    if support.all():  # every up-set is its own restriction
        return masks, np.arange(1, masks.size - 1)
    bits = int(support @ (1 << np.arange(1 << n)))
    return masks & bits, np.flatnonzero((_minimal_configurations(n) & ~bits) == 0)[1:-1]


def _pairs_once(flat, ncols):
    """Entries row * ncols + column of a chunk with column >= row: each pair once, as i <= j."""
    return flat[flat >= flat // ncols * (ncols + 1)]


@lru_cache(maxsize=None)
def _config_permutations(n: int) -> np.ndarray:
    """Row g maps each configuration to its image under the g-th site permutation."""
    bits = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    table = (1 << np.array(list(permutations(range(n))))) @ bits.T
    table.flags.writeable = False
    return table


def _site_symmetries(vector) -> np.ndarray:
    """The rows of ``_config_permutations`` fixing the weights: equal lowest terms, or bits."""
    ids = {}
    keys = (np.array([ids.setdefault(w.as_integer_ratio(), len(ids)) for w in vector.weights])
            if vector.mode == EXACT else vector.as_float_array().view(np.int64))
    table = _config_permutations(vector.n)
    return table[(keys[table] == keys).all(axis=1)]


def _orbit_rows(vector, classes):
    """At five sites, the ``_support_classes`` least in their ``_site_symmetries`` orbit, if at
    most half of them; else None.  Each is its restriction's up-closure, so an image of one is
    one, and a pair's image with the least lesser class has it as a row, the other no earlier."""
    if vector.n < 5 or len(group := _site_symmetries(vector)) <= 2:  # 2: over half the rows
        return None
    matrix, masks = _sweep_tables(5)[:2]
    powers = np.exp2(group)  # U's image mask, the sum over c in U of 2^g(c), is exact; 1 MB parts
    least = np.hstack([(powers @ part.T).min(0) for part in np.array_split(matrix[classes], 8)])
    rows = classes[least == masks[classes]]
    return rows if 2 * rows.size <= classes.size else None


def _sweep(n: int, weights: np.ndarray, classes: np.ndarray, low: float, high: float, certify,
           rows=None, columns=None):
    """The block rule of ``is_associated``, in both arithmetic modes, on
    checked and normalized float64 weights, over the rows and columns
    ``classes`` (``_support_classes``): any other pair i <= j has the value
    0 or that of a pair of classes no later in row-major order, in the same
    row block if negative (the blocks before held), so the reports are
    those of sweeping every up-set.

    Each chunk of rows is one GEMM, [M*w | -p] @ [M | p]^T with p = M @ w,
    in exact mode in ``_sweep_tables``' screen type, over its rows and the
    columns j >= its first row.  Entry (i, j), j < i, repeats the earlier
    (j, i) term for term, so the first violation and the minima are those
    of the pairs i <= j.  A value below ``low`` violates and one at or
    above ``high`` holds; the pairs between before the first value below
    ``low`` (``_pairs_once``) are rechecked _CERT_BATCH at a time, those
    with a recheck below the float64 bound go to ``certify(i, j, rows of
    U & V)``, which returns their exact values, or 0 where it knows them
    >= 0; the first negative one violates, and the sweep ends after its block.
    Given ``rows``, classes ascending, exact mode sweeps those rows alone;
    given ``columns`` (``_sweep_columns``), the sweep writes p into them.
    With several chunks a call of ``screen`` overwrites what its last call
    in that type returned.  Float mode (``certify`` None) computes its five-site
    chunks in float64 at first, as below five sites, and screens a chunk in
    the screen type first once two chunks in a row were decided (minimum at
    least ``band + bound``): a lone decided chunk is often a block's short
    last one, and on products the next block's first is not decided.  A
    screened chunk with minimum at least ``band + bound`` has every float64
    value above 0, since each screen value lies within ``band`` and each
    float64 value within ``bound`` of the same exact value: it holds no
    violation and nothing below the margin's 0.0, and is skipped.  Any other
    chunk is computed in float64 from the float64 operands, so the values,
    first violation and minima are those of a float64 sweep, bit for bit.
    Returns (first violating pair or None, pairs in the blocks swept, per
    block swept its chunks' (lo, hi, float minimum), but for the chunks
    float mode skipped, ``screen``, ``recheck``): ``screen(lo, hi)``
    recomputes the chunk of rows ``rows[lo:hi]`` (``classes`` if None) as
    the sweep computes it, as (flat values, ncols), flat entry r * ncols + c
    being the pair (rows[lo + r], classes[first + c]), classes[first]
    being rows[lo], and ``screen(lo, hi, True)`` as float mode screens it;
    ``recheck(lo, flat, ncols)`` gives the entries ``flat`` as (i, j, rows
    of U & V, float64 p(U & V) - p(U)*p(V)).
    """
    matrix, masks, blocks, dtype, band, bound = _sweep_tables(n)
    rows = classes if rows is None else rows
    p = weights @ matrix.T
    if columns is None:
        columns = _sweep_columns(n, classes, dtype if certify else np.float64)
    columns[:, -1] = p[classes]
    scale = np.concatenate((weights, (-1.0,)))  # a row of ``columns`` times it: [M*w | -p], exactly
    step = max(1, min(rows.size, _CHUNK_ENTRIES // max(1, classes.size)))
    starts = range(classes.size) if rows is classes else classes.searchsorted(rows)
    ends = rows.searchsorted([stop for _, stop in blocks]) if len(blocks) > 1 else [rows.size]
    right = {t: columns.astype(t, copy=False) for t in {columns.dtype.type, dtype}}
    buffers = {t: np.empty(step * classes.size, t)  # several chunks: one per type (ROADMAP 18)
               for t in right if len(ends) > 1 or step < rows.size}

    def screen(lo, hi, fast=bool(certify)):
        t, first = dtype if fast else np.float64, starts[lo]
        at = slice(lo, hi) if rows is classes else starts[lo:hi]
        out = np.ndarray((hi - lo, classes.size - first), t, buffers[t]) if buffers else None
        left = (right[t][at] * scale).astype(t, copy=False)
        values = np.matmul(left, right[t][first:].T, out=out)
        return values.ravel(), values.shape[1]

    def recheck(lo, flat, ncols):
        offsets = flat // ncols
        i, j = rows[lo + offsets], classes[starts[lo] + flat - offsets * ncols]
        inter = masks.searchsorted(masks[i] & masks[j])
        return i, j, inter, p[inter] - p[i] * p[j]

    violation, decided, cut = None, 0, band + bound  # decided: chunks in a row
    minima = []
    for begin, end in zip([0, *ends], ends):
        minima.append([])
        for lo in range(begin, end, step):
            hi = min(lo + step, end)
            if decided > 1 and float(screen(lo, hi, True)[0].min()) >= cut:
                continue  # every float64 value is > 0: neither a violation nor below 0.0
            values, ncols = screen(lo, hi)
            chunk_min = float(values.min())
            decided = decided + 1 if dtype != columns.dtype and chunk_min >= cut else 0
            minima[-1].append((lo, hi, chunk_min))
            if violation is not None or chunk_min >= high:
                continue
            first = int((values < low).argmax()) if chunk_min < low else values.size
            undecided = _pairs_once((values[:first] < high).nonzero()[0], ncols)
            for start in range(0, undecided.size, _CERT_BATCH):
                batch = undecided[start:start + _CERT_BATCH]
                i, j, inter, rechecked = recheck(lo, batch, ncols)
                kept = (rechecked < bound).nonzero()[0]  # the others hold
                negative = (certify(i[kept], j[kept], inter[kept]) < 0).nonzero()[0]
                if negative.size:
                    first = int(batch[kept[negative[0]]])
                    break
            if first < values.size:
                violation = int(rows[lo + first // ncols]), int(classes[starts[lo] + first % ncols])
        if violation is not None:
            break
    return violation, sum(pairs for pairs, _ in blocks[:len(minima)]), minima, screen, recheck


def _sweep_columns(n: int, classes: np.ndarray, dtype) -> np.ndarray:
    """``_sweep``'s right operand [M | p] over ``classes``, with p left for the sweep to write."""
    columns = np.empty((classes.size, (1 << n) + 1), dtype)
    columns[:, :-1] = _sweep_tables(n)[0][classes]
    return columns


def _float_sweep(n: int, weights: np.ndarray, classes: np.ndarray, tol: float, columns=None):
    """Float-mode ``_sweep`` by ``is_associated``'s rule: (violation, pairs, margin).

    ``_exact_sweep``'s error bound, on which ``_sweep``'s float32 screen
    rests, covers float-mode weights as they are: a pair's exact value is
    that of the binary weights swept, so no weight carries a rounding of
    its own, and they sum to 1 within 1e-12, so every mu is at most
    1 + 1e-12, an excess that the bands' factor 2 absorbs.
    """
    violation, checked, minima, _, _ = _sweep(n, weights, classes, -tol, -tol, None, None, columns)
    return violation, checked, min([0.0] + [m for block in minima for *_, m in block])


def _integer_weights(weights) -> tuple[list[int], int]:
    """Exact weights as (integer numerators, their common denominator)."""
    denom = math.lcm(*[w.denominator for w in weights])
    return [w.numerator * (denom // w.denominator) for w in weights], denom


def _exact_sweep(vector):
    """Exact ``_sweep``: a float screen, certified over Python ints.

    Write the weights as integers a_c over their common denominator T and
    S(U) for the sum of a_c over U; the exact value of a pair is
    N(U, V) = T*S(U & V) - S(U)*S(V) = T^2 cov(1_U, 1_V).  The screen is
    ``_sweep`` on the normalized weights rounded to float64, so no
    denominator overflows it, with ``low, high = -band, band``; the pairs
    i <= j it cannot decide whose float64 recheck lies below ``bound`` are
    recomputed as N over Python ints, and the others have N > 0.  A pair
    whose restrictions to the support are nested, U <= V there say, has
    N = S(U)*(T - S(V)) >= 0, so it can neither violate nor lower a margin,
    and is never recomputed: ``certify`` gives it 0.

    Error bound (u = 2^-24 or 2^-53, tiny = 2^-126 or 2^-1022 for a float32
    or float64 screen, m = 2^n + 1 terms per GEMM dot product): each weight
    in the screen type is within (u + 2^-53)*w_c of w_c, or tiny if flushed
    to 0; each p(U) = sum of w over U is within about m*2^-53 of mu(U) in
    float64, and u*mu(U) more in float32; the dot product itself is within
    gamma_m = m*u/(1 - m*u) times the sum of its absolute terms, which is
    at most about 2, in any summation order (Higham, "Accuracy and
    Stability of Numerical Algorithms", section 3.1), plus m*tiny for
    partial sums flushed to 0.  Since every mu is at most 1, each screen
    value lies within (4m + 1)*u + 2m*tiny, plus terms of order u^2, of the
    exact covariance.  ``band`` is 2*((4m + 4)*u + m*tiny), which also
    covers the rounding of the thresholds computed from it.  The float64
    recheck has no GEMM term and lies within ``bound``.

    Classes come from the exact support; a five-site ``vector`` holds
    unswept in full if its ``_orbit_rows`` do.  A block without a violation
    has exact minimum 0 (the full up-set's value); that of a block with a
    violation is the least N among its pairs within 2*band of its screen
    minimum and 2*bound of their least recheck (their chunks are computed
    again; any evaluation within the bounds finds them).  Returns (margin
    numerator, violation or None, pairs, T); margin = numerator/T^2.
    """
    n = vector.n
    membership = up_set_matrix(n)
    ints = _integer_weights(vector.weights)[0]
    total = sum(ints)
    exact_weights = np.array(ints, dtype=object)
    sums = np.zeros(len(membership), dtype=object)
    known = np.zeros(len(membership), dtype=bool)
    restrictions, classes = _support_classes(n, ints)
    band, bound = _sweep_tables(n)[4:]

    def certify(i, j, inter):
        """N of the pairs (i[k], j[k]), 0 if nested on the support; sums are cached per call."""
        values = np.zeros(i.size, dtype=object)
        keep = (restrictions[inter] != restrictions[i]) & (restrictions[inter] != restrictions[j])
        i, j, inter = i[keep], j[keep], inter[keep]
        need = np.concatenate([i, j, inter])
        need = need[~known[need]]
        sums[need] = membership[need] @ exact_weights
        known[need] = True
        values[keep] = total * sums[inter] - sums[i] * sums[j]
        return values

    args = (n, np.array([a / total for a in ints]), classes, -band, band, certify)
    if (rows := _orbit_rows(vector, classes)) is not None and _sweep(*args, rows)[0] is None:
        return 0, None, len(membership) * (len(membership) + 1) // 2, total
    violation, checked, minima, screen, recheck = _sweep(*args)
    if violation is None:
        return 0, None, checked, total
    threshold = min(chunk_min for *_, chunk_min in minima[-1]) + 2 * band
    best, cut = 0, math.inf
    for lo, hi, chunk_min in minima[-1]:
        if chunk_min <= threshold:
            values, ncols = screen(lo, hi)
            flat = _pairs_once((values <= threshold).nonzero()[0], ncols)
            for start in range(0, flat.size, _CERT_BATCH):
                i, j, inter, rechecked = recheck(lo, flat[start:start + _CERT_BATCH], ncols)
                cut = min(cut, rechecked.min() + 2 * bound)
                kept = (rechecked <= cut).nonzero()[0]
                best = min(best, certify(i[kept], j[kept], inter[kept]).min(initial=0))
    return best, violation, checked, total


def is_associated(measure, *, tolerance=None) -> PropertyReport:
    """Positive correlations: cov(f, g) >= 0 for all increasing f, g.

    By the layer-cake decomposition and bilinearity of covariance it is
    enough to sweep indicator pairs of up-sets, so the check is exact.  An
    unnormalized exact vector is swept as is (the rule is scale invariant);
    a float one is divided by its ``total``, as ``normalize`` does.

    One sweep, ``_sweep``, serves both modes: it visits the pairs (U, V)
    in row blocks of (1 << 23) // K up-sets (K up-sets), one GEMM per
    whole chunk of rows, where V before U repeats (V, U), met earlier with
    the same value, so reports name U <= V in enumeration order and count
    each pair once.  It stops after the first block with a violation, and
    takes one up-set per restriction to the support, with the same reports.
    Float mode calls a value below -tolerance a violation and its margin
    is the minimum of 0.0 (the full up-set's exact value) and the float
    values swept.  In exact mode the float values, float32 at five sites,
    only screen: every pair they cannot decide, within an a-priori
    rounding bound of 0 or of the violating block's float minimum, is
    recomputed over Python ints if a float64 recheck cannot decide it
    either and U, V are not nested on the support (see ``_exact_sweep``),
    so the verdict and margin are exact for any denominator.  Failing-margin
    rule: a failing report carries the lexicographically first violating
    pair and the minimum over the row blocks up to and including the first
    block with a violation, and ``pairs_checked`` counts the pairs of
    those blocks.  A holding report counts every pair and carries the
    global minimum, 0 in exact mode (the full up-set is uncorrelated
    with every up-set), where a (1.3) measure holds by Theorem 1.2 and a
    five-site one once its ``_orbit_rows`` do, if it has them, unswept in
    full, ``pairs_checked`` counting the pairs covered; float mode sweeps.

    At most 5 sites for up-set checks; lattice, rates and dynamics up to
    6: ``enumerate_up_sets`` raises ``BudgetError`` for n = 6.
    """
    _check_vector(measure)
    n, mode = measure.n, measure.mode
    tol = _resolve_tolerance(mode, tolerance)
    masks = enumerate_up_sets(n)

    if mode == EXACT and satisfies_lattice(measure).holds:  # associated by Theorem 1.2
        violation, checked, margin = None, len(masks) * (len(masks) + 1) // 2, Fraction(0)
    elif mode == EXACT:
        best, violation, checked, total = _exact_sweep(measure)
        margin = Fraction(best, total * total)
    else:
        weights = measure.as_float_array() / (
            1.0 if isinstance(measure, ProbabilityMeasure) else measure.total)
        violation, checked, margin = _float_sweep(n, weights, _support_classes(n, weights)[1], tol)
    details = {"mode": mode, "up_sets": len(masks), "pairs_checked": checked}
    return _report("associated", mode, tol, _pair_witness(n, violation), margin, details)


def _pair_witness(n: int, violation) -> dict | None:
    """The witness of a violating up-set pair (i, j), None for None."""
    if violation is not None:
        u, v = (enumerate_up_sets(n)[k] for k in violation)
        return {"up_set_u": list(up_set_members(u)), "up_set_v": list(up_set_members(v)),
                "mask_u": int(u), "mask_v": int(v)}


# ---------------------------------------------------------------------------
# FKG lattice condition


def satisfies_lattice(measure, *, tolerance=None) -> PropertyReport:
    """FKG lattice condition: mu(a&b)*mu(a|b) >= mu(a)*mu(b) for all pairs.

    Takes a ``WeightVector``, normalized or not (the condition is scale
    invariant).  Comparable pairs hold with equality and are skipped.
    """
    _check_vector(measure)
    exact = measure.mode == EXACT
    w, denom = _integer_weights(measure.weights) if exact else (measure.weights, 1)
    tol = _resolve_tolerance(measure.mode, tolerance)
    strictly_positive = all(v > 0 for v in w)
    best, violation, checked = scan_slacks(
        (((a, b), w[a & b] * w[a | b] - w[a] * w[b])
         for a, b in lattice_pairs(measure.n, strictly_positive)),
        tol,
    )
    margin = Fraction(best, denom * denom) if exact and best is not None else best
    details = {
        "mode": measure.mode,
        "strictly_positive": strictly_positive,
        "pairs_checked": checked,
    }
    witness = None
    if violation is not None:
        a, b = violation
        witness = {"eta": a, "zeta": b, "meet": a & b, "join": a | b}
    return _report("fkg-lattice", measure.mode, tol, witness, margin, details)


# ---------------------------------------------------------------------------
# downward FKG


def is_downward_fkg(measure, *, tolerance=None) -> PropertyReport:
    """Association of every conditioning on zeros (the empty set included),
    stopping at the first violating slice.

    Conditioning events of zero probability are skipped, matching the
    standing convention for conditional properties.  In float mode,
    slices with mass below 1e-12 are also skipped: their conditional weights
    would be dominated by semigroup truncation noise.  An exact slice goes
    to ``is_associated`` unnormalized; a float one is swept as its array,
    divided by its Python sum but for the measure itself.  A slice with one
    site left has nested up-sets, so margin exactly 0, and is not swept; by
    Theorem 1.2 nor is an exact (1.3) slice (see ``is_associated``).
    An exact measure that satisfies (1.3) takes one scan for all its slices,
    each a sublattice and so (1.3) itself.
    """
    pm = _as_probability(measure)
    n = pm.n
    tol = _resolve_tolerance(pm.mode, tolerance)
    floor = 0 if pm.mode == EXACT else FLOAT_NORMALIZATION_SLACK
    enumerate_up_sets(n)  # BudgetError for n = 6, as is_associated raises on the first slice
    lattice = pm.mode == EXACT and satisfies_lattice(pm).holds
    best = witness = None
    checked = skipped = 0
    for amask in range(1 << n):
        weights, remaining = _zero_slice(pm, amask)
        mass = sum(weights)
        if not mass > floor:
            skipped += 1
            continue
        checked += 1
        if len(weights) <= 2 or lattice:
            if len(weights) >= 2 and best is None:  # no margin is positive
                best = Fraction(0) if pm.mode == EXACT else 0.0
            continue
        if pm.mode == EXACT:
            report = is_associated(WeightVector(len(remaining), tuple(weights)) if amask else pm)
            margin, pair = report.margin, report.witness
        else:  # swept as is_associated sweeps the slice's float WeightVector, or pm itself
            swept, k = np.array(weights) / (mass if amask else 1.0), len(remaining)
            violation, _, margin = _float_sweep(k, swept, _support_classes(k, swept)[1], tol)
            pair = _pair_witness(k, violation)
        if best is None or margin < best:
            best = margin
        if pair is not None:
            sites = [x for x in range(n) if amask >> x & 1]
            witness = {"conditioned_sites": sites, "remaining_sites": list(remaining), **pair}
            break
    details = {"mode": pm.mode, "subsets_checked": checked, "subsets_skipped": skipped}
    return _report("downward-fkg", pm.mode, tol, witness, best, details)


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

    Float weights convert through their exact binary values and the
    measure is then normalized exactly, so the returned Fraction is a true
    statement about the serialized measure: a float total a few ulps off 1
    cannot turn an identically zero covariance negative.
    """
    _check_vector(measure)
    pm = normalize(WeightVector(measure.n, measure.as_fractions()))
    w = pm.weights
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
        return _up_set_pair_covariance(sub.weights, witness)
    raise ValueError(f"no witness re-evaluation rule for property {prop!r}")

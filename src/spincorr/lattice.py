"""Configurations of {0,1}^n as bitmasks, their lattice structure, and up-sets.

A configuration is an n-bit mask with bit x holding the spin at site x, so
meet/join are single AND/OR instructions and a weight vector is indexed
directly by the mask.  An up-set (upward-closed event) is stored as a
2^n-bit membership mask over configuration indices: intersecting two
up-sets is one AND, and weighing an up-set against a measure is a masked
sum.  These two encodings are shared by every other module.  Up-sets are
what the association checks sweep: an increasing function is a constant
plus a positive combination of up-set indicators (its level sets), so
covariances of up-set pairs decide association.

Every pairwise order check is built on four primitives here:
``single_bit_pairs`` (monotonicity), ``two_site_quadruples`` (squares, for
submodularity), ``lattice_pairs`` (the FKG lattice condition) and
``scan_slacks`` (the in-order walk that stops at the first violation).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_SITES = 6
MAX_UP_SET_SITES = 5


class BudgetError(RuntimeError):
    """An enumeration or sweep would exceed its configured budget."""


def validate_site_count(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_SITES:
        raise ValueError(f"site count must be an integer in [1, {MAX_SITES}], got {n!r}")
    return n


def validate_site(x, n: int) -> None:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"site {x!r} is not an integer")
    if not 0 <= x < n:
        raise ValueError(f"site {x!r} out of range for {n} sites")


def configs(n: int) -> range:
    """All configuration masks of an n-site system, in index order."""
    return range(1 << n)


def site_product(pairs) -> list:
    """The table whose entry c is the product over sites x of ``pairs[x][c >> x & 1]``."""
    table = [1]
    for off, on in pairs:
        table = [v * off for v in table] + [v * on for v in table]
    return table


def single_bit_pairs(n: int):
    """Yield (lower, upper) for every pair of configs differing in one bit,
    in ascending order of the lower config."""
    for c in configs(n):
        for x in range(n):
            if not c >> x & 1:
                yield c, c | 1 << x


def two_site_quadruples(n: int):
    """Yield (base, x, y) with base(x) = base(y) = 0 for every unordered site pair.

    The four configs base, base|x, base|y, base|x|y form the square whose
    corners the pairwise lattice and submodularity checks compare.
    """
    for x in range(n):
        for y in range(x + 1, n):
            pair = 1 << x | 1 << y
            for base in configs(n):
                if base & pair == 0:
                    yield base, x, y


def lattice_pairs(n: int, strictly_positive: bool):
    """Yield the pairs (a, b) on which the lattice condition
    w(a&b) w(a|b) >= w(a) w(b) must be checked: for a strictly positive
    table the pairs (base|x, base|y) of the ``two_site_quadruples`` squares,
    which imply all others; otherwise every incomparable pair, a < b
    ascending (comparable pairs hold with equality)."""
    if strictly_positive:
        for base, x, y in two_site_quadruples(n):
            yield base | 1 << x, base | 1 << y
    else:
        for a in configs(n):
            for b in range(a + 1, 1 << n):
                if a & b not in (a, b):  # incomparable
                    yield a, b


def scan_slacks(slacks, tolerance=0):
    """Walk (key, slack) pairs in order, stopping at the first slack below
    -tolerance.

    Returns (minimum slack scanned or None, key of the violating slack or
    None, number scanned).  A violating slack is the minimum so far, since
    every earlier one is at least -tolerance.
    """
    best = None
    checked = 0
    for key, slack in slacks:
        checked += 1
        if best is None or slack < best:
            best = slack
        if slack < -tolerance:
            return best, key, checked
    return best, None, checked


# ---------------------------------------------------------------------------
# up-sets


@lru_cache(maxsize=None)
def _up_sets(n: int) -> tuple[int, ...]:
    # Up-sets of the n-cube are pairs (A, B) of up-sets of the (n-1)-cube
    # with A <= B: A is the membership on the lower half (new site at 0),
    # B on the upper half.
    if n == 0:
        return (0, 1)
    prev = _up_sets(n - 1)
    half = 1 << n - 1
    arr = np.asarray(prev, dtype=np.int64)
    return tuple(sorted(
        low | int(high) << half for low in prev for high in arr[(arr & low) == low]
    ))


def enumerate_up_sets(n: int) -> tuple[int, ...]:
    """All up-sets of {0,1}^n as membership masks, ascending; cached.

    Counts grow like the Dedekind numbers (20 for n=3, 168 for n=4,
    7581 for n=5, 7828354 for n=6).  Every up-set check (association,
    downward FKG, sampled DCA) gets its up-sets here, so this is the one
    place that refuses a larger n, with a ``BudgetError``: at most 5 sites
    for up-set checks; lattice, rates and dynamics up to 6 (``MAX_SITES``).
    """
    validate_site_count(n)
    if n > MAX_UP_SET_SITES:
        raise BudgetError(
            f"up-set checks stop at {MAX_UP_SET_SITES} sites; n = 6 has 7 828 354 up-sets"
        )
    return _up_sets(n)


def up_set_members(members: int) -> tuple[int, ...]:
    """Configuration indices contained in a membership mask."""
    out = []
    c = 0
    while members:
        if members & 1:
            out.append(c)
        members >>= 1
        c += 1
    return tuple(out)


@lru_cache(maxsize=None)
def up_set_matrix(n: int) -> np.ndarray:
    """Boolean (#up-sets, 2^n) membership matrix, rows in enumeration order."""
    masks = np.asarray(enumerate_up_sets(n), dtype=np.int64)
    cols = np.arange(1 << n, dtype=np.int64)
    mat = (masks[:, None] >> cols[None, :] & 1).astype(bool)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def up_set_intersection_table(n: int) -> np.ndarray:
    """(K, K) table mapping up-set row pairs to the row of their intersection.

    Up-sets are closed under intersection, so the table is total.  Built
    for n <= 4 only, where K*K stays small.
    """
    if n > 4:
        raise BudgetError(f"intersection table not built for n={n}")
    masks = np.asarray(_up_sets(n), dtype=np.int64)  # ascending
    table = masks.searchsorted(masks[:, None] & masks).astype(np.int32)
    table.flags.writeable = False
    return table


"""Closed-form correlation classifiers for three-site measures.

On {0,1}^3 each of the four properties in the implication chain

    FKG lattice  =>  DCA  =>  downward FKG  =>  association

is equivalent to a small system of quadratic inequalities in the eight
configuration weights.  The systems are named by what they bound:

- ``cov-prod``       cov(site i, product of the other two sites) >= 0
- ``cov-any``        cov(site i, indicator that another site is occupied) >= 0
- ``cov-pair``       cov(site j, site k) >= 0 for the pair {j,k} != i
- ``det-zero-slice`` 2x2 determinant of the slice conditioned on site i = 0
- ``det-one-slice``  2x2 determinant of the slice conditioned on site i = 1

Classification: association is cov-prod & cov-any & cov-pair; DCA and
downward FKG coincide here and are cov-prod & cov-pair & det-zero-slice;
the lattice condition is det-zero-slice & det-one-slice together with the
three complement-pair bounds a*d >= b_i*c_i (the latter are implied when
all weights are positive but are needed on the boundary, where a measure
supported on two complementary configurations slips past the two-site
determinants).

Every function takes a three-site ``WeightVector`` and refuses any other
site count.  The weights are read by the paper's names (``COORDINATES``):
a on 111, b_i with the unique 0 at site i, c_i with the unique 1 at site
i, d on 000 (sites numbered 1..3).  Everything is scale invariant, so
unnormalized weights are fine, and all formulas evaluate exactly on
Fractions (floats also work, for measures produced by the dynamics;
callers then apply a tolerance to the slacks).
"""

from __future__ import annotations

from .measures import EXACT, WeightVector

# slack of each system at the distinguished site i, with j, k the other two
_SLACKS = {
    "cov-prod": lambda a, b, c, d, i, j, k: a * (c[j] + c[k] + d) - b[i] * (b[j] + b[k] + c[i]),
    "cov-any": lambda a, b, c, d, i, j, k: d * (b[j] + b[k] + a) - c[i] * (c[j] + c[k] + b[i]),
    "cov-pair": lambda a, b, c, d, i, j, k: (b[i] + a) * (c[i] + d) - (c[k] + b[j]) * (b[k] + c[j]),
    "det-zero-slice": lambda a, b, c, d, i, j, k: b[i] * d - c[j] * c[k],
    "det-one-slice": lambda a, b, c, d, i, j, k: c[i] * a - b[j] * b[k],
}
SYSTEMS = tuple(_SLACKS)

# configuration mask per coordinate name, bit i = site i + 1
COORDINATES = {
    "a": 0b111,
    "b1": 0b110,
    "b2": 0b101,
    "b3": 0b011,
    "c1": 0b001,
    "c2": 0b010,
    "c3": 0b100,
    "d": 0b000,
}


def from_coordinates(**values) -> WeightVector:
    """The exact three-site WeightVector with the named weights."""
    weights = [None] * 8
    for name, mask in COORDINATES.items():
        weights[mask] = values[name]
    return WeightVector(3, tuple(weights))


def _coordinates(measure: WeightVector):
    """(a, (b1, b2, b3), (c1, c2, c3), d) of a three-site measure."""
    if measure.n != 3:
        raise ValueError(f"three-site closed forms need 3 sites, got n={measure.n}")
    a, b1, b2, b3, c1, c2, c3, d = (measure.weights[mask] for mask in COORDINATES.values())
    return a, (b1, b2, b3), (c1, c2, c3), d


def margins(measure: WeightVector, system: str):
    """The three slacks (lhs - rhs) of one inequality system.

    Slack i is indexed by the distinguished site i in 1..3 (for
    ``cov-pair``, the covariance of the two sites other than i).
    """
    a, b, c, d = _coordinates(measure)
    slack = _SLACKS.get(system)
    if slack is None:
        raise ValueError(f"unknown inequality system {system!r}; known: {SYSTEMS}")
    return tuple((i + 1, slack(a, b, c, d, i, (i + 1) % 3, (i + 2) % 3)) for i in range(3))


def complement_products(measure: WeightVector):
    """Slacks a*d - b_i*c_i for the three complementary configuration pairs."""
    a, b, c, d = _coordinates(measure)
    return tuple((i + 1, a * d - b[i] * c[i]) for i in range(3))


def classify(measure: WeightVector, tolerance=0) -> dict:
    """Verdicts for all four chain properties from the closed forms, keyed
    ``lattice``, ``dca``, ``downward_fkg`` and ``associated``."""
    holds = {system: all(slack >= -tolerance for _, slack in margins(measure, system))
             for system in SYSTEMS}
    complements = all(slack >= -tolerance for _, slack in complement_products(measure))
    lattice = holds["det-zero-slice"] and holds["det-one-slice"] and complements
    dca = holds["cov-prod"] and holds["cov-pair"] and holds["det-zero-slice"]
    associated = holds["cov-prod"] and holds["cov-any"] and holds["cov-pair"]
    if measure.mode == EXACT:
        # Sanity: the verdict set can never escape the implication chain;
        # float slacks near 0 can, and are left to the caller's tolerance.
        assert not (lattice and not dca)
        assert not (dca and not associated)
    return {"lattice": lattice, "dca": dca, "downward_fkg": dca, "associated": associated}

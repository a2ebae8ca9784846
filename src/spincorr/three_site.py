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

Everything is scale invariant, so unnormalized weights are fine, and all
formulas evaluate exactly on Fractions (floats also work, for measures
produced by the dynamics; callers then apply a tolerance to the slacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SYSTEMS = ("cov-prod", "cov-any", "cov-pair", "det-zero-slice", "det-one-slice")

# configuration mask per coordinate name, bit i = site i
_COORD_CONFIGS = {
    "d": 0b000,
    "c1": 0b001,
    "c2": 0b010,
    "b3": 0b011,
    "c3": 0b100,
    "b2": 0b101,
    "b1": 0b110,
    "a": 0b111,
}

COORD_NAMES = ("a", "b1", "b2", "b3", "c1", "c2", "c3", "d")


@dataclass(frozen=True)
class ThreeSiteCoords:
    """Named weights: a on 111, b_i with the unique 0 at site i, c_i with
    the unique 1 at site i, d on 000 (sites numbered 1..3)."""

    a: Fraction
    b1: Fraction
    b2: Fraction
    b3: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction
    d: Fraction

    def __post_init__(self):
        for name in COORD_NAMES:
            value = getattr(self, name)
            if not isinstance(value, float):
                object.__setattr__(self, name, Fraction(value))
            if getattr(self, name) < 0:
                raise ValueError(f"coordinate {name} must be nonnegative, got {value!r}")
        if not self.total > 0:
            raise ValueError("total weight must be positive")

    @property
    def total(self):
        return sum(getattr(self, name) for name in COORD_NAMES)

    @classmethod
    def from_weights(cls, weights) -> "ThreeSiteCoords":
        weights = list(weights)
        if len(weights) != 8:
            raise ValueError(f"expected 8 weights, got {len(weights)}")
        return cls(**{name: weights[mask] for name, mask in _COORD_CONFIGS.items()})

    def to_weights(self) -> tuple:
        out = [None] * 8
        for name, mask in _COORD_CONFIGS.items():
            out[mask] = getattr(self, name)
        return tuple(out)


def margins(coords: ThreeSiteCoords, system: str):
    """The three slacks (lhs - rhs) of one inequality system.

    Slack i is indexed by the distinguished site i in 1..3 (for
    ``cov-pair``, the covariance of the two sites other than i).
    """
    a, d = coords.a, coords.d
    b = (coords.b1, coords.b2, coords.b3)
    c = (coords.c1, coords.c2, coords.c3)
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        if system == "cov-prod":
            slack = a * (c[j] + c[k] + d) - b[i] * (b[j] + b[k] + c[i])
        elif system == "cov-any":
            slack = d * (b[j] + b[k] + a) - c[i] * (c[j] + c[k] + b[i])
        elif system == "cov-pair":
            slack = (b[i] + a) * (c[i] + d) - (c[k] + b[j]) * (b[k] + c[j])
        elif system == "det-zero-slice":
            slack = b[i] * d - c[j] * c[k]
        elif system == "det-one-slice":
            slack = c[i] * a - b[j] * b[k]
        else:
            raise ValueError(f"unknown inequality system {system!r}; known: {SYSTEMS}")
        out.append((i + 1, slack))
    return tuple(out)


def system_holds(coords: ThreeSiteCoords, system: str, tolerance=0) -> bool:
    return all(slack >= -tolerance for _, slack in margins(coords, system))


def complement_products(coords: ThreeSiteCoords):
    """Slacks a*d - b_i*c_i for the three complementary configuration pairs."""
    b = (coords.b1, coords.b2, coords.b3)
    c = (coords.c1, coords.c2, coords.c3)
    return tuple((i + 1, coords.a * coords.d - b[i] * c[i]) for i in range(3))


@dataclass(frozen=True)
class ThreeSiteVerdicts:
    lattice: bool
    dca: bool
    downward_fkg: bool
    associated: bool

    def as_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "dca": self.dca,
            "downward_fkg": self.downward_fkg,
            "associated": self.associated,
        }


def classify(coords: ThreeSiteCoords, tolerance=0) -> ThreeSiteVerdicts:
    """Verdicts for all four chain properties from the closed forms."""
    cov_prod = system_holds(coords, "cov-prod", tolerance)
    cov_any = system_holds(coords, "cov-any", tolerance)
    cov_pair = system_holds(coords, "cov-pair", tolerance)
    det_zero = system_holds(coords, "det-zero-slice", tolerance)
    det_one = system_holds(coords, "det-one-slice", tolerance)
    complements = all(slack >= -tolerance for _, slack in complement_products(coords))
    lattice = det_zero and det_one and complements
    dca = cov_prod and cov_pair and det_zero
    associated = cov_prod and cov_any and cov_pair
    verdicts = ThreeSiteVerdicts(lattice, dca, dca, associated)
    if tolerance == 0:
        # Sanity: the verdict set can never escape the implication chain.
        assert not (lattice and not dca)
        assert not (dca and not associated)
    return verdicts

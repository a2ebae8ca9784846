"""Symmetry guards: a site permutation relabels configurations and
witnesses, and the global spin flip eta -> 1 - eta reverses the order
and swaps meet with join.  Association and the FKG lattice condition are
invariant under both, downward FKG under permutations, so a change to the
index code (masks, zero slices, pair order) that breaks this shows here."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flip, permute, permuted_configs

from spincorr.harness import MEASURE_MODES, random_measure
from spincorr.lattice import enumerate_up_sets
from spincorr.measures import (
    EXACT,
    ProbabilityMeasure,
    is_associated,
    is_downward_fkg,
    normalize,
    reverify_witness,
    satisfies_lattice,
)

CHECKS = {"associated": is_associated, "fkg-lattice": satisfies_lattice,
          "downward-fkg": is_downward_fkg}


@st.composite
def measures_and_permutations(draw):
    """A random_measure draw of any family at n = 2-5, exact or float, and a site permutation."""
    n = draw(st.integers(2, 5))
    family = draw(st.sampled_from(MEASURE_MODES))
    measure = normalize(random_measure(draw(st.integers(0, 10**6)), n, family))
    if draw(st.booleans()):
        measure = ProbabilityMeasure.floats([float(w) for w in measure.weights])
    return measure, draw(st.permutations(range(n)))


def mapped_back_covariance(measure, image_of, witness):
    """The failing witness of ``measure``'s image, computed on ``measure``
    itself without the library's slicing: configuration c has image
    ``image_of[c]``, the slice keeps the c whose image has zeros on the
    conditioned sites, and bit k of a slice configuration is remaining
    site k.  Exact, over the weights' binary values."""
    pinned = witness.get("conditioned_sites", [])
    remaining = witness.get("remaining_sites", range(measure.n))
    sliced = {}
    for c, w in enumerate(measure.as_fractions()):
        d = image_of[c]
        if not any(d >> x & 1 for x in pinned):
            sliced[sum(1 << k for k, x in enumerate(remaining) if d >> x & 1)] = w
    total = sum(sliced.values())

    def mass(configs):
        return sum(sliced[s] for s in configs) / total

    u, v = witness["up_set_u"], witness["up_set_v"]
    return mass(set(u) & set(v)) - mass(u) * mass(v)


class TestSymmetryGuards:
    @settings(max_examples=52, deadline=None)
    @given(measures_and_permutations())
    def test_reports_are_invariant_under_permutations_and_the_flip(self, drawn):
        """Verdicts agree, and exact margins where they are global; a
        failing witness re-verifies below 0 on the image and, mapped back,
        on the measure, and names U no later than V."""
        measure, perm = drawn
        n = measure.n
        full = (1 << n) - 1
        images = [(permute(measure, perm), CHECKS, permuted_configs(n, perm)),
                  (flip(measure), {k: v for k, v in CHECKS.items() if k != "downward-fkg"},
                   [full ^ c for c in range(1 << n)])]
        reports = {name: check(measure) for name, check in CHECKS.items()}
        for image, checks, image_of in images:
            for name, check in checks.items():
                before, after = reports[name], check(image)
                assert after.verdict == before.verdict, (name, perm)
                # at n <= 4 one block holds every pair, so a failing margin is global
                if measure.mode == EXACT and (before.holds or name == "associated" and n <= 4):
                    assert type(after.margin) is Fraction and after.margin == before.margin
                if not after.fails:
                    continue
                slack = reverify_witness(image, after)
                assert slack < 0
                witness = after.witness
                if "mask_u" in witness:
                    assert mapped_back_covariance(measure, image_of, witness) == slack
                    up_sets = enumerate_up_sets(len(witness.get("remaining_sites", range(n))))
                    assert up_sets.index(witness["mask_u"]) <= up_sets.index(witness["mask_v"])

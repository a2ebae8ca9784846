"""Symmetry guards: a site permutation relabels configurations and
witnesses, and the global spin flip eta -> 1 - eta reverses the order
and swaps meet with join.  Association and the FKG lattice condition are
invariant under both, downward FKG under permutations, so a change to the
index code (masks, zero slices, pair order) that breaks this shows here.

A spin system maps the same way, the flip swapping births with deaths:
the rate classifiers keep their verdicts under permutations, and
attractiveness and independent flips under the flip too; the t = 0
derivative of an association determinant is the same number for the
permuted generator, measure and sites; and the semigroup commutes with
both maps within float rounding."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flip, flip_rates, permute, permute_rates, permuted_configs

from spincorr.dynamics import (
    association_determinant_poly,
    birth_submodularity,
    births_additive,
    births_increasing,
    build_generator,
    contact_process,
    deaths_constant,
    derivative_at_zero,
    has_independent_flips,
    is_attractive,
    path_edges,
    semigroup_apply,
)
from spincorr.harness import MEASURE_MODES, random_measure, random_spin_system
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


# contact paths on 2-4 sites and seeded draws of every kind at n = 2-4
SYSTEMS = [(f"contact_path{k}", contact_process(path_edges(k))) for k in (2, 3, 4)] + [
    (f"{kind} n={n} seed={seed}", random_spin_system(seed, n, kind))
    for kind in ("generic", "attractive", "independent")
    for n in (2, 3, 4)
    for seed in range(6)
]
# lambda*t up to 1 150: one leaf, two leaves, and the leaf kernel squared
SEMIGROUP_TIMES = (0.1, 1.0, 100.0)
# float rounding only, far below the checkers' 1e-9 tolerance; measured at
# most 1.5e-14 over these systems and times
SEMIGROUP_ROUNDING = 1e-13
CLASSIFIERS = (is_attractive, birth_submodularity, births_additive, births_increasing,
               deaths_constant, has_independent_flips)


def additive_coefficient(table, site: int, n: int, mask: int) -> Fraction:
    """The Moebius coefficient of the 'some site of mask occupied'
    indicator in the birth table of ``site``, summed directly."""
    full = (1 << n) - 1 ^ 1 << site
    return sum(
        (-1) ** (mask ^ d).bit_count() * (table[full] - table[full & ~d])
        for d in range(mask + 1) if d & ~mask == 0
    )


def violation_slack(prop: str, rates, witness) -> Fraction:
    """The slack, negative, of the violation a failing witness names."""
    site = witness["site"]
    if prop == "attractive":
        lo, hi = witness["lower"], witness["upper"]
        if witness["kind"] == "birth":
            return rates.birth[site][hi] - rates.birth[site][lo]
        return rates.death[site][lo] - rates.death[site][hi]
    if prop == "increasing-births":
        return rates.birth[site][witness["upper"]] - rates.birth[site][witness["lower"]]
    table = rates.birth[site]
    if prop == "submodular-births":
        base, (x, y) = witness["base"], witness["raised"]
        raised = table[base | 1 << x] + table[base | 1 << y]
        return raised - table[base | 1 << x | 1 << y] - table[base]
    if prop == "additive-births":
        mask = witness["negative_coefficient_mask"]
        return -table[0] if mask is None else additive_coefficient(table, site, rates.n, mask)
    assert prop == "constant-deaths"
    return -abs(rates.death[site][witness["config"]] - rates.death[site][0])


def permuted_witness(witness, perm, image_of) -> dict:
    """The witness with every site and configuration mapped across."""
    configs = ("lower", "upper", "base", "config", "negative_coefficient_mask")
    out = dict(witness, site=perm[witness["site"]])
    for key in configs:
        if witness.get(key) is not None:
            out[key] = image_of[witness[key]]
    if "raised" in witness:
        out["raised"] = [perm[x] for x in witness["raised"]]
    return out


def site_permutation(name: str, n: int) -> tuple[int, ...]:
    """A permutation other than the identity, drawn from the system's name."""
    return random.Random(name).choice(list(permutations(range(n)))[1:])


@pytest.mark.parametrize("name,rates", SYSTEMS, ids=[name for name, _ in SYSTEMS])
class TestRateSymmetry:
    def test_classifiers_are_invariant_under_permutations(self, name, rates):
        perm = site_permutation(name, rates.n)
        image, image_of = permute_rates(rates, perm), permuted_configs(rates.n, perm)
        for classifier in CLASSIFIERS:
            before, after = classifier(rates), classifier(image)
            assert after.verdict == before.verdict, (classifier.__name__, perm)
            if before.witness is None:
                continue
            slack = violation_slack(before.property, rates, before.witness)
            assert slack < 0 and before.margin in (None, slack)
            moved = permuted_witness(before.witness, perm, image_of)
            assert violation_slack(before.property, image, moved) == slack, (moved, perm)

    def test_flip_swaps_births_with_deaths(self, name, rates):
        image = flip_rates(rates)
        full = (1 << rates.n) - 1
        for classifier in (is_attractive, has_independent_flips):
            assert classifier(image).verdict == classifier(rates).verdict, classifier.__name__
        witness = is_attractive(rates).witness
        if witness is not None:
            moved = {"site": witness["site"], "lower": full ^ witness["upper"],
                     "upper": full ^ witness["lower"],
                     "kind": "death" if witness["kind"] == "birth" else "birth"}
            slack = violation_slack("attractive", rates, witness)
            assert violation_slack("attractive", image, moved) == slack
        births_constant = all(len(set(table)) == 1 for table in rates.birth)
        assert deaths_constant(image).holds == births_constant

    def test_derivative_at_zero_is_invariant_under_permutations(self, name, rates):
        n = rates.n
        perm = site_permutation(name, n)
        measure = normalize(random_measure(0, n, "generic"))
        gen, image_gen = build_generator(rates), build_generator(permute_rates(rates, perm))
        image = permute(measure, perm)
        for x, y in combinations(range(n), 2):
            others = [z for z in range(n) if z not in (x, y)]
            for k in range(len(others) + 1):
                for zeros in combinations(others, k):
                    poly = association_determinant_poly(n, x, y, zeros)
                    image_poly = association_determinant_poly(
                        n, perm[x], perm[y], [perm[z] for z in zeros])
                    expected = derivative_at_zero(gen, measure, poly)
                    assert type(expected) is Fraction
                    assert derivative_at_zero(image_gen, image, image_poly) == expected

    def test_semigroup_commutes_with_permutations_and_the_flip(self, name, rates):
        n = rates.n
        perm = site_permutation(name, n)
        measure = normalize(random_measure(0, n, "generic"))
        gen = build_generator(rates)
        maps = [(build_generator(permute_rates(rates, perm)), lambda v: permute(v, perm)),
                (build_generator(flip_rates(rates)), flip)]
        for t in SEMIGROUP_TIMES:
            evolved = semigroup_apply(gen, measure, t)
            for image_gen, move in maps:
                image = semigroup_apply(image_gen, move(measure), t).weights
                gap = max(abs(a - b) for a, b in zip(image, move(evolved).weights))
                assert gap <= SEMIGROUP_ROUNDING, (t, move, gap)

"""Symmetry guards: a site permutation relabels configurations and
witnesses, and the global spin flip eta -> 1 - eta reverses the order
and swaps meet with join.  Association and the FKG lattice condition are
invariant under both, downward FKG under permutations, so a change to the
index code (masks, zero slices, pair order) that breaks this shows here.
DCA is invariant under permutations where the closed forms decide it, up
to three sites; at four, a failing tilt witness maps across.

A spin system maps the same way, the flip swapping births with deaths:
the rate classifiers keep their verdicts under permutations, and
attractiveness and independent flips under the flip too, while births
increasing and submodular after the flip are deaths decreasing and
submodular before it (``TestFlipDuals``, with test-local death checks);
the t = 0 derivative of an association determinant is the same number
for the permuted generator, measure and sites; and the semigroup
commutes with both maps within float rounding."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flip, flip_rates, permute, permute_rates, permuted_configs

from spincorr.dynamics import (
    RateTable,
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
from spincorr.harness import (
    MEASURE_MODES,
    corner_flip_system,
    crossed_birth_pair,
    random_measure,
    random_spin_system,
    supermodular_single_birth,
)
from spincorr.lattice import enumerate_up_sets
from spincorr.measures import (
    EXACT,
    ProbabilityMeasure,
    PropertyReport,
    is_associated,
    is_downward_fkg,
    normalize,
    reverify_witness,
    satisfies_lattice,
)
from spincorr.tilts import dca_falsify, reverify_tilt_witness

CHECKS = {"associated": is_associated, "fkg-lattice": satisfies_lattice,
          "downward-fkg": is_downward_fkg}


@st.composite
def measures_and_permutations(draw, max_sites=5):
    """A random_measure draw of any family at n = 2 to ``max_sites``, exact
    or float, and a site permutation."""
    n = draw(st.integers(2, max_sites))
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


class TestDcaSymmetry:
    @settings(max_examples=150, deadline=None)
    @given(measures_and_permutations(max_sites=4))
    def test_dca_is_invariant_where_decided_and_witnesses_map_across(self, drawn):
        """Up to three sites the closed forms decide DCA: verdict and margin
        agree on the permuted measure.  At four sites the tilt family's
        order is not equivariant, so only a failing witness is checked: its
        tilt table and up-sets, mapped across, re-verify on the image to
        the same exact slack, below 0."""
        measure, perm = drawn
        image_of = permuted_configs(measure.n, perm)
        image = permute(measure, perm)
        before = dca_falsify(measure)
        if measure.n <= 3:
            after = dca_falsify(image)
            assert (after.verdict, after.margin) == (before.verdict, before.margin), perm
        if not before.fails:
            return
        witness = dict(before.witness)
        values = [None] * len(image_of)
        for c, value in enumerate(witness["tilt_values"]):
            values[image_of[c]] = value
        witness["tilt_values"] = values
        for key in ("up_set_u", "up_set_v"):
            witness[key] = sorted(image_of[c] for c in witness[key])
        slack = reverify_tilt_witness(measure, before)
        mapped = PropertyReport("dca", before.verdict, witness, before.margin, before.details)
        assert reverify_tilt_witness(image, mapped) == slack < 0


def top_coefficient_system(n: int, site: int) -> RateTable:
    """Births at ``site`` only: each proper nonempty set of the other sites
    adds 1 when the configuration meets it, and the set of all of them
    adds -1/2, so births_additive fails at that top Moebius coefficient
    alone; no deaths."""
    others = (1 << n) - 1 ^ 1 << site
    proper = [a for a in range(1, others) if a & ~others == 0]

    def birth(x, c):
        if x != site or not c & others:
            return Fraction(0)
        return sum(Fraction(1) for a in proper if c & a) - Fraction(1, 2)

    return RateTable.from_site_functions(n, birth, lambda x, c: Fraction(0))


# contact paths on 2-4 sites, seeded draws of every kind at n = 2-4, and
# births that fail additivity only at the top coefficient, at each site
SYSTEMS = [(f"contact_path{k}", contact_process(path_edges(k))) for k in (2, 3, 4)] + [
    (f"{kind} n={n} seed={seed}", random_spin_system(seed, n, kind))
    for kind in ("generic", "attractive", "independent")
    for n in (2, 3, 4)
    for seed in range(6)
] + [(f"top coefficient n={n} site={x}", top_coefficient_system(n, x))
     for n in (3, 4) for x in range(n)]
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


def decreasing_death_slacks(rates) -> dict:
    """death(lower) - death(upper) at every site, by (site, lower, upper)
    for each pair of configurations one site apart."""
    return {(x, lo, lo | 1 << y): rates.death[x][lo] - rates.death[x][lo | 1 << y]
            for x in range(rates.n) for lo in range(1 << rates.n)
            for y in range(rates.n) if not lo >> y & 1}


def submodular_death_slacks(rates) -> dict:
    """death(eta) + death(zeta) - death(or) - death(and) at every site, by
    (site, base, x, y) for each square base, base + x, base + y, base + x + y."""
    return {(s, base, x, y): rates.death[s][base | 1 << x] + rates.death[s][base | 1 << y]
            - rates.death[s][base | 1 << x | 1 << y] - rates.death[s][base]
            for s in range(rates.n) for x, y in combinations(range(rates.n), 2)
            for base in range(1 << rates.n) if not base & (1 << x | 1 << y)}


def flipped_key(prop: str, witness, n: int) -> tuple:
    """The death pair or square of the original system that a birth witness
    of the flipped one names: the flip reverses the order of configurations."""
    full = (1 << n) - 1
    if prop == "increasing-births":
        return witness["site"], full ^ witness["upper"], full ^ witness["lower"]
    x, y = witness["raised"]
    return witness["site"], full ^ witness["base"] ^ 1 << x ^ 1 << y, x, y


def assert_flip_dualizes_births(rates):
    """births_increasing and birth_submodularity of the flipped system hold
    exactly when the deaths are decreasing and submodular; a failing witness
    names the death pair or square with the same slack, below 0, and a
    holding margin is the least death slack."""
    image = flip_rates(rates)
    for classifier, death_slacks in ((births_increasing, decreasing_death_slacks),
                                     (birth_submodularity, submodular_death_slacks)):
        report, slacks = classifier(image), death_slacks(rates)
        assert report.holds == (min(slacks.values()) >= 0), classifier.__name__
        if report.holds:
            assert report.margin == min(slacks.values())
            continue
        slack = violation_slack(report.property, image, report.witness)
        assert report.margin == slack < 0
        assert slacks[flipped_key(report.property, report.witness, rates.n)] == slack


NAMED_SYSTEMS = [(name, system()) for name, system in (
    ("corner_flip", corner_flip_system), ("crossed_birth_pair", crossed_birth_pair),
    ("supermodular_single_birth", supermodular_single_birth))]


class TestFlipDuals:
    @pytest.mark.parametrize("rates", [rates for _, rates in SYSTEMS + NAMED_SYSTEMS],
                             ids=[name for name, _ in SYSTEMS + NAMED_SYSTEMS])
    def test_named_and_seeded_systems(self, rates):
        assert_flip_dualizes_births(rates)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("generic", "attractive", "independent")), st.integers(2, 4),
           st.integers(0, 10**6))
    def test_drawn_systems(self, kind, n, seed):
        assert_flip_dualizes_births(random_spin_system(seed, n, kind))

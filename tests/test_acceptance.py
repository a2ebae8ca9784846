"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from fractions import Fraction
from itertools import islice

import numpy as np
from oracles import (
    determinant_value,
    generator_sum,
    point_mass,
    random_single_site_birth,
    sampled_tilts,
    tilt_table_is_valid,
    trotter_compose,
    uniformized_kernel,
)

from spincorr.dynamics import (
    association_determinant_poly,
    build_generator,
    contact_process,
    derivative_at_zero,
    path_edges,
    semigroup_apply,
    semigroup_apply_expm,
)
from spincorr.harness import (
    corner_flip_system,
    crossed_birth_pair,
    derangement_measure,
    implication_gap_measures,
    random_increasing_table,
    random_measure,
    random_spin_system,
    search_counterexample,
    verify_preservation,
    ExperimentSpec,
)
from spincorr.lattice import configs, single_bit_pairs, up_set_matrix
from spincorr.measures import (
    ProbabilityMeasure,
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
    project_zeros,
    satisfies_lattice,
    tilt,
)
from spincorr.dynamics import RateTable
from spincorr.three_site import classify
from spincorr.tilts import dca_falsify, reverify_tilt_witness

TOL = 1e-9
EPS = Fraction(1, 100)


def _criterion(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def _near_boundary_measure(seed: int) -> WeightVector:
    """Product measures nudged by tiny exact rationals: everything in the
    chain sits at or near equality for these."""
    rng = random.Random(seed * 7919 + 13)
    ps = [Fraction(rng.randrange(1, 16), 16) for _ in range(3)]
    base = ProbabilityMeasure.product(ps).weights
    while True:
        weights = [
            max(Fraction(0), w + Fraction(rng.randrange(-2, 3), 1000)) for w in base
        ]
        if any(weights):
            return WeightVector.exact(weights)


def _three_site_mixture():
    measures = []
    measures += [random_measure(s, 3, "strictly-positive") for s in range(400)]
    measures += [random_measure(s, 3, "generic") for s in range(300)]
    measures += [_near_boundary_measure(s) for s in range(300)]
    return measures


def test_criterion_1_three_site_oracle_equivalence():
    started = time.time()
    measures = _three_site_mixture()
    assert len(measures) >= 1000
    membership = up_set_matrix(3).astype(np.float64)
    disagreements = []
    falsified = []
    for index, vector in enumerate(measures):
        mu = normalize(vector)
        verdicts = classify(mu)
        if verdicts["lattice"] != satisfies_lattice(mu).holds:
            disagreements.append((index, "lattice"))
        if verdicts["downward_fkg"] != is_downward_fkg(mu).holds:
            disagreements.append((index, "downward-fkg"))
        if verdicts["associated"] != is_associated(mu).holds:
            disagreements.append((index, "associated"))
        if not verdicts["dca"]:
            continue
        # the closed-form DCA verdict must survive 1000 sampled valid tilts
        weights = mu.as_float_array()
        tables = []
        for tf in islice(sampled_tilts(3, seed=index), 1000):
            tf.validate()
            tables.append((tf, tf.values_float()))
        stacked = np.stack([h for _, h in tables])
        tilted = stacked * weights[None, :]
        tilted /= tilted.sum(axis=1, keepdims=True)
        # an independent float oracle: min over up-set pairs of mu(U & V) - mu(U) mu(V)
        joint = (tilted[:, None, :] * membership) @ membership.T
        p = tilted @ membership.T
        margins = (joint - p[:, :, None] * p[:, None, :]).min(axis=(1, 2))
        for row in np.nonzero(margins < -1e-12)[0]:
            # float suspicion is only a trigger; the verdict is exact
            tf = tables[int(row)][0]
            exact = is_associated(tilt(mu, tf.values_exact()))
            if exact.fails:
                falsified.append((index, int(row)))
    elapsed = time.time() - started
    _criterion(
        1,
        not disagreements and not falsified and elapsed < 120,
        f"{len(measures)} three-site measures, disagreements={disagreements[:5]}, "
        f"falsified={falsified[:5]}, elapsed={elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_implication_gap_measures_exact():
    gap1, gap2 = implication_gap_measures(EPS)
    v1 = classify(normalize(gap1))
    v2 = classify(normalize(gap2))
    brute1 = (
        satisfies_lattice(gap1).fails
        and is_downward_fkg(normalize(gap1)).holds
        and is_associated(normalize(gap1)).holds
        and dca_falsify(normalize(gap1)).holds
    )
    brute2 = (
        satisfies_lattice(gap2).fails
        and is_downward_fkg(normalize(gap2)).fails
        and is_associated(normalize(gap2)).holds
        and dca_falsify(normalize(gap2)).fails
    )
    ok = (
        v1 == {"lattice": False, "dca": True, "downward_fkg": True, "associated": True}
        and v2 == {"lattice": False, "dca": False, "downward_fkg": False, "associated": True}
        and brute1
        and brute2
    )
    _criterion(2, ok, f"eps=1/100 verdicts: first={v1}, second={v2}")


def test_criterion_3_derangement_measures():
    ok = True
    notes = []
    for k in (3, 4):
        mu = derangement_measure(k)
        assoc = is_associated(mu).holds
        dfkg = is_downward_fkg(mu).holds
        lattice = satisfies_lattice(mu).fails
        ok = ok and assoc and dfkg and lattice
        notes.append(f"k={k}: associated={assoc}, downward_fkg={dfkg}, lattice_fails={lattice}")
    mu4, mu3 = derangement_measure(4), derangement_measure(3)
    for pinned in range(4):
        sub, _ = project_zeros(mu4, [pinned])
        relabels = sub.weights == mu3.weights
        ok = ok and relabels
    notes.append("k=4 conditioned on one zero equals k=3 exactly")
    _criterion(3, ok, "; ".join(notes))


def test_criterion_4_contact_path_downward_fkg():
    started = time.time()
    system = contact_process(path_edges(4), infection=1, recovery=1)
    gen = build_generator(system)
    start = point_mass(4, 0b1111)
    worst = None
    ok = True
    for t in (0.1, 0.5, 1.0, 2.0):
        evolved = semigroup_apply(gen, start, t)
        report = is_downward_fkg(evolved, tolerance=TOL)
        ok = ok and report.holds and report.margin >= -TOL
        if worst is None or report.margin < worst:
            worst = report.margin
    elapsed = time.time() - started
    _criterion(
        4,
        ok and elapsed < 60,
        f"all-ones start, t in (0.1, 0.5, 1.0, 2.0), worst margin {worst:.3e} "
        f">= -1e-9, elapsed={elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_lattice_preservation():
    system = RateTable.independent_flips(3, (1, Fraction(1, 2), 2), (1, 1, Fraction(1, 3)))
    spec = ExperimentSpec(
        system=system,
        property="fkg-lattice",
        times=(0.1, 0.5, 1.0, 2.0),
        measure_mode="lattice",
        measure_count=100,
        seed=2024,
        tolerance=TOL,
    )
    outcome = verify_preservation(spec)
    margins_ok = all(cell.report.margin >= -TOL for cell in outcome.cells)
    flips_ok = outcome.hypotheses_satisfied and outcome.summary == "all-hold" and margins_ok

    corner = corner_flip_system()
    gen = build_generator(corner)
    closed_ok = True
    for seed in range(5):
        mu = normalize(random_measure(seed, 3, "strictly-positive"))
        for t in (0.1, 0.5, 1.0, 2.0):
            out = semigroup_apply(gen, mu, t)
            decay = math.exp(-t)
            for c in configs(3):
                if c in (0b000, 0b111):
                    continue
                closed_ok = closed_ok and abs(
                    float(out.weights[c]) - decay * float(mu.weights[c])
                ) < 1e-10
    corner_spec = ExperimentSpec(
        system=corner,
        property="fkg-lattice",
        times=(0.1, 0.5, 1.0, 2.0),
        measure_mode="lattice",
        measure_count=20,
        seed=77,
        tolerance=TOL,
    )
    corner_outcome = verify_preservation(corner_spec)
    corner_ok = corner_outcome.summary == "all-hold" and all(
        cell.report.margin >= -TOL for cell in corner_outcome.cells
    )
    _criterion(
        5,
        flips_ok and closed_ok and corner_ok,
        f"independent flips on 100 lattice measures: {outcome.summary}; corner-flip "
        f"closed form within 1e-10: {closed_ok}; corner-flip preserves lattice: "
        f"{corner_outcome.summary}",
    )


def test_criterion_6_converse_constructivity():
    system = crossed_birth_pair()
    outcome = search_counterexample("association", system)
    cert = outcome.derivative_certificate
    derivative = Fraction(cert["derivative"]) if cert else Fraction(0)
    grid_ok = cert is not None and all(
        Fraction(cert[key]).denominator <= 8 for key in ("rho", "lambda")
    )
    witness_ok = outcome.found and outcome.witness["report_margin"] < -TOL
    # the serialized witness re-verifies on its own: rebuild, evolve, re-check
    reverified = False
    if outcome.found:
        ps = [Fraction(p) for p in outcome.witness["product_probabilities"]]
        mu = ProbabilityMeasure.product(ps)
        evolved = semigroup_apply(build_generator(system), mu, outcome.witness["t"])
        reverified = is_associated(evolved).fails
    # independent re-derivation of the certificate on the 1/8-grid
    gen = build_generator(system)
    poly = association_determinant_poly(2, 0, 1)
    grid_negative = any(
        derivative_at_zero(gen, ProbabilityMeasure.product([Fraction(i, 8), Fraction(j, 8)]), poly) < 0
        for i in range(1, 8)
        for j in range(1, 8)
    )
    _criterion(
        6,
        witness_ok and derivative < 0 and grid_ok and reverified and grid_negative,
        f"found={outcome.found}, margin={outcome.witness['report_margin']:.2e}, "
        f"derivative={derivative} at rho={cert['rho']}, lambda={cert['lambda']}",
    )


def test_criterion_7_numerical_stack():
    worst_kernel = 0.0
    for seed in range(50):
        n = 2 + seed % 3
        gen = build_generator(random_spin_system(seed, n, "generic"))
        mu = normalize(random_measure(seed + 1000, n, "generic"))
        t = 0.1 + (seed % 10) * 0.49
        fast = semigroup_apply(gen, mu, t).as_float_array()
        oracle = semigroup_apply_expm(gen, mu, t).as_float_array()
        worst_kernel = max(worst_kernel, float(np.abs(fast - oracle).max()))
    kernel_ok = worst_kernel < 1e-10

    worst_semigroup = 0.0
    for seed in range(15):
        n = 2 + seed % 3
        gen = build_generator(random_spin_system(seed, n, "generic"))
        mu = normalize(random_measure(seed + 2000, n, "generic"))
        s, t = 0.3 + 0.1 * seed, 0.9
        twice = semigroup_apply(gen, semigroup_apply(gen, mu, s), t).as_float_array()
        once = semigroup_apply(gen, mu, s + t).as_float_array()
        worst_semigroup = max(worst_semigroup, float(np.abs(twice - once).max()))
    semigroup_ok = worst_semigroup < 1e-10

    worst_derivative = 0.0
    h = 1e-5
    for seed in range(15):
        n = 2 + seed % 3
        gen = build_generator(random_spin_system(seed + 7, n, "generic"))
        mu = normalize(random_measure(seed + 3000, n, "generic"))
        poly = association_determinant_poly(n, 0, 1)
        exact = float(derivative_at_zero(gen, mu, poly))

        def value_at(time_point, gen=gen, mu=mu, poly=poly):
            evolved = semigroup_apply(gen, mu, time_point, tail=1e-16)
            return float(determinant_value(poly, evolved.as_float_array()))

        fd = (-3 * value_at(0.0) + 4 * value_at(h) - value_at(2 * h)) / (2 * h)
        worst_derivative = max(worst_derivative, abs(exact - fd))
    derivative_ok = worst_derivative < 1e-6

    g1 = build_generator(random_spin_system(21, 3, "generic"))
    g2 = build_generator(random_spin_system(22, 3, "generic"))
    mu = normalize(random_measure(21, 3, "generic"))
    exact = semigroup_apply(generator_sum(g1, g2), mu, 1.0).as_float_array()

    def trotter_err(steps):
        out = trotter_compose(g1, g2, mu, 1.0, steps).as_float_array()
        return float(np.abs(out - exact).max())

    ratio = trotter_err(8) / trotter_err(16)
    trotter_ok = 1.7 <= ratio <= 2.3

    _criterion(
        7,
        kernel_ok and semigroup_ok and derivative_ok and trotter_ok,
        f"uniformization vs expm {worst_kernel:.2e} (<1e-10); semigroup "
        f"{worst_semigroup:.2e} (<1e-10); derivative vs FD {worst_derivative:.2e} "
        f"(<1e-6); trotter halving ratio {ratio:.2f} in [1.7, 2.3]",
    )


def _sample_fact_triples(seed: int, n: int):
    """(f, g, h_positive, h_valid, h_supermodular) tables for the kernel facts."""
    rng = random.Random(seed)
    f = [float(v) for v in random_increasing_table(rng, n)]
    g = [float(v) for v in random_increasing_table(rng, n)]
    h_positive = [rng.uniform(0.1, 2.0) for _ in configs(n)]
    h_valid = next(islice(sampled_tilts(n, seed=seed), 3 + seed % 17, None)).values_float()
    # positive and log-supermodular but not necessarily monotone
    site = [rng.uniform(0.25, 2.0) for _ in range(n)]
    pair_boost = {}
    for mask in range(1 << n):
        if mask.bit_count() >= 2 and rng.random() < 0.5:
            pair_boost[mask] = 1.0 + rng.uniform(0.0, 1.5)
    h_super = []
    for c in configs(n):
        v = 1.0
        for x in range(n):
            if c >> x & 1:
                v *= site[x]
        for mask, boost in pair_boost.items():
            if c & mask == mask:
                v *= boost
        h_super.append(v)
    return f, g, h_positive, list(h_valid), h_super


def test_criterion_8_single_site_kernel_facts():
    worst = 0.0
    checked = 0
    for seed in range(20):
        system = random_single_site_birth(seed, 3, seed % 3)
        gen = build_generator(system)
        for t in (0.25, 1.0, 4.0):
            kernel = uniformized_kernel(gen, t)

            def s(values, kernel=kernel):
                return kernel @ np.asarray(values, dtype=np.float64)

            for trial in range(20):
                f, g, h_pos, h_valid, h_super = _sample_fact_triples(seed * 100 + trial, 3)
                # product-correlation bound, pointwise, for positive h
                lhs = s(h_pos) * s(np.asarray(f) * np.asarray(g) * np.asarray(h_pos))
                rhs = s(np.asarray(f) * np.asarray(h_pos)) * s(np.asarray(g) * np.asarray(h_pos))
                worst = min(worst, float((lhs - rhs).min()))
                # evolution keeps valid tilts valid
                evolved_h = s(h_valid)
                ok, reason = tilt_table_is_valid(list(evolved_h), 3, tolerance=TOL)
                assert ok, f"evolved tilt invalid ({reason}) at seed={seed}, t={t}"
                # the evolved ratio stays increasing for log-supermodular h
                ratio = s(np.asarray(f) * np.asarray(h_super)) / s(h_super)
                for lo, hi in single_bit_pairs(3):
                    worst = min(worst, float(ratio[hi] - ratio[lo]))
                checked += 1
    _criterion(
        8,
        worst >= -TOL,
        f"{checked} system/time/triple checks, worst pointwise margin {worst:.3e} >= -1e-9",
    )


def test_criterion_9_chain_audit():
    violations = []
    for seed in range(250):
        mode = ("generic", "strictly-positive")[seed % 2]
        mu = normalize(random_measure(seed, 3, mode))
        lattice = satisfies_lattice(mu).holds
        dfkg = is_downward_fkg(mu).holds
        assoc = is_associated(mu).holds
        dca = classify(mu)["dca"]
        if lattice and not dca:
            violations.append((3, seed, "lattice->dca"))
        if dca and not dfkg:
            violations.append((3, seed, "dca->downward-fkg"))
        if dfkg and not assoc:
            violations.append((3, seed, "downward-fkg->associated"))
    for seed in range(250):
        mode = ("generic", "strictly-positive", "lattice")[seed % 3]
        mu = normalize(random_measure(seed, 4, mode))
        lattice = satisfies_lattice(mu).holds
        dfkg = is_downward_fkg(mu).holds
        assoc = is_associated(mu).holds
        falsifier = dca_falsify(mu, budget=40)
        if lattice and not dfkg:
            violations.append((4, seed, "lattice->downward-fkg"))
        if dfkg and not assoc:
            violations.append((4, seed, "downward-fkg->associated"))
        if lattice and falsifier.fails:
            violations.append((4, seed, "lattice but dca falsified"))
        if falsifier.fails and reverify_tilt_witness(mu, falsifier) >= 0:
            # a tilt violation on a downward-FKG measure would probe the open
            # middle implication, which is fine, but the witness must be sound
            violations.append((4, seed, "unsound dca witness"))
    _criterion(9, not violations, f"500 measures (250 each at n=3, n=4), violations={violations[:5]}")

"""Golden results of the pairwise checkers on seeded inputs.

The expected results in ``golden/checkers.json`` were produced by
``record`` and pin the verdicts, witnesses, margins and work counts of:

- the rate classifiers, through the ``check-rates`` document, on seeded
  generic, attractive and independent rate tables (n = 1-4), among them
  birth and death attractiveness violations at different pairs and
  submodularity failures at different sites;
- ``satisfies_lattice`` on exact and float weights, with and without zero
  weights;
- ``is_associated``, ``is_downward_fkg`` and ``dca_falsify`` (budget 45),
  details included, on every measure family at n = 2-4, exact and in
  floats at the default tolerance and at 0, on edge inputs (near point
  masses, a total past 2^80, a conditioning-tilted lattice draw, the
  derangement measures, ``EDGE_WEIGHTS``) and on a five-site handful
  that reaches the float32 screen, its float64 recheck and the Python-int
  certifier;
- the float twins of that handful and of a lattice draw through
  ``is_associated`` at the default tolerance and at 0, and ``dca_falsify``
  (budget 3) on the float lattice draw and on ``derangement_measure(5)``:
  sweeps whose chunks the float32 screen decides, that fail in their
  first chunk, and whose every chunk lies in the screen's band;
- ``dca_falsify`` at the default budget on two exact five-site measures
  that satisfy (1.3): a lattice draw and the product with p = 3/7.

Comparison is the one of the golden CLI corpus: floats (and float reprs)
within 1e-12, everything else exactly.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from test_association_engine import (
    five_site_underflow_sibling,
    near_point_mass,
    non_dyadic_product,
)
from test_golden_cli import _mismatches
from test_small_measures import EDGE_WEIGHTS

from spincorr.cli import main
from spincorr.harness import derangement_measure, random_measure, random_spin_system
from spincorr.measures import (
    ProbabilityMeasure,
    WeightVector,
    is_associated,
    is_downward_fkg,
    normalize,
    satisfies_lattice,
    tilt,
)
from spincorr.serialize import rate_table_to_dict, report_to_dict
from spincorr.tilts import conditioning_tilt, dca_falsify

GOLDEN = Path(__file__).parent / "golden" / "checkers.json"

SYSTEM_KINDS = ("generic", "attractive", "independent")
MEASURE_FAMILIES = ("generic", "strictly-positive", "lattice", "product")


def _as_floats(vector):
    return WeightVector.floats([float(w) for w in vector.weights])


def edge_measures():
    """(name, measure) of the hand-built edge inputs at n <= 4."""
    past_2_80 = list(normalize(random_measure(0, 4, "strictly-positive")).weights)
    past_2_80[3] += Fraction(1, 3 * 2**80)
    lattice = normalize(random_measure(0, 4, "lattice"))
    out = [
        ("near-point 1e-30 n=4", near_point_mass(4, Fraction(1, 10**30))),
        ("near-point 1e-12 n=4", near_point_mass(4, Fraction(1, 10**12))),
        ("total past 2^80 n=4", WeightVector.exact(past_2_80)),
        ("tilted lattice n=4", tilt(lattice, conditioning_tilt(4, [0, 2], "1/10")[1])),
    ]
    out += [(f"derangement{k}", derangement_measure(k)) for k in (2, 3, 4)]
    return out + [("edge weights", WeightVector.floats(EDGE_WEIGHTS))]


def _report_entries(results, name, measure):
    """The three up-set checkers' reports; a float measure at the default tolerance and at 0."""
    for tolerance in (None,) if measure.mode == "exact" else (None, 0):
        for prop, check in (("associated", is_associated), ("downward-fkg", is_downward_fkg),
                            ("dca", lambda m, tolerance: dca_falsify(m, 45, tolerance=tolerance))):
            report = check(measure, tolerance=tolerance)
            results[f"{prop} {name} tolerance={tolerance}"] = report_to_dict(report)


def _check_rates(workdir, rates) -> dict:
    path = Path(workdir) / "system.json"
    path.write_text(json.dumps(rate_table_to_dict(rates)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-rates", "--input", str(path)])
    document = json.loads(out.getvalue())
    del document["input"]
    return {"exit": code, "stdout": document, "stderr": err.getvalue()}


def record(workdir) -> dict:
    """Every golden entry, keyed by a description of its input."""
    results = {}
    for kind in SYSTEM_KINDS:
        for n in range(1, 5):
            for seed in range(5):
                rates = random_spin_system(seed, n, kind)
                results[f"check-rates {kind} n={n} seed={seed}"] = _check_rates(workdir, rates)
    for family in MEASURE_FAMILIES:
        for n in range(2, 5):
            for seed in range(3):
                vector = random_measure(seed, n, family)
                for mode, weights in (("exact", vector), ("float", _as_floats(vector))):
                    report = satisfies_lattice(weights)
                    results[f"lattice {family} {mode} n={n} seed={seed}"] = report_to_dict(report)
    for family in MEASURE_FAMILIES:
        for n in range(2, 5):
            for seed in range(3):
                vector = random_measure(seed, n, family)
                name = f"{family} n={n} seed={seed}"
                _report_entries(results, f"{name} exact", vector)
                _report_entries(results, f"{name} float", _as_floats(vector))
    for name, measure in edge_measures():
        _report_entries(results, name, measure)
    five_site = [
        ("associated generic n=5 seed=0", is_associated, random_measure(0, 5, "generic")),
        ("associated strictly-positive n=5 seed=0", is_associated,
         random_measure(0, 5, "strictly-positive")),
        ("associated derangement5", is_associated, derangement_measure(5)),
        ("downward-fkg derangement5", is_downward_fkg, derangement_measure(5)),
        ("associated near-point 1e-7 n=5", is_associated, near_point_mass(5, Fraction(1, 10**7))),
        ("associated float32 underflow n=5", is_associated, five_site_underflow_sibling()),
        # exact zeros that float32 rounds either side of 0: only the band keeps them undecided
        ("associated non-dyadic product n=5", is_associated, non_dyadic_product()),
        ("dca budget 3 lattice n=5 seed=0", lambda m: dca_falsify(m, 3),
         random_measure(0, 5, "lattice")),
    ]
    for name, check, measure in five_site:
        results[name] = report_to_dict(check(measure))
    # float mode at five sites: the float32 screen decides, fails in the first chunk or leaves
    # every chunk in its band
    lattice = _as_floats(random_measure(0, 5, "lattice"))
    associated = [("associated lattice n=5 seed=0", lattice)]
    associated += [(name, measure) for name, check, measure in five_site if check is is_associated]
    for name, measure in associated:
        for tolerance in (None, 0):
            report = is_associated(_as_floats(measure), tolerance=tolerance)
            results[f"{name} float tolerance={tolerance}"] = report_to_dict(report)
    results["dca budget 3 lattice n=5 seed=0 float"] = report_to_dict(dca_falsify(lattice, 3))
    results["dca budget 3 derangement5"] = report_to_dict(dca_falsify(derangement_measure(5), 3))
    # exact (1.3) measures over the default budget: every tilt of the family
    for name, measure in (("lattice n=5 seed=0", normalize(random_measure(0, 5, "lattice"))),
                          ("product p=3/7 n=5", ProbabilityMeasure.product([Fraction(3, 7)] * 5))):
        results[f"dca default budget {name} exact"] = report_to_dict(dca_falsify(measure))
    return results


def test_checkers_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(record(tmp_path)))
    assert list(actual) == list(expected)
    problems = [m for key in expected for m in _mismatches(expected[key], actual[key], key)]
    assert not problems, "\n".join(problems[:20])

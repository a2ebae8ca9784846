"""Golden results of the pairwise checkers on seeded inputs.

The expected results in ``golden/checkers.json`` were produced by
``record`` and pin the verdicts, witnesses, margins and work counts of:

- the rate classifiers, through the ``check-rates`` document, on seeded
  generic, attractive and independent rate tables (n = 1-4), among them
  birth and death attractiveness violations at different pairs and
  submodularity failures at different sites;
- ``satisfies_lattice`` on exact and float weights, with and without zero
  weights;
- ``stochastically_dominates`` on exact and float pairs that fail and hold;
- ``is_increasing`` on tables that fail at different pairs and that hold.

Comparison is the one of the golden CLI corpus: floats (and float reprs)
within 1e-12, everything else exactly.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from test_golden_cli import _mismatches

from spincorr.cli import main
from spincorr.harness import random_increasing_table, random_measure, random_spin_system
from spincorr.lattice import is_increasing
from spincorr.measures import (
    ProbabilityMeasure,
    WeightVector,
    normalize,
    satisfies_lattice,
    stochastically_dominates,
)
from spincorr.serialize import rate_table_to_dict, report_to_dict

GOLDEN = Path(__file__).parent / "golden" / "checkers.json"

SYSTEM_KINDS = ("generic", "attractive", "independent")
MEASURE_FAMILIES = ("generic", "strictly-positive", "lattice", "product")


def _as_floats(vector):
    return WeightVector.floats([float(w) for w in vector.weights])


def _check_rates(workdir, rates) -> dict:
    path = Path(workdir) / "system.json"
    path.write_text(json.dumps(rate_table_to_dict(rates)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-rates", "--input", str(path)])
    document = json.loads(out.getvalue())
    del document["input"]
    return {"exit": code, "stdout": document, "stderr": err.getvalue()}


def _domination_pairs(n, seed):
    rng = random.Random(seed * 31 + n)
    lower = normalize(random_measure(seed, n, "generic"))
    upper = normalize(random_measure(seed + 1, n, "strictly-positive"))
    ps = [Fraction(rng.randrange(1, 9), 16) for _ in range(n)]
    qs = [p + Fraction(rng.randrange(0, 8), 16) for p in ps]
    low_prod, high_prod = ProbabilityMeasure.product(ps), ProbabilityMeasure.product(qs)
    return {
        "random": (lower, upper),
        "random-reversed": (upper, lower),
        "product-ordered": (low_prod, high_prod),
        "product-reversed": (high_prod, low_prod),
        "point-masses": (ProbabilityMeasure.point_mass(n, 0), ProbabilityMeasure.point_mass(n, 1)),
    }


def _increasing_inputs(n, seed):
    rng = random.Random(seed * 17 + n)
    increasing = list(random_increasing_table(rng, n))
    dented = list(increasing)
    spot = rng.randrange(1, 1 << n)
    dented[spot] -= 1
    return {
        "random-ints": [rng.randrange(0, 4) for _ in range(1 << n)],
        "increasing": increasing,
        "dented": dented,
        "dented-floats": [float(v) for v in dented],
    }


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
    for n in range(1, 5):
        for seed in range(3):
            for label, (lower, upper) in _domination_pairs(n, seed).items():
                for mode in ("exact", "float"):
                    if mode == "float":
                        lower, upper = _as_floats(lower), _as_floats(upper)
                    report = stochastically_dominates(lower, upper)
                    key = f"domination {label} {mode} n={n} seed={seed}"
                    results[key] = report_to_dict(report)
    for n in range(1, 5):
        for seed in range(4):
            for label, values in _increasing_inputs(n, seed).items():
                ok, pair = is_increasing(values, n)
                results[f"increasing {label} n={n} seed={seed}"] = [ok, pair and list(pair)]
    return results


def test_checkers_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(record(tmp_path)))
    assert list(actual) == list(expected)
    problems = [m for key in expected for m in _mismatches(expected[key], actual[key], key)]
    assert not problems, "\n".join(problems[:20])

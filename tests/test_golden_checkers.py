"""Golden results of the pairwise checkers on seeded inputs.

The expected results in ``golden/checkers.json`` were produced by
``record`` and pin the verdicts, witnesses, margins and work counts of:

- the rate classifiers, through the ``check-rates`` document, on seeded
  generic, attractive and independent rate tables (n = 1-4), among them
  birth and death attractiveness violations at different pairs and
  submodularity failures at different sites;
- ``satisfies_lattice`` on exact and float weights, with and without zero
  weights.

Comparison is the one of the golden CLI corpus: floats (and float reprs)
within 1e-12, everything else exactly.
"""

import contextlib
import io
import json
from pathlib import Path

from test_golden_cli import _mismatches

from spincorr.cli import main
from spincorr.harness import random_measure, random_spin_system
from spincorr.measures import WeightVector, satisfies_lattice
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
    return results


def test_checkers_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(record(tmp_path)))
    assert list(actual) == list(expected)
    problems = [m for key in expected for m in _mismatches(expected[key], actual[key], key)]
    assert not problems, "\n".join(problems[:20])

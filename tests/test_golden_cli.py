"""Golden CLI corpus: every subcommand on every bundled fixture.

The expected documents in ``golden/cli_corpus.json`` were produced by
``run_corpus`` and pin the reports the CLI writes.  Runs use relative
paths inside a scratch directory, so no document carries a path that
depends on where the test runs.  Floats (and float reprs) must agree
within 1e-12; everything else must match exactly.

Search runs cover every system and target at the default budget, where
the budget is never reached, so their documents do not depend on how the
budget is enforced.  The slowest, the contact-path downward-FKG search
(1 764 exhausted evaluations), took 0.05-0.11 s with the Fraction
derivative screen and takes about 0.01 s with the integer one (2-CPU host).
"""

import contextlib
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

from spincorr.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_corpus.json"
TOLERANCE = 1e-12

MEASURES = ("derangement3", "derangement4", "gap_lattice_vs_dca", "gap_downward_fkg_vs_association")
SYSTEMS = ("contact_path4", "corner_flip3", "crossed_birth_pair", "independent_flips3",
           "supermodular_single_birth3")
PROPERTIES = ("associated", "fkg-lattice", "downward-fkg", "dca")
TARGETS = ("association", "downward-fkg")


def corpus_runs() -> list[list[str]]:
    def fx(name):
        return f"fixtures/{name}.json"

    runs = [["fixtures", "--out", "fixtures"]]
    runs += [["check-measure", "--input", fx(m), "--budget", "20"] for m in MEASURES]
    runs += [["classify3", "--input", fx(m)] for m in MEASURES]
    runs += [["classify3", "--input", fx("gap_lattice_vs_dca"), "--format", "markdown"]]
    runs += [["check-rates", "--input", fx(s)] for s in SYSTEMS]
    runs += [
        ["verify-theorem", "--system", fx(s), "--property", p, "--count", "2",
         "--budget", "20", "--t", "0.1,1.0"]
        for s in SYSTEMS for p in PROPERTIES
    ]
    runs += [
        ["search", "--system", fx(s), "--target", t]
        for s in SYSTEMS for t in TARGETS
    ]
    runs += [
        ["evolve", "--input", fx(m), "--system", fx(s), "--t", "0,0.5,2"]
        for m in MEASURES for s in SYSTEMS
    ]
    # at --budget 20 the four-site DCA checks above stop inside the 45
    # conditioning tilts; at --budget 60 these two sweep all 45
    runs += [
        ["verify-theorem", "--system", fx("contact_path4"), "--property", "dca", "--count", "2",
         "--budget", "60", "--t", "0.1,1.0"],
        ["check-measure", "--input", fx("derangement4"), "--budget", "60"],
    ]
    return runs


def run_corpus(workdir) -> dict:
    """Run every corpus entry with ``workdir`` as the current directory."""
    results = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in corpus_runs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            text = out.getvalue()
            document = json.loads(text) if text and "--format" not in argv else text
            results[" ".join(argv)] = {"exit": code, "stdout": document, "stderr": err.getvalue()}
    finally:
        os.chdir(previous)
    return results


def _as_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _mismatches(expected, actual, where="$"):
    """Paths at which ``actual`` departs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(set(expected) ^ set(actual))}"]
        out = []
        for key in expected:
            a, b = expected[key], actual[key]
            if key == "margin" and "margin_float" in expected and a is not None and b is not None:
                # the exact rational twin of margin_float
                a, b = float(Fraction(a)), float(Fraction(b))
            out += _mismatches(a, b, f"{where}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        return [m for i, (a, b) in enumerate(zip(expected, actual))
                for m in _mismatches(a, b, f"{where}[{i}]")]
    if expected == actual and type(expected) is type(actual):
        return []
    floats = isinstance(expected, float) or isinstance(actual, float)
    reprs = isinstance(expected, str) and isinstance(actual, str)
    if floats or reprs:
        a, b = _as_float(expected), _as_float(actual)
        if a is not None and b is not None and math.isclose(a, b, rel_tol=0, abs_tol=TOLERANCE):
            return []
    return [f"{where}: {expected!r} != {actual!r}"]


def test_cli_corpus_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_corpus(tmp_path)
    assert list(actual) == list(expected)
    problems = [m for run in expected for m in _mismatches(expected[run], actual[run], run)]
    assert not problems, "\n".join(problems[:20])


def test_comparison_is_exact_except_for_floats():
    assert not _mismatches({"x": 0.5, "s": "0.25"}, {"x": 0.5 + 1e-13, "s": "0.2500000000001"})
    assert _mismatches({"x": 0.5}, {"x": 0.5 + 1e-9})
    assert _mismatches({"s": "1/3"}, {"s": "1/4"})
    assert _mismatches({"n": 1}, {"n": True})
    assert _mismatches({"a": [1, 2]}, {"a": [1, 2, 3]})

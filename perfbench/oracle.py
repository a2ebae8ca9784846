"""Correctness oracle: judges every operation's result outside the timed region.

Rules, by operation kind:

- ``report``: verdict, witness and margin match the recorded expectation
  (exact margins as exact rationals, float margins within ``FLOAT_TOL``);
  a ``fails`` witness re-evaluates to a strict violation; product and
  derangement measures report margin exactly 0 where they sit on the
  boundary.
- ``semigroup``: the evolved measure agrees with the program's own dense
  oracle, ``semigroup_apply_expm`` (scaling and squaring), within
  ``EXPM_TOL``, and its mass is within ``MASS_TOL`` of 1.  Rungs with
  lambda*t >= 1e4 may instead raise the mass-check ``ValueError``: that is
  the documented defect of the halving recursion, counted in
  ``failed_ratio`` but not as a benchmark failure.
- ``preservation`` and ``search``: the outcome matches the recorded one;
  every witness re-evaluates to a strict violation on a measure evolved by
  ``semigroup_apply_expm``; a derivative certificate is negative.
- ``cli``: the exit code and the written document match the recorded ones.

A report's ``details`` describe how a verdict was reached (work counts,
paths) and are not compared, so engine changes that keep verdicts,
witnesses and margins pass.  Keys present in a result but absent from the
recording are ignored, so new keys may be added.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from fractions import Fraction

import numpy as np

from spincorr import dynamics, measures, tilts
from spincorr.measures import FAILS, PropertyReport
from spincorr.serialize import measure_from_dict, report_from_dict

FLOAT_TOL = 1e-10
EXPM_TOL = 1e-10
MASS_TOL = 1e-12

OK = "ok"
KNOWN_DEFECT = "known-defect"
FAILED = "failed"


# ---------------------------------------------------------------------------
# canonical forms


def plain(value):
    """JSON-ready form: Fractions become 'p/q' strings, tuples lists."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return plain(value.item())
    raise TypeError(f"no canonical form for {type(value).__name__}")


def canon_report(report: PropertyReport) -> dict:
    return {"property": report.property, "verdict": report.verdict,
            "witness": plain(report.witness), "margin": plain(report.margin)}


def canon_preservation(outcome) -> dict:
    return {
        "property": outcome.property,
        "hypotheses": plain(outcome.hypotheses),
        "hypotheses_satisfied": outcome.hypotheses_satisfied,
        "summary": outcome.summary,
        "build_failing": outcome.build_failing,
        "skipped_measures": plain(outcome.skipped_measures),
        "cells": [[c.measure_index, c.t, canon_report(c.report)] for c in outcome.cells],
        "violations": [[c.measure_index, c.t] for c in outcome.violations],
        "witness": _floats_in_witness(plain(outcome.witness)),
    }


def canon_search(outcome) -> dict:
    return {
        "target": outcome.target,
        "found": outcome.found,
        "summary": outcome.summary,
        "evaluations": outcome.evaluations,
        "witness": plain(outcome.witness),
        "derivative_certificate": plain(outcome.derivative_certificate),
    }


def _floats_in_witness(witness):
    # evolved weights travel as repr strings; compare them as floats
    if isinstance(witness, dict) and "evolved_weights" in witness:
        witness = {**witness, "evolved_weights": [float(w) for w in witness["evolved_weights"]]}
    return witness


def canon_cli_document(doc, work: str):
    """A CLI document with the run's work directory and report details removed."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key == "details":
                continue
            if key == "margin" and "margin_float" in doc:
                continue  # the exact expansion of a float margin; margin_float is compared
            out[key] = canon_cli_document(value, work)
        return _floats_in_witness(out)
    if isinstance(doc, list):
        return [canon_cli_document(v, work) for v in doc]
    if isinstance(doc, str) and doc.startswith(work):
        return "<work>" + doc[len(work):]
    return doc


def canonical(op, result, document=None):
    """Canonical form of an operation's result, as recorded and compared."""
    if isinstance(result, BaseException):
        return {"raised": type(result).__name__}
    if op.kind == "report":
        return canon_report(result)
    if op.kind == "preservation":
        return canon_preservation(result)
    if op.kind == "search":
        return canon_search(result)
    if op.kind == "cli":
        return {"exit": result[0], "document": canon_cli_document(document, op.context["work"])}
    return None


def mismatch(expected, actual, where="result"):
    """First difference between a recorded and an actual canonical form."""
    if isinstance(expected, float) and not isinstance(expected, bool):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return f"{where}: expected a number, got {actual!r}"
        if not abs(actual - expected) <= FLOAT_TOL:
            return f"{where}: {actual!r} differs from {expected!r} by more than {FLOAT_TOL}"
        return None
    if type(expected) is not type(actual):
        return f"{where}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, dict):
        for key, value in expected.items():
            if key not in actual:
                return f"{where}: key {key!r} missing"
            found = mismatch(value, actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{where}: length {len(actual)}, expected {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{where}[{i}]")
            if found:
                return found
        return None
    if expected != actual:
        return f"{where}: expected {expected!r}, got {actual!r}"
    return None


# ---------------------------------------------------------------------------
# the store of recorded results


def golden_path(bench_dir, workload):
    return bench_dir / "golden" / f"{workload}.json.gz"


def digest(canon) -> str:
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def read_store(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_store(path, store) -> None:
    path.parent.mkdir(exist_ok=True)
    text = json.dumps(store, sort_keys=True, separators=(",", ":")) + "\n"
    # mtime=0 keeps the file byte-identical for identical content
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def expected_for_draw(path, draw: int) -> dict:
    """Operation id -> recorded canonical result for one draw."""
    store = read_store(path)
    refs = store["draws"].get(str(draw), {})
    return {op_id: store["outputs"][key] for op_id, key in refs.items()}


# ---------------------------------------------------------------------------
# independent re-evaluation


def witness_slack(measure, report: PropertyReport):
    """Exact slack of a failing report's witness on the given measure."""
    if report.property == "dca":
        return tilts.reverify_tilt_witness(measure, report)
    return measures.reverify_witness(measure, report)


def _check_semigroup(op, result):
    ctx = op.context
    if isinstance(result, BaseException):
        if (ctx["known_defect"] and isinstance(result, ValueError)
                and "float measure sums to" in str(result)):
            return KNOWN_DEFECT, None
        return FAILED, f"raised {type(result).__name__}: {result}"
    got = np.array(result.weights, dtype=np.float64)
    mass = abs(float(got.sum()) - 1.0)
    if not mass <= MASS_TOL:
        return FAILED, f"mass off by {mass:.3g}"
    reference = dynamics.semigroup_apply_expm(ctx["gen"], ctx["start"], ctx["t"])
    gap = float(np.max(np.abs(got - np.array(reference.weights, dtype=np.float64))))
    if not gap <= EXPM_TOL:
        return FAILED, f"differs from expm by {gap:.3g}"
    return OK, None


def _search_witness_slack(system, outcome):
    """Slack of a search witness on the product measure evolved by semigroup_apply_expm."""
    w = outcome.witness
    gen = dynamics.build_generator(system)
    start = measures.ProbabilityMeasure.product([Fraction(p) for p in w["product_probabilities"]])
    evolved = dynamics.semigroup_apply_expm(gen, start, w["t"])
    report = PropertyReport(w["report_property"], FAILS, w["report_witness"])
    return measures.reverify_witness(evolved, report)


def _check_witnesses(op, result, document):
    """Re-evaluate every failing witness the result carries; None if all hold."""
    if op.kind == "report" and result.fails:
        if not witness_slack(op.context["measure"], result) < 0:
            return "witness does not re-evaluate to a strict violation"
    if op.kind == "report" and op.context["zero_margin"] and result.margin != 0:
        return f"margin {result.margin} should be exactly 0"
    if op.kind == "search" and result.found:
        if not Fraction(result.derivative_certificate["derivative"]) < 0:
            return "derivative certificate is not negative"
        if not _search_witness_slack(op.context["system"], result) < 0:
            return "search witness does not re-evaluate to a strict violation"
    if op.kind == "preservation" and result.witness is not None:
        if not _preservation_witness_slack(result.witness) < 0:
            return "preservation witness does not re-evaluate to a strict violation"
    if op.kind == "cli" and document is not None:
        return _check_cli_witnesses(document)
    return None


def _preservation_witness_slack(witness):
    # Exactly normalized: reverify_tilt_witness needs an exact total of 1,
    # which float weights rarely have; the verdict is scale invariant.
    evolved = measures.normalize(measures.WeightVector.exact(
        [Fraction(float(x)) for x in witness["evolved_weights"]]))
    report = PropertyReport(witness["report_property"], FAILS, witness["report_witness"])
    return witness_slack(evolved, report)


def _check_cli_witnesses(document):
    command = document.get("command")
    if command == "check-measure":
        measure = measures.normalize(measure_from_dict(document["measure"]))
        for name, doc in document["reports"].items():
            report = report_from_dict(doc)
            if report.fails and not witness_slack(measure, report) < 0:
                return f"{name} witness does not re-evaluate to a strict violation"
    if command == "verify-theorem" and document["outcome"]["witness"] is not None:
        if not _preservation_witness_slack(document["outcome"]["witness"]) < 0:
            return "preservation witness does not re-evaluate to a strict violation"
    return None


def check(op, result, expected, document=None):
    """(status, message) for one operation's result."""
    if op.kind == "semigroup":
        return _check_semigroup(op, result)
    if isinstance(result, BaseException):
        return FAILED, f"raised {type(result).__name__}: {result}"
    if op.kind == "cli":
        code, _, err = result
        if code == 2 or document is None:
            return FAILED, f"exit {code}: {err.strip()}"
    if expected is None:
        return FAILED, "no recorded expectation for this operation"
    found = mismatch(expected, canonical(op, result, document))
    if found:
        return FAILED, found
    found = _check_witnesses(op, result, document)
    if found:
        return FAILED, found
    return OK, None

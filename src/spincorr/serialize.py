"""JSON schemas for measures, rate tables, reports, and experiment outcomes.

Rationals travel as strings like "3/4" so they survive round-trips
unchanged; plain JSON numbers are reserved for float-mode data (evolved
measures, float margins) and integers.  Configuration indexing is the
shared bitmask convention: weight i belongs to the configuration whose
spin at site x is bit x of i.

Every document this package writes carries ``format_version``.  The
``*_to_dict`` functions return JSON-native values, rationals already
converted by ``rational_str`` or ``json_safe`` (which names the field of an
oversized one), so ``dumps`` only formats.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .dynamics import RateTable, contact_process
from .harness import CellOutcome, ExperimentOutcome, SearchOutcome
from .lattice import validate_site_count
from .measures import EXACT, FLOAT, PropertyReport, WeightVector

FORMAT_VERSION = 1

# Largest decimal exponent magnitude a rational string may carry.  Fraction
# expands "1e<k>" into a k-digit integer, in time that grows faster than
# linearly in k, so "1e10000000" would stall every loader; 4 300 is the
# default limit Python puts on the digits of an integer string, which also
# bounds every rational this package writes.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]*)\s*\Z", re.IGNORECASE)


def rational_str(value: Fraction, where: str = "value") -> str:
    """"p/q" for a report; ``where`` names the field in the error raised
    when p or q is past Python's integer-string digit limit."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            f"{where}: exact value exceeds the {MAX_DECIMAL_EXPONENT}-digit output limit"
        ) from None


def parse_rational(value, where: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"{where}: booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent:
            digits = exponent[1].replace("_", "").lstrip("0")
            # the length test keeps int() off a long digit string
            if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"{where}: decimal exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT}"
                )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: cannot parse rational from {value!r}") from exc
    raise ValueError(f"{where}: expected an integer or 'p/q' string, got {type(value).__name__}")


def _site_count(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'n' must be an integer, got {value!r}")
    validate_site_count(value)
    return value


def json_safe(value, where: str = "value"):
    """Recursively convert Fractions to "p/q" strings and tuples to lists.

    ``where`` is the field's name, extended by key and index on the way
    down, for the error of an oversized rational.
    """
    if isinstance(value, Fraction):
        return rational_str(value, where)
    if isinstance(value, (list, tuple)):
        return [json_safe(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        return {str(k): json_safe(v, f"{where}.{k}") for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# measures


def measure_to_dict(measure: WeightVector) -> dict:
    if measure.mode == EXACT:
        weights = [rational_str(w, f"weights[{i}]") for i, w in enumerate(measure.weights)]
    else:
        weights = [float(w) for w in measure.weights]
    return {"n": measure.n, "mode": measure.mode, "weights": weights}


def _weight(value, mode: str, where: str):
    """One JSON weight in ``mode``; a float converts exactly in exact mode."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("weights must be finite")
        return Fraction(value) if mode == EXACT else value
    exact = parse_rational(value, where)
    if mode == EXACT:
        return exact
    try:
        return float(exact)
    except OverflowError:
        raise ValueError(f"{where}: {value!r} is beyond the float64 range") from None


def measure_from_dict(doc: dict, *, force_mode: str | None = None) -> WeightVector:
    if not isinstance(doc, dict):
        raise ValueError("measure document must be a JSON object")
    if "weights" not in doc:
        raise ValueError("measure document is missing 'weights'")
    raw = doc["weights"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("'weights' must be a nonempty array")
    has_floats = any(isinstance(w, float) for w in raw)
    mode = doc.get("mode") or (FLOAT if has_floats else EXACT)
    if force_mode is not None:
        mode = force_mode
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    weights = [_weight(w, mode, f"weights[{i}]") for i, w in enumerate(raw)]
    vector = WeightVector.exact(weights) if mode == EXACT else WeightVector.floats(weights)
    if "n" in doc and _site_count(doc["n"]) != vector.n:
        raise ValueError(f"declared n={doc['n']} but weights imply n={vector.n}")
    return vector


# ---------------------------------------------------------------------------
# spin systems


def rate_table_to_dict(rates: RateTable) -> dict:
    def table(name, rows):
        return {
            str(x): [rational_str(v, f"{name}[{x}][{i}]") for i, v in enumerate(row)]
            for x, row in enumerate(rows)
        }

    return {"n": rates.n, "beta": table("beta", rates.birth), "delta": table("delta", rates.death)}


def rate_table_from_dict(doc: dict) -> RateTable:
    if not isinstance(doc, dict):
        raise ValueError("spin-system document must be a JSON object")
    if doc.get("model") == "contact":
        edges = doc.get("edges")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
        ):
            raise ValueError("contact shorthand needs an 'edges' array of [i, j] integer pairs")
        return contact_process(
            [tuple(e) for e in edges],
            infection=parse_rational(doc.get("lambda", 1), "lambda"),
            recovery=parse_rational(doc.get("delta", 1), "delta"),
            n=None if doc.get("n") is None else _site_count(doc["n"]),
        )
    for key in ("n", "beta", "delta"):
        if key not in doc:
            raise ValueError(f"spin-system document is missing {key!r}")
    n = _site_count(doc["n"])
    size = 1 << n

    def table(block, name):
        if not isinstance(block, dict):
            raise ValueError(f"{name} must be an object mapping sites to rate arrays")
        rows = []
        for x in range(n):
            row = block.get(str(x), block.get(x))
            if row is None:
                raise ValueError(f"{name} is missing site {x}")
            if not isinstance(row, list) or len(row) != size:
                raise ValueError(f"{name}[{x}]: expected an array of {size} rates, got {row!r}")
            rows.append([parse_rational(v, f"{name}[{x}][{i}]") for i, v in enumerate(row)])
        return rows

    return RateTable.from_tables(table(doc["beta"], "beta"), table(doc["delta"], "delta"))


# ---------------------------------------------------------------------------
# reports and outcomes


def report_to_dict(report: PropertyReport) -> dict:
    margin = None if report.margin is None else rational_str(report.margin, "margin")
    out = {
        "property": report.property,
        "verdict": report.verdict,
        "witness": json_safe(report.witness, "witness"),
        "margin": margin,
        "details": json_safe(report.details, "details"),
    }
    if isinstance(report.margin, float):
        out["margin_float"] = report.margin
    return out


def report_from_dict(doc: dict) -> PropertyReport:
    margin = doc.get("margin")
    if "margin_float" in doc:
        margin = doc["margin_float"]
    elif margin is not None:
        margin = Fraction(margin)
    return PropertyReport(
        property=doc["property"],
        verdict=doc["verdict"],
        witness=doc.get("witness"),
        margin=margin,
        details=doc.get("details") or {},
    )


def cell_to_dict(cell: CellOutcome) -> dict:
    return {"measure_index": cell.measure_index, "t": cell.t, "report": report_to_dict(cell.report)}


def experiment_outcome_to_dict(outcome: ExperimentOutcome) -> dict:
    return {
        "property": outcome.property,
        "hypotheses": {name: ok for name, ok in outcome.hypotheses},
        "hypotheses_satisfied": outcome.hypotheses_satisfied,
        "summary": outcome.summary,
        "build_failing": outcome.build_failing,
        "cells": [cell_to_dict(c) for c in outcome.cells],
        "violations": [cell_to_dict(c) for c in outcome.violations],
        "skipped_measures": list(outcome.skipped_measures),
        "witness": json_safe(outcome.witness, "witness"),
    }


def search_outcome_to_dict(outcome: SearchOutcome) -> dict:
    return {
        "target": outcome.target,
        "found": outcome.found,
        "summary": outcome.summary,
        "evaluations": outcome.evaluations,
        "witness": json_safe(outcome.witness, "witness"),
        "derivative_certificate": json_safe(
            outcome.derivative_certificate, "derivative_certificate"
        ),
    }


# ---------------------------------------------------------------------------
# documents


def envelope(command: str, body: dict) -> dict:
    return {"format_version": FORMAT_VERSION, "command": command, **body}


def dumps(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc

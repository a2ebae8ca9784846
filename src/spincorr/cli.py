"""Command-line front end.

Exit codes: 0 all checks passed, 1 a violation was found (or an asserted
property failed), 2 malformed input, usage error, unreadable file, or a
refused budget (such as check-measure on six sites: at most 5 sites for
up-set checks; lattice, rates and dynamics up to 6).  Every run that
exits 0 or 1 emits one machine-readable JSON report (or a markdown
rendering with --format markdown), UTF-8 and newline-terminated; a run
that exits 2 writes only its ``error:`` line.  check-measure checks its
--assert names before it runs any checker.
"""

from __future__ import annotations

import argparse
import sys

from . import fixtures as fixtures_mod
from .harness import (
    DEFAULT_MEASURE_COUNT,
    DEFAULT_MEASURE_MODE,
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_TIME_GRID,
    MEASURE_MODES,
    PROPERTIES,
    SEARCH_TARGETS,
    ExperimentSpec,
    evaluate_property,
    search_counterexample,
    verify_preservation,
)
from .dynamics import (
    birth_submodularity,
    births_additive,
    births_increasing,
    build_generator,
    deaths_constant,
    deaths_constant_on_occupied,
    has_independent_flips,
    is_attractive,
    semigroup_apply,
)
from .lattice import BudgetError
from .measures import DEFAULT_FLOAT_TOLERANCE, WeightVector, normalize
from .serialize import (
    dumps,
    envelope,
    experiment_outcome_to_dict,
    json_safe,
    load_json,
    measure_from_dict,
    measure_to_dict,
    parse_rational,
    rate_table_from_dict,
    report_to_dict,
    search_outcome_to_dict,
)
from .three_site import (
    COORDINATES,
    SYSTEMS,
    classify,
    complement_products,
    from_coordinates,
    margins,
)
from .tilts import DEFAULT_TILT_BUDGET


def _markdown(document) -> str:
    lines = []

    def walk(node, depth):
        pad = "  " * depth
        if isinstance(node, dict):
            for key in sorted(node):
                value = node[key]
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}- **{key}**:")
                    walk(value, depth + 1)
                else:
                    lines.append(f"{pad}- **{key}**: {value}")
        elif isinstance(node, list):
            for value in node:
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(value, depth + 1)
                else:
                    lines.append(f"{pad}- {value}")
        else:
            lines.append(f"{pad}{node}")

    walk(document, 0)
    return "\n".join(lines) + "\n"


def _parse_times(text: str) -> tuple[float, ...]:
    try:
        times = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"--t expects a comma-separated list of times, got {text!r}") from exc
    if not times:
        raise ValueError("--t expects at least one time")
    return times


def _asserted(asserted: str | None, known) -> list[str]:
    """The names in the comma list ``--assert``; one not in ``known`` is a usage error."""
    names = [part.strip() for part in (asserted or "").split(",") if part.strip()]
    for name in names:
        if name not in known:
            raise ValueError(f"--assert names unknown property {name!r}; known: {sorted(known)}")
    return names


def _assert_exit(asserted: str | None, holds: dict[str, bool]) -> int:
    """Exit code for ``--assert``: 1 if a named property fails, else 0."""
    return 1 if any(not holds[name] for name in _asserted(asserted, holds)) else 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_measure(args) -> tuple[dict, int]:
    _asserted(args.asserts, PROPERTIES)  # before the checkers run
    vector = measure_from_dict(load_json(args.input), force_mode=args.mode)
    measure = normalize(vector)
    reports = {
        name: evaluate_property(name, measure, tolerance=args.tolerance, tilt_budget=args.budget)
        for name in PROPERTIES
    }
    return {
        "input": args.input,
        "measure": measure_to_dict(measure),
        "reports": {name: report_to_dict(r) for name, r in reports.items()},
    }, _assert_exit(args.asserts, {name: r.holds for name, r in reports.items()})


def _cmd_check_rates(args) -> tuple[dict, int]:
    rates = rate_table_from_dict(load_json(args.input))
    reports = {
        report.property: report
        for report in (
            is_attractive(rates),
            has_independent_flips(rates),
            deaths_constant(rates),
            deaths_constant_on_occupied(rates),
            births_additive(rates),
            birth_submodularity(rates),
            births_increasing(rates),
        )
    }
    return {
        "input": args.input,
        "n": rates.n,
        "reports": {name: report_to_dict(r) for name, r in reports.items()},
    }, _assert_exit(args.asserts, {name: r.holds for name, r in reports.items()})


def _cmd_evolve(args) -> tuple[dict, int]:
    vector = measure_from_dict(load_json(args.input))
    rates = rate_table_from_dict(load_json(args.system))
    if vector.n != rates.n:  # t = 0 echoes the measure without evolving it
        raise ValueError(f"site counts differ: measure {vector.n} vs generator {rates.n}")
    gen = build_generator(rates)
    measure = normalize(vector)
    evolved = []
    for t in _parse_times(args.t):
        out = measure if t == 0 else semigroup_apply(gen, measure, t)
        evolved.append({"t": t, **measure_to_dict(out)})
    return {"input": args.input, "system": args.system, "evolved": evolved}, 0


def _coords_from_dict(doc: dict) -> WeightVector:
    """Named coordinates a, b1, ..., d as an exact three-site WeightVector."""
    values = {}
    for name in COORDINATES:
        if name not in doc:
            raise ValueError(f"named coordinates are missing {name!r}")
        values[name] = parse_rational(doc[name], name)
        if values[name] < 0:
            raise ValueError(f"coordinate {name} must be nonnegative, got {values[name]!r}")
    return from_coordinates(**values)


def _cmd_classify3(args) -> tuple[dict, int]:
    doc = load_json(args.input)
    if isinstance(doc, dict) and "a" in doc and "weights" not in doc:
        measure = _coords_from_dict(doc)
    else:
        vector = measure_from_dict(doc)
        if vector.n != 3:
            raise ValueError(f"classify3 needs a three-site measure, got n={vector.n}")
        measure = WeightVector(3, vector.as_fractions())
    verdicts = classify(measure)
    return {
        "input": args.input,
        "verdicts": verdicts,
        "margins": json_safe({system: dict(margins(measure, system)) for system in SYSTEMS},
                             "margins"),
        "complement_products": json_safe(dict(complement_products(measure)),
                                         "complement_products"),
    }, _assert_exit(args.asserts, verdicts)


def _cmd_verify_theorem(args) -> tuple[dict, int]:
    rates = rate_table_from_dict(load_json(args.system))
    measures = None
    if args.measures:
        docs = load_json(args.measures)
        if not isinstance(docs, list):
            docs = [docs]
        measures = tuple(measure_from_dict(d) for d in docs)
    spec = ExperimentSpec(
        system=rates,
        property=args.property,
        times=_parse_times(args.t),
        seed=args.seed,
        measure_mode=args.family,
        measure_count=args.count,
        measures=measures,
        tolerance=args.tolerance,
        tilt_budget=args.budget,
    )
    outcome = verify_preservation(spec)
    body = {"system": args.system, "outcome": experiment_outcome_to_dict(outcome)}
    return body, 1 if outcome.violations else 0


def _cmd_search(args) -> tuple[dict, int]:
    rates = rate_table_from_dict(load_json(args.system))
    outcome = search_counterexample(args.target, rates, budget=args.budget)
    body = {"system": args.system, "outcome": search_outcome_to_dict(outcome)}
    return body, 1 if outcome.found else 0


def _cmd_fixtures(args) -> tuple[dict, int]:
    return {"directory": args.out, "written": fixtures_mod.write_fixtures(args.out)}, 0


# ---------------------------------------------------------------------------
# parser


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``spincorr`` parser.  Given ``argv``, only the subcommands it names
    get their arguments and help option: argparse runs only the subparser its
    command token names, so the parse, the help and every error are those of
    ``build_parser()``, which builds all seven."""
    parser = argparse.ArgumentParser(
        prog="spincorr",
        description="Correlation-property checks and spin-system dynamics on {0,1}^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary):
        if argv is None or name in argv:
            return sub.add_parser(name, help=summary)
        sub.add_parser(name, help=summary, add_help=False)
        return None

    def common(p, func, *, tolerance=True):
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=DEFAULT_FLOAT_TOLERANCE,
                           help="margin tolerance for float-mode checks")

    if p := add("check-measure", "run the correlation-property suite on a measure"):
        p.add_argument("--input", required=True, help="measure JSON file")
        p.add_argument("--mode", choices=("exact", "float"), default=None,
                       help="force the arithmetic mode instead of inferring it")
        p.add_argument("--budget", type=int, default=DEFAULT_TILT_BUDGET,
                       help="at most this many soft-conditioning tilts for the DCA check")
        p.add_argument("--seed", type=int, default=0,
                       help="no effect; the DCA tilts are not random")
        p.add_argument("--assert", dest="asserts", default=None,
                       help="comma list of properties that must hold (exit 1 otherwise)")
        common(p, _cmd_check_measure)

    if p := add("check-rates", "run all rate classifiers on a spin system"):
        p.add_argument("--input", required=True, help="spin-system JSON file")
        p.add_argument("--assert", dest="asserts", default=None)
        common(p, _cmd_check_rates, tolerance=False)

    if p := add("evolve", "evolve a measure under a spin system"):
        p.add_argument("--input", required=True, help="measure JSON file")
        p.add_argument("--system", required=True, help="spin-system JSON file")
        p.add_argument("--t", required=True, help="comma list of times")
        common(p, _cmd_evolve, tolerance=False)

    if p := add("classify3", "closed-form verdicts for a three-site measure"):
        p.add_argument("--input", required=True,
                       help="measure JSON file (weights, or named coordinates a,b1..d)")
        p.add_argument("--assert", dest="asserts", default=None)
        common(p, _cmd_classify3, tolerance=False)

    if p := add("verify-theorem", "preservation experiment for one property"):
        p.add_argument("--system", required=True, help="spin-system JSON file")
        p.add_argument("--property", required=True, choices=PROPERTIES)
        p.add_argument("--t", default=",".join(map(str, DEFAULT_TIME_GRID)),
                       help="comma list of times")
        p.add_argument("--measures", default=None,
                       help="JSON file with one measure or an array of measures")
        p.add_argument("--family", default=DEFAULT_MEASURE_MODE, choices=MEASURE_MODES)
        p.add_argument("--count", type=int, default=DEFAULT_MEASURE_COUNT,
                       help="random initial measures to draw")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=DEFAULT_TILT_BUDGET,
                       help="at most this many soft-conditioning tilts per DCA check")
        common(p, _cmd_verify_theorem)

    if p := add("search", "search for a preservation counterexample"):
        p.add_argument("--system", required=True, help="spin-system JSON file")
        p.add_argument("--target", required=True, choices=SEARCH_TARGETS)
        p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                       help="cap on derivative and evolution evaluations")
        common(p, _cmd_search, tolerance=False)

    if p := add("fixtures", "write the bundled fixture corpus"):
        p.add_argument("--out", default="fixtures", help="target directory")
        common(p, _cmd_fixtures, tolerance=False)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        body, code = args.func(args)
        document = envelope(args.command, body)
        text = dumps(document) if args.format == "json" else _markdown(document)
        if args.output:
            data = text.encode("utf-8")  # before the open: an exit-2 run leaves no file
            with open(args.output, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, OSError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

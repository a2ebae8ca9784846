"""The benchmark's workloads: fixed lists of public calls built from a seed.

A workload is built in three steps, which together are the set-up that
``setup_s`` times: importing ``spincorr``, warming the lattice caches, and
generating the operations' inputs from the seed.  An operation is one public
call that returns a report or outcome; its ``call`` looks the function up on
its module at call time, so the tracer's wrappers are seen when installed.

The seed selects one of ``POOL`` input draws; expected outputs for every
draw were recorded from the unoptimised program by ``record.py``.  Each pass
runs in a fresh interpreter, and no operation in a pass repeats another's
arguments, so a cache inside the program cannot turn a later call into a
lookup that no single call by a user gets.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

from spincorr import cli, dynamics, harness, lattice, measures, tilts

POOL = 16

# static-n5
DCA_BUDGET = 2
FAILING_DRAWS_PER_FAMILY = 5

# evolve-search: lambda*t rungs.  Rungs at or above 1e4 lose more than the
# 1e-12 of mass that semigroup_apply tolerates and raise; they stay in as
# the known defect of the halving recursion.  4000-5000 sits at the limit
# and would flap, so the ladder skips it.
# The 750 rung puts the per-pass median operation inside a cluster of rungs
# of like cost instead of at the gap between the 500 and 1000 rungs, where
# it flipped between the two from run to run.
LADDER = (1.0, 10.0, 100.0, 500.0, 750.0, 1000.0, 2000.0, 1e4, 1e5)
KNOWN_DEFECT_LT = 1e4
# Rungs above this, and the searches, take a large share of a pass; they run
# in full passes only, and the light passes give the other operations more
# samples.  The heavy rung runs in the first repeat only, so that there are
# fewer heavy operations than the ten beyond op_tail_s, and the median and
# the tail both fall on rungs that every pass repeats.
HEAVY_LT = 1e4
# The ladder runs several times per pass so that the operation-time
# quantiles rest on many samples of seed-independent work.  Each repeat, in
# each pass, starts from its own measure: a call's cost depends only on
# lambda*t and n, so the repeats time the same work without repeating a call.
LADDER_REPEATS = 4
MAX_PASSES = 64
PRESERVATION_MEASURES = 8

# cli-fixtures
FIXTURE_MEASURES = ("derangement3", "derangement4", "gap_downward_fkg_vs_association",
                    "gap_lattice_vs_dca")
FIXTURE_THREE_SITE = ("derangement3", "gap_downward_fkg_vs_association", "gap_lattice_vs_dca")
FIXTURE_SYSTEMS = ("contact_path4", "corner_flip3", "crossed_birth_pair",
                   "independent_flips3", "supermodular_single_birth3")
PROPERTIES = ("associated", "fkg-lattice", "downward-fkg", "dca")
SEARCH_TARGETS = ("association", "downward-fkg")
CLI_TILT_BUDGET = 60
CLI_MEASURE_COUNT = 4
EVOLVE_RUNS = (("derangement3", "corner_flip3", "0.5,1,2"),
               ("derangement4", "contact_path4", "0.1,1,10"))


# Budget per full pass and per light pass (the operations not marked heavy),
# or None where a workload has no light passes.  A run of S seconds makes
# S // full full passes, at least one, and fills the rest with light passes,
# so the number of samples does not follow the speed of the moment.  The
# figures are not pass durations: they are set so that at S = 30 static-n5
# makes 2 full passes, evolve-search 2 full and 3 light passes, and
# cli-fixtures 6 full passes, and a run ends in about 35-50 s.
NOMINAL_PASS_S = {"static-n5": (15.0, 2.5), "evolve-search": (12.0, 2.0),
                  "cli-fixtures": (5.0, None)}


def plan(workload: str, seconds: float) -> tuple[int, int]:
    """(full passes, light passes) for a run of ``seconds``."""
    full_s, light_s = NOMINAL_PASS_S[workload]
    full = max(1, int(seconds // full_s))
    light = max(0, int((seconds - full * full_s) // light_s)) if light_s else 0
    return full, light


def draw_of(seed: int) -> int:
    return seed % POOL


@dataclass
class Op:
    """One timed public call, with what the oracle needs to judge it."""

    id: str
    call: Callable[[], object]
    # kind selects the oracle rule in oracle.py
    kind: str
    context: dict = field(default_factory=dict)
    # heavy operations run in full passes only; the others in every pass
    heavy: bool = False


def warm_lattice() -> None:
    for n in range(1, 6):
        lattice.enumerate_up_sets(n)
        lattice.up_set_matrix(n)
    lattice.up_set_intersection_table(4)


# ---------------------------------------------------------------------------
# static-n5


def _report_ops(prefix, measure, names, *, zero_margin=(), heavy=()):
    return [
        Op(f"{prefix}.{name}", (lambda name=name: getattr(measures, name)(measure)), "report",
           {"measure": measure, "zero_margin": name in zero_margin}, heavy=name in heavy)
        for name in names
    ]


def build_static(draw: int) -> list[Op]:
    lat = harness.random_measure(draw, 5, "lattice")
    prod = harness.random_measure(draw, 5, "product")
    der = harness.derangement_measure(5)
    # The full sweeps are heavy: light passes repeat the lattice checks and
    # the early-exit sweeps only.
    lattice_ops = _report_ops("lattice", lat, ("satisfies_lattice",)) + [Op(
        "lattice.dca_falsify",
        lambda: tilts.dca_falsify(lat, budget=DCA_BUDGET, seed=draw),
        "report",
        {"measure": lat, "zero_margin": False},
        heavy=True,
    )]
    heavy = [
        lattice_ops,
        _report_ops("product", prod, ("satisfies_lattice",), zero_margin=("satisfies_lattice",)),
        _report_ops("derangement", der, ("satisfies_lattice", "is_associated"),
                    zero_margin=("is_associated",), heavy=("is_associated",)),
    ]
    # The early-exit association sweeps on failing measures all stop after
    # the same first block of pairs, whatever the seed; the median and the
    # tail of a pass fall among them.  Spreading them between the heavy
    # operations samples the machine's speed over the whole pass.
    ops = []
    for i in range(FAILING_DRAWS_PER_FAMILY):
        for family in ("strictly-positive", "generic"):
            m = harness.random_measure(FAILING_DRAWS_PER_FAMILY * draw + i, 5, family)
            ops += _report_ops(f"{family}-{i}", m, ("is_associated",))
        if i < len(heavy):
            ops += heavy[i]
    return ops


# ---------------------------------------------------------------------------
# evolve-search


def _ladder_start_seed(draw: int, pass_index: int, rep: int, system: int) -> int:
    return ((draw * MAX_PASSES + pass_index % MAX_PASSES) * LADDER_REPEATS + rep) * 3 + system


def build_evolve(draw: int, pass_index: int = 0) -> list[Op]:
    ladder_systems = (
        ("contact_path6", dynamics.contact_process(dynamics.path_edges(6))),
        ("attractive6", harness.random_spin_system(draw, 6, "attractive")),
        ("generic5", harness.random_spin_system(draw, 5, "generic")),
    )
    gens = []
    for name, system in ladder_systems:
        gen = dynamics.build_generator(system)
        gen.matrix  # the float matrix is cached on first use
        gens.append((name, gen, float(gen.uniformization_rate)))
    ladder_ops = []
    for rep in range(LADDER_REPEATS):
        rungs = []
        for i, (name, gen, lam) in enumerate(gens):
            start = measures.normalize(harness.random_measure(
                _ladder_start_seed(draw, pass_index, rep, i), gen.n, "generic"))
            rungs += [
                Op(f"ladder.{name}.lt{rung:g}.{rep}",
                   (lambda gen=gen, start=start, t=rung / lam:
                    dynamics.semigroup_apply(gen, start, t)),
                   "semigroup",
                   {"gen": gen, "start": start, "t": rung / lam,
                    "known_defect": rung >= KNOWN_DEFECT_LT},
                   heavy=rung > HEAVY_LT)
                for rung in LADDER if rep == 0 or rung <= HEAVY_LT
            ]
        ladder_ops.append(rungs)
    specs = (
        ("fkg-lattice.independent5", harness.ExperimentSpec(
            harness.random_spin_system(draw, 5, "independent"), "fkg-lattice",
            seed=draw, measure_count=PRESERVATION_MEASURES)),
        ("associated.attractive4", harness.ExperimentSpec(
            harness.random_spin_system(draw, 4, "attractive"), "associated",
            seed=draw, measure_count=PRESERVATION_MEASURES)),
        ("downward-fkg.contact_path4", harness.ExperimentSpec(
            dynamics.contact_process(dynamics.path_edges(4)), "downward-fkg",
            seed=draw, measure_mode="product", measure_count=PRESERVATION_MEASURES)),
    )
    preservation = [
        Op(f"preservation.{name}", (lambda spec=spec: harness.verify_preservation(spec)),
           "preservation", {"system": spec.system})
        for name, spec in specs
    ]
    searches = [
        Op(f"search.{target}.{name}",
           (lambda target=target, system=system: harness.search_counterexample(target, system)),
           "search", {"system": system}, heavy=True)
        for target, name, system in (
            ("downward-fkg", "contact_path5", dynamics.contact_process(dynamics.path_edges(5))),
            ("association", "generic5", harness.random_spin_system(draw, 5, "generic")),
            ("downward-fkg", "generic5", harness.random_spin_system(draw, 5, "generic")),
        )
    ]
    # Ladder repeats alternate with the longer operations, so the quantiles,
    # which fall on ladder rungs, sample the whole pass.
    others = [preservation, searches[:1], searches[1:]]
    ops = []
    for rep, rungs in enumerate(ladder_ops):
        ops += rungs + (others[rep] if rep < len(others) else [])
    return ops


# ---------------------------------------------------------------------------
# cli-fixtures


def _cli_call(argv):
    # The report is captured from standard output, as a shell user would
    # redirect it; writing it to a file would time the file system as well.
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def build_cli(draw: int, work: str) -> list[Op]:
    fx = os.path.join(work, "fixtures")
    ops = []

    def add(op_id, argv):
        ops.append(Op(op_id, _cli_call(argv), "cli", {"work": work, "subcommand": argv[0]}))

    def path(name):
        return os.path.join(fx, f"{name}.json")

    add("fixtures", ["fixtures", "--out", fx])
    for name in FIXTURE_MEASURES:
        add(f"check-measure.{name}", ["check-measure", "--input", path(name),
                                      "--seed", str(draw), "--budget", str(CLI_TILT_BUDGET)])
    for name in FIXTURE_THREE_SITE:
        add(f"classify3.{name}", ["classify3", "--input", path(name)])
    for name in FIXTURE_SYSTEMS:
        add(f"check-rates.{name}", ["check-rates", "--input", path(name)])
    for name in FIXTURE_SYSTEMS:
        for prop in PROPERTIES:
            add(f"verify-theorem.{name}.{prop}", [
                "verify-theorem", "--system", path(name), "--property", prop,
                "--seed", str(draw), "--count", str(CLI_MEASURE_COUNT),
                "--budget", str(CLI_TILT_BUDGET)])
    for name in FIXTURE_SYSTEMS:
        for target in SEARCH_TARGETS:
            add(f"search.{target}.{name}", ["search", "--system", path(name),
                                            "--target", target])
    for measure, system, times in EVOLVE_RUNS:
        add(f"evolve.{measure}.{system}", ["evolve", "--input", path(measure),
                                           "--system", path(system), "--t", times])
    return ops


def read_cli_document(result):
    """The JSON document a CLI operation printed, or None if it printed none."""
    if isinstance(result, BaseException) or not result[1]:
        return None
    return json.loads(result[1])


WORKLOADS = ("static-n5", "evolve-search", "cli-fixtures")


def build(workload: str, draw: int, work: str, pass_index: int = 0) -> list[Op]:
    """The operations of a full pass; only the ladder's start measures vary by pass."""
    if workload == "static-n5":
        return build_static(draw)
    if workload == "evolve-search":
        return build_evolve(draw, pass_index)
    if workload == "cli-fixtures":
        return build_cli(draw, work)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")

"""Span tracing from outside the program, and the per-layer metrics.

Each module of ``spincorr`` imports the names it uses from its siblings, so
one public function can be bound under several module attributes: for
example ``spincorr.tilts.is_associated`` and ``spincorr.harness.is_associated``
are separate bindings of ``spincorr.measures.is_associated``.  The tracer
replaces every such binding with a wrapper that records a span (layer,
start, end, parent span, attributes derived from the call's public
arguments and result) and restores the originals when it is removed.
Nothing under ``src/`` is edited.  Spans stay in memory until written out.
"""

from __future__ import annotations

import contextlib
import math
import time
from fractions import Fraction

from spincorr import cli, dynamics, harness, measures, tilts

LONG_HORIZON = 500.0  # above this lambda*t, uniformization splits the horizon
INT64_TOTAL_LIMIT = 2**31 - 1  # largest scaled total the int64 sweep accepts

CLASSIFIERS = (
    "is_attractive",
    "has_independent_flips",
    "deaths_constant",
    "deaths_constant_on_occupied",
    "births_additive",
    "birth_submodularity",
    "births_increasing",
)
SERIALIZE_LOAD = ("load_json", "measure_from_dict", "rate_table_from_dict")
SERIALIZE_DUMP = (
    "dumps",
    "envelope",
    "measure_to_dict",
    "report_to_dict",
    "experiment_outcome_to_dict",
    "search_outcome_to_dict",
)
CLI_SUBCOMMANDS = (
    "fixtures",
    "check-measure",
    "check-rates",
    "classify3",
    "verify-theorem",
    "search",
    "evolve",
)


# ---------------------------------------------------------------------------
# attributes derived from public arguments and results


def association_path(measure) -> str:
    """Arithmetic path of ``is_associated`` for this argument.

    Float-mode measures take the float sweep.  Exact ones take the int64
    sweep when the weights scaled to a common denominator sum to at most
    2^31 - 1 and n <= 5, and the big-integer sweep otherwise.
    """
    if measure.mode == measures.FLOAT:
        return "float"
    weights = [Fraction(w) for w in measure.weights]
    total = sum(weights)
    weights = [w / total for w in weights]
    denom = math.lcm(*[w.denominator for w in weights])
    scaled_total = sum(int(w * denom) for w in weights)
    if measure.n > 5 or scaled_total > INT64_TOTAL_LIMIT:
        return "bigint"
    return "int64"


def _assoc_attrs(args, kwargs, result):
    if result is None:
        return {}
    report = result
    return {
        "path": association_path(args[0]),
        "n": args[0].n,
        "pairs": report.details.get("pairs_checked", 0),
        "up_sets": report.details.get("up_sets", 0),
    }


def _dfkg_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"n": args[0].n, "slices": result.details.get("subsets_checked", 0)}


def _lattice_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"pairs": result.details.get("pairs_checked", 0)}


def _dca_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"n": args[0].n, "tilts": result.details.get("tilts_sampled", 0)}


def _semigroup_attrs(args, kwargs, result):
    gen, t = args[0], float(args[2])
    return {
        "lt": float(gen.uniformization_rate) * t,
        "n": gen.n,
        "rerun": kwargs.get("tail") == harness.REVERIFY_TAIL,
    }


def _derivative_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"negative": result < 0}


def _search_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"evaluations": result.evaluations, "n": args[1].n}


def _preservation_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"cells": len(result.cells)}


# ---------------------------------------------------------------------------
# the bindings to wrap: (module, attribute, layer, attribute function)


def _bindings():
    out = []

    def add(modules, name, layer, attrs=None):
        for module in modules:
            out.append((module, name, layer, attrs))

    add((measures, tilts, harness), "is_associated", "measures.association", _assoc_attrs)
    add((measures, tilts, harness), "is_downward_fkg", "measures.downward_fkg", _dfkg_attrs)
    add((measures, harness), "satisfies_lattice", "measures.lattice", _lattice_attrs)
    add((tilts, harness), "dca_falsify", "tilts.dca", _dca_attrs)
    add((tilts,), "tilt", "tilts.confirm")
    add((tilts, harness, cli), "classify", "three_site.classify")
    add((dynamics, harness, cli), "semigroup_apply", "dynamics.semigroup", _semigroup_attrs)
    add((dynamics, harness, cli), "build_generator", "dynamics.generator")
    add((harness,), "derivative_at_zero", "dynamics.derivative", _derivative_attrs)
    for name in CLASSIFIERS:
        modules = [m for m in (dynamics, harness, cli) if hasattr(m, name)]
        add(modules, name, "dynamics.classifiers")
    add((harness, cli), "search_counterexample", "harness.search", _search_attrs)
    add((harness, cli), "verify_preservation", "harness.preservation", _preservation_attrs)
    add((harness,), "random_measure", "harness.random_measure")
    for name in SERIALIZE_LOAD:
        add((cli,), name, "serialize.load")
    for name in SERIALIZE_DUMP:
        add((cli,), name, "serialize.dump")
    return out


class Tracer:
    """In-memory span recorder.  ``install`` wraps, ``remove`` restores."""

    def __init__(self):
        self.spans = []  # [id, parent, layer, start, end, attrs, failed]
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, layer, attrs=None):
        """Record the enclosed block as a span of ``layer``."""
        record = self._open(layer, attrs or {})
        failed = True
        try:
            yield record
            failed = False
        finally:
            self._close(record, failed)

    def _open(self, layer, attrs):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  layer, time.perf_counter(), None, attrs, False]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record, failed):
        record[4] = time.perf_counter()
        record[6] = failed
        self._stack.pop()

    def _wrap(self, original, layer, attrs_fn):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(layer, {})
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(record, result is None)
                if attrs_fn is not None:
                    record[5] = attrs_fn(args, kwargs, result)

        traced.__wrapped__ = original
        return traced

    def install(self):
        for module, name, layer, attrs_fn in _bindings():
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, layer, attrs_fn))

    def remove(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()



def dump_spans(spans):
    """Spans as JSON-ready records."""
    return [
        {"id": s[0], "parent": s[1], "layer": s[2], "start": s[3], "end": s[4],
         "attrs": s[5], "failed": s[6]}
        for s in spans
    ]


# ---------------------------------------------------------------------------
# per-layer metrics


def _durations(spans):
    """Per span: duration, self time, and the ids of its children."""
    children = {s[0]: [] for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in children:
            children[s[1]].append(s[0])
    dur = {s[0]: s[4] - s[3] for s in spans}
    self_time = {i: dur[i] - sum(dur[c] for c in children[i]) for i in dur}
    return dur, self_time, children


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics, each a per-pass figure over ``passes`` traced passes.

    ``spans`` holds only the spans of those passes.
    """
    dur, self_time, children = _durations(spans)
    by_id = {s[0]: s for s in spans}
    by_layer = {}
    for s in spans:
        by_layer.setdefault(s[2], []).append(s)
    per = 1.0 / max(passes, 1)

    def calls(layer):
        return len(by_layer.get(layer, ())) * per

    def self_s(layer):
        return sum(self_time[s[0]] for s in by_layer.get(layer, ())) * per

    def total_s(spans_):
        return sum(dur[s[0]] for s in spans_) * per

    def child_spans(span, layer):
        return [by_id[c] for c in children[span[0]] if by_id[c][2] == layer]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    assoc = by_layer.get("measures.association", [])
    pairs = sum(s[5].get("pairs", 0) for s in assoc)
    possible = sum(s[5].get("up_sets", 0) * (s[5].get("up_sets", 0) + 1) // 2 for s in assoc)
    m["measures.association.calls"] = calls("measures.association")
    m["measures.association.self_s"] = self_s("measures.association")
    m["measures.association.pairs"] = pairs * per
    m["measures.association.pairs_per_s"] = ratio(pairs, sum(dur[s[0]] for s in assoc))
    m["measures.association.sweep_share"] = ratio(pairs, possible)
    for path in ("int64", "bigint", "float"):
        on_path = [s for s in assoc if s[5].get("path") == path]
        m[f"measures.association.{path}_calls"] = len(on_path) * per
        m[f"measures.association.{path}_s"] = total_s(on_path)
        n5 = [s for s in on_path if s[5].get("n") == 5]
        m[f"measures.association.{path}_n5_s_per_call"] = ratio(
            sum(dur[s[0]] for s in n5), len(n5)
        )

    dfkg = by_layer.get("measures.downward_fkg", [])
    m["measures.downward_fkg.self_s"] = self_s("measures.downward_fkg")
    m["measures.downward_fkg.slices"] = sum(s[5].get("slices", 0) for s in dfkg) * per
    lat = by_layer.get("measures.lattice", [])
    m["measures.lattice.self_s"] = self_s("measures.lattice")
    m["measures.lattice.pairs"] = sum(s[5].get("pairs", 0) for s in lat) * per

    dca = by_layer.get("tilts.dca", [])
    screen = tilt_loop = 0.0
    tilts_total = confirmations = 0
    for s in dca:
        screen_s = sum(dur[c[0]] for c in child_spans(s, "measures.downward_fkg"))
        confirm = child_spans(s, "tilts.confirm")
        confirm_s = sum(dur[c[0]] for c in confirm)
        # exact confirmation re-checks the tilted measure right after tilting
        confirm_s += sum(
            dur[c[0]] for c in child_spans(s, "measures.association")
            if c[5].get("path") != "float"
        )
        screen += screen_s
        confirmations += len(confirm)
        if s[5].get("tilts"):
            tilts_total += s[5]["tilts"]
            tilt_loop += dur[s[0]] - screen_s - confirm_s
    m["tilts.dca.calls"] = calls("tilts.dca")
    m["tilts.dca.self_s"] = self_s("tilts.dca")
    m["tilts.dca.screen_s"] = screen * per
    m["tilts.dca.tilts"] = tilts_total * per
    m["tilts.dca.s_per_tilt"] = ratio(tilt_loop, tilts_total)
    m["tilts.dca.exact_confirmations"] = confirmations * per

    semi = by_layer.get("dynamics.semigroup", [])
    short = [s for s in semi if s[5].get("lt", 0.0) <= LONG_HORIZON]
    long_ = [s for s in semi if s[5].get("lt", 0.0) > LONG_HORIZON]
    m["dynamics.semigroup.calls"] = calls("dynamics.semigroup")
    m["dynamics.semigroup.self_s"] = self_s("dynamics.semigroup")
    m["dynamics.semigroup.short_s"] = total_s(short)
    m["dynamics.semigroup.long_s"] = total_s(long_)
    m["dynamics.semigroup.failures"] = sum(1 for s in semi if s[6]) * per
    for label, lo, hi in SEMIGROUP_BUCKETS:
        bucket = [s for s in semi if lo < s[5].get("lt", 0.0) <= hi]
        m[f"dynamics.semigroup.{label}_s_per_call"] = ratio(
            sum(dur[s[0]] for s in bucket), len(bucket)
        )

    deriv = by_layer.get("dynamics.derivative", [])
    m["dynamics.derivative.calls"] = calls("dynamics.derivative")
    m["dynamics.derivative.self_s"] = self_s("dynamics.derivative")

    search = by_layer.get("harness.search", [])
    in_search = [d for s in search for d in child_spans(s, "dynamics.derivative")]
    m["harness.search.evaluations"] = sum(s[5].get("evaluations", 0) for s in search) * per
    m["harness.search.self_s"] = self_s("harness.search")
    m["harness.search.candidate_ratio"] = ratio(
        sum(1 for d in in_search if d[5].get("negative")), len(in_search)
    )
    m["harness.search.confirmations"] = sum(
        len(child_spans(s, "dynamics.semigroup")) for s in search
    ) * per

    pres = by_layer.get("harness.preservation", [])
    cells = sum(s[5].get("cells", 0) for s in pres)
    m["harness.preservation.cells"] = cells * per
    m["harness.preservation.self_s"] = self_s("harness.preservation")
    m["harness.preservation.s_per_cell"] = ratio(sum(dur[s[0]] for s in pres), cells)
    m["harness.preservation.reverify_reruns"] = sum(
        1 for s in pres for c in child_spans(s, "dynamics.semigroup") if c[5].get("rerun")
    ) * per

    m["dynamics.generator.calls"] = calls("dynamics.generator")
    m["dynamics.generator.self_s"] = self_s("dynamics.generator")
    m["dynamics.classifiers.self_s"] = self_s("dynamics.classifiers")
    m["three_site.classify.calls"] = calls("three_site.classify")
    m["three_site.classify.self_s"] = self_s("three_site.classify")
    m["serialize.load_s"] = total_s(by_layer.get("serialize.load", []))
    m["serialize.dump_s"] = total_s(by_layer.get("serialize.dump", []))
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.s"] = total_s(by_layer.get(f"cli.{sub}", []))
    m["harness.random_measure.self_s"] = self_s("harness.random_measure")
    return m


# (label, lower exclusive, upper inclusive) buckets of lambda*t
SEMIGROUP_BUCKETS = (
    ("lt_le_1e1", 0.0, 10.0),
    ("lt_le_5e2", 10.0, 500.0),
    ("lt_le_2e3", 500.0, 2000.0),
    ("lt_le_1e4", 2000.0, 1e4),
    ("lt_gt_1e4", 1e4, math.inf),
)


def op_time_by_id(spans, passes: int) -> dict:
    """Per-pass time of each operation span, keyed by its ``op`` attribute."""
    out = {}
    for s in spans:
        label = s[5].get("op")
        if label:
            out[label] = out.get(label, 0.0) + (s[4] - s[3]) / max(passes, 1)
    return out

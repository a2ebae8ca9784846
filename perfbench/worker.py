"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py <workload> <seed> <pass-index> <mode> <result-file>

``mode`` is ``setup`` (time the set-up only), ``plain`` (set up, then run
a full pass untraced), ``light`` (the same for the operations not marked
heavy) or ``traced`` (a full pass with every cross-module binding wrapped
by the tracer).  The set-up is importing ``spincorr``, warming the
lattice caches and building the pass's operations from the seed; its phases
are timed.  Before each operation the cyclic garbage collector runs outside
the timed region, so the collection of earlier garbage does not land in the
next operation's time, while collections the operation itself causes do.
Fixed reference work, run next to and inside each operation, measures the
host's speed of the moment (``reference.py``); the worker reports each
operation's time, net of the reference samples inside it, and its speed
factor.
Every result is judged by the oracle after the pass.  The worker writes one
JSON document to ``result-file``; ``run.py`` starts the workers and
aggregates their documents.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports spincorr, numpy, scipy)

T1 = time.perf_counter()
workloads.warm_lattice()
T2 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent


def call(op):
    try:
        return op.call()
    except Exception as exc:  # recorded and judged by the oracle
        return exc


def run_pass(ops, tracer=None):
    """Run every operation once; returns (per-op seconds, per-op speed factors, results).

    A batch of the reference work runs before the first operation and after
    each one, and untraced operations sample it while they run; the time of
    those samples is taken off the operation's time, and its speed factor
    comes from the samples inside it and the batches on either side of it
    (see reference.py).  Traced passes take no samples inside operations,
    so that span times hold the program's work only.
    """
    reference.reference_once()  # warm-up, not counted
    sampler = reference.Sampler()
    times, factors, results = [], [], []
    before = reference.batch()
    for op in ops:
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            with sampler:
                result = call(op)
            elapsed = time.perf_counter() - t0
            inside = (sampler.seconds, sampler.count)
        else:
            layer = f"cli.{op.context['subcommand']}" if op.kind == "cli" else "op"
            t0 = time.perf_counter()
            with tracer.span(layer, {"op": op.id}):
                result = call(op)
            elapsed = time.perf_counter() - t0
            inside = (0.0, 0)
        after = reference.batch()
        times.append(elapsed - inside[0])
        factors.append(reference.speed_factor(before, inside, after))
        results.append(result)
        before = after
    return times, factors, results


def judge(ops, results, expected):
    import oracle

    counts = {oracle.OK: 0, oracle.KNOWN_DEFECT: 0, oracle.FAILED: 0}
    ledger = []
    for op, result in zip(ops, results):
        document = workloads.read_cli_document(result) if op.kind == "cli" else None
        status, message = oracle.check(op, result, expected.get(op.id), document)
        counts[status] += 1
        if status != oracle.OK:
            ledger.append([status, op.id, message or repr(result)])
    return counts, ledger


def main() -> int:
    workload, seed, pass_index, mode, result_file = sys.argv[1:6]
    draw = workloads.draw_of(int(seed))
    work = str(HERE / "_work" / f"pass-{workload}-{os.getpid()}")
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t3 = time.perf_counter()
        if tracer is None:
            ops = workloads.build(workload, draw, work, int(pass_index))
        else:
            with tracer.span("setup"):
                ops = workloads.build(workload, draw, work, int(pass_index))
        t4 = time.perf_counter()
        if mode == "light":
            ops = [op for op in ops if not op.heavy]
        out = {"setup": {"import_s": T1 - T0, "warm_s": T2 - T1, "inputs_s": t4 - t3,
                         "setup_s": (T2 - T0) + (t4 - t3)},
               "ids": [op.id for op in ops]}
        if mode != "setup":
            import oracle

            expected = oracle.expected_for_draw(oracle.golden_path(HERE, workload), draw)
            setup_spans = len(tracer.spans) if tracer else 0
            times, factors, results = run_pass(ops, tracer)
            if tracer is not None:
                tracer.remove()  # the oracle's own calls are not part of the trace
                out["setup_spans"] = setup_spans
                out["spans"] = tracer.spans
            out["times"] = times
            out["factors"] = factors
            out["counts"], out["ledger"] = judge(ops, results, expected)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(work, ignore_errors=True)
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

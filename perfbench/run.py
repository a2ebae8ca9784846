"""spincorr benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload static-n5 --seed 1 --seconds 30 --trace 0

The run starts one worker (``worker.py``) per pass, each in a fresh
interpreter, so nothing a pass leaves behind in the program's caches reaches
the next.  A worker sets up (imports ``spincorr``, warms the lattice caches,
builds the pass's operations from the seed), runs the fixed list of
operations once ("a pass") and judges every result with the oracle outside
the timed region.  A run makes a fixed number of full passes and of light
passes, which leave out the operations marked heavy (``workloads.plan``).
Next to and inside every operation the worker also times fixed reference
work (``reference.py``): on a shared host the processors' speed drifts by
tens of percent within seconds and between half-minutes, and the
reference's slowdown around an operation is its speed factor.  Each
operation's time is the median over its passes of its time (net of the
reference samples inside it) divided by its speed factor: its time at the
reference speed.  ``wall_s`` is the sum of
those times, ``op_p50_s`` their median and ``op_tail_s`` the highest
percentile with at least ten operations beyond it.  ``setup_s`` is the median of
the workers' set-up times, with set-up-only workers added up to
``SETUP_SAMPLES``; ``peak_rss_mb`` is the largest peak resident memory of a
worker.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported.  With ``--trace 1`` the passes are planned for half the seconds,
each full pass runs once untraced and once traced, and the per-layer
metrics are reported, including the tracing overhead between the two.  The spans are written to
``perfbench/_work/trace-<workload>-seed<seed>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts operations that raised or failed the oracle, apart from
the documented known-defect rungs of evolve-search, which are listed in the
ledger and counted in ``failed_ratio``.
"""

import os
import sys

# Cap BLAS threads at the processor count before numpy is imported.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import spincorr from this checkout's src/, or stop without a result."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import spincorr
    except ImportError as exc:
        fail(f"cannot import spincorr from {SRC}: {exc}")
    if Path(spincorr.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"spincorr imported from {spincorr.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "cpu": cpu,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the capped setting."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (environment)"


# ---------------------------------------------------------------------------
# workers


def run_worker(workload: str, seed: int, pass_index: int, mode: str) -> dict:
    """Run one worker (see worker.py) in a fresh interpreter; its result document."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    result_file = WORK / f"worker-{os.getpid()}-{mode}-{pass_index}.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_index),
             mode, str(result_file)],
            capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            fail(f"{mode} worker {pass_index} exited {proc.returncode}: {proc.stderr.strip()}")
        with open(result_file, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker {pass_index} ran longer than {WORKER_TIMEOUT_S} s")
    finally:
        result_file.unlink(missing_ok=True)


def merge_spans(docs) -> tuple[list, list]:
    """(setup spans, pass spans) of several traced workers, with distinct ids."""
    setup, passes = [], []
    offset = 0
    for doc in docs:
        spans = doc["spans"]
        shifted = [[s[0] + offset, None if s[1] is None else s[1] + offset, *s[2:]]
                   for s in spans]
        setup += shifted[:doc["setup_spans"]]
        passes += shifted[doc["setup_spans"]:]
        offset += len(spans)
    return setup, passes


def op_times(full, light=(), adjusted=True) -> list[float]:
    """Each operation's median time over the passes; see the module docstring.

    ``full`` are documents of full passes, ``light`` of light passes, whose
    operations are a subset of a full pass's.  Adjusted times are raw times
    divided by the operation's speed factor (reference.py).
    """
    ids = full[0]["ids"]
    samples = {op_id: [] for op_id in ids}
    for doc in full:
        if doc["ids"] != ids:
            fail("passes built different operation lists")
    for doc in list(full) + list(light):
        factors = doc["factors"] if adjusted else [1.0] * len(doc["times"])
        for op_id, seconds, factor in zip(doc["ids"], doc["times"], factors):
            if op_id not in samples:
                fail(f"a light pass ran {op_id}, which no full pass runs")
            samples[op_id].append(seconds / factor)
    return [statistics.median(samples[op_id]) for op_id in ids]


def tail(times):
    """(value, percentile, count): the highest percentile with >= 10 operations beyond it."""
    ordered = sorted(times)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


# ---------------------------------------------------------------------------
# main


def parse_args():
    parser = argparse.ArgumentParser(description="spincorr benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    import_program()
    import oracle
    import workloads
    from tracing import dump_spans, layer_metrics, op_time_by_id

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    draw = workloads.draw_of(args.seed)
    golden = oracle.golden_path(HERE, args.workload)
    if not golden.is_file():
        fail(f"no recorded expectations at {golden}")

    env = environment()
    WORK.mkdir(exist_ok=True)
    budget = args.seconds / 2 if args.trace else args.seconds
    full, light = workloads.plan(args.workload, budget)
    # Light passes are spread between the full ones, and plain and traced
    # passes alternate, so drift of the host's speed falls on all alike.
    schedule = []
    for index in range(full):
        share = light * (index + 1) // full - light * index // full
        schedule += ["light"] * (share // 2) + ["plain"] + ["traced"] * args.trace
        schedule += ["light"] * (share - share // 2)
    docs = {"plain": [], "light": [], "traced": []}
    for index, mode in enumerate(schedule):
        docs[mode].append(run_worker(args.workload, args.seed, index, mode))
    setups = [doc["setup"] for doc in docs["plain"] + docs["light"]]
    for index in range(len(setups), SETUP_SAMPLES):
        setups.append(run_worker(args.workload, args.seed, index, "setup")["setup"])

    plain = docs["plain"]
    adjusted = op_times(plain, docs["light"])
    raw = op_times(plain, docs["light"], adjusted=False)
    factors = [f for doc in plain + docs["light"] for f in doc["factors"]]
    counts = {key: sum(doc["counts"][key] for mode in docs for doc in docs[mode])
              for key in (oracle.OK, oracle.KNOWN_DEFECT, oracle.FAILED)}
    ledger = {}
    for mode in docs:
        for doc in docs[mode]:
            for status, op_id, message in doc["ledger"]:
                ledger.setdefault((status, op_id), message)
    attempted = sum(counts.values())
    failed_ratio = (counts[oracle.FAILED] + counts[oracle.KNOWN_DEFECT]) / attempted
    tail_s, tail_pct, op_count = tail(adjusted)
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": sum(adjusted),
        "op_p50_s": statistics.median(adjusted),
        "op_tail_s": tail_s,
        "peak_rss_mb": max(doc["peak_rss_mb"] for doc in plain + docs["light"]),
    }

    print(f"workload {args.workload}  seed {args.seed} (input draw {draw} of "
          f"{workloads.POOL})  full passes {full}  light passes {light}  operations per "
          f"full pass {op_count}")
    print(f"environment {json.dumps(env)}")
    for name, value in e2e.items():
        print(f"  {name:<13} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_ratio':<13} {failed_ratio:.6g} ratio  ({counts[oracle.FAILED]} failed, "
          f"{counts[oracle.KNOWN_DEFECT]} known-defect, of {attempted} attempted)")
    print(f"  {len(schedule)} passes, each in a fresh interpreter; each operation's time is the "
          f"median of its times at the reference speed; op_tail_s is the p{tail_pct:.1f} of the "
          f"{op_count} operations; setup_s is the median of {len(setups)} set-ups")
    print(f"  unadjusted: wall {sum(raw):.6g} s, op p50 {statistics.median(raw):.6g} s, op tail "
          f"{tail(raw)[0]:.6g} s; speed factor median {statistics.median(factors):.4g}, range "
          f"{min(factors):.4g}-{max(factors):.4g} over {len(factors)} operations")
    for (status, op_id), message in sorted(ledger.items()):
        label = ("known defect (ROADMAP item 3, lambda*t >= 1e4)"
                 if status == oracle.KNOWN_DEFECT else "FAILED")
        print(f"  ledger: {label}: {op_id}: {message}")

    if args.trace:
        traced = docs["traced"]
        setup_spans, pass_spans = merge_spans(traced)
        metrics = layer_metrics(pass_spans, len(traced))
        setup_metrics = layer_metrics(setup_spans, len(traced))
        metrics["harness.random_measure.self_s"] += setup_metrics["harness.random_measure.self_s"]
        metrics["lattice.warm_s"] = statistics.median(s["warm_s"] for s in setups)
        span_times = op_time_by_id(pass_spans, len(traced))
        metrics["harness.search.contact_path5_s"] = span_times.get(
            "search.downward-fkg.contact_path5", 0.0)
        metrics["harness.search.contact_path4_s"] = span_times.get(
            "search.downward-fkg.contact_path4", 0.0)
        metrics["trace.overhead_s"] = sum(op_times(traced)) - sum(op_times(plain))
        metrics["failed_ratio"] = failed_ratio
        metrics["ops.tail_percentile"] = tail_pct
        metrics["ops.count"] = op_count
        units = per_layer_units()
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                       "metrics": metrics, "spans": dump_spans(setup_spans + pass_spans)}, fh)
        for name, entry in out.items():
            print(f"  {name:<45} {entry['value']:.6g} {entry['unit']}")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in e2e.items()}

    print(json.dumps({"correct": counts[oracle.FAILED] == 0, "attempted": attempted,
                      "failed": counts[oracle.FAILED], "metrics": out}))
    return 0


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())

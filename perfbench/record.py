"""Record the expected output of every operation for every input draw.

Usage (from the repository root):

    python3 perfbench/record.py <workload> [<workload> ...]

Runs each workload's operations once per draw, judges them with the
oracle's independent checks (witness re-evaluation, expm agreement, exact
zero margins), and writes their canonical results to
``perfbench/golden/<workload>.json.gz``: gzip-compressed JSON with each
distinct canonical result stored once under its digest and, per draw, the
digest of each operation's result.  Draws already in the file are kept, so
an interrupted recording resumes.  Record only from a commit whose
outputs are trusted: the benchmark then holds later commits to them.
"""

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402


def record_draw(workload: str, draw: int, work: str) -> dict:
    ops = workloads.build(workload, draw, work)
    out = {}
    for op in ops:
        try:
            result = op.call()
        except Exception as exc:  # recorded like any other outcome
            result = exc
        document = workloads.read_cli_document(result) if op.kind == "cli" else None
        expected = oracle.canonical(op, result, document)
        status, message = oracle.check(op, result, expected, document)
        if status == oracle.FAILED:
            raise SystemExit(f"draw {draw} {op.id}: {message}")
        if expected is not None:
            out[op.id] = expected
    return out


def main() -> int:
    workloads.warm_lattice()
    for workload in sys.argv[1:]:
        path = oracle.golden_path(HERE, workload)
        store = oracle.read_store(path) if path.is_file() else {"outputs": {}, "draws": {}}
        work = str(HERE / "_work" / f"record-{workload}-{os.getpid()}")
        try:
            for draw in range(workloads.POOL):
                if str(draw) in store["draws"]:
                    continue
                refs = {}
                for op_id, expected in record_draw(workload, draw, work).items():
                    key = oracle.digest(expected)
                    store["outputs"][key] = expected
                    refs[op_id] = key
                store["draws"][str(draw)] = refs
                oracle.write_store(path, store)
                print(f"{workload}: draw {draw} recorded", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

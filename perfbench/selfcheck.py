"""Self-check of the benchmark: every workload once, untraced and traced.

Usage (from the repository root):

    python3 perfbench/selfcheck.py

Each workload runs at its minimal size (one untraced and one traced pass)
on seed 0.  The check asserts that the result line has exactly the
contract's keys, that every end-to-end metric (untraced) and every
per-layer metric (traced) in BENCHMARK.json is emitted with its unit, and
that the oracle passes everywhere except the documented lambda*t >= 1e4
rungs of evolve-search, whose share of the operations bounds
``failed_ratio``.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def known_defects(workload: str) -> tuple[set, float]:
    """Ids of the known-defect operations, and their share of a pass."""
    work = HERE / "_work" / "selfcheck"
    try:
        ops = workloads.build(workload, 0, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    known = {op.id for op in ops if op.context.get("known_defect")}
    return known, len(known) / len(ops)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        known, share = known_defects(workload)
        for trace in (0, 1):
            result, lines = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: oracle failures: {[l for l in lines if 'FAILED' in l]}")
            defects = [l.split(": ")[2] for l in lines if "ledger: known defect" in l]
            if not set(defects) <= known:
                problems.append(f"{where}: known defects outside the lambda*t >= 1e4 rungs")
            # equal to the share while the defect stands; a fix may lower it
            if trace == 1 and result["metrics"]["failed_ratio"]["value"] > share:
                problems.append(f"{where}: failed_ratio exceeds the share of known-defect rungs")
            print(f"{where}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {len(defects)} known-defect rungs")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

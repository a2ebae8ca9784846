"""Rerun the golden corpora and show every entry that moved.

    PYTHONPATH=src python tests/record_goldens.py [--write]

Reruns ``test_golden_cli.run_corpus`` and ``test_golden_checkers.record``,
each in a temporary directory, and compares every entry with its golden
file by the tests' rule (floats and float reprs within 1e-12, everything
else exactly).  For each entry that moved it prints the key, the paths at
which it moved and both documents.  Exits 1 if anything moved, else 0.
``--write`` also stores the fresh result of each moved entry in its golden
file and keeps every other entry as it was, so float noise within the
tolerance (the BLAS kernels of another host) does not churn the files.

Not collected by pytest: the file name does not start with ``test_``.
"""

import argparse
import json
import sys
import tempfile

import test_golden_checkers
import test_golden_cli
from test_golden_cli import _mismatches

CORPORA = (
    (test_golden_cli.GOLDEN, test_golden_cli.run_corpus),
    (test_golden_checkers.GOLDEN, test_golden_checkers.record),
)


def moved_entries(expected: dict, actual: dict) -> dict:
    """Mismatch paths of every key that moved, was added or was dropped."""
    out = {}
    for key in [*expected, *(k for k in actual if k not in expected)]:
        if key not in actual:
            out[key] = [f"{key}: dropped"]
        elif key not in expected:
            out[key] = [f"{key}: added"]
        else:
            problems = _mismatches(expected[key], actual[key], key)
            if problems:
                out[key] = problems
    return out


def show(label: str, document) -> None:
    print(f"{label}:")
    print(json.dumps(document, indent=1) if document is not None else "(none)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="store the fresh results of the moved entries")
    args = parser.parse_args(argv)
    moved = False
    for golden, run in CORPORA:
        expected = json.loads(golden.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory() as workdir:
            actual = json.loads(json.dumps(run(workdir)))
        entries = moved_entries(expected, actual)
        print(f"{golden.name}: {len(actual)} entries, {len(entries)} moved")
        for key, problems in entries.items():
            print(f"\n== {key}")
            print("\n".join(problems))
            show("expected", expected.get(key))
            show("actual", actual.get(key))
        reordered = not entries and list(actual) != list(expected)
        if reordered:
            print(f"{golden.name}: the entries come in another order")
        moved = moved or bool(entries) or reordered
        if args.write:
            kept = {key: actual[key] if key in entries else expected[key] for key in actual}
            golden.write_text(json.dumps(kept, indent=1) + "\n", encoding="utf-8")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

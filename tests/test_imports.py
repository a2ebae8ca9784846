"""Importing spincorr loads no scipy; only the expm cross-check needs it.

Each check runs in a fresh interpreter, since other tests import scipy into
the pytest process.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def probe(code: str) -> str:
    """Run ``code`` in a fresh interpreter with PYTHONPATH=src; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy():
    assert probe(f"import sys, spincorr, spincorr.cli; print({SCIPY_LOADED})") == "[]"


def test_cli_help_loads_no_scipy():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['spincorr', '--help']\n"
        "try:\n"
        "    runpy.run_module('spincorr', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print('scipy:', {SCIPY_LOADED})\n"
    )
    out = probe(code)
    assert "usage: spincorr" in out
    assert out.splitlines()[-1] == "scipy: []"


def test_expm_oracle_imports_scipy_on_first_call():
    code = (
        "import sys\n"
        "from spincorr.dynamics import (build_generator, contact_process, path_edges,\n"
        "                               semigroup_apply_expm)\n"
        "from spincorr.measures import ProbabilityMeasure\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "gen = build_generator(contact_process(path_edges(2)))\n"
        "out = semigroup_apply_expm(gen, ProbabilityMeasure.floats([0, 0, 0, 1]), 1.0)\n"
        "print(round(sum(out.as_float_array()), 12), 'scipy.linalg' in sys.modules)\n"
    )
    assert probe(code) == "1.0 True"

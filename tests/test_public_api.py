"""Every name the package exports has a caller outside the tests.

A name imported by ``spincorr/__init__.py`` must be referenced, as a name
or an attribute, in another module of the package or in the benchmark
(``perfbench/``).  A definition is not a reference, and neither is an
import.  ``trotter_compose`` is exempt: the acceptance suite checks
first-order splitting through it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spincorr"
EXEMPT = {"trotter_compose"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def referenced_names():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    exported = exported_names()
    assert len(exported) > 40
    referenced = referenced_names() | EXEMPT
    unused = [name for name in exported if name not in referenced]
    assert not unused, f"exported but never referenced outside the tests: {unused}"

"""Every name the package exports or defines publicly has a caller outside
the tests.

A name imported by ``spincorr/__init__.py``, and every module-level
function or class of the package whose name does not start with an
underscore, must be referenced, as a name or an attribute, in a module of
the package other than ``__init__.py`` or in the benchmark
(``perfbench/``).  A definition is not a reference, and neither is an
import.  ``EXEMPT`` lists the helpers that only the acceptance suite
(``tests/test_acceptance.py``) calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spincorr"
EXEMPT = {
    # criterion 7 (numerical stack): first-order splitting of two generators
    "trotter_compose",
    # criterion 8 (single-site kernel facts): the systems, their kernels,
    # and the check that an evolved tilt is still a valid tilt
    "random_single_site_birth",
    "uniformized_kernel",
    "tilt_table_is_valid",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def defined_names():
    """Public module-level functions and classes, by module."""
    return [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
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


def test_every_public_definition_has_a_caller():
    defined = defined_names()
    assert len(defined) > 80
    referenced = referenced_names() | EXEMPT
    unused = [f"{module}.{name}" for module, name in defined if name not in referenced]
    assert not unused, f"defined but never referenced outside the tests: {unused}"

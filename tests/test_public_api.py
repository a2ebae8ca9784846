"""Every name the package exports or defines publicly has a caller outside
the tests.

A name imported by ``spincorr/__init__.py``, and every module-level
function or class of the package whose name does not start with an
underscore, must be referenced, as a name or an attribute, in a module of
the package other than ``__init__.py`` or in the benchmark
(``perfbench/``).  Every public method, classmethod and property of a
class of the package must be read as an attribute there.  A definition is
not a reference, and neither is an import.  Helpers that only the tests
need live in the tests (``tests/oracles.py``).

Private code is held to the same rule: every private module-level
function or class and every module-level constant must be loaded, as a
name or an attribute, in a module of the package other than
``__init__.py`` or in the benchmark.
Dunder names such as ``__version__`` are module metadata and exempt.

Every name a module other than ``__init__.py`` imports must be read in
that module, unless it is listed in ``IMPORTED_FOR_THE_TRACER``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spincorr"

# (module, name) imported only so that perfbench/tracing.py can wrap it there
IMPORTED_FOR_THE_TRACER = set()


def parsed_package():
    paths = sorted(PACKAGE.glob("*.py"))
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


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
        for path, tree in parsed_package()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def method_names():
    """Public methods, classmethods and properties, by module and class."""
    return [
        (path.stem, cls.name, node.name)
        for path, tree in parsed_package()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def private_names_and_constants():
    """Private module-level functions and classes, and module-level
    constants (assignment targets), by module."""
    found = []
    for path, tree in parsed_package():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    found.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(path.stem, name.id) for target in targets
                          for name in ast.walk(target) if isinstance(name, ast.Name)
                          and not (name.id.startswith("__") and name.id.endswith("__"))]
    return found


def referencing_nodes():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    for path in sources:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def referenced_names():
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in referencing_nodes()
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def loaded_names():
    """Names and attributes read outside ``__init__.py``, which only
    re-exports; an assignment target is not a read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in referencing_nodes()
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def accessed_attributes():
    return {node.attr for node in referencing_nodes() if isinstance(node, ast.Attribute)}


def test_every_export_has_a_caller():
    exported = exported_names()
    # the walk must find known members, else an empty walk would pass
    assert {"WeightVector", "is_associated", "classify"} <= set(exported)
    referenced = referenced_names()
    unused = [name for name in exported if name not in referenced]
    assert not unused, f"exported but never referenced outside the tests: {unused}"


def test_every_public_definition_has_a_caller():
    defined = defined_names()
    assert {("measures", "WeightVector"), ("three_site", "classify")} <= set(defined)
    referenced = referenced_names()
    unused = [f"{module}.{name}" for module, name in defined if name not in referenced]
    assert not unused, f"defined but never referenced outside the tests: {unused}"


def test_every_public_method_has_a_caller():
    methods = method_names()
    known = {("measures", "WeightVector", "exact"), ("dynamics", "RateTable", "rate")}
    assert known <= set(methods)
    accessed = accessed_attributes()
    unused = [f"{module}.{cls}.{name}" for module, cls, name in methods if name not in accessed]
    assert not unused, f"methods never accessed outside the tests: {unused}"


def test_every_private_definition_and_constant_is_loaded():
    names = private_names_and_constants()
    known = {("measures", "_null_up_sets"), ("measures", "_CERT_BATCH"), ("measures", "EXACT")}
    assert known <= set(names)
    loaded = loaded_names()
    unused = [f"{module}.{name}" for module, name in names if name not in loaded]
    assert not unused, f"defined but never loaded in the package or the benchmark: {unused}"


def module_imports():
    """(module, name, read) for each name a module other than
    ``__init__.py`` imports, ``__future__`` features aside; ``read`` says
    whether the module loads it as a name."""
    found = []
    for path, tree in parsed_package():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [
            (path.stem, name, name in read)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        ]
    return found


def test_every_import_is_read():
    imports = module_imports()
    assert {("measures", "np"), ("cli", "json_safe")} <= {(m, name) for m, name, _ in imports}
    unread = {(module, name) for module, name, read in imports if not read}
    assert IMPORTED_FOR_THE_TRACER <= unread, "listed for the tracer but read after all"
    unused = sorted(f"{module}.{name}" for module, name in unread - IMPORTED_FOR_THE_TRACER)
    assert not unused, f"imported but never read: {unused}"

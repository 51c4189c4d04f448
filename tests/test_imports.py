"""Every module of the package and of the test suite reads each name it
imports.  ``tropmat/__init__.py`` is exempt: its imports are the public API,
which ``__all__`` names exactly.
Every private helper the package defines is read somewhere in the package
or the benchmark, and every class method and function the traced benchmark
patches by name exists where it looks for it.  Importing ``tropmat.cli``
loads no ``dataclasses``, ``argparse`` or ``gettext``, and the geometric route
imports nothing of the residuation oracle.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import tropmat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tropmat").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)


def imported_names(source: str) -> set[str]:
    """The names a module imports, as it binds them; ``__future__`` features
    are not names."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    return imported


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads.  An attribute chain such
    as ``tropmat.cli.main`` reads its first name, ``tropmat``."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported_names(source) - read)


def test_the_scan_finds_unused_imports():
    source = "import os\nimport os.path\nfrom a import b as c, d\nc()\nd = 1\n"
    assert unused_imports(source) == ["d", "os"]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 15
    unused = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text()) for p in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def test_the_public_names_are_the_names_the_package_imports():
    source = (ROOT / "src" / "tropmat" / "__init__.py").read_text()
    assert len(set(tropmat.__all__)) == len(tropmat.__all__)
    assert set(tropmat.__all__) == imported_names(source)


def test_the_geometric_route_does_not_import_the_oracle():
    # the two routes to each answer stay independent: geometry decides from
    # the projective spaces and never asks residuation
    oracle = {"solves_right", "left_residual", "right_residual", "ResidualMatrix"}
    source = (ROOT / "src" / "tropmat" / "geometry.py").read_text()
    assert imported_names(source) & oracle == set()


def private_definitions(source: str) -> set[str]:
    """The private names (one leading underscore) a module binds at its top
    level by ``def``, ``class`` or a plain assignment.  A name an unpacking
    binds is exempt: the unpacking must name every element."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    """The names a module reads, plain or as an attribute (``tm._frac``)."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return read | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_the_scan_finds_private_definitions():
    source = "_a = 1\n_b, c = 2, 3\n_d: int = 4\ndef _f(): _a\nclass _C: _x = 5\n__all__ = []\n"
    assert private_definitions(source) == {"_a", "_d", "_f", "_C"}
    assert names_read(source + "m._g\n") >= {"_a", "_g"}


def test_every_private_helper_of_the_package_is_read():
    readers = PACKAGE + sorted((ROOT / "bench").rglob("*.py"))
    read = set().union(*(names_read(p.read_text()) for p in readers))
    unread = {p.name: sorted(private_definitions(p.read_text()) - read) for p in PACKAGE}
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_traced_benchmark_finds_every_name_it_patches():
    # bench/tracing.py takes each method from its class's own __dict__ and
    # counts functions by name, so a method moved into a base class or a
    # renamed function breaks only the traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for table in (tracing.SPANNED_METHODS, tracing.COUNTED_METHODS):
        for layer, classes in table.items():
            for cls_name, methods in classes.items():
                cls = getattr(getattr(tropmat, layer), cls_name)
                missing += [f"{layer}.{cls_name}.{m}" for m in methods if m not in vars(cls)]
    for layer, names in tracing.COUNTED_FUNCTIONS.items():
        module = getattr(tropmat, layer)
        missing += [
            f"{layer}.{name}"
            for name in names
            if not isinstance(getattr(module, name, None), types.FunctionType)
        ]
    assert missing == []


_COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import tropmat.cli
print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))
"""


def test_the_cli_imports_without_dataclasses():
    # a fresh interpreter without the site hooks, so only the package's own
    # imports load modules; the CLI reads its argv from its own command table,
    # so neither argparse nor the gettext it imports is loaded; the benchmark
    # reads tropmat.sampling and tropmat.verify after importing only
    # tropmat.cli, so both stay eager
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_IMPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
        check=True,
    )
    before, loaded = json.loads(proc.stdout)
    assert {"dataclasses", "argparse", "gettext"}.isdisjoint(before + loaded)
    assert {"tropmat.cli", "tropmat.sampling", "tropmat.verify"} <= set(loaded)

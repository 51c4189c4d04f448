"""Every module of the package and of the test suite reads each name it
imports.  ``tropmat/__init__.py`` names each public name once, in a table
under its defining module, and loads the modules on the first read of a name.
Every private helper the package defines is read somewhere in the package
or the benchmark, and every class method and function the traced benchmark
patches by name exists where it looks for it, as does the scalar product
its per-layer timings call.  Importing ``tropmat.cli``
loads no ``dataclasses``, ``argparse`` or ``gettext``, and none of the
modules its commands run; each command loads only its own.  The geometric
route imports nothing of the residuation oracle, and the tests' max-plus
reference imports nothing but the standard library.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tropmat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tropmat").glob("*.py"))
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py")))


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


def fresh_run(script: str, *argv: str) -> subprocess.CompletedProcess:
    """script run in a fresh interpreter without the site hooks, so only the
    package's own imports load modules."""
    return subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
        check=True,
    )


PUBLIC_NAMES = {
    "BOTTOM", "NEG_INF", "POS_INF", "ConvexSet", "GreenRelation", "GroupType",
    "IdealDescriptor", "IdempotentForm", "IsoType", "Ordering", "ProjPoint",
    "ResidualMatrix", "TropMatrix", "TropScalar", "canonical_set", "d_class_witness",
    "decompose", "embed_image", "embeds_isometrically", "group_type_of_H",
    "idempotent_form", "idempotent_in_H", "ideal_compare", "ideal_contains",
    "ideal_from_generators", "in_idempotent_family", "iso_type", "isometric",
    "j_factorization", "left_residual", "leq_J", "leq_L", "leq_R", "monomial_inverse",
    "parse_matrix", "principal_ideal_of", "proj_column_space", "proj_row_space",
    "regular_witness", "related", "residual_scalar", "right_residual", "solves_right",
    "subgroup_element", "subset", "witness_Z",
}

_BARE_IMPORT = """
import json, sys
import tropmat
unlisted = sorted(set(tropmat.__all__) - set(dir(tropmat)))
loaded = sorted(m for m in sys.modules if m.startswith("tropmat"))
try:
    tropmat.no_such_name
except AttributeError as exc:
    message = str(exc)
unknown = sorted(m for m in sys.modules if m.startswith("tropmat"))
submodules = [tropmat.sampling.__name__, tropmat.verify.__name__]
unbound = sorted(set(tropmat.__all__) - set(vars(tropmat)))
hooked = "__getattr__" in vars(tropmat)
print(json.dumps([unlisted, loaded, message, unknown, submodules, unbound, hooked]))
"""


def test_the_public_names_are_the_names_the_package_imports():
    assert len(tropmat.__all__) == len(PUBLIC_NAMES) == 46
    assert set(tropmat.__all__) == PUBLIC_NAMES
    for owner, names in tropmat._PUBLIC.items():
        module = importlib.import_module(f"tropmat.{owner}")
        assert all(getattr(tropmat, name) is vars(module)[name] for name in names), owner
    star = {}
    exec("from tropmat import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES
    # a fresh interpreter: a bare import loads no submodule but lists every
    # name, an unknown name loads none either, and the submodules the
    # benchmark reads resolve after a bare import
    unlisted, loaded, message, unknown, submodules, unbound, hooked = json.loads(
        fresh_run(_BARE_IMPORT).stdout
    )
    assert unlisted == []
    assert loaded == unknown == ["tropmat"]
    assert message == "module 'tropmat' has no attribute 'no_such_name'"
    assert submodules == ["tropmat.sampling", "tropmat.verify"]
    # the first read binds every public name and removes the hook
    assert unbound == [] and not hooked


def test_the_geometric_route_does_not_import_the_oracle():
    # the two routes to each answer stay independent: geometry decides from
    # the projective spaces and never asks residuation
    oracle = {"solves_right", "left_residual", "right_residual", "ResidualMatrix"}
    source = (ROOT / "src" / "tropmat" / "geometry.py").read_text()
    assert imported_names(source) & oracle == set()


def non_stdlib_imports(source: str) -> set[str]:
    """The modules a source imports from outside the standard library; a
    relative import counts as its dots and module name."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return {m for m in modules if m.split(".")[0] not in sys.stdlib_module_names}


def test_the_max_plus_reference_imports_nothing_of_the_library():
    # the kernels are held to tests/maxplus_reference.py, which must not
    # share their arithmetic, and it leaves every check to its callers
    scan = "import tropmat\nfrom tropmat.matrix import _dot\nfrom . import x\nimport math\n"
    assert non_stdlib_imports(scan) == {"tropmat", "tropmat.matrix", "."}
    source = (ROOT / "tests" / "maxplus_reference.py").read_text()
    assert non_stdlib_imports(source) == set()
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(source)))


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


def test_the_per_layer_timings_find_the_scalar_product():
    # bench/perlayer.py times ``x * y`` on two TropScalars as
    # semiring.scalar_mul_us; no library code multiplies scalars, so without
    # this pin a deleted __mul__ breaks only the traced benchmark run
    source = (ROOT / "bench" / "perlayer.py").read_text()
    assert '"semiring.scalar_mul_us": (lambda x, y: x * y,' in source
    assert "__mul__" in vars(tropmat.TropScalar)


_COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import tropmat.cli
print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))
"""


def test_the_cli_imports_without_dataclasses():
    # the CLI reads its argv from its own command table, so neither argparse
    # nor the gettext it imports is loaded; each handler imports its own
    # modules, so importing the CLI loads only the reader's scalar helpers
    before, loaded = json.loads(fresh_run(_COLD_IMPORT).stdout)
    assert {"dataclasses", "argparse", "gettext"}.isdisjoint(before + loaded)
    assert {"tropmat.sampling", "tropmat.verify"}.isdisjoint(loaded)
    assert {m for m in loaded if m.startswith("tropmat")} == {
        "tropmat",
        "tropmat.cli",
        "tropmat.semiring",
    }


_COMMAND = """
import json, sys
from tropmat.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith("tropmat."))]))
"""

_READER = {"cli", "semiring"}
_RELATE = _READER | {"matrix", "geometry", "green"}
_STRUCTURE = _RELATE | {"structure"}
_EVERY = _STRUCTURE | {"ideals", "sampling", "verify"}
_INT = '[["0","-inf"],["1/2","3"]]'


# Each command kind, an argv that runs it and the tropmat modules it loads.
_COMMAND_MODULES = {
    "classify": (["classify", '[["0","-inf"],["-inf","0"]]'], _STRUCTURE | {"ideals"}),
    "relate": (["relate", "leqJ", _INT, '[["0","1"],["2","5"]]'], _RELATE),
    "regular": (["regular", _INT], _STRUCTURE),
    "witness": (["witness", "--M", "[0,1]", "--N", "[-1,0]"], _RELATE),
    "idempotent": (["idempotent", "--M", "[0,1]", "--N", "[-1,0]"], _STRUCTURE),
    "subgroup": (["subgroup", "--M", "[0,1]", "--N", "[-1,0]"], _STRUCTURE),
    "ideal": (["ideal", "decompose", "openline"], _READER | {"matrix", "geometry", "ideals"}),
    "verify": (["verify", "--suite", "duality", "--samples", "2"], _EVERY),
    "help": (["--help"], _EVERY),
}


@pytest.mark.parametrize("kind", _COMMAND_MODULES)
def test_each_command_loads_only_its_own_modules(kind):
    argv, modules = _COMMAND_MODULES[kind]
    out = fresh_run(_COMMAND, *argv).stdout.splitlines()
    code, loaded = json.loads(out[-1])
    assert code == 0
    assert set(loaded) == modules
    if kind == "help":
        assert f"suites: {', '.join(sorted(tropmat.verify.SUITES))}" in out

"""Every module of the package and of the test suite reads each name it
imports.  ``tropmat/__init__.py`` is exempt: its imports are the public API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "tropmat").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads.  An attribute chain such
    as ``tropmat.cli.main`` reads its first name, ``tropmat``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_the_scan_finds_unused_imports():
    source = "import os\nimport os.path\nfrom a import b as c, d\nc()\nd = 1\n"
    assert unused_imports(source) == ["d", "os"]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 15
    unused = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text()) for p in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}

"""Source hygiene: no module under src/, tests/ or scripts/ imports a name
it never uses.  A name listed in the module's ``__all__`` counts as used,
so package re-exports stay allowed."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def _bound_names(node):
    """(name, line) of every name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    out = []
    for alias in node.names:
        if alias.name == "*":
            continue
        name = alias.asname or alias.name.split(".")[0]
        out.append((name, node.lineno))
    return out


def _exported(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    out.add(elt.value)
    return out


def unused_imports(source):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += _bound_names(node)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported if name not in used)


def test_checker_flags_only_unused_names():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from . import a, b as c\n"
        "__all__ = ['a']\n"
        "def f():\n"
        "    import json\n"
        "    return numpy.linalg.norm(osp.sep)\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "c"), (7, "json")]


def test_no_unused_imports():
    found = [
        f"{path}:{line} imports {name!r}"
        for path in FILES
        for line, name in unused_imports((ROOT / path).read_text())
    ]
    assert not found, "unused imports: " + ", ".join(found)

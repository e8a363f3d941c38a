"""Every module-level import in the nrcx modules is used, or marked
`# noqa` where a name stays only to be imported from that module.  A
deletion then leaves no dead import behind.  No module of nrcx or of its
tests imports one name twice, which a rename can leave behind."""

import ast
from pathlib import Path

import pytest

import nrcx

MODULES = sorted(p for p in Path(nrcx.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each name a module-level import binds that the
    module never reads, unless the import statement says `# noqa`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append((stmt.lineno, name))
    return out


def repeated_imports(source):
    """(line, name) of each module-level import of a name that an
    earlier one already imported, as a mechanical rename leaves behind
    (`import a.b` after `import a` imports another module)."""
    seen, out = set(), []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name
                if name in seen:
                    out.append((stmt.lineno, name))
                seen.add(name)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_name_imported_twice(path):
    assert repeated_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from math import inf, pi  # noqa: F401\n"
              "from sys import (argv,\n"
              "                 path)\n"
              "print(path, os.path)\n")
    assert unused_imports(source) == [(2, "json"), (5, "argv")]


def test_repeated_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from nrcx.frontend import (Var, For,\n"
              "                           Var)\n"
              "from os import path as os\n"
              "import os.path\n"
              "from math import pi\n")
    assert repeated_imports(source) == [(3, "Var"), (5, "os")]

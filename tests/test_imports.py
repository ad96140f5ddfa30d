"""Every imported name in the library and the tests is used.

A static scan with ``ast``: a name bound by an import statement (at any
depth, inside functions too) must be read somewhere in the same module.
``from __future__`` imports and package ``__init__.py`` files, which
import to re-export, are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/nullag/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\ndef f():\n    from e import g\n    return d, np\n"
    assert unused_imports(source) == [(1, "os"), (3, "c"), (5, "g")]


def test_no_unused_imports():
    found = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []

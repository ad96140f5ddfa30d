"""Every imported name in the library and the tests is used, and so is
every library definition and every slot field.

Three static scans with ``ast``.  A name bound by an import statement (at
any depth, inside functions too) must be read somewhere in the same
module; ``from __future__`` imports and package ``__init__.py`` files,
which import to re-export, are skipped.  Every top-level function and
class and every non-dunder method of ``src/nullag`` must be named in
``src/``, ``tests/`` or ``nullbench/`` outside its own definition, as an
identifier, an attribute, an imported name or a part of a dotted string
(the benchmark tracer wraps functions by dotted name).  Every field named
in a ``__slots__`` of ``src/nullag`` must be read as an attribute
(``x.field``) in one of those trees.
"""

import ast
import re
from collections import Counter
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


# ---------------------------------------------------------------------------
# dead definitions
# ---------------------------------------------------------------------------

LIBRARY = sorted(ROOT.glob("src/nullag/*.py"))
REFERRERS = LIBRARY + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("nullbench/*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def named(node):
    """Every name that ``node`` and its descendants mention: identifiers,
    attributes, imported names and the parts of dotted strings."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
            if sub.asname:
                out[sub.asname] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and DOTTED.fullmatch(sub.value):
            out.update(sub.value.split("."))
    return out


def definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("__"):
                    yield "%s.%s" % (node.name, item.name), item


def dead_definitions(library, referrers):
    """Definitions in ``library`` whose name appears nowhere in
    ``referrers`` outside the definition itself."""
    trees = {path: ast.parse(path.read_text()) for path in set(library) | set(referrers)}
    mentions = Counter()
    for path in referrers:
        mentions.update(named(trees[path]))
    return sorted(
        "%s:%s" % (path.name, qualname)
        for path in library
        for qualname, node in definitions(trees[path])
        if mentions[node.name] == named(node)[node.name]
    )


def test_dead_definition_detected(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
        "class C:\n    def named_by_string(self):\n        pass\n\n    def unused(self):\n        pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from lib import used, C\nTARGETS = ('lib.C.named_by_string',)\nused()\n")
    assert dead_definitions([lib], [lib, user]) == ["lib.py:C.unused", "lib.py:recursive"]


def test_no_dead_definitions():
    assert dead_definitions(LIBRARY, REFERRERS) == []


# ---------------------------------------------------------------------------
# dead fields
# ---------------------------------------------------------------------------

def slot_fields(tree):
    """(class name, field) of each name in a class's ``__slots__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                ):
                    fields = ast.literal_eval(item.value)
                    for field in (fields,) if isinstance(fields, str) else fields:
                        yield node.name, field


def dead_fields(library, referrers):
    """Slot fields in ``library`` that no ``referrers`` file reads as an
    attribute (``x.field`` in a load context)."""
    read = {
        sub.attr
        for path in referrers
        for sub in ast.walk(ast.parse(path.read_text()))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return sorted(
        "%s:%s.%s" % (path.name, cls, field)
        for path in library
        for cls, field in slot_fields(ast.parse(path.read_text()))
        if field not in read
    )


def test_dead_field_detected(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class C:\n    __slots__ = ('read', 'written')\n\n    def __init__(self):\n"
        "        self.read = 1\n        self.written = 2\n\n"
        "class D:\n    __slots__ = 'alone'\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from lib import C\nprint(C().read)\n")
    assert dead_fields([lib], [lib, user]) == ["lib.py:C.written", "lib.py:D.alone"]


def test_no_dead_fields():
    assert dead_fields(LIBRARY, REFERRERS) == []

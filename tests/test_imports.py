"""Every imported name in the library and the tests is used, and so is
every library definition and every slot field; every library function is
reached by a command.

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

One dynamic scan: ``nullag.cli.main`` runs a small fixed set of commands
under ``sys.setprofile``, and every non-dunder function and method of the
library, nested ones included, must be called.  A code object is matched
to its definition by ``co_firstlineno``, which is the line of the first
decorator, not of the ``def``.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nullag
from nullag.algebra import QuadraticForm, RationalMatrix
from nullag.cli import main
from nullag.fixtures import kr_family
from nullag.measures import FarkasProblem
from nullag.subspace import minor_polys

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


# ---------------------------------------------------------------------------
# unreached definitions
# ---------------------------------------------------------------------------

def functions(tree):
    """(qualified name, first line) of each function and method at any
    depth; the first line is that of the first decorator, as in the
    ``co_firstlineno`` of the function's code object."""
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                if not isinstance(child, ast.ClassDef):
                    yield prefix + child.name, min([child.lineno] + [d.lineno for d in child.decorator_list])
                stack.append((child, prefix + child.name + "."))
            else:
                stack.append((child, prefix))


def called_lines(directory, run):
    """(file name, ``co_firstlineno``) of each code object of a file in
    ``directory`` that is called while ``run()`` runs."""
    prefix = str(directory) + os.sep
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def unreached(paths, called):
    """Non-dunder functions and methods in ``paths`` whose code object is
    not in ``called``."""
    return sorted(
        "%s:%s" % (path.name, qualname)
        for path in paths
        for qualname, line in functions(ast.parse(path.read_text()))
        if not re.fullmatch(r"__\w+__", qualname.rsplit(".", 1)[-1])
        and (path.name, line) not in called
    )


def test_unreached_definition_detected(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def called():\n    return 1\n\ndef uncalled():\n    return 2\n\n"
        "class C:\n    @staticmethod\n    def decorated():\n        return called()\n"
    )
    spec = importlib.util.spec_from_file_location("lib", lib)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unreached([lib], called_lines(tmp_path, module.C.decorated)) == ["lib.py:uncalled"]


def run_commands(workdir):
    """Every command on a small fixed input set: analyze ending in exit 0,
    10, 20 and 2, k1 in 0, 2 and 3, grassmann-scan and fixtures, then
    verify of each report and of each kind of artifact."""

    def run(*argv, expect):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == expect, argv

    def write(name, obj):
        path = workdir / name
        path.write_text(json.dumps(obj))
        return path

    def report(name):
        return json.loads((workdir / name).read_text())

    fixtures = ("diag-pencil", "sub-k0-random(seed=2208,d=3)", "sub-k0-random(seed=840775,d=2)",
                "K0", "Kr(r=0)")
    for name in fixtures:
        run("fixtures", "dump", name, "--json-out", workdir / ("%s.json" % name), expect=0)
    run("fixtures", "list", expect=0)
    subspaces = [report("%s.json" % name)["subspace"] for name in fixtures]
    # a dense rank-one 4 x 4 line, whose order-4 minors take the Bareiss
    # determinant, and a 3 x 3 pencil with d = 4 through a dyad, which only
    # the rank-one sweep finds
    rng = random.Random(0)
    subspaces.append({"basis": [[[str(a * b) for b in (2, 7, 1, 3)] for a in (5, 1, 4, 2)]]})
    subspaces.append({"basis": [[[str(a * b) for b in (1, 4, 2)] for a in (3, 1, 5)]] + [
        [[str(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)] for _ in range(3)]})
    analyze = [(0, (), 0), (1, (), 0), (2, (), 0), (3, (), 10), (4, (), 10), (4, ("--budget", "4"), 20),
               (5, (), 10), (6, (), 10)]
    reports = []
    for i, (k, args, code) in enumerate(analyze):
        sub = write("sub-%d.json" % k, subspaces[k])
        run("analyze", sub, *args, "--json-out", workdir / ("analyze-%d.json" % i), expect=code)
        reports.append("analyze-%d.json" % i)
    run("analyze", write("bad.json", {"basis": "nope"}), expect=2)
    k1 = [
        ((), 0),
        (("--flux", "v - 0.5*v^3"), 0),
        (("--flux", "v - 0.5*v^3", "--alpha2", "1"), 3),
        (("--flux", "(2-v)^0.5", "--alpha2", "1.95"), 3),
        (("--flux", "v +"), 2),
    ]
    for i, (args, code) in enumerate(k1):
        run("k1", *args, "--json-out", workdir / ("k1-%d.json" % i), expect=code)
        reports.append("k1-%d.json" % i)
    run("grassmann-scan", 2, 4, 4, "--samples", 4, "--json-out", workdir / "scan.json", expect=0)
    reports.append("scan.json")
    reports.append(write("measure.json", report("analyze-4.json")["measure"]).name)
    reports.append(write("certificate.json", report("analyze-1.json")["certificate"]).name)
    reports += ["sub-0.json", "Kr(r=0).json"]
    for name in reports:
        run("verify", workdir / name, expect=0)


def test_every_definition_is_reached_by_a_command(tmp_path):
    def run():
        run_commands(tmp_path)
        # no command calls these; the benchmark's tracer (nullbench/tracer.py
        # TARGETS) names them, and they go with the next change to it
        K = kr_family(0)
        for p in minor_polys(K, 2):
            QuadraticForm.from_poly(p)
        with pytest.raises(ValueError):
            QuadraticForm.from_poly(minor_polys(K, 3)[0])
        assert FarkasProblem([1], [[1]], [1]).A == RationalMatrix([[1]])
        assert RationalMatrix([[2, 4]]).rref() == (RationalMatrix([[1, 2]]), (0,))

    directory = Path(nullag.__file__).parent
    called = called_lines(directory, run)
    # build_parser runs once, at import
    missing = [name for name in unreached(sorted(directory.glob("*.py")), called)
               if name != "cli.py:build_parser"]
    assert missing == []


def test_commands_import_no_scipy(tmp_path):
    # a fresh interpreter runs k1 on a flux expression, a grassmann-scan and
    # an analyze; no scipy module is loaded on the way (scipy is a test
    # dependency only)
    script = """
import contextlib, io, json, sys
from nullag.cli import main
path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["k1", "--flux", "v - 0.5*v^3"]),
             main(["grassmann-scan", "2", "4", "4", "--samples", "4"]),
             main(["fixtures", "dump", "Kr(r=2)", "--json-out", path])]
    json.dump(json.load(open(path))["subspace"], open(path + ".sub", "w"))
    codes.append(main(["analyze", path + ".sub"]))
print(json.dumps([codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]))
"""
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "kr2.json")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 10], []]

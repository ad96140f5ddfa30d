"""A seeded fuzzer over the JSON inputs of the command line.

Fixed documents, a subspace and the reports of ``analyze`` (with a
certificate), a measure, ``k1`` and ``grassmann-scan``, are mutated: keys
dropped, values replaced by null, a bool, 2.5, "", "1/0", [] or {}, list
items duplicated or dropped.  ``analyze`` runs on each mutant of the
subspace and ``verify`` on each mutant of a report, in-process.  Whatever
the mutant, the command must end with one of its exit codes and print one
line of JSON: malformed input is exit 2, never a traceback.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from nullag.cli import main

EXIT_CODES = {0, 1, 2, 3, 10, 20}
REPLACEMENTS = (None, True, 2.5, "", "1/0", [], {})
MUTANTS_PER_DOCUMENT = 100


def run(argv):
    """(exit code, stdout) of ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """{name: (command, document)}: the subspace of quaternion3 for
    ``analyze``, and for ``verify`` its certificate, its analyze report, the
    measure of Kr(r=0), a k1 report and a grassmann-scan report."""
    tmp = tmp_path_factory.mktemp("fuzz-base")

    def report(*argv):
        path = tmp / "report.json"
        code, _ = run(list(argv) + ["--json-out", str(path)])
        assert code in EXIT_CODES
        return json.loads(path.read_text())

    subspace = report("fixtures", "dump", "quaternion3")["subspace"]
    (tmp / "quaternion3.json").write_text(json.dumps(subspace))
    analyzed = report("analyze", str(tmp / "quaternion3.json"))
    kr0 = report("fixtures", "dump", "Kr(r=0)")["subspace"]
    (tmp / "kr0.json").write_text(json.dumps(kr0))
    return {
        "subspace": ("analyze", subspace),
        "analyze": ("verify", analyzed),
        "certificate": ("verify", analyzed["certificate"]),
        "measure": ("verify", report("analyze", str(tmp / "kr0.json"))["measure"]),
        "k1": ("verify", report("k1")),
        "grassmann-scan": ("verify", report("grassmann-scan", "2", "4", "4", "--samples", "3")),
    }


def not_json(constant):
    """Refuse the NaN and Infinity that ``json`` writes and reads but JSON
    does not have."""
    raise ValueError("%s is not JSON" % constant)


def paths(node, path=()):
    """Every path from the root to a value of the JSON document."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, path + (i,))


def mutate(document, rng):
    """A copy of the document with one to three random mutations, each at
    a uniformly drawn depth, so a top-level key is as likely a target as
    one entry of a matrix."""
    document = copy.deepcopy(document)
    for _ in range(rng.choice((1, 1, 2, 3))):
        by_depth = {}
        for path in paths(document):
            by_depth.setdefault(len(path), []).append(path)
        del by_depth[0]
        if not by_depth or rng.random() < 0.02:  # the document itself
            return copy.deepcopy(rng.choice(REPLACEMENTS))
        path = rng.choice(by_depth[rng.choice(list(by_depth))])
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        kind = rng.randrange(3)
        if kind == 0:  # drop the key or the list item
            del parent[last]
        elif kind == 1 and isinstance(parent, list):  # duplicate the list item
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            parent[last] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return document


def test_mutated_inputs_exit_cleanly_with_one_json_line(documents, tmp_path):
    rng = random.Random(2024)
    path = tmp_path / "mutant.json"
    seen = {}
    for name, (command, document) in documents.items():
        for i in range(MUTANTS_PER_DOCUMENT):
            mutant = mutate(document, rng)
            path.write_text(json.dumps(mutant))
            try:
                code, out = run([command, str(path)])
            except Exception as exc:
                pytest.fail("%s on mutant %s #%d raised %r: %s"
                            % (command, name, i, exc, json.dumps(mutant)[:2000]))
            where = "%s on mutant %s #%d" % (command, name, i)
            assert code in EXIT_CODES, where
            assert out.count("\n") == 1 and out.endswith("\n"), where
            assert isinstance(json.loads(out, parse_constant=not_json), dict), where
            seen.setdefault(name, set()).add(code)
    # every document has mutants refused as malformed, and the mutants
    # reach past the schema checks: some still decide or verify, and some
    # that parse fail verification
    assert all(2 in codes for codes in seen.values()), seen
    assert {0, 1} <= set().union(*seen.values()), seen

"""The benchmark's span recorder still resolves every name it wraps.

``nullbench/tracer.py`` wraps library functions by dotted name; renaming or
deleting one of them breaks the traced benchmark run.  ``install`` looks up
every ``TARGETS`` name and fails on the first that no longer resolves.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "nullbench"))

import tracer  # noqa: E402


def test_tracer_targets_resolve_and_restore():
    import nullag.algebra as algebra

    minor = algebra.minor
    t = tracer.Tracer()
    try:
        t.install()
        assert algebra.minor is not minor
    finally:
        t.uninstall()
    assert algebra.minor is minor

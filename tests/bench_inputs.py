"""Inputs of the benchmark's workloads, drawn by ``nullbench/workloads.py``.

The benchmark directory is not a package, so its generator module is
loaded from its path.
"""

import functools
import importlib.util
from pathlib import Path


@functools.cache
def _workloads():
    path = Path(__file__).resolve().parents[1] / "nullbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nullbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sym3_open_pool(count):
    """The first ``count`` bases of the ``sym3-open`` pool."""
    return _workloads().sym3_open_pool(count)


def k1_draws(seed, positive):
    """(flux, alpha1, alpha2) of the ``numeric-probes`` k1 runs at ``seed``
    with a positive (five-atom) or a negative base slope."""
    verdict = "five-atom" if positive else "negative-slope"
    out = []
    for instance in _workloads().numeric_probes(None, seed):
        if instance.command == "k1" and instance.props["verdict"] == verdict:
            args = dict(zip(instance.args[::2], instance.args[1::2]))
            out.append((args["--flux"], float(args["--alpha1"]), float(args["--alpha2"])))
    return out


def certify_corpus_subspaces(seed):
    """The subspace JSON of each ``certify-corpus`` instance at ``seed``."""
    from nullag import cli
    return [instance.subspace for instance in _workloads().certify_corpus(cli, seed)]

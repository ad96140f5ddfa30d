"""Inputs of the benchmark's workloads, drawn by ``nullbench/workloads.py``.

The benchmark directory is not a package, so its generator module is
loaded from its path.
"""

import importlib.util
from pathlib import Path


def sym3_open_pool(count):
    """The first ``count`` bases of the ``sym3-open`` pool."""
    path = Path(__file__).resolve().parents[1] / "nullbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nullbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sym3_open_pool(count)

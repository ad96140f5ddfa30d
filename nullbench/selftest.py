"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest -q nullbench/selftest.py

They check the self-time arithmetic on a synthetic span tree, that the
span recorder replaces and restores functions in every namespace, that
generation is deterministic, and run a tiny size of every workload,
untraced and traced, checking every metric BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] (grandchild [2, 3]) and b [5, 9];
    # a second root [20, 22] with no children
    spans = [
        ["cli.main", 0.0, 10.0, None, "0/analyze"],
        ["certify.reduce_chain", 1.0, 4.0, 0, "0/analyze"],
        ["algebra.psd_analyze", 2.0, 3.0, 1, "0/analyze"],
        ["measures.farkas_solve", 5.0, 9.0, 0, "0/analyze"],
        ["cli.main", 20.0, 22.0, None, "0/verify"],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert tracer.max_self_sum_error(spans) == 0.0
    layers = tracer.layer_metrics(spans, {})
    assert layers["cli.self_s"] == 5.0
    assert layers["cli.calls"] == 2
    assert layers["certify.reduce_chain.self_s"] == 2.0
    assert layers["measures.farkas_solve.calls"] == 1
    # the stuck chain examined one cone and verified none
    assert layers["certify.reduce_chain.steps"] == 1
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) == 12.0


def test_tracer_wraps_every_namespace_and_restores():
    import nullag.algebra as algebra
    import nullag.measures as measures
    from nullag.algebra import RationalMatrix, minor

    det = RationalMatrix.__dict__["det"]
    t = tracer.Tracer()
    t.install()
    try:
        assert measures.minor is algebra.minor is not minor
        A = RationalMatrix([[1, 2], [3, 4]])
        t.instance = "probe"
        assert measures.minor(A, (0, 1), (0, 1)) == -2
        names = [row[0] for row in t.spans]
        assert names == ["algebra.minor", "algebra.RationalMatrix.det"]
        assert t.spans[1][3] == 0 and t.spans[1][4] == "probe"
    finally:
        t.uninstall()
    assert measures.minor is algebra.minor is minor
    assert RationalMatrix.__dict__["det"] is det


def test_value_closure_counts_points():
    from nullag.fixtures import kr_family
    import nullag.measures as measures

    t = tracer.Tracer()
    t.install()
    try:
        value = measures.subspace_value_fn(kr_family(0))
        value((1, 0, 0, 0))
        value((0, 1, 0, 0))
    finally:
        t.uninstall()
    layers = tracer.layer_metrics(t.spans, t.counts)
    assert layers["measures.subspace_value_fn.calls"] == 1
    assert layers["measures.subspace_value_fn.points"] == 2


def test_generation_is_deterministic():
    from nullag import cli

    def snapshot(seed):
        return [(i.name, i.args, i.subspace, sorted(i.expected))
                for i in workloads.certify_corpus(cli, seed, "tiny")]

    assert snapshot(5) == snapshot(5)
    assert snapshot(5) != snapshot(6)


def run_bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "nullbench/run.py", *args],
                         capture_output=True, text=True, cwd=cwd, timeout=170)
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    code, lines = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                            "--trace", str(trace), "--scale", "tiny")
    assert code == 0
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    assert len(res["metrics"]) == len(wanted)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "nullbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = run_bench("--workload", "kr-ladder", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert lines == []

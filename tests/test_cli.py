import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import nullag.certify
import nullag.cli
from bench_inputs import sym3_open_pool
from genericity_oracle import scan_samples_reference
from nullag.algebra import RationalMatrix, rat_from_str
from nullag.cli import main
from nullag.fixtures import quaternion_pencil
from nullag.measures import default_cone_sampler, subspace_value_fn
from nullag.subspace import Subspace
from poly_oracle import form_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_subspace(tmp_path, obj, name="sub.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def dump_fixture(capsys, name):
    code, obj = run_cli(capsys, "fixtures", "dump", name)
    assert code == 0
    return obj


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_diag_pencil_trivial(tmp_path, capsys):
    sub = dump_fixture(capsys, "diag-pencil")["subspace"]
    path = write_subspace(tmp_path, sub)
    code, report = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "certificate" in report
    assert report["certificate"]["terminal"]
    assert all("operation" in v for v in report["verdicts"])


def test_analyze_kr_nontrivial(tmp_path, capsys):
    sub = dump_fixture(capsys, "Kr(r=0)")["subspace"]
    path = write_subspace(tmp_path, sub)
    code, report = run_cli(capsys, "analyze", path)
    assert code == 10
    assert "measure" in report
    weights = report["measure"]["weights"]
    assert len(weights) >= 2
    # one LP on the first 32 sample points: 14 independent value rows and
    # the ones row
    lp = entry(report, "construct_nontrivial")
    assert (lp["farkas_solves"], lp["farkas_screened"], lp["farkas_rows"], lp["farkas_cols"]) == (
        1, 0, 15, 32)
    assert lp["farkas_pivots"] > 0
    rank = entry(report, "find_rank_one")
    assert (rank["minors_evaluated"], rank["minors_total"]) == (9, 9)
    assert rank["gauss_newton_steps"] > 0


def test_analyze_sweeps_only_live_minors(tmp_path, capsys):
    # Kr(r=1) is 5 x 5: 24 of its 100 order-2 minors are not identically zero
    sub = dump_fixture(capsys, "Kr(r=1)")["subspace"]
    path = write_subspace(tmp_path, sub)
    code, report = run_cli(capsys, "analyze", path)
    assert code == 10
    rank = entry(report, "find_rank_one")
    assert (rank["mode"], rank["found"]) == ("numeric", False)
    assert (rank["minors_evaluated"], rank["minors_total"]) == (24, 100)
    assert rank["gauss_newton_steps"] > 0


def entry(report, operation):
    (found,) = [v for v in report["verdicts"] if v["operation"] == operation]
    return found


def test_analyze_rank_one_measure(tmp_path, capsys):
    sub = dump_fixture(capsys, "K0")["subspace"]
    path = write_subspace(tmp_path, sub)
    code, report = run_cli(capsys, "analyze", path)
    assert code == 10
    # the d <= 2 chain stops at the rank-one direction and carries it exactly
    assert not entry(report, "reduce_chain")["terminal"]
    assert entry(report, "is_null_lagrangian")["verdict"]
    A, B = [RationalMatrix([[rat_from_str(x) for x in row] for row in atom])
            for atom in report["measure"]["atoms"]]
    assert B == A.scale(-1) and A.rank() == 1


def test_analyze_budget_exhaustion_inconclusive(tmp_path, capsys):
    # starve the sampler so the axis atoms cannot all be offered
    sub = dump_fixture(capsys, "Kr(r=0)")["subspace"]
    path = write_subspace(tmp_path, sub)
    code, report = run_cli(capsys, "analyze", path, "--budget", "4")
    assert code == 20
    assert report["conclusion"].startswith("inconclusive")
    lp = entry(report, "construct_nontrivial")
    assert (lp["found"], lp["farkas_solves"], lp["farkas_screened"], lp["farkas_cols"]) == (
        False, 1, 0, 4)


def test_analyze_schema_violation(tmp_path, capsys):
    path = write_subspace(tmp_path, {"basis": "nope"})
    code, report = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "error" in report


def refuse_rank_one_search(*args, **kwargs):
    raise AssertionError("numeric rank-one search where the chain decides")


def test_analyze_irrational_witness(tmp_path, capsys, monkeypatch):
    # pencil [[z1, z2], [z2, 2 z1]]: rank drops only at z2 = ±sqrt(2) z1.
    # With d = 2 the chain is complete, so no rank-one search runs
    sub = {
        "m": 2,
        "n": 2,
        "d": 2,
        "basis": [[["1", "0"], ["0", "2"]], [["0", "1"], ["1", "0"]]],
    }
    path = write_subspace(tmp_path, sub)
    monkeypatch.setattr("nullag.certify.find_rank_one", refuse_rank_one_search)
    code, report = run_cli(capsys, "analyze", path, "--json-out", str(tmp_path / "rep.json"))
    assert code == 10
    assert [v["operation"] for v in report["verdicts"]] == ["reduce_chain", "construct_nontrivial"]
    chain = entry(report, "reduce_chain")
    assert not chain["terminal"]
    assert chain["note"] == "pencil determinant has an irrational real root (discriminant 8)"
    # the direction is irrational, so the measure comes from the exact LP
    assert entry(report, "construct_nontrivial")["found"]
    measure = report["measure"]
    assert all(isinstance(x, str) for atom in measure["atoms"] for row in atom for x in row)
    assert all(isinstance(w, str) for w in measure["weights"])
    code, verified = run_cli(capsys, "verify", str(tmp_path / "rep.json"))
    assert code == 0
    assert entry(verified, "is_null_lagrangian")["exact"] is True


def quaternion4():
    """Left multiplications by 1, i, j, k: every non-zero element is invertible."""
    one, i, j = quaternion_pencil().basis
    return Subspace([one, i, j, i @ j]).to_json()


@pytest.mark.parametrize("name", ["quaternion3", "sub-k0-random(seed=0,d=3)", "quaternion4"])
def test_analyze_terminal_chain_runs_no_rank_one_search(tmp_path, capsys, monkeypatch, name):
    sub = quaternion4() if name == "quaternion4" else dump_fixture(capsys, name)["subspace"]
    path = write_subspace(tmp_path, sub)

    monkeypatch.setattr("nullag.certify.find_rank_one", refuse_rank_one_search)
    code, report = run_cli(capsys, "analyze", path)
    assert code == 0
    assert [v["operation"] for v in report["verdicts"]] == ["reduce_chain"]


def random_basis(rng, m, n, d, dyad=False):
    """d independent integer m x n matrices; the first is a dyad u v^T if asked."""
    while True:
        basis = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)] for _ in range(d)]
        if dyad:
            u = [rng.choice((-2, -1, 1, 2)) for _ in range(m)]
            v = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
            basis[0] = [[a * b for b in v] for a in u]
        try:
            return Subspace(basis).to_json()
        except ValueError:
            continue


def analyze_and_verify(tmp_path, capsys, sub):
    path = write_subspace(tmp_path, sub)
    out = str(tmp_path / "report.json")
    code, report = run_cli(capsys, "analyze", path, "--json-out", out)
    verify_code, _ = run_cli(capsys, "verify", out)
    return code, report, verify_code


@pytest.mark.parametrize("m, n, d", [(1, 3, 2), (1, 3, 3), (1, 5, 4), (4, 1, 4)])
def test_analyze_single_line_nontrivial(tmp_path, capsys, m, n, d):
    # every non-zero element of a single-line subspace has rank one
    sub = random_basis(random.Random(m * 100 + n * 10 + d), m, n, d)
    code, report, verify_code = analyze_and_verify(tmp_path, capsys, sub)
    assert code == 10
    assert len(report["measure"]["atoms"]) == 2
    assert verify_code == 0


def test_analyze_planted_dyad_nontrivial(tmp_path, capsys):
    rng = random.Random(2026)
    for d in (1, 2, 3, 4):
        for _ in range(2):
            sub = random_basis(rng, rng.randint(2, 4), rng.randint(2, 4), d, dyad=True)
            code, _, verify_code = analyze_and_verify(tmp_path, capsys, sub)
            assert (d, code, verify_code) == (d, 10, 0)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_certificate_roundtrip_and_tamper(tmp_path, capsys):
    sub = dump_fixture(capsys, "diag-pencil")["subspace"]
    path = write_subspace(tmp_path, sub)
    code, report = run_cli(capsys, "analyze", path)
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(report["certificate"]))
    code, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0
    # flip the sign of the first coefficient: the verifier must reject and
    # name a witness
    tampered = json.loads(cert_path.read_text())
    betas = tampered["chain"][0]["beta"]
    key = next(iter(betas))
    betas[key] = betas[key][1:] if betas[key].startswith("-") else "-" + betas[key]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(tampered))
    code, report = run_cli(capsys, "verify", str(bad_path))
    assert code == 1
    assert any(v.get("verdict") not in (None, "psd-nontrivial", True) for v in report["verdicts"])
    assert "witness_point" in report["verdicts"][-1]


def test_verify_tampered_later_step_witness_in_cone(tmp_path, capsys):
    # a certify-corpus subspace (seed 1) whose chain has three steps
    sub = dump_fixture(capsys, "sub-k0-random(seed=2208,d=3)")["subspace"]
    code, report = run_cli(capsys, "analyze", write_subspace(tmp_path, sub))
    assert code == 0
    cert = report["certificate"]
    assert [len(step["cone_basis"]) for step in cert["chain"]] == [3, 2, 1]
    K = Subspace.from_json(sub)
    for step in (1, 2):
        # the negated form is negative semidefinite and non-zero on the cone
        tampered = json.loads(json.dumps(cert))
        negated = {key: str(-rat_from_str(b)) for key, b in tampered["chain"][step]["beta"].items()}
        tampered["chain"][step]["beta"] = negated
        beta = nullag.certify._beta_from_json(negated)
        code, verified = run_cli(capsys, "verify", write_subspace(tmp_path, tampered, "bad.json"))
        assert code == 1
        failed = verified["verdicts"][-1]
        assert (failed["step"], failed["verdict"]) == (step, "nsd-nontrivial")
        w = tuple(rat_from_str(x) for x in failed["witness_point"])
        cone = [tuple(rat_from_str(x) for x in v) for v in cert["chain"][step]["cone_basis"]]
        assert RationalMatrix(cone + [w]).rank() == len(cone)
        assert form_value(K.combination(beta), w) < 0


def noncanonical(x, k):
    """A spelling of the rational ``x`` other than its canonical one, the
    k-th that applies of: padded with spaces, its terms doubled, a decimal,
    an integer after a "0_"."""
    v = Fraction(x)
    for kind in range(k, k + 4):
        kind %= 4
        if kind == 0:
            return " %s " % x
        if kind == 1:
            return "%d/%d" % (2 * v.numerator, 2 * v.denominator)
        if kind == 2 and (10 ** 12 * v).denominator == 1:
            digits = str(abs(10 ** 12 * v.numerator // v.denominator)).rjust(13, "0")
            return "%s%s.%s" % ("-" if v < 0 else "", digits[:-12], digits[-12:])
        if kind == 3 and v.denominator == 1:
            return "%s0_%d" % ("-" if v < 0 else "", abs(v))
    raise AssertionError(x)


def test_verify_reads_noncanonical_numbers(tmp_path, capsys):
    # a three-step certificate with every number respelled still verifies:
    # only "p" and "p/q" take the int path, the rest go through Fraction
    sub = dump_fixture(capsys, "sub-k0-random(seed=2208,d=3)")["subspace"]
    code, report = run_cli(capsys, "analyze", write_subspace(tmp_path, sub))
    assert code == 0 and len(report["certificate"]["chain"]) == 3
    cert = report["certificate"]
    count = itertools.count()
    for step in cert["chain"]:
        step["beta"] = {key: noncanonical(b, next(count)) for key, b in step["beta"].items()}
        step["cone_basis"] = [[noncanonical(x, next(count)) for x in v] for v in step["cone_basis"]]
    basis = cert["subspace"]["basis"]
    cert["subspace"]["basis"] = [[[noncanonical(x, next(count)) for x in row] for row in b] for b in basis]
    text = json.dumps(cert)
    assert all(mark in text for mark in ('" ', "/", ".", "_"))
    code, verified = run_cli(capsys, "verify", write_subspace(tmp_path, cert, "respelled.json"))
    assert code == 0, verified


def chain_of(cert, *steps):
    """The certificate with its chain replaced by ``steps``."""
    return dict(cert, chain=list(steps))


# (fixture, tampering of its analyze report's certificate, exit, last verdict
# entry); sub-k0-random(seed=2208,d=3) has a three-step chain, cones 3, 2, 1
@pytest.mark.parametrize(
    "name, tamper, code, last",
    [
        pytest.param("sub-k0-random(seed=2208,d=3)",
                     lambda c: chain_of(c, c["chain"][0],
                                        dict(c["chain"][1], cone_basis=c["chain"][2]["cone_basis"]),
                                        c["chain"][2]),
                     1, {"operation": "verify-cert", "step": 1, "error": "cone mismatch"}, id="cone-mismatch"),
        pytest.param("sub-k0-random(seed=2208,d=3)", lambda c: chain_of(c, *c["chain"][:-1]),
                     1, {"operation": "verify-cert", "error": "chain does not terminate at the origin"},
                     id="last-step-dropped"),
        pytest.param("rotation",
                     lambda c: chain_of(c, *c["chain"], {"beta": c["chain"][0]["beta"], "cone_basis": []}),
                     1, {"operation": "verify-cert", "step": 1, "error": "chain continues past the origin"},
                     id="step-past-origin"),
        # Kr(r=1) is non-trivial: an empty chain marked not terminal certifies nothing
        pytest.param("Kr(r=1)", lambda c: {"kind": "triviality-certificate", "terminal": False, "chain": [],
                                           "subspace": c["subspace"]},
                     1, {"operation": "verify-cert", "error": "certificate is not marked terminal"},
                     id="not-terminal"),
        pytest.param("Kr(r=1)", lambda c: {"certificate": [1]}, 2, None, id="non-object"),
    ],
)
def test_verify_rejects_tampered_certificate(tmp_path, capsys, name, tamper, code, last):
    obj = dump_fixture(capsys, name)
    if "measure" in obj:
        # a non-trivial fixture: only its subspace is used
        cert = {"subspace": obj["subspace"]}
    else:
        analyze_code, report = run_cli(capsys, "analyze", write_subspace(tmp_path, obj["subspace"]))
        assert analyze_code == 0
        cert = report["certificate"]
    artifact = tamper(cert)
    for wrapped in (artifact, {"certificate": artifact, "conclusion": "trivial: terminal certificate chain"}):
        verify_code, verified = run_cli(capsys, "verify", write_subspace(tmp_path, wrapped, "bad.json"))
        assert verify_code == code
        if last is None:
            assert verified["error"] and verified["verdicts"] == []
        else:
            assert verified["conclusion"] == "verification failed"
            assert verified["verdicts"][-1] == last


# a beta is a non-empty object of non-zero coefficients keyed "r1,r2|c1,c2";
# sub-k0-random(seed=2208,d=3) is a pencil of 3 x 3 matrices
@pytest.mark.parametrize(
    "beta",
    [
        pytest.param({"0,1;0,1": "1"}, id="key-separator"),
        pytest.param({"0,1|0": "1"}, id="key-short"),
        pytest.param({"a,b|0,1": "1"}, id="key-text"),
        pytest.param({"00,1|0,1": "1"}, id="key-leading-zero"),
        pytest.param({"1,0|0,1": "1"}, id="rows-unsorted"),
        pytest.param({"0,1|2,1": "1"}, id="cols-unsorted"),
        pytest.param({"1,1|0,1": "1"}, id="row-repeated"),
        pytest.param({"0,1|2,2": "1"}, id="col-repeated"),
        pytest.param({"0,3|0,1": "1"}, id="row-outside-shape"),
        pytest.param({"0,1|1,3": "1"}, id="col-outside-shape"),
        pytest.param({}, id="empty"),
        pytest.param({"0,1|0,1": "0"}, id="zero-coefficient"),
        pytest.param(["1"] + ["0"] * 8, id="dense-list"),
    ],
)
def test_verify_rejects_malformed_beta(tmp_path, capsys, beta):
    sub = dump_fixture(capsys, "sub-k0-random(seed=2208,d=3)")["subspace"]
    code, report = run_cli(capsys, "analyze", write_subspace(tmp_path, sub))
    assert code == 0
    cert = report["certificate"]
    cert["chain"][0]["beta"] = beta
    code, verified = run_cli(capsys, "verify", write_subspace(tmp_path, cert, "bad.json"))
    assert code == 2
    assert verified["error"].startswith("bad certificate JSON")


def test_verify_kr_measure_dump(tmp_path, capsys):
    obj = dump_fixture(capsys, "Kr(r=1)")
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps(obj["measure"]))
    code, report = run_cli(capsys, "verify", str(mu_path))
    assert code == 0
    assert report["verdicts"][0]["exact"]


def test_verify_tampered_measure(tmp_path, capsys):
    obj = dump_fixture(capsys, "Kr(r=0)")
    mu = obj["measure"]
    # entry (0, 1) feeds the top-left minor of the first atom with a
    # non-zero cofactor, so this tampering must surface as a residual
    mu["atoms"][0][0][1] = "7/2"
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps(mu))
    code, report = run_cli(capsys, "verify", str(mu_path))
    assert code == 1
    assert "witness_minor" in report["verdicts"][0]


def test_verify_certificate_without_subspace_names_the_key(tmp_path, capsys):
    sub = dump_fixture(capsys, "diag-pencil")["subspace"]
    _, report = run_cli(capsys, "analyze", write_subspace(tmp_path, sub))
    cert = report["certificate"]
    del cert["subspace"]
    for artifact in (cert, {"certificate": cert}):
        code, verified = run_cli(capsys, "verify", write_subspace(tmp_path, artifact, "cert.json"))
        assert code == 2
        assert verified["error"] == "bad certificate JSON: missing key 'subspace'"


def test_verify_rejects_empty(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("{}")
    code, _ = run_cli(capsys, "verify", str(path))
    assert code == 2


ROTATION = {"m": 2, "n": 2, "d": 2, "basis": [[["1", "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]]}


def test_verify_bare_subspace_accepts_only_the_schema(tmp_path, capsys):
    # a subspace carries nothing to re-verify: the schema is checked and
    # the conclusion says so, as for the other schema-only artifacts
    code, report = run_cli(capsys, "verify", write_subspace(tmp_path, ROTATION))
    assert code == 0
    assert report["conclusion"] == "subspace carries no re-verifiable artifact; schema accepted"
    assert report["verdicts"] == [{"operation": "subspace-schema", "verdict": True}]
    dependent = dict(ROTATION, basis=[ROTATION["basis"][0]] * 2)
    code, report = run_cli(capsys, "verify", write_subspace(tmp_path, dependent, "dep.json"))
    assert code == 2 and "dependent" in report["error"] and report["verdicts"] == []


def dense_pencil_9():
    """Five dense non-symmetric 3 x 3 integer matrices drawn by Random(9)."""
    rng = random.Random(9)
    basis = [[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)] for _ in range(5)]
    return {"basis": [[[str(x) for x in row] for row in b] for b in basis]}


def test_smoke_measures_verify_exactly(tmp_path, capsys):
    # the exit-10 inputs of the console-script smoke step: each report's
    # measure is re-checked by the exact Null Lagrangian test
    inputs = {
        "kr4": dump_fixture(capsys, "Kr(r=4)")["subspace"],
        "sqrt2": {"basis": [[["1", "0"], ["0", "2"]], [["0", "1"], ["1", "0"]]]},
        "sym3-1": {"basis": [[[str(x) for x in row] for row in b]
                             for b in sym3_open_pool(2)[1]]},
        "dense3": dense_pencil_9(),
    }
    for name, sub in inputs.items():
        out = str(tmp_path / ("%s-report.json" % name))
        code, report = run_cli(capsys, "analyze", write_subspace(tmp_path, sub), "--json-out", out)
        verify_code, verified = run_cli(capsys, "verify", out)
        assert (name, code, verify_code, verified["conclusion"]) == (name, 10, 0, "verified")
        [check] = [v for v in verified["verdicts"] if v["operation"] == "is_null_lagrangian"]
        assert check["exact"] and check["verdict"] is True and check["checked"] > 0, name
    # the dense pencil: five solves, four resumed, 16 atoms, and an order-3
    # minor in every LP column
    lp = entry(report, "construct_nontrivial")
    assert (lp["farkas_solves"], lp["farkas_resumed"], lp["atoms"]) == (5, 4, 16)
    K = Subspace.from_json(inputs["dense3"])
    points = itertools.islice(default_cone_sampler(K.d), lp["farkas_cols"])
    value = subspace_value_fn(K)
    assert all(any(len(key) == 3 and key[0] == 3 for key in value(p)[1]) for p in points)


ATOM_2X2 = [["1", "2"], ["3", "4"]]
ATOM_3X3 = [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]


@pytest.mark.parametrize(
    "command, payload, extra, error",
    [
        pytest.param("verify", [1, 2], (), None, id="verify-list"),
        pytest.param("verify", 3, (), None, id="verify-number"),
        pytest.param("verify", None, (), None, id="verify-null"),
        pytest.param("verify", {"kind": "triviality-certificate", "terminal": True,
                                "subspace": ROTATION, "chain": [5]}, (), None, id="verify-chain-entry"),
        pytest.param("verify", {"kind": "measure", "shape": 5, "atoms": [[["1", "0"], ["0", "0"]]],
                                "weights": ["1"]}, (), None, id="verify-measure-shape"),
        pytest.param("verify", {"kind": "measure", "shape": [2, 2], "atoms": [[["1/0", "0"], ["0", "0"]]],
                                "weights": ["1"]}, (), None, id="verify-atom-zero-denominator"),
        pytest.param("verify", {"kind": "measure", "shape": [2, 2], "atoms": [[["1", "0"], ["0", "0"]]],
                                "weights": ["1/0"]}, (), None, id="verify-weight-zero-denominator"),
        pytest.param("verify", {"kind": "triviality-certificate", "terminal": True, "subspace": ROTATION,
                                "chain": [{"beta": {"0,1|0,1": "1/0"}, "cone_basis": []}]}, (), None,
                     id="verify-beta-zero-denominator"),
        pytest.param("analyze", dict(ROTATION, d=None), (), None, id="analyze-null-dimension"),
        pytest.param("analyze", dict(ROTATION, basis=[[["1/0", "0"], ["0", "1"]]], d=1), (), None,
                     id="analyze-basis-zero-denominator"),
        # a stated dimension is a JSON integer: no float is truncated to one
        pytest.param("analyze", dict(ROTATION, m=2.5), (), "bad subspace JSON: 'm' must be an integer, not 2.5",
                     id="analyze-fractional-dimension"),
        pytest.param("analyze", dict(ROTATION, d=2.0), (), "bad subspace JSON: 'd' must be an integer, not 2.0",
                     id="analyze-float-dimension"),
        pytest.param("analyze", dict(ROTATION, n=True), (), "bad subspace JSON: 'n' must be an integer, not true",
                     id="analyze-bool-dimension"),
        pytest.param("analyze", dict(ROTATION, m="2"), (), """bad subspace JSON: 'm' must be an integer, not "2\"""",
                     id="analyze-string-dimension"),
        pytest.param("verify", {"kind": "triviality-certificate", "terminal": True, "chain": [],
                                "subspace": dict(ROTATION, n=2.5)}, (),
                     "bad subspace JSON: 'n' must be an integer, not 2.5", id="verify-certificate-fractional-dimension"),
        pytest.param("analyze", "Kr(r=0)", ("--budget", "-5"), None, id="budget-negative"),
        pytest.param("analyze", "Kr(r=2)", ("--seed", "-3"), None, id="analyze-seed-negative"),
        # grassmann-scan reads no file: the payload is its positional arguments
        pytest.param("grassmann-scan", ("2", "4", "4"), ("--samples", "3", "--seed", "-5"), None,
                     id="grassmann-scan-seed-negative"),
        # so does k1; a non-finite number is refused before any construction,
        # which at a nan slope would halve the offsets 30 times to no end
        pytest.param("k1", (), ("--alpha2", "nan"), "--alpha2 must be finite, not nan", id="k1-alpha2-nan"),
        pytest.param("k1", (), ("--alpha1", "inf"), "--alpha1 must be finite, not inf", id="k1-alpha1-inf"),
        pytest.param("k1", (), ("--s0", "nan"), "--s0 must be finite, not nan", id="k1-s0-nan"),
        pytest.param("k1", (), ("--t0=-inf",), "--t0 must be finite, not -inf", id="k1-t0-minus-inf"),
        # so is an eps outside (0, 1) or an offset that is not positive,
        # which would reach the library's checks only after halving
        pytest.param("k1", (), ("--eps", "nan"), '--eps must be "auto" or a number in (0, 1), not nan',
                     id="k1-eps-nan"),
        pytest.param("k1", (), ("--eps", "inf"), '--eps must be "auto" or a number in (0, 1), not inf',
                     id="k1-eps-inf"),
        pytest.param("k1", (), ("--eps=-1",), '--eps must be "auto" or a number in (0, 1), not -1',
                     id="k1-eps-minus-one"),
        pytest.param("k1", (), ("--eps", "0"), '--eps must be "auto" or a number in (0, 1), not 0',
                     id="k1-eps-zero"),
        pytest.param("k1", (), ("--eps", "1"), '--eps must be "auto" or a number in (0, 1), not 1',
                     id="k1-eps-one"),
        pytest.param("k1", (), ("--eps", "abc"), '--eps must be "auto" or a number in (0, 1), not abc',
                     id="k1-eps-text"),
        pytest.param("k1", (), ("--s0", "0"), "--s0 must be positive, not 0.0", id="k1-s0-zero"),
        pytest.param("k1", (), ("--s0=-0.1",), "--s0 must be positive, not -0.1", id="k1-s0-negative"),
        pytest.param("k1", (), ("--t0", "0"), "--t0 must be positive, not 0.0", id="k1-t0-zero"),
        pytest.param("k1", (), ("--flux", "quadratic:nan"), "the quadratic constant must be finite, not nan",
                     id="k1-quadratic-nan"),
        pytest.param("k1", (), ("--flux", "cubic:-inf"), "the cubic constant must be finite, not -inf",
                     id="k1-cubic-minus-inf"),
        # a missing key is named as such, not by the repr of a KeyError
        pytest.param("verify", {"kind": "triviality-certificate", "terminal": True}, (),
                     "bad certificate JSON: missing key 'chain'", id="verify-certificate-no-chain"),
        pytest.param("verify", {"kind": "triviality-certificate", "terminal": True, "subspace": ROTATION,
                                "chain": [{"beta": {"0,1|0,1": "1"}}]}, (),
                     "bad certificate JSON: missing key 'cone_basis'", id="verify-chain-entry-no-cone"),
        pytest.param("verify", {"kind": "triviality-certificate", "subspace": ROTATION, "chain": []}, (),
                     "bad certificate JSON: missing key 'terminal'", id="verify-certificate-no-terminal"),
        pytest.param("verify", {"kind": "measure"}, (), "bad measure JSON: missing key 'atoms'",
                     id="verify-measure-no-atoms"),
        pytest.param("verify", {"kind": "measure", "atoms": [[["1", "0"], ["0", "0"]]]}, (),
                     "bad measure JSON: missing key 'weights'", id="verify-measure-no-weights"),
        pytest.param("analyze", {}, (), "bad subspace JSON: missing key 'basis'", id="analyze-no-basis"),
        # Fraction would compute 10**10000000 before the check of the basis
        pytest.param("analyze", {"basis": [[["1e10000000", "0"], ["0", "1"]]]}, (),
                     "bad subspace JSON: exponent beyond %d digits: '1e10000000'" % sys.get_int_max_str_digits(),
                     id="analyze-huge-exponent"),
        pytest.param("analyze", {"basis": [[["1", "0"], ["0", "-2.5E-10000000"]]]}, (),
                     "bad subspace JSON: exponent beyond %d digits: '-2.5E-10000000'" % sys.get_int_max_str_digits(),
                     id="analyze-huge-negative-exponent"),
        pytest.param("verify", {"kind": "triviality-certificate", "terminal": True, "subspace": ROTATION,
                                "chain": [{"beta": {"0,1|0,1": "1"}, "cone_basis": [["1"], ["0"]]}]}, (),
                     "bad certificate JSON: a cone vector is not of length d = 2", id="verify-cone-vector-length"),
        # atoms of different shapes, exact in either order and float, are
        # refused with the shapes named
        pytest.param("verify", {"kind": "measure", "atoms": [ATOM_2X2, ATOM_3X3], "weights": ["1/2", "1/2"]},
                     (), "atoms differ in shape: 2x2, 3x3", id="verify-exact-atoms-2x2-then-3x3"),
        pytest.param("verify", {"kind": "measure", "atoms": [ATOM_3X3, ATOM_2X2], "weights": ["1/2", "1/2"]},
                     (), "atoms differ in shape: 3x3, 2x2", id="verify-exact-atoms-3x3-then-2x2"),
        pytest.param("verify", {"kind": "measure", "weights": [0.5, 0.5],
                                "atoms": [[[float(x) for x in row] for row in a] for a in (ATOM_2X2, ATOM_3X3)]},
                     (), "atoms differ in shape: 2x2, 3x3", id="verify-float-atoms-2x2-then-3x3"),
    ],
)
def test_malformed_input_exits_schema(tmp_path, capsys, command, payload, extra, error):
    if command in ("grassmann-scan", "k1"):
        code, report = run_cli(capsys, command, *payload, *extra)
    else:
        if payload in ("Kr(r=0)", "Kr(r=2)"):
            payload = dump_fixture(capsys, payload)["subspace"]
        code, report = run_cli(capsys, command, write_subspace(tmp_path, payload), *extra)
    assert code == 2
    assert report["error"]
    if error is not None:
        assert report["error"] == error
    assert "verdicts" not in report or report["verdicts"] == []


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("fixtures", "dump", "Kr(r=-1)"), id="fixture-negative-r"),
        pytest.param(("fixtures", "dump", "sym3-random(seed=x)"), id="fixture-text-seed"),
        pytest.param(("fixtures", "dump", "V0(k=0,m=4,n=4)"), id="fixture-empty-basis"),
        pytest.param(("k1", "--eps", "abc"), id="k1-eps-text"),
        pytest.param(("k1", "--flux", "v/(v-v)"), id="k1-flux-zero-division"),
        pytest.param(("k1", "--flux", "v^0.5"), id="k1-flux-complex"),
        # deeper than Python's parser or the recursion limit allow
        pytest.param(("k1", "--flux", "(" * 400 + "v" + ")" * 400), id="k1-flux-400-parentheses"),
        pytest.param(("k1", "--flux", "+".join(["v"] * 1500)), id="k1-flux-1500-term-sum"),
        # (--flux= so that argparse does not take the value for an option)
        pytest.param(("k1", "--flux=" + "-" * 3000 + "v"), id="k1-flux-3000-minus-signs"),
    ],
)
def test_malformed_argument_exits_schema(capsys, argv):
    code, report = run_cli(capsys, *argv)
    assert code == 2
    assert report["error"]
    assert "verdicts" not in report or report["verdicts"] == []


# each subcommand, with the library call it makes first; "SUBSPACE" is a
# subspace file written by the test
JSON_OUT_RUNS = [
    pytest.param(("analyze", "SUBSPACE"), "decide", id="analyze"),
    pytest.param(("verify", "SUBSPACE"), "check", id="verify"),
    pytest.param(("k1",), "build_atoms", id="k1"),
    pytest.param(("grassmann-scan", "2", "4", "4", "--samples", "3"), "grassmann_genericity",
                 id="grassmann-scan"),
    pytest.param(("fixtures", "list"), "builtin_names", id="fixtures-list"),
    pytest.param(("fixtures", "dump", "Kr(r=1)"), "builtin", id="fixtures-dump"),
]


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("argv, call", JSON_OUT_RUNS)
def test_unwritable_json_out_exits_schema_before_any_work(tmp_path, capsys, monkeypatch, argv, call, where):
    def reached(*args, **kwargs):
        raise AssertionError("%s was reached" % call)

    monkeypatch.setattr(nullag.cli, call, reached)
    out = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    argv = [write_subspace(tmp_path, ROTATION) if a == "SUBSPACE" else a for a in argv]
    code = main([*argv, "--json-out", str(out)])
    text = capsys.readouterr().out
    assert code == 2 and text.count("\n") == 1
    report = json.loads(text)
    assert set(report) == {"command", "error"} and report["command"] == argv[0]
    assert report["error"].startswith("cannot write --json-out: ")


def test_json_out_may_be_the_input(tmp_path, capsys):
    # the writability check neither truncates nor replaces the file
    path = write_subspace(tmp_path, ROTATION)
    code, report = run_cli(capsys, "analyze", path, "--json-out", path)
    assert code == 0 and report["certificate"]["subspace"] == ROTATION
    assert json.loads((tmp_path / "sub.json").read_text()) == report


@pytest.mark.parametrize(
    "flux, alpha2, where",
    [
        pytest.param("1/(v-5)", "5", "slope of flux '1/(v-5)' is undefined at v = 5.0",
                     id="pole-at-base"),
        pytest.param("(v+2)^0.5", "-2", "slope of flux '(v+2)^0.5' is undefined at v = -2.0",
                     id="branch-point-at-base"),
        # the slope is negative at the base state, and the flux is
        # undefined at some sampled states beyond v = 2
        pytest.param("(2-v)^0.5", "1.95", "no sign evidence: flux '(2-v)^0.5' is undefined at v = ",
                     id="undefined-in-sign-evidence"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_k1_flux_undefined_near_base_state_exits_precondition(capsys, flux, alpha2, where):
    code, report = run_cli(capsys, "k1", "--flux", flux, "--alpha2", alpha2)
    assert code == 3
    assert where in report["error"]
    assert report["verdicts"] == []


# ---------------------------------------------------------------------------
# k1
# ---------------------------------------------------------------------------

def test_k1_linear_auto(tmp_path, capsys):
    code, report = run_cli(capsys, "k1", "--flux", "linear", "--s0", "0.1",
                           "--t0", "0.1", "--eps", "auto")
    assert code == 0
    gamma = report["iteration"]["gamma"]
    eps = report["iteration"]["eps"]
    assert max(abs(g - eps / 4) for g in gamma) < 1e-14
    assert report["iteration"]["trace"] == []


def test_k1_report_verifies(tmp_path, capsys):
    out = tmp_path / "k1.json"
    code, _ = run_cli(capsys, "k1", "--flux", "v + v^2", "--eps", "auto",
                      "--json-out", str(out))
    assert code == 0
    code, report = run_cli(capsys, "verify", str(out))
    assert code == 0
    assert len(report["verdicts"]) == 2  # stripped and pushed measures


@pytest.mark.parametrize("entry", [None, float("nan"), float("inf"), "0.1", True])
def test_verify_float_measure_with_a_non_number_exits_schema(tmp_path, capsys, entry):
    # numpy reads null as nan and "0.1" as 0.1: a float measure's entries
    # are refused unless they are finite JSON numbers, before any check
    out = tmp_path / "k1.json"
    assert run_cli(capsys, "k1", "--json-out", str(out))[0] == 0
    report = json.loads(out.read_text())
    report["measure"]["atoms"][3][1][0] = entry
    out.write_text(json.dumps(report))
    code, verified = run_cli(capsys, "verify", str(out))
    assert code == 2
    assert verified["error"] == "bad measure JSON: a float measure's entries must be finite numbers"


def test_k1_negative_slope_with_evidence(capsys):
    code, report = run_cli(capsys, "k1", "--flux", "v - v^2", "--alpha2", "1.0")
    assert code == 3
    assert report["negative_branch_evidence"]["sign_constant"]


# (flux, alpha1, alpha2) draws of the numeric-probes workload with a
# positive slope a'(alpha2) >= 0.25 where the default offsets 0.1 are too
# large: the shifted flux does not change sign within them
K1_LARGE_OFFSET_DRAWS = [
    ("v - 2.718*v^3", -0.915, -0.301),
    ("v - 2.762*v^3", 0.338, 0.298),
    ("v - 2.867*v^3", 0.89, -0.293),
    ("cubic:-3", -0.22, 0.283),
    ("v - 2.862*v^3", -0.177, -0.291),
    ("v - 2.591*v^3", 0.58, -0.309),
    ("v - 2.349*v^3", -0.438, -0.326),
    ("v - 2.772*v^3", 0.964, -0.297),
    ("cubic:-2.807", -0.482, -0.297),
    ("v - 2.648*v^3", -0.552, 0.304),
    ("cubic:-2.349", -0.904, 0.326),
]


@pytest.mark.parametrize("flux,a1,a2", K1_LARGE_OFFSET_DRAWS)
def test_k1_halves_offsets_at_positive_slope(tmp_path, capsys, flux, a1, a2):
    out = tmp_path / "k1.json"
    code, report = run_cli(capsys, "k1", "--flux", flux, "--alpha1", repr(a1),
                           "--alpha2", repr(a2), "--json-out", str(out))
    assert code == 0
    assert report["system"]["s0"] == report["system"]["t0"] < 0.1
    code, _ = run_cli(capsys, "verify", str(out))
    assert code == 0


def test_k1_offsets_kept_where_they_work(capsys):
    code, report = run_cli(capsys, "k1", "--flux", "v - 2.718*v^3", "--alpha2", "0.1")
    assert code == 0
    assert report["system"]["s0"] == report["system"]["t0"] == 0.1


def test_k1_offsets_not_halved_at_negative_slope(capsys):
    # a'(0.5) = 1 - 3 * 2.718 / 4 < 0: no offset helps, exit 3 as before
    code, report = run_cli(capsys, "k1", "--flux", "v - 2.718*v^3", "--alpha2", "0.5")
    assert code == 3
    assert "not positive" in report["error"]
    assert "negative_branch_evidence" in report


def test_k1_bad_offsets_still_refused(capsys):
    code, report = run_cli(capsys, "k1", "--flux", "linear", "--s0", "-0.1")
    assert code == 2
    assert report["error"] == "--s0 must be positive, not -0.1"


def test_k1_bad_flux(capsys):
    code, report = run_cli(capsys, "k1", "--flux", "v +")
    assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        # the pole at 0.5 lies inside [0, 0.7], where the primitive is
        # checked: the flux is malformed input
        pytest.param(("--flux=0-1/(v-0.5)",), 2, id="pole-inside-the-check"),
        # the pole at 1.5 lies between 0 and the base state only: F(2.1)
        # of the atoms is a failed precondition
        pytest.param(("--flux=0-1/(v-1.5)", "--alpha2", "2"), 3, id="pole-before-the-base-state"),
    ],
)
def test_k1_divergent_primitive_is_an_error(capsys, argv, code):
    assert main(["k1", *argv]) == code
    out, err = capsys.readouterr()
    assert "does not converge" in json.loads(out)["error"]
    assert err == ""


# ---------------------------------------------------------------------------
# grassmann scan and fixtures
# ---------------------------------------------------------------------------

def test_grassmann_scan_k2(capsys):
    code, report = run_cli(capsys, "grassmann-scan", "2", "4", "4", "--samples", "40")
    assert code == 0
    assert report["summary"]["pd_fraction"] == 1.0
    assert report["summary"]["lambda_nonzero_fraction"] == 1.0
    assert report["v0_probe"]["exact_span_dim"] == 3


def test_grassmann_scan_k1(capsys):
    code, report = run_cli(capsys, "grassmann-scan", "1", "2", "3", "--samples", "40")
    assert code == 0
    assert report["summary"]["pd_fraction"] == 1.0


def test_grassmann_scan_bad_dims(capsys):
    code, report = run_cli(capsys, "grassmann-scan", "9", "2", "2")
    assert code == 2


def test_grassmann_scan_negative_samples(capsys):
    code, report = run_cli(capsys, "grassmann-scan", "2", "4", "4", "--samples", "-3")
    assert code == 2
    assert "samples" in report["error"]


SCAN_SHAPES = [(k, m, n) for k in (1, 2, 3) for m in range(2, 7) for n in range(2, 7)]


def scan_samples(capsys, k, m, n, samples, seed):
    code, report = run_cli(capsys, "grassmann-scan", str(k), str(m), str(n),
                           "--samples", str(samples), "--seed", str(seed))
    assert code == 0
    return json.dumps(report["samples"], sort_keys=True)


@pytest.mark.parametrize("k, m, n", SCAN_SHAPES)
def test_grassmann_scan_blocks_match_oracle(capsys, monkeypatch, k, m, n):
    # blocks of five charts, so that the sample counts 0, 1, block - 1,
    # block and block + 1 fall on and around a block boundary; every entry
    # equals the one the per-chart oracle draws and builds, bit for bit
    monkeypatch.setattr(nullag.cli, "genericity_block", lambda k, m, n: 5)
    seed = 100 * k + 10 * m + n
    for samples in (0, 1, 4, 5, 6):
        expected = json.dumps(scan_samples_reference(k, m, n, samples, seed), sort_keys=True)
        assert scan_samples(capsys, k, m, n, samples, seed) == expected, samples


@pytest.mark.parametrize("k, m, n", [(2, 4, 4), (3, 6, 6)])
def test_grassmann_scan_default_blocks_match_oracle(capsys, k, m, n):
    # the benchmark's shapes at the module's own block size
    block = nullag.certify.genericity_block(k, m, n)
    assert block > 1
    for samples in (block - 1, block, block + 1):
        expected = json.dumps(scan_samples_reference(k, m, n, samples, 11), sort_keys=True)
        assert scan_samples(capsys, k, m, n, samples, 11) == expected, samples


def test_grassmann_scan_redraws_like_the_oracle(capsys, monkeypatch):
    # a determinant floor that many 4 x 4 Gaussian draws miss: the redrawn
    # charts come from the same generator state as the oracle's
    monkeypatch.setattr(nullag.cli, "DET_FLOOR", 0.5)
    expected = scan_samples_reference(1, 2, 2, 30, 3, det_floor=0.5)
    assert scan_samples(capsys, 1, 2, 2, 30, 3) == json.dumps(expected, sort_keys=True)
    assert expected != scan_samples_reference(1, 2, 2, 30, 3)


def test_grassmann_scan_v0_probe(capsys):
    # the block-scalar pencil V0 fits a shape when 2k <= min(m, n), and its
    # k(k+1)/2 minor forms then span, float and exact, with Lambda = 1
    for k, m, n in SCAN_SHAPES:
        code, report = run_cli(capsys, "grassmann-scan", str(k), str(m), str(n), "--samples", "0")
        assert code == 0
        if 2 * k > min(m, n):
            assert "v0_probe" not in report, (k, m, n)
            continue
        D = k * (k + 1) // 2
        assert report["v0_probe"] == {"lambda": 1.0, "lambda_nonzero": True, "span_dim": D,
                                      "exact_span_dim": D}, (k, m, n)


def test_grassmann_scan_oversized_shape_exits_precondition(capsys, monkeypatch):
    # one 40,000 x 40,000 chart would take 12.8 GB: refused before a draw
    def no_draw(*args, **kwargs):
        raise AssertionError("a chart was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, report = run_cli(capsys, "grassmann-scan", "1", "200", "200", "--samples", "1")
    assert code == 3
    assert "limit" in report["error"] and report["verdicts"] == []
    assert "samples" not in report


def test_grassmann_scan_too_many_samples_exits_precondition(capsys, monkeypatch):
    # the report keeps every sample: a count over the cap is refused before
    # a chart is drawn or probed
    def no_probe(*args, **kwargs):
        raise AssertionError("a chart was probed")

    monkeypatch.setattr(nullag.cli, "grassmann_genericity", no_probe)
    monkeypatch.setattr(np.random, "default_rng", no_probe)
    samples = nullag.certify.SCAN_SAMPLES + 1
    code, report = run_cli(capsys, "grassmann-scan", "1", "2", "2", "--samples", str(samples))
    assert code == 3
    assert "limit of 100000" in report["error"] and report["verdicts"] == []
    assert "samples" not in report


def test_verify_grassmann_scan_report(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, scan = run_cli(capsys, "grassmann-scan", "2", "4", "4", "--samples", "4",
                         "--json-out", str(out))
    assert code == 0
    code, report = run_cli(capsys, "verify", str(out))
    assert code == 0
    assert "no exact artifact" in report["conclusion"]
    assert report["verdicts"] == [{"operation": "scan-schema", "verdict": True}]
    for key in ("summary", "samples", "inputs"):
        bad = dict(scan)
        del bad[key]
        path = tmp_path / ("scan-no-%s.json" % key)
        path.write_text(json.dumps(bad))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 2 and key in report["error"]


def test_fixtures_list_and_unknown(capsys):
    code, report = run_cli(capsys, "fixtures", "list")
    assert code == 0
    names = [e["name"] for e in report["fixtures"]]
    assert "Kr(r=0)" in names and "rotation" in names
    code, _ = run_cli(capsys, "fixtures", "dump", "garbage")
    assert code == 2
    code, report = run_cli(capsys, "fixtures", "dump", "nope")
    assert code == 2
    assert report["error"] == "unknown fixture 'nope'"
    code, report = run_cli(capsys, "fixtures", "dump", "Kr(r=0")
    assert code == 2
    assert report["error"] == "malformed fixture name 'Kr(r=0'"


# ---------------------------------------------------------------------------
# determinism and process-level entry
# ---------------------------------------------------------------------------

def _strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True)


def test_reports_deterministic(tmp_path, capsys):
    sub = dump_fixture(capsys, "Kr(r=0)")["subspace"]
    path = write_subspace(tmp_path, sub)
    _, rep1 = run_cli(capsys, "analyze", path, "--seed", "7")
    _, rep2 = run_cli(capsys, "analyze", path, "--seed", "7")
    assert _strip_timings(rep1) == _strip_timings(rep2)
    _, g1 = run_cli(capsys, "grassmann-scan", "2", "4", "4", "--samples", "10", "--seed", "3")
    _, g2 = run_cli(capsys, "grassmann-scan", "2", "4", "4", "--samples", "10", "--seed", "3")
    assert _strip_timings(g1) == _strip_timings(g2)


def test_verify_reports_skip_the_artifact_timings(tmp_path, capsys):
    # two runs of one command differ in their timings only; the verify
    # report digests its artifact without them, so the two verify reports
    # are byte-identical once their own timings are dropped
    sub = dump_fixture(capsys, "Kr(r=2)")["subspace"]
    path = write_subspace(tmp_path, sub)
    for argv, code in ((("analyze", path), 10), (("k1", "--flux", "v - 0.5*v^3"), 0)):
        verified = []
        for run in range(2):
            out = tmp_path / ("%s-%d.json" % (argv[0], run))
            assert run_cli(capsys, *argv, "--json-out", str(out))[0] == code
            assert json.loads(out.read_text())["timings"]
            verify_code, report = run_cli(capsys, "verify", str(out))
            assert verify_code == 0
            verified.append(_strip_timings(report))
        assert verified[0] == verified[1], argv[0]


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # one process and one parser: analyze, k1 with non-default options, analyze
    sub = dump_fixture(capsys, "K0")["subspace"]
    path = write_subspace(tmp_path, sub)
    code1, rep1 = run_cli(capsys, "analyze", path)
    code_k1, _ = run_cli(capsys, "k1", "--flux", "quadratic:1", "--alpha2", "0.3", "--s0", "0.05")
    code2, rep2 = run_cli(capsys, "analyze", path)
    assert (code1, code_k1, code2) == (10, 0, 10)
    assert _strip_timings(rep1) == _strip_timings(rep2)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nullag.cli", "fixtures", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)


@pytest.mark.parametrize("d", [0, -1, 5, 9])
def test_fixture_sub_k0_random_outside_its_dimensions_exits_schema(d):
    # no d >= 5 vectors of R^4 are independent, and d <= 0 always fails: a
    # draw that retries would never end, so the command runs in a child with
    # a timeout
    proc = subprocess.run(
        [sys.executable, "-m", "nullag.cli", "fixtures", "dump", "sub-k0-random(seed=1,d=%d)" % d],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "d = %d is outside 1..4: Kr(r=0) is 4-dimensional" % d


def test_closed_stdout_keeps_the_report_and_the_exit_code(tmp_path):
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write meets a broken pipe: the --json-out file is written
    # before it, stderr stays empty and the exit code is k1's own
    out = tmp_path / "k1.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nullag.cli", "k1", "--flux", "v - 0.5*v^3", "--json-out", str(out)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["verify", str(out)]) == 0


def test_reports_use_the_c_encoder(tmp_path, capsys, monkeypatch):
    # json's pure-Python encoder, which an indent selects, is never reached:
    # every command prints one line of JSON, the --json-out file's text
    sub = dump_fixture(capsys, "Kr(r=0)")["subspace"]
    path = write_subspace(tmp_path, sub)

    def no_python_encoder(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", no_python_encoder)
    runs = [
        (("analyze", path), 10),
        (("k1", "--flux", "v - 0.5*v^3"), 0),
        (("verify", str(tmp_path / "report-0.json")), 0),
        (("grassmann-scan", "2", "4", "4", "--samples", "4"), 0),
        (("fixtures", "dump", "Kr(r=1)"), 0),
    ]
    for i, (argv, code) in enumerate(runs):
        out = tmp_path / ("report-%d.json" % i)
        assert main([*argv, "--json-out", str(out)]) == code, argv
        printed = capsys.readouterr().out
        text = out.read_text()
        assert printed == text and text.count("\n") == 1 and text.endswith("\n"), argv
        assert json.loads(printed) == json.loads(text), argv

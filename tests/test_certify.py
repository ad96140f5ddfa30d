import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nullag.algebra import (
    QuadraticForm,
    RationalMatrix,
    enumerate_minors,
    independent_indices,
    psd_analyze,
    rat_from_str,
)
from nullag.certify import (
    Obstruction,
    TrivialityCertificate,
    _certificate_target,
    _identity_combination,
    _same_span,
    check_certificate,
    find_certificate_d_le_3,
    grassmann_genericity,
    reduce_chain,
    verify_combination,
)
from nullag.fixtures import (
    k0_pencil,
    kr_family,
    quaternion_pencil,
    rotation_pencil,
    sub_k0_random,
    v0_subspace,
)
from nullag.subspace import MinorForms, Subspace, minor_polys
from bench_inputs import certify_corpus_subspaces
from genericity_oracle import chart_bases, exact_span_dim, genericity_reference
from pencil_ops import apply_ops, random_pencil_ops
from poly_oracle import form_value
from rank_one_oracle import find_rank_one_exact


# ---------------------------------------------------------------------------
# constructive search, d <= 3
# ---------------------------------------------------------------------------

def test_certificate_diag_pencil():
    K = v0_subspace(2, 4, 4)
    out = find_certificate_d_le_3(K)
    assert out.found
    rep = verify_combination(K, out.combination)
    assert rep.ok
    # the two squared-coordinate minors give the identity form directly
    beta = {((0, 1), (0, 1)): Fraction(1),  # y1^2
            ((2, 3), (2, 3)): Fraction(1)}  # y2^2
    form = K.combination(beta)
    assert form.matrix == RationalMatrix.identity(2)
    rep2 = psd_analyze(form.matrix)
    assert rep2.is_psd and rep2.rank == 2 and rep2.kernel == []
    assert verify_combination(K, beta).ok


def test_certificate_rotation_single_minor():
    K = rotation_pencil()
    out = find_certificate_d_le_3(K)
    assert out.found
    beta = out.combination
    (b,) = beta.values()
    assert list(beta) == [((0, 1), (0, 1))] and b != 0
    form = K.combination(beta)
    assert form.matrix == RationalMatrix.identity(2).scale(abs(b))
    assert verify_combination(K, out.combination).ok


def test_certificate_refused_on_rank_one():
    out = find_certificate_d_le_3(k0_pencil())
    assert not out.found
    assert out.rank_one_witness is not None
    K = k0_pencil()
    assert K.evaluate(out.rank_one_witness).rank() == 1


def test_certificate_d3_quaternion():
    K = quaternion_pencil()
    out = find_certificate_d_le_3(K)
    assert out.found
    assert verify_combination(K, out.combination).ok


def test_certificate_d_too_large():
    with pytest.raises(ValueError):
        find_certificate_d_le_3(kr_family(0))


def test_certificate_fuzz_sub_k0():
    for seed in range(25):
        for d in (1, 2, 3):
            K = sub_k0_random(seed * 10 + d, d)
            out = find_certificate_d_le_3(K)
            assert out.found, "missing certificate for seed=%d d=%d" % (seed, d)
            assert verify_combination(K, out.combination).ok


def test_certificate_transport_invariance():
    rng = random.Random(5)
    cases = [
        (rotation_pencil(), True),
        (v0_subspace(2, 4, 4), True),
        (quaternion_pencil(), True),
        (k0_pencil(), False),
        (sub_k0_random(3, 3), True),
    ]
    for K, expect in cases:
        for _ in range(20):
            ops = random_pencil_ops(K.m, K.n, rng.randint(1, 6), rng)
            K2 = apply_ops(K, ops)
            out = find_certificate_d_le_3(K2)
            assert out.found == expect
            if out.found:
                assert verify_combination(K2, out.combination).ok


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_zero_combination_rejected():
    # a certificate step with no non-zero coefficient is malformed
    obj = reduce_chain(rotation_pencil()).to_json(rotation_pencil())
    for beta in ({}, {"0,1|0,1": "0"}):
        obj["chain"][0]["beta"] = beta
        with pytest.raises(ValueError, match="bad certificate JSON"):
            TrivialityCertificate.chain_from_json(obj)


def test_indefinite_combination_witnesses():
    K = kr_family(0)
    beta = {((0, 1), (0, 1)): Fraction(1)}  # gamma^2 - alpha^2 on the pencil
    rep = verify_combination(K, beta)
    assert rep.verdict == "indefinite"
    form = K.combination(beta)
    assert form_value(form, rep.neg_witness) < 0
    assert form_value(form, rep.pos_witness) > 0


def test_verify_on_restricted_cone():
    K = v0_subspace(2, 4, 4)
    out = find_certificate_d_le_3(K)
    cone = [(Fraction(1), Fraction(0))]
    rep = verify_combination(K.restricted(cone), out.combination)
    assert rep.verdict in ("psd-nontrivial", "trivial")


# ---------------------------------------------------------------------------
# descending chain
# ---------------------------------------------------------------------------

def test_chain_diag_pencil_terminal():
    K = v0_subspace(2, 4, 4)
    cert = reduce_chain(K)
    assert isinstance(cert, TrivialityCertificate)
    assert check_certificate(cert.to_json(K)) == (True, [
        {"operation": "verify_combination", "step": i, "verdict": "psd-nontrivial"}
        for i in range(len(cert.chain))])
    assert 1 <= len(cert.chain) <= K.d
    dims = [len(c) for c in cert.cones]
    assert dims[0] == K.d
    assert all(dims[i] > dims[i + 1] for i in range(len(dims) - 1))


def test_chain_rotation_terminal():
    cert = reduce_chain(rotation_pencil())
    assert isinstance(cert, TrivialityCertificate) and len(cert.chain) == 1


def test_chain_quaternion_terminal():
    cert = reduce_chain(quaternion_pencil())
    assert isinstance(cert, TrivialityCertificate) and len(cert.chain) <= 3


def test_chain_k0_obstruction():
    res = reduce_chain(kr_family(0))
    assert isinstance(res, Obstruction)
    assert len(res.cone) == 4  # stuck on the whole space


def test_chain_rank_one_obstruction():
    res = reduce_chain(k0_pencil())
    assert isinstance(res, Obstruction)
    assert res.rank_one_witness is not None
    assert k0_pencil().evaluate(res.rank_one_witness).rank() == 1


def test_chain_fuzz_terminal_and_bounded():
    for seed in range(12):
        for d in (2, 3):
            K = sub_k0_random(seed * 7 + d, d)
            cert = reduce_chain(K)
            assert isinstance(cert, TrivialityCertificate) and check_certificate(cert.to_json(K))[0]
            assert len(cert.chain) <= d


def test_check_certificate_builds_no_form_table(monkeypatch):
    # a certificate is checked at the cost of its betas: each certify-corpus
    # certificate (seed 1) checks to the same result when no table of minor
    # forms can be built
    certs = []
    for sub in certify_corpus_subspaces(1):
        K = Subspace.from_json(sub)
        cert = reduce_chain(K)
        if isinstance(cert, TrivialityCertificate):
            obj = cert.to_json(K)
            certs.append((obj, check_certificate(obj)))
    assert len(certs) == 90 and all(ok for _, (ok, _) in certs)

    def refuse(self, K):
        raise AssertionError("a table of minor forms was built")

    monkeypatch.setattr(MinorForms, "__init__", refuse)
    for obj, want in certs:
        assert check_certificate(obj) == want


def _same_span_by_ranks(cone, stored):
    """Equal spans as three ranks: the cone's, the stored cone's and their
    union's."""
    if not cone or not stored:
        return not cone and not stored
    rank = lambda vectors: len(independent_indices(vectors))
    return rank(cone) == rank(stored) == rank(list(cone) + list(stored))


def test_same_span_matches_three_ranks():
    # the walk's cone is a basis; the stored cone, as a certificate's JSON
    # may give it, is the cone recombined with redundant vectors, rescaled,
    # short of a vector, with a zero vector, another space or empty
    rng = random.Random(742)
    small = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    combine = lambda vectors: [sum((small() * v[t] for v in vectors), Fraction(0)) for t in range(d)]
    seen = Counter()
    for case in range(600):
        d = rng.randint(1, 5)
        cone = [[small() for _ in range(d)] for _ in range(rng.randint(0, d))]
        cone = [cone[i] for i in independent_indices(cone)]
        kind = ("redundant", "rescaled", "dependent", "zero", "other", "empty")[case % 6]
        if kind == "redundant":
            stored = [combine(cone) for _ in range(len(cone) + rng.randint(0, 2))] + cone[: rng.randint(0, 1)]
        elif kind == "rescaled":
            stored = [[rng.choice((-2, Fraction(1, 3), 5)) * x for x in v] for v in cone]
        elif kind == "dependent":
            stored = [combine(cone[1:]) for _ in range(len(cone))] if len(cone) > 1 else [[0] * d]
        elif kind == "zero":
            stored = cone + [[0] * d]
            rng.shuffle(stored)
        elif kind == "other":
            stored = [[small() for _ in range(d)] for _ in range(rng.randint(1, d))]
        else:
            stored = []
        want = _same_span_by_ranks(cone, stored)
        assert _same_span(cone, stored) == want, (case, cone, stored)
        seen[kind, want] += 1
    assert {("redundant", True), ("rescaled", True), ("dependent", False), ("zero", True),
            ("other", True), ("other", False), ("empty", True), ("empty", False)} <= set(seen)


def test_chain_json_roundtrip():
    K = v0_subspace(2, 4, 4)
    cert = reduce_chain(K)
    obj = cert.to_json(K)
    assert all(all(re.fullmatch(r"[0-3],[0-3]\|[0-3],[0-3]", key) for key in step["beta"])
               for step in obj["chain"])
    chain, terminal = TrivialityCertificate.chain_from_json(obj)
    assert terminal is True
    assert [beta for beta, _ in chain] == cert.chain
    assert [cone for _, cone in chain] == cert.cones
    K2 = Subspace.from_json(obj["subspace"])
    assert K2 == K


def _identity_in_minor_span(K):
    """Whether I lies in the span of the S_k, by the independence kernel."""
    d = K.d
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    vectors = [tuple(Fraction(S.get(key, 0)) for key in upper) for S in K.minor_forms().S.values()]
    vectors.append(tuple(Fraction(int(i == j)) for i, j in upper))
    return len(vectors) - 1 not in independent_indices(vectors)


def _symmetric_terminal_pencil(rng):
    """[[z1, z2, z3], [z2, a.z, b.z], [z3, b.z, c.z]]: the shape the d = 3
    reduction leaves untouched and ends at without either outcome."""
    a, b, c = ([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)] for _ in range(3))
    basis = []
    for l in range(3):
        e = [Fraction(int(l == k)) for k in range(3)]
        basis.append([[e[0], e[1], e[2]], [e[1], a[l], b[l]], [e[2], b[l], c[l]]])
    return Subspace(basis)


def _identity_step_cases():
    rng = random.Random(11)
    cases = []
    while len(cases) < 30:
        d = 4 + len(cases) % 3
        density = (0.3, 0.5, 1.0)[len(cases) % 3]
        basis = [[[Fraction(rng.randint(-2, 2)) if rng.random() < density else Fraction(0)
                   for _ in range(4)] for _ in range(4)] for _ in range(d)]
        try:
            cases.append(("4x4", Subspace(basis)))
        except ValueError:
            continue
    cases += [("symmetric", _symmetric_terminal_pencil(rng)) for _ in range(10)]
    cases += [("kr", kr_family(r)) for r in (2, 3, 4)]
    return cases


def test_identity_step_is_exact_span_membership():
    outcomes = set()
    outside = "identity form is outside the span of the minor forms"
    for family, K in _identity_step_cases():
        in_span = _identity_in_minor_span(K)
        outcomes.add((family, in_span))
        if family == "symmetric":
            kind, _, note = _certificate_target(K)
            assert kind == "symmetric", note
            outcome = find_certificate_d_le_3(K)
        else:
            outcome = _identity_combination(K)
            # the d >= 4 chain is this one step
            res = reduce_chain(K)
            if in_span:
                assert isinstance(res, TrivialityCertificate) and len(res.chain) == 1
            else:
                assert isinstance(res, Obstruction) and len(res.cone) == K.d
                assert res.rank_one_witness is None and res.note == outside
        assert outcome.found == in_span
        if in_span:
            form = K.combination(outcome.combination)
            assert form.matrix == RationalMatrix.identity(K.d)
        else:
            assert outcome.rank_one_witness is None
            assert outcome.note.endswith(outside)
    # both outcomes occur on the 4x4 draws; Kr(r) lies outside the span
    assert {("4x4", True), ("4x4", False), ("symmetric", True), ("kr", False)} <= outcomes


def test_identity_step_note_keeps_the_context():
    outcome = _identity_combination(kr_family(2), "reduction terminated at a symmetric 3x3 pencil")
    assert not outcome.found
    assert outcome.note == ("reduction terminated at a symmetric 3x3 pencil; "
                            "identity form is outside the span of the minor forms")


# ---------------------------------------------------------------------------
# the chain against the exact rank-one oracle, d <= 2
# ---------------------------------------------------------------------------

# c with sqrt(c) irrational: [[z1, z2], [z2, c z1]] drops rank only at
# z2 = ±sqrt(c) z1
NON_SQUARES = (2, 3, 5, 6, 7, 8, 10, Fraction(1, 2), Fraction(3, 4), Fraction(5, 9), Fraction(12, 7))


def _low_dimension_draw(rng):
    """One d in {1, 2} pencil of shape 2..4 x 2..4, from one of four families."""
    m, n, d = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 2)
    family = rng.choice(("dense", "sparse", "dyad", "irrational"))
    if family == "irrational":
        c = rng.choice(NON_SQUARES)
        pad = lambda b: [[b[i][j] if i < 2 and j < 2 else 0 for j in range(n)] for i in range(m)]
        K = Subspace([pad([[1, 0], [0, c]]), pad([[0, 1], [1, 0]])])
        return family, apply_ops(K, random_pencil_ops(m, n, 6, rng))
    keep = 0.4 if family == "sparse" else 1.0
    while True:
        basis = [
            [[rng.randint(-3, 3) if rng.random() < keep else 0 for _ in range(n)] for _ in range(m)]
            for _ in range(d)
        ]
        if family == "dyad":
            u = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(m)]
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            basis[0] = [[a * b for b in v] for a in u]
        try:
            return family, Subspace(basis)
        except ValueError:
            continue


def low_dimension_pencils(count=600, seed=19):
    rng = random.Random(seed)
    return [_low_dimension_draw(rng) for _ in range(count)]


def _is_rational_square(x):
    return x > 0 and all(math.isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))


def test_chain_agrees_with_exact_rank_one_oracle():
    # for d <= 2 the chain alone decides the rank-one question: a terminal
    # chain means no direction, a witness is a rational direction, and no
    # witness means only irrational ones, in the quadratic field the
    # oracle's minimal polynomial names
    outcomes = Counter()
    for family, K in low_dimension_pencils():
        chain = reduce_chain(K)
        oracle = find_rank_one_exact(K)
        terminal = isinstance(chain, TrivialityCertificate)
        assert terminal == (not oracle.found), K.to_json()
        if terminal:
            outcome = "terminal"
        elif chain.rank_one_witness is not None:
            outcome = "rational"
            assert oracle.witness is not None, K.to_json()
            assert K.evaluate(chain.rank_one_witness).rank() == 1
            assert K.evaluate(oracle.witness).rank() == 1
        else:
            outcome = "irrational"
            assert oracle.witness is None and oracle.witness_minpoly is not None, K.to_json()
            found = re.search(r"irrational real root \(discriminant (\S+)\)$", chain.note)
            assert found, chain.note
            c0, c1, _ = oracle.witness_minpoly["coeffs"]
            assert _is_rational_square(rat_from_str(found.group(1)) / (c1 * c1 - 4 * c0))
        outcomes[family, outcome] += 1
    assert sum(outcomes.values()) >= 500
    assert outcomes["irrational", "irrational"] >= 50
    assert {("dense", "terminal"), ("sparse", "terminal"), ("sparse", "rational"),
            ("dyad", "rational")} <= set(outcomes)


# ---------------------------------------------------------------------------
# Grassmannian genericity
# ---------------------------------------------------------------------------

def test_grassmann_v0_chart():
    V0 = v0_subspace(2, 4, 4)
    [rep] = grassmann_genericity(2, 4, 4, [V0.basis_float()])
    assert V0.minor_forms().span_dim() == 3  # k(k+1)/2
    assert rep.span_dim == 3
    assert abs(rep.lambda_value) > 1e-12
    assert rep.beta is not None and rep.min_eigenvalue > 0
    assert abs(rep.min_eigenvalue - 1) < 1e-6  # beta's form is the identity
    assert len(rep.beta) == 36  # one entry per order-2 minor of 4 x 4, C(4,2)^2


def test_grassmann_degenerate_dyad_chart():
    # W0 spanned by two matrices sharing one row: the pencil stays rank <= 1
    p = 16
    e11 = [Fraction(0)] * p
    e11[0] = Fraction(1)
    e12 = [Fraction(0)] * p
    e12[1] = Fraction(1)
    used = {0, 1}
    W1 = []
    for t in range(p):
        if t not in used:
            v = [Fraction(0)] * p
            v[t] = Fraction(1)
            W1.append(v)
    A = [[0, 0]] * (p - 2)
    [rep] = grassmann_genericity(2, 4, 4, chart_bases(2, [[e11, e12] + W1], [A]))
    assert rep.span_dim < 3
    assert abs(rep.lambda_value) <= 1e-12
    assert exact_span_dim(2, 4, 4, [e11, e12] + W1, A) == 0


def _rational_chart(rng, k, m, n, family):
    """A seeded rational chart (W0, W1, A) with small-integer non-zero A.

    The chart subspace is drawn first, from ``family``:
      "dense"     small-integer matrices;
      "one-row"   matrices supported in row 0 (needs n >= k), no non-zero minor;
      "factored"  U_l V with U_l of size m x 2 and V of size 2 x n, whose
                  minors are multiples of the minors of the U pencil.
    W1 holds the coordinate vectors off the pivot columns of the subspace
    basis, A is seeded, and W0 = T - A^T W1, so the chart subspace is T.
    """
    p = m * n
    small = lambda: Fraction(rng.randint(-2, 2))
    while True:
        if family == "dense":
            T = [[small() for _ in range(p)] for _ in range(k)]
        elif family == "one-row":
            T = [[small() if t < n else Fraction(0) for t in range(p)] for _ in range(k)]
        else:
            V = [[small() for _ in range(n)] for _ in range(2)]
            T = []
            for _ in range(k):
                U = [[small() for _ in range(2)] for _ in range(m)]
                T.append([U[i][0] * V[0][j] + U[i][1] * V[1][j] for i in range(m) for j in range(n)])
        pivots = RationalMatrix(T).rref()[1]
        if len(pivots) == k:
            break
    W1 = [[Fraction(int(t == s)) for t in range(p)] for s in range(p) if s not in pivots]
    A = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(p - k)]
    A[rng.randrange(p - k)][rng.randrange(k)] = Fraction(rng.choice((-2, -1, 1, 2)))
    W0 = [
        [x - sum(A[i][l] * W1[i][t] for i in range(p - k)) for t, x in enumerate(T[l])]
        for l in range(k)
    ]
    return W0, W1, A


def test_grassmann_exact_span_matches_float_on_rational_charts():
    rng = random.Random(2024)
    seen = set()
    for case in range(60):
        k = rng.randint(1, 3)
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        family = ("dense", "one-row", "factored")[case % 3]
        if family == "one-row" and n < k:
            family = "dense"
        W0, W1, A = _rational_chart(rng, k, m, n, family)
        [rep] = grassmann_genericity(k, m, n, chart_bases(k, [W0 + W1], [A]))
        exact = exact_span_dim(k, m, n, W0 + W1, A)
        assert exact == rep.span_dim, (case, k, m, n, family)
        if family == "one-row":
            assert exact == 0
        seen.add((family, exact))
    # full, partial and zero spans all occur
    assert {("one-row", 0), ("dense", 3), ("dense", 6), ("factored", 3)} <= seen


def test_grassmann_random_scan():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(50):
        basis = rng.standard_normal((16, 16))
        while abs(np.linalg.det(basis)) < 1e-6:
            basis = rng.standard_normal((16, 16))
        W0 = [list(v) for v in basis[:2]]
        W1 = [list(v) for v in basis[2:]]
        A = rng.standard_normal((14, 2))
        [rep] = grassmann_genericity(2, 4, 4, chart_bases(2, [W0 + W1], [A]))
        if abs(rep.lambda_value) > 1e-12 and rep.beta is not None and rep.min_eigenvalue > 0:
            hits += 1
            assert abs(rep.min_eigenvalue - 1) < 1e-6
            # positive combination stays positive on sampled directions
            span = np.array(W0) + A.T @ np.array(W1)
            pairs = enumerate_minors(4, 4, 2)
            for _ in range(10):
                y = rng.standard_normal(2)
                X = (y @ span).reshape(4, 4)
                total = 0.0
                for b, (rows, cols) in zip(rep.beta, pairs):
                    total += b * np.linalg.det(X[np.ix_(rows, cols)])
                assert total > 0
    assert hits == 50


def test_grassmann_rejects_bad_chart():
    # a block of 2-dimensional subspaces of 4 x 4 matrices is (S, 2, 16)
    basis = v0_subspace(2, 4, 4).basis_float()
    for bad in (basis, [basis[:1]], [np.vstack([basis, basis[:1]])], [basis[:, :15]],
                [basis.reshape(2, 4, 4)], [list(basis[0]), list(basis[1][:15])]):
        with pytest.raises(ValueError):
            grassmann_genericity(2, 4, 4, bad)
    assert grassmann_genericity(2, 4, 4, np.empty((0, 2, 16))) == []


def _same_report(a, b):
    """Two genericity reports agree bit for bit."""
    return (
        (a.lambda_value, a.span_dim, a.min_eigenvalue)
        == (b.lambda_value, b.span_dim, b.min_eigenvalue)
        and (a.beta is None) == (b.beta is None)
        and (a.beta is None or a.beta.tobytes() == b.beta.tobytes())
    )


def test_grassmann_block_matches_per_chart_oracle():
    # every chart of a stacked block reports what the per-chart builder
    # reports, bit for bit, for k = 1..3 on every shape from 2 x 2 to 6 x 6
    rng = np.random.default_rng(24)
    for k in (1, 2, 3):
        for m in range(2, 7):
            for n in range(2, 7):
                p = m * n
                rows = rng.standard_normal((5, p, p))
                A = rng.standard_normal((5, p - k, k))
                reports = grassmann_genericity(k, m, n, chart_bases(k, rows, A))
                assert len(reports) == 5
                for chart, chart_A, rep in zip(rows, A, reports):
                    ref = genericity_reference(k, m, n, (chart[:k], chart[k:]), chart_A)
                    assert _same_report(rep, ref), (k, m, n)
                    # fewer minors than form entries (k = 3 on 2 x 2: one
                    # minor, six entries) leave the span short and no beta
                    q0 = m * (m - 1) * n * (n - 1) // 4
                    assert (rep.beta is None) == (q0 < k * (k + 1) // 2), (k, m, n)


def test_grassmann_block_mixes_rational_charts():
    # the block-scalar chart (span 3) and the dyad chart (span 0) in one
    # block, with a float chart between them: the exact span dimension
    # exists on the rational charts only
    e = lambda t: [Fraction(int(s == t)) for s in range(16)]
    # the block-scalar chart: V0's basis over the coordinate vectors off its
    # basis matrices' first non-zero entries, 0 and 10, and A = 0
    v0 = [[b[i, j] for i in range(4) for j in range(4)] for b in v0_subspace(2, 4, 4).basis]
    v0 += [e(t) for t in range(16) if t not in (0, 10)]
    dyad = [e(t) for t in range(16)]
    floats = np.random.default_rng(5).standard_normal((16, 16))
    charts = [v0, list(floats), dyad]
    As = [[[0, 0]] * 14, np.ones((14, 2)), [[0, 0]] * 14]
    reports = grassmann_genericity(2, 4, 4, chart_bases(2, charts, As))
    assert [exact_span_dim(2, 4, 4, chart, chart_A) for chart, chart_A in zip(charts, As)] == [3, None, 0]
    for chart, chart_A, rep in zip(charts, As, reports):
        assert _same_report(rep, genericity_reference(2, 4, 4, (chart[:2], chart[2:]), chart_A))


def test_grassmann_block_rejects_non_transversal_chart():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((3, 16, 16))
    rows[1, 5] = rows[1, 0]  # chart 1: a W1 row repeats a W0 row
    A = rng.standard_normal((3, 14, 2))
    with pytest.raises(ValueError, match="transversal"):
        genericity_reference(2, 4, 4, (rows[1, :2], rows[1, 2:]), A[1])


def test_solve_beta_consistency():
    K = rotation_pencil()
    polys = minor_polys(K, 2)
    g = polys[0]
    beta = K.minor_forms().solve(QuadraticForm.from_poly(g).matrix)
    assert beta == {((0, 1), (0, 1)): Fraction(1)}

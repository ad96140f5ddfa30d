import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from nullag.algebra import MultiPoly, RationalMatrix
from nullag.fixtures import kr_family
from bench_inputs import sym3_open_pool
from pencil_ops import PencilOp, apply_ops, random_pencil_ops
from poly_oracle import poly_eval, span_basis_indices
from rank_one_oracle import find_rank_one_exact, poly_divides
from sample_oracle import evaluate_reference
from sweep_oracle import find_rank_one_reference, residuals_reference
from nullag.subspace import (
    Subspace,
    _live_minor_index_arrays,
    _minor_index_arrays,
    _score_factor,
    _scores,
    _sphere_samples,
    find_rank_one,
    minor_polys,
    parametrize,
)


def rand_rat(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def diag_pencil_2():
    # diag(z1, z1, z2, z2) inside 4x4 matrices
    b1 = [[0] * 4 for _ in range(4)]
    b2 = [[0] * 4 for _ in range(4)]
    b1[0][0] = b1[1][1] = 1
    b2[2][2] = b2[3][3] = 1
    return Subspace([b1, b2])


def k0_subspace():
    # four-dimensional pencil with no rank-one directions
    # [[b+d, a-c, c], [a+c, 0, d], [a, b, 0]]
    Ba = [[0, 1, 0], [1, 0, 0], [1, 0, 0]]
    Bb = [[1, 0, 0], [0, 0, 0], [0, 1, 0]]
    Bc = [[0, -1, 1], [1, 0, 0], [0, 0, 0]]
    Bd = [[1, 0, 0], [0, 0, 1], [0, 0, 0]]
    return Subspace([Ba, Bb, Bc, Bd])


def rotation_pencil():
    return Subspace([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def quaternion_pencil():
    one = RationalMatrix.identity(4)
    i = RationalMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j = RationalMatrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    return Subspace([one, i, j])


def random_subspace(rng, m, n, d, span=5):
    while True:
        basis = [[[rand_rat(rng, span) for _ in range(n)] for _ in range(m)] for _ in range(d)]
        try:
            return Subspace(basis)
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# construction and parametrization
# ---------------------------------------------------------------------------

def test_dependent_basis_rejected():
    # the message names one vanishing combination of the basis
    with pytest.raises(ValueError, match=re.escape("linearly dependent: (-2)*B1 + (1)*B2 = 0")):
        Subspace([[[1, 0], [0, 0]], [[2, 0], [0, 0]]])
    with pytest.raises(ValueError, match=re.escape("(-1)*B1 + (-1)*B2 + (1)*B3 = 0")):
        Subspace([[[1, 0], [0, 3]], [[0, 1], [0, 0]], [[1, 1], [0, 3]]])


def test_parametrize_single_dyad():
    K = Subspace([[[1, 0], [0, 0]]])
    pencil = parametrize(K)
    assert pencil[0][0] == MultiPoly(1, {(1,): 1})
    assert pencil[0][1].is_zero() and pencil[1][0].is_zero() and pencil[1][1].is_zero()


def test_parametrize_diag_pencil():
    K = diag_pencil_2()
    pencil = parametrize(K)
    z1 = MultiPoly(2, {(1, 0): 1})
    z2 = MultiPoly(2, {(0, 1): 1})
    assert pencil[0][0] == z1 and pencil[1][1] == z1
    assert pencil[2][2] == z2 and pencil[3][3] == z2
    assert pencil[0][1].is_zero()


def test_parametrize_matches_evaluation():
    rng = random.Random(0)
    K = random_subspace(rng, 3, 3, 3)
    pencil = parametrize(K)
    for _ in range(10):
        z = [rand_rat(rng) for _ in range(3)]
        M = K.evaluate(z)
        for i in range(3):
            for j in range(3):
                assert poly_eval(pencil[i][j], z) == M[i, j]


def test_evaluate_matches_dense_sum():
    # seeded pencils up to 5 x 5 with zero entries, at points with zero,
    # integer and fractional coordinates (ints and strings are coerced);
    # most bases have denominators, so P(z) is read off the integer grid
    # L * P over L times the point's own lcm
    rng = random.Random(41)
    with_denominators = 0
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        d = rng.randint(1, min(6, m * n))
        while True:
            basis = [[[rand_rat(rng) if rng.random() < 0.4 else 0 for _ in range(n)]
                      for _ in range(m)] for _ in range(d)]
            try:
                K = Subspace(basis)
                break
            except ValueError:
                continue
        for _ in range(4):
            z = [rng.choice((0, 0, rng.randint(-3, 3), rand_rat(rng), str(rand_rat(rng))))
                 for _ in range(d)]
            assert K.evaluate(z) == evaluate_reference(K, z)
        with_denominators += K.L > 1
    assert with_denominators >= 100
    K = random_subspace(rng, 2, 3, 2)
    assert K.evaluate((0, 0)) == RationalMatrix([[0] * 3] * 2)
    with pytest.raises(TypeError):
        K.evaluate((Fraction(1), 0.5))
    with pytest.raises(TypeError):
        K.evaluate((0.0, 1))
    for z in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            K.evaluate(z)


def test_subspace_json_roundtrip():
    K = k0_subspace()
    K2 = Subspace.from_json(K.to_json())
    assert K2 == K
    with pytest.raises(ValueError):
        Subspace.from_json({"basis": [[["1", "0"]]], "d": 7})


def test_subspace_json_roundtrip_seeded():
    # rational bases with negative and fractional entries, through the
    # serialized text as well
    rng = random.Random(79)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        K = random_subspace(rng, m, n, rng.randint(1, min(m * n, 4)), span=rng.choice((1, 5, 12)))
        obj = K.to_json()
        assert Subspace.from_json(obj) == K
        assert Subspace.from_json(json.loads(json.dumps(obj))) == K


# ---------------------------------------------------------------------------
# pencil operations
# ---------------------------------------------------------------------------

def test_apply_ops_identity():
    K = k0_subspace()
    assert apply_ops(K, []) == K


def test_apply_ops_rejects_zero_scale():
    with pytest.raises(ValueError):
        PencilOp("row-scale", 0, c=0)


def test_apply_ops_preserves_rank_profile():
    rng = random.Random(1)
    for trial in range(8):
        K = random_subspace(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3))
        ops = random_pencil_ops(K.m, K.n, 12, rng)
        K2 = apply_ops(K, ops)
        for _ in range(50):
            z = [rand_rat(rng) for _ in range(K.d)]
            assert K.evaluate(z).rank() == K2.evaluate(z).rank()


def test_minor_span_invariant_under_ops():
    rng = random.Random(2)
    for trial in range(6):
        K = random_subspace(rng, rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 3))
        ops = random_pencil_ops(K.m, K.n, 10, rng)
        K2 = apply_ops(K, ops)
        s1 = minor_polys(K, 2)
        s2 = minor_polys(K2, 2)
        r1 = len(span_basis_indices(s1))
        r2 = len(span_basis_indices(s2))
        r12 = len(span_basis_indices(s1 + s2))
        assert r1 == r2 == r12


def test_row_swap_keeps_rank_one_freedom():
    K = rotation_pencil()
    K2 = apply_ops(K, [PencilOp("row-swap", 0, 1)])
    assert not find_rank_one_exact(K).found
    assert not find_rank_one_exact(K2).found


# ---------------------------------------------------------------------------
# minor spans
# ---------------------------------------------------------------------------

def test_minor_span_diag_pencil():
    polys = minor_polys(diag_pencil_2(), 2)
    y1sq = MultiPoly(2, {(2, 0): 1})
    y2sq = MultiPoly(2, {(0, 2): 1})
    y1y2 = MultiPoly(2, {(1, 1): 1})
    assert len(span_basis_indices(polys)) == 3  # k(k+1)/2 with k = 2
    present = set()
    for p in polys:
        for target, tag in ((y1sq, "y1sq"), (y2sq, "y2sq"), (y1y2, "y1y2")):
            if p == target:
                present.add(tag)
    assert present == {"y1sq", "y2sq", "y1y2"}


def test_minor_span_rank_one_line():
    K = Subspace([[[1, 0], [0, 0]]])
    polys = minor_polys(K, 2)
    assert all(p.is_zero() for p in polys)
    assert span_basis_indices(polys) == []


# ---------------------------------------------------------------------------
# rank-one detection, exact
# ---------------------------------------------------------------------------

def test_exact_d1():
    assert find_rank_one_exact(Subspace([[[1, 0], [0, 0]]])).found
    res = find_rank_one_exact(Subspace([[[1, 0], [0, 1]]]))
    assert not res.found and res.is_proof


def test_exact_diag_2x2():
    K = Subspace([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    res = find_rank_one_exact(K)
    assert res.found and res.is_proof
    assert res.witness in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert K.evaluate(res.witness).rank() == 1


def test_exact_rotation_none():
    res = find_rank_one_exact(rotation_pencil())
    assert not res.found and res.is_proof


def test_exact_rational_root():
    # pencil [[z1, z2], [z2, z1]]: determinant z1^2 - z2^2 vanishes at (1, 1)
    K = Subspace([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    res = find_rank_one_exact(K)
    assert res.found and res.witness is not None
    M = K.evaluate(res.witness)
    assert M.rank() == 1
    for p in minor_polys(K, 2):
        assert poly_eval(p, res.witness) == 0


def test_exact_irrational_root_certified_by_divisibility():
    # pencil [[z1, z2], [z2, 2 z1]]: determinant 2 z1^2 - z2^2, roots z2 = ±sqrt(2) z1
    K = Subspace([[[1, 0], [0, 2]], [[0, 1], [1, 0]]])
    res = find_rank_one_exact(K)
    assert res.found and res.is_proof
    assert res.witness is None and res.witness_minpoly is not None
    g = list(res.witness_minpoly["coeffs"])
    for p in minor_polys(K, 2):
        uni = [
            p.terms.get((0, 2), Fraction(0)),
            p.terms.get((1, 1), Fraction(0)),
            p.terms.get((2, 0), Fraction(0)),
        ]
        assert poly_divides(g, uni)
    # and the float direction nearly kills the pencil rank
    z = res.witness_float
    M = K.evaluate((Fraction(0), Fraction(0)))  # shape probe
    E = K.basis_float()
    P = (z @ E).reshape(2, 2)
    assert abs(np.linalg.det(P)) < 1e-9


def test_exact_agrees_with_numeric_fuzz():
    rng = random.Random(3)
    checked = 0
    for _ in range(100):
        K = random_subspace(rng, rng.randint(2, 3), rng.randint(2, 3), 2, span=3)
        exact = find_rank_one_exact(K)
        numeric = find_rank_one(K, density=4000, seed=7)
        if exact.found:
            assert numeric.found, "numeric search missed an existing direction: %r" % K
            if exact.witness is not None:
                for p in minor_polys(K, 2):
                    assert poly_eval(p, exact.witness) == 0
        else:
            assert not numeric.found
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# rank-one detection, numeric
# ---------------------------------------------------------------------------

def test_numeric_planted_witness_polished():
    rng = random.Random(4)
    hits = 0
    for _ in range(10):
        u = [rand_rat(rng, 3) for _ in range(3)]
        v = [rand_rat(rng, 3) for _ in range(3)]
        if all(x == 0 for x in u) or all(x == 0 for x in v):
            continue
        dyad = [[a * b for b in v] for a in u]
        while True:
            rest = [
                [[rand_rat(rng, 3) for _ in range(3)] for _ in range(3)] for _ in range(2)
            ]
            try:
                K = Subspace([dyad] + rest)
                break
            except ValueError:
                continue
        res = find_rank_one(K, density=4000, seed=11)
        assert res.found
        assert res.residual < 1e-9
        if res.witness is not None:
            assert K.evaluate(res.witness).rank() == 1
            hits += 1
    assert hits >= 5  # polishing should succeed most of the time


def test_numeric_absence_quaternion():
    res = find_rank_one(quaternion_pencil(), density=8000, seed=5)
    assert not res.found
    assert res.residual is not None and res.residual > 1e-6
    assert res.witness is None  # numeric non-detection is not a proof


def test_numeric_absence_k0():
    res = find_rank_one(k0_subspace(), density=20000, seed=9)
    assert not res.found
    assert res.residual > 1e-6


def sparse_pencil(rng, m, n, d):
    """d independent integer m x n matrices, each entry zero with probability 1/2."""
    while True:
        basis = [
            [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(m)]
            for _ in range(d)
        ]
        try:
            return Subspace(basis)
        except ValueError:
            continue


def test_live_minor_residuals_match_all_minors():
    # a minor whose exact form is zero adds nothing to the residual, and the
    # factor of the live forms gives the residual of every minor
    rng = random.Random(17)
    pencils = [kr_family(r) for r in range(3)] + [sparse_pencil(rng, 3, 5, 4) for _ in range(6)]
    dropped = 0
    for K in pencils:
        full = _minor_index_arrays(K.m, K.n)
        dropped += len(full[0]) - len(_live_minor_index_arrays(K)[0])
        B = K.basis_float()
        Z = _sphere_samples(K.d, 2000, 3)
        R, G = _score_factor(K, B)
        assert R.shape[1] == K.d * (K.d + 1) // 2 >= R.shape[0]
        np.testing.assert_allclose(_scores(Z, R, G), residuals_reference(Z, B, full), rtol=1e-12, atol=0)
    assert dropped > 0


def planted_pencil(rng, m, n, d):
    """d sparse integer m x n matrices with P(z*) = u v^T at an integer
    point z* off the axes: the first matrix is the dyad minus the rest."""
    while True:
        zs = [1] + [rng.choice((-2, -1, 1, 2)) for _ in range(d - 1)]
        u = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(m)]
        v = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(n)]
        if not any(u) or not any(v):
            continue
        rest = [[[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)]
                 for _ in range(m)] for _ in range(d - 1)]
        first = [[u[i] * v[j] - sum(z * b[i][j] for z, b in zip(zs[1:], rest)) for j in range(n)]
                 for i in range(m)]
        try:
            return Subspace([first] + rest)
        except ValueError:
            continue


def rank_one_fields(res):
    """Every field of a RankOneResult, floats by their bits."""
    wf = res.witness_float
    return (res.found, res.witness, None if wf is None else (wf.dtype.str, wf.shape, wf.tobytes()),
            None if res.residual is None else float(res.residual).hex(), res.mode, res.minors,
            res.gauss_newton_steps)


def test_factored_sweep_matches_minor_by_minor_sweep():
    # scoring on the factor sends the same samples on as scoring every live
    # minor, so every field of the result keeps its bits
    cases = [(kr_family(r), {}) for r in range(5)]
    cases += [(Subspace(b), {}) for b in sym3_open_pool(8)]
    cases += [(k0_subspace(), {"density": 20000, "seed": 9}),
              (quaternion_pencil(), {"density": 8000, "seed": 5}),
              (diag_pencil_2(), {}), (rotation_pencil(), {"density": 500, "seed": 1}),
              (Subspace([[[1, 2], [3, 5]]]), {}),  # d = 1, one sample
              (Subspace([[[2, 4], [1, 2]]]), {}),  # d = 1, no live minor
              (Subspace([[[1, 2, 0], [0, 0, 0]], [[0, 0, 3], [0, 0, 0]]]), {}),  # no live minor
              (kr_family(1), {"density": 0}), (kr_family(1), {"density": 4})]
    rng = random.Random(29)
    for t in range(30):
        cases.append((planted_pencil(rng, 3, rng.choice((3, 5)), 4), {"density": 2000, "seed": t}))
    for t in range(110):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        d = rng.randint(1, min(6, m * n))
        K = planted_pencil(rng, m, n, d) if t % 2 == 0 and d > 1 else sparse_pencil(rng, m, n, d)
        cases.append((K, {"density": rng.choice((3, 200, 2000)), "seed": t}))
    assert len(cases) >= 150
    assert {K.d for K, _ in cases} >= {1, 2, 3, 4, 5, 6}
    found = 0
    for K, kw in cases:
        res = find_rank_one(K, **kw)
        assert rank_one_fields(res) == rank_one_fields(find_rank_one_reference(K, **kw)), (K, kw)
        found += res.found
    assert 30 <= found < len(cases)


def test_numeric_sweep_counts_live_minors():
    res = find_rank_one(kr_family(2))
    assert not res.found
    assert res.minors == 43  # of C(7,2)^2 = 441 order-2 minors
    assert res.gauss_newton_steps > 0


def test_numeric_planted_dyad_off_axes_3x5():
    # P(z*) = u v^T at z* = (1, 2, -1, 1): the first basis matrix is the dyad
    # minus the sparse rest, and two of the 30 minors vanish on the pencil
    rng = random.Random(2)
    zs = (1, 2, -1, 1)
    while True:
        u = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(3)]
        v = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(5)]
        if not any(u) or not any(v):
            continue
        rest = [
            [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(5)] for _ in range(3)]
            for _ in zs[1:]
        ]
        first = [
            [u[i] * v[j] - sum(z * b[i][j] for z, b in zip(zs[1:], rest)) for j in range(5)]
            for i in range(3)
        ]
        try:
            K = Subspace([first] + rest)
            break
        except ValueError:
            continue
    res = find_rank_one(K)
    assert res.minors == 28
    assert res.found and res.witness is not None
    w = res.witness
    assert K.evaluate(w).rank() == 1
    assert all(w[i] * zs[0] == w[0] * zs[i] for i in range(4))

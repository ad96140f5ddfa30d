import random
import re
import sys
import time
from fractions import Fraction

import pytest

from nullag.algebra import (
    MultiPoly,
    QuadraticForm,
    RationalMatrix,
    echelon_pivots,
    enumerate_minors,
    independent_indices,
    minor,
    minor_table,
    nonvanishing_minor_candidates,
    psd_analyze,
    rat_from_str,
    rat_to_str,
    vec_dot,
)

from identity_oracle import cofactor_identity_2x2, det_sum_expansion
from poly_oracle import form_value, matvec, poly_eval, span_basis_indices, to_poly
from psd_oracle import psd_analyze_reference
from rref_oracle import inverse_reference, nullspace_reference, rref_reference, solve_reference


def rand_rat(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_matrix(rng, m, n, span=9):
    return RationalMatrix([[rand_rat(rng, span) for _ in range(n)] for _ in range(m)])


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def test_minor_2x2_determinant():
    A = RationalMatrix([[1, 2], [3, 4]])
    assert minor(A, (0, 1), (0, 1)) == -2


def test_minor_identity_case():
    I3 = RationalMatrix.identity(3)
    for i in range(3):
        for j in range(i + 1, 3):
            assert minor(I3, (i, j), (i, j)) == 1


def test_minor_five_atom_top_block():
    # the first off-origin atom of the conservation-law construction at
    # unit offset: rows 1,2 / cols 1,2 minor equals the offset squared
    s0 = Fraction(1)
    zeta1 = RationalMatrix([[s0, 0], [0, s0], [0, s0**2 / 2]])
    assert minor(zeta1, (0, 1), (0, 1)) == s0**2


def test_minor_errors():
    A = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        minor(A, (0, 1), (0,))
    with pytest.raises(IndexError):
        minor(A, (0, 2), (0, 1))
    with pytest.raises(ValueError):
        minor(A, (1, 0), (0, 1))


def test_minor_multilinear_alternating():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 4)
        A = rand_matrix(rng, n + 1, n)
        rows = tuple(range(n))
        cols = tuple(range(n))
        a, b = rand_rat(rng), rand_rat(rng)
        u = [rand_rat(rng) for _ in range(n)]
        v = [rand_rat(rng) for _ in range(n)]
        mixed = [list(r) for r in A.entries]
        mixed[0] = [a * x + b * y for x, y in zip(u, v)]
        with_u = [list(r) for r in A.entries]
        with_u[0] = u
        with_v = [list(r) for r in A.entries]
        with_v[0] = v
        lhs = minor(RationalMatrix(mixed), rows, cols)
        rhs = a * minor(RationalMatrix(with_u), rows, cols) + b * minor(
            RationalMatrix(with_v), rows, cols
        )
        assert lhs == rhs
        # alternating: duplicated row kills the determinant
        dup = [list(r) for r in A.entries]
        dup[1] = dup[0]
        assert minor(RationalMatrix(dup), rows, cols) == 0


def test_enumerate_minors_counts():
    assert len(enumerate_minors(3, 2, 2)) == 3  # C(3,2)*C(2,2), checked by hand
    assert len(enumerate_minors(2, 2, 2)) == 1
    all33 = enumerate_minors(3, 3, "all")
    assert len([p for p in all33 if len(p[0]) == 2]) == 9
    assert len([p for p in all33 if len(p[0]) == 3]) == 1
    assert len(all33) == 10


def test_enumerate_minors_lexicographic_and_errors():
    pairs = enumerate_minors(3, 2, 2)
    assert pairs == [((0, 1), (0, 1)), ((0, 2), (0, 1)), ((1, 2), (0, 1))]
    with pytest.raises(ValueError):
        enumerate_minors(3, 2, 3)
    with pytest.raises(ValueError):
        enumerate_minors(3, 3, 1)


# ---------------------------------------------------------------------------
# determinant expansions
# ---------------------------------------------------------------------------

def test_det_sum_expansion_degenerate_cases():
    rng = random.Random(1)
    X = rand_matrix(rng, 3, 3)
    Z = RationalMatrix([[0] * 3] * 3)
    assert det_sum_expansion(Z, X) == X.det()
    assert det_sum_expansion(X, Z) == X.det()


def test_det_sum_expansion_matches_direct():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(2, 4)
        A = rand_matrix(rng, n, n)
        X = rand_matrix(rng, n, n)
        assert det_sum_expansion(A, X) == (A + X).det()


def test_cofactor_identity_direct():
    A = RationalMatrix([[1, 2], [3, 4]])
    B = RationalMatrix([[0, 1], [1, 0]])
    # det([[1,1],[2,4]]) = 2, computed by direct subtraction
    assert cofactor_identity_2x2(A, B) == 2
    assert cofactor_identity_2x2(A, A) == 0
    assert cofactor_identity_2x2(A, RationalMatrix([[0] * 2] * 2)) == A.det()


def test_cofactor_identity_fuzz():
    rng = random.Random(3)
    for _ in range(400):
        A = rand_matrix(rng, 2, 2)
        B = rand_matrix(rng, 2, 2)
        assert cofactor_identity_2x2(A, B) == (A - B).det()


def test_bareiss_against_cofactor():
    rng = random.Random(4)
    for _ in range(100):
        A = rand_matrix(rng, 3, 3)
        big = rand_matrix(rng, 5, 5)
        # 5x5 exercises the Bareiss path; cross-check via Laplace on row 0
        lap = sum(
            (-1) ** j * big[0, j] * big.submatrix((1, 2, 3, 4), tuple(k for k in range(5) if k != j)).det()
            for j in range(5)
        )
        assert big.det() == lap
        assert A.det() == A.submatrix((0, 1, 2), (0, 1, 2)).det()


# ---------------------------------------------------------------------------
# matrix elimination
# ---------------------------------------------------------------------------

def test_solve_inverse_nullspace():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        A = rand_matrix(rng, n, n)
        if A.det() == 0:
            continue
        x = [rand_rat(rng) for _ in range(n)]
        b = matvec(A, x)
        assert A.solve(b) == tuple(x)
        assert A.inverse() @ A == RationalMatrix.identity(n)
    A = RationalMatrix([[1, 2, 3], [2, 4, 6]])
    ns = A.nullspace()
    assert len(ns) == 2
    for v in ns:
        assert all(x == 0 for x in matvec(A, v))
    assert A.rank() == 1


def _rref_case(rng, t):
    """Seeded matrix t: wide, tall, rank-deficient, with zero rows and
    columns, or with large denominators, in turn."""
    kind = t % 5
    if kind == 0:  # wide
        m, n = rng.randint(1, 3), rng.randint(4, 9)
    elif kind == 1:  # tall
        m, n = rng.randint(4, 9), rng.randint(1, 3)
    else:
        m, n = rng.randint(1, 7), rng.randint(1, 7)
    if kind == 2:  # rank-deficient: a product through k < min(m, n)
        k = rng.randint(0, min(m, n) - 1)
        if k == 0:
            return RationalMatrix([[0] * n] * m)
        B, C = rand_matrix(rng, m, k, 4), rand_matrix(rng, k, n, 4)
        return B @ C
    span = 10**12 if kind == 4 else 9
    rows = [[rand_rat(rng, span) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
            for _ in range(m)]
    if kind == 3:  # a zero row and a zero column
        rows[rng.randrange(m)] = [Fraction(0)] * n
        j = rng.randrange(n)
        for row in rows:
            row[j] = Fraction(0)
    return RationalMatrix(rows)


def test_rref_matches_fraction_reference():
    rng = random.Random(17)
    cases = [RationalMatrix([[3, 0, -6]]), RationalMatrix([[0, 0]]), RationalMatrix([[0], [5]])]
    cases += [_rref_case(rng, t) for t in range(2000)]
    for A in cases:
        red, pivots = A.rref()
        ref = rref_reference(A)
        assert (red, pivots) == ref
        assert A.rank() == len(ref[1])
        assert A.nullspace() == nullspace_reference(A)
        x = [rand_rat(rng) for _ in range(A.cols)]
        b = matvec(A, x)
        assert A.solve(b) == solve_reference(A, b)
        assert matvec(A, A.solve(b)) == b
        b = [rand_rat(rng) for _ in range(A.rows)]
        assert A.solve(b) == solve_reference(A, b)
        if A.rows == A.cols:
            inv = inverse_reference(A)
            if inv is None:
                with pytest.raises(ValueError):
                    A.inverse()
            else:
                assert A.inverse() == inv
    with pytest.raises(ValueError):
        RationalMatrix([])  # no matrix has zero rows


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_arithmetic_at_random_points():
    rng = random.Random(8)
    for _ in range(60):
        d = rng.randint(1, 3)
        f = MultiPoly(d, {tuple(rng.randint(0, 2) for _ in range(d)): rand_rat(rng) for _ in range(4)})
        g = MultiPoly(d, {tuple(rng.randint(0, 2) for _ in range(d)): rand_rat(rng) for _ in range(4)})
        z = [rand_rat(rng) for _ in range(d)]
        assert poly_eval(f + g, z) == poly_eval(f, z) + poly_eval(g, z)
        assert poly_eval(f * g, z) == poly_eval(f, z) * poly_eval(g, z)
        assert poly_eval(f - g, z) == poly_eval(f, z) - poly_eval(g, z)


def test_span_basis_indices():
    d = 2
    p1 = MultiPoly(d, {(2, 0): 1})
    p2 = MultiPoly(d, {(2, 0): 2})
    p3 = MultiPoly(d, {(0, 2): 1})
    assert span_basis_indices([p1, p2, p3]) == [0, 2]
    assert span_basis_indices([MultiPoly.zero(2), p3]) == [1]


def _vectors_with_dependencies(rng):
    """0-8 rational vectors of one length 1-6, among them zero vectors,
    repeats and combinations of earlier vectors."""
    n = rng.randint(1, 6)
    vs = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if vs and kind < 0.15:
            vs.append(rng.choice(vs))
        elif len(vs) >= 2 and kind < 0.35:
            a, b = rng.sample(vs, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            vs.append(tuple(s * x + t * y for x, y in zip(a, b)))
        elif kind < 0.45:
            vs.append((Fraction(0),) * n)
        else:
            vs.append(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.6
                            else Fraction(0) for _ in range(n)))
    return vs


def test_independent_indices_are_the_pivot_columns():
    assert independent_indices([]) == []
    rng = random.Random(17)
    for _ in range(400):
        vs = _vectors_with_dependencies(rng)
        expected = list(RationalMatrix.from_columns(vs).rref()[1]) if vs else []
        assert independent_indices(vs) == expected


def test_echelon_pivots_pick_coordinates_that_separate_the_chosen_vectors():
    # the chosen vectors' entries at the pivot positions form a
    # non-singular square matrix, so their columns span the column space
    rng = random.Random(19)
    for _ in range(400):
        vs = _vectors_with_dependencies(rng)
        chosen, pivots = echelon_pivots(vs)
        assert chosen == independent_indices(vs)
        assert len(set(pivots)) == len(pivots) == len(chosen)
        if chosen:
            assert RationalMatrix([[vs[i][p] for p in pivots] for i in chosen]).det() != 0


# ---------------------------------------------------------------------------
# quadratic forms and exact PSD analysis
# ---------------------------------------------------------------------------

def test_quadratic_form_roundtrip():
    rng = random.Random(10)
    for _ in range(30):
        d = rng.randint(1, 4)
        m = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                v = rand_rat(rng)
                m[i][j] = v
                m[j][i] = v
        q = QuadraticForm(RationalMatrix(m))
        assert QuadraticForm.from_poly(to_poly(q)) == q
        z = [rand_rat(rng) for _ in range(d)]
        assert form_value(q, z) == poly_eval(to_poly(q), z)


def test_psd_analyze_basic():
    rep = psd_analyze(RationalMatrix.identity(3))
    assert rep.is_psd and rep.kernel == [] and rep.rank == 3

    rep = psd_analyze(RationalMatrix([[1, 0], [0, -1]]))
    assert not rep.is_psd
    w = rep.neg_witness
    M = RationalMatrix([[1, 0], [0, -1]])
    assert vec_dot(w, matvec(M, w)) < 0

    rep = psd_analyze(RationalMatrix([[0, 1], [1, 0]]))
    assert not rep.is_psd
    M = RationalMatrix([[0, 1], [1, 0]])
    assert vec_dot(rep.neg_witness, matvec(M, rep.neg_witness)) < 0

    rep = psd_analyze(RationalMatrix([[1, 1], [1, 1]]))
    assert rep.is_psd and rep.rank == 1
    assert len(rep.kernel) == 1
    assert all(x == 0 for x in matvec(RationalMatrix([[1, 1], [1, 1]]), rep.kernel[0]))


def test_psd_analyze_fuzz():
    rng = random.Random(11)
    for _ in range(120):
        d = rng.randint(1, 4)
        B = rand_matrix(rng, rng.randint(1, d), d, span=4)
        gram = B.transpose() @ B  # PSD by construction
        rep = psd_analyze(gram)
        assert rep.is_psd
        for v in rep.kernel:
            assert all(x == 0 for x in matvec(gram, v))
        assert rep.rank + len(rep.kernel) == d
        shifted = gram - RationalMatrix.identity(d)
        rep2 = psd_analyze(shifted)
        if not rep2.is_psd:
            w = rep2.neg_witness
            assert vec_dot(w, matvec(shifted, w)) < 0


def _symmetric_case(rng, kind):
    """A symmetric matrix of size 1-7: a Gram matrix of rank below its size
    (PSD with a kernel), a sparse one with a zero diagonal (indefinite
    through the v_i + v_j witness), one with sparse mixed diagonal, a Gram
    matrix minus a multiple of the identity, or a dense one."""
    n = rng.randint(1, 7)
    if kind == 0:
        k = rng.randint(0, n - 1)
        if k == 0:
            return RationalMatrix([[0] * n] * n)
        B = rand_matrix(rng, k, n, 4)
        return B.transpose() @ B
    if kind == 3:
        B = rand_matrix(rng, rng.randint(1, n), n, 4)
        return B.transpose() @ B - RationalMatrix.identity(n).scale(Fraction(rng.randint(0, 4), 8))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == 4 or (i != j and rng.random() < 0.4) or (kind == 2 and i == j and rng.random() < 0.5):
                m[i][j] = m[j][i] = rand_rat(rng, 10**6 if kind == 4 and rng.random() < 0.3 else 9)
    return RationalMatrix(m)


def test_psd_analyze_matches_fraction_reference():
    rng = random.Random(31)
    cases = [RationalMatrix([[0] * n] * n) for n in range(1, 8)]
    cases += [_symmetric_case(rng, t % 5) for t in range(2100)]
    outcomes = {"kernel": 0, "pair": 0, "negative": 0}
    for M in cases:
        rep = psd_analyze(M)
        assert rep == psd_analyze_reference(M)
        vectors = rep.kernel if rep.is_psd else [rep.neg_witness]
        assert all(type(x) is Fraction for v in vectors for x in v)
        if rep.is_psd:
            assert all(not any(matvec(M, v)) for v in rep.kernel)
            assert rep.rank + len(rep.kernel) == M.rows
            outcomes["kernel"] += bool(rep.kernel)
        else:
            assert vec_dot(rep.neg_witness, matvec(M, rep.neg_witness)) < 0
            # no positive pivot and a zero diagonal: the v_i + v_j branch
            outcomes["pair" if rep.rank == 0 and not any(M[i, i] for i in range(M.rows))
                     else "negative"] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_nonvanishing_candidates_filter():
    # one sparse 4x4 matrix supported on the top-left 2x2 block
    A = RationalMatrix([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    cand = nonvanishing_minor_candidates([A], 4, 4, "all")
    assert cand == {((0, 1), (0, 1))}
    for rows, cols in enumerate_minors(4, 4, "all"):
        if (rows, cols) not in cand:
            assert minor(A, rows, cols) == 0


def test_minor_table_is_the_nonzero_minors():
    # the Laplace table against the enumerated Bareiss minors: every shape
    # up to 6 x 6, sparse to dense, negative entries, all-zero rows and
    # columns, and orders 2..top for every top up to min(m, n)
    rng = random.Random(73)
    zero_lines = orders = 0
    for _ in range(6):
        for m in range(1, 7):
            for n in range(1, 7):
                density = rng.uniform(0.2, 1)
                grid = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(m)]
                if rng.random() < 0.3:
                    grid[rng.randrange(m)] = [0] * n
                if rng.random() < 0.3:
                    j = rng.randrange(n)
                    for row in grid:
                        row[j] = 0
                zero_lines += any(not any(row) for row in grid) or any(
                    not any(col) for col in zip(*grid))
                A = RationalMatrix(grid)
                top = min(m, n) if rng.random() < 0.5 else rng.randint(1, min(m, n))
                want = {}
                for rows, cols in enumerate_minors(m, n):
                    if len(rows) <= top and minor(A, rows, cols) != 0:
                        want[(rows, cols)] = minor(A, rows, cols)
                table = minor_table(grid, top)
                assert table == want
                assert all(type(v) is int for v in table.values())
                orders = max(orders, max((len(rows) for rows, _ in table), default=0))
    assert zero_lines > 20 and orders == 6


def test_rational_string_roundtrip():
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_to_str(Fraction(5)) == "5"
    assert rat_from_str("-3/7") == Fraction(-3, 7)
    assert rat_from_str(4) == Fraction(4)
    with pytest.raises(ValueError):
        rat_from_str(True)


def _fraction_or_error(s):
    """``Fraction(s)``, or ValueError where it raises; its zero denominator
    is the ZeroDivisionError that ``rat_from_str`` turns into a ValueError."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return ValueError


def _rat_or_error(s):
    try:
        return rat_from_str(s)
    except ValueError:
        return ValueError


def test_rat_from_str_agrees_with_fraction():
    # the int fast path reads only "p" and "p/q" in ASCII digits; every
    # other spelling, valid or not, must read as Fraction reads it
    rng = random.Random(34)
    cases = ["0", "-0", "007", "-007/010", "0/5", "-0/5", "00/1", "+3", " 3 ", "3 ", "\t-3/4",
             "1_000", "1_000/3", "٣", "-٣/4", "3/٤", "0.5", "-.5", "1.", "1e3", "1E-3", "1.5e+2",
             "1e1_0", "3/-4", "3/+4", "3 /4", "3/ 4", "3/0", "-3/00", "0/0", "", "-", "+", "/",
             "/3", "3/", "-/3", "--3", "3/4/5", "1__0", "_1", "1_", "e3", "inf", "nan", "0x10",
             "²", "3²", "1" * 4300, "1" * 4301, "-" + "1" * 4300, "-" + "1" * 4301,
             "1/" + "7" * 4300, "1/" + "7" * 4301, "1" * 4301 + "/1"]
    alphabet = "0123456789" * 3 + "--+//_ .eE٣\t"
    drawn = ("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))) for _ in range(20000))
    # exponents of four or more digits may pass the refusal limit, which
    # test_rat_from_str_refuses_huge_exponents covers
    cases += [s for s in drawn if not re.search(r"[eE][-+]?[\d_]{4,}", s)]
    for _ in range(2000):
        x = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
        zeros = "0" * rng.randint(0, 3)
        cases += [rat_to_str(x), "%s%d/%s%d" % (("-" if x < 0 else ""), abs(x.numerator), zeros,
                                                 x.denominator)]
    for s in cases:
        want, got = _fraction_or_error(s), _rat_or_error(s)
        assert got == want and type(got) is type(want), s[:40]


def test_rat_from_str_refuses_huge_exponents():
    # Fraction would compute 10**|exponent|; past the interpreter's limit
    # on integer digits the exponent is refused, for both signs
    limit = sys.get_int_max_str_digits()
    assert rat_from_str("1e%d" % limit) == 10 ** limit
    assert rat_from_str("2.5E-%d" % limit) == Fraction(5, 2 * 10 ** limit)
    for s in ("1e%d" % (limit + 1), "1e-%d" % (limit + 1), "1e10000000", "-0.5E-10_000_000 ",
              "1e3000000", "1e" + "9" * 5000):
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            rat_from_str(s)
        assert time.perf_counter() - t0 < 1.0, s[:20]

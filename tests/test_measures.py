import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from bench_inputs import sym3_open_pool
from farkas_oracle import farkas_feasible_bruteforce, farkas_problem, farkas_solve_reference
from float_k1_oracle import null_lagrangian_reference
from nullag import measures
from nullag.algebra import RationalMatrix, _integer_row, enumerate_minors, minor, vec_dot
from nullag.measures import (
    _independent_value_rows,
    DiscreteMeasure,
    FarkasProblem,
    construct_nontrivial,
    construct_nontrivial_for_subspace,
    farkas_solve,
    is_null_lagrangian,
    subspace_value_fn,
    two_atom_measure,
)
from nullag.fixtures import kr_family, kr_measure
from nullag.certify import reduce_chain
from nullag.subspace import Subspace
from poly_oracle import matvec
from sample_oracle import cleared, construct_nontrivial_reference, value_fn_reference


def rand_rat(rng, span=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


# ---------------------------------------------------------------------------
# measure basics
# ---------------------------------------------------------------------------

def test_measure_invariants():
    A = RationalMatrix([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        DiscreteMeasure([A], [Fraction(1, 2)])
    with pytest.raises(ValueError):
        DiscreteMeasure([A, A], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        DiscreteMeasure([A, A.scale(-1)], [Fraction(3, 2), Fraction(-1, 2)])


def test_dirac_is_null_lagrangian():
    rng = random.Random(0)
    for _ in range(5):
        A = RationalMatrix([[rand_rat(rng) for _ in range(3)] for _ in range(3)])
        mu = DiscreteMeasure([A], [1])
        rep = is_null_lagrangian(mu)
        assert rep.verdict and rep.exact


def test_rank_one_pair_measure():
    A = RationalMatrix([[1, 2], [2, 4]])  # rank one
    mu = DiscreteMeasure([A, A.scale(-1)], [Fraction(1, 2), Fraction(1, 2)])
    assert is_null_lagrangian(mu).verdict
    B = RationalMatrix([[1, 0], [0, 1]])  # rank two: det survives the average
    mu2 = DiscreteMeasure([B, B.scale(-1)], [Fraction(1, 2), Fraction(1, 2)])
    rep = is_null_lagrangian(mu2)
    assert not rep.verdict
    assert rep.residuals[((0, 1), (0, 1))] == 1


def test_two_atom_measure_from_witness():
    K = Subspace([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    mu = two_atom_measure(K, reduce_chain(K).rank_one_witness)
    assert is_null_lagrangian(mu).verdict


def test_measure_json_roundtrip():
    A = RationalMatrix([[1, 2], [2, 4]])
    mu = DiscreteMeasure([A, A.scale(-1)], [Fraction(1, 2), Fraction(1, 2)])
    mu2 = DiscreteMeasure.from_json(mu.to_json())
    assert mu2.exact and mu2.weights == mu.weights
    bad = mu.to_json()
    bad["shape"] = [3, 3]
    with pytest.raises(ValueError):
        DiscreteMeasure.from_json(bad)


def test_measure_json_roundtrip_seeded():
    # exact measures with rational atoms and weights (zero weights too)
    # keep their atoms, weights and shape through the serialized text
    rng = random.Random(83)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        atoms, count = {}, rng.randint(1, 6)
        while len(atoms) < count:
            A = RationalMatrix([[rand_rat(rng, rng.choice((1, 5, 12))) for _ in range(n)]
                                for _ in range(m)])
            atoms[A.entries] = A
        raw = [rng.randint(0, 9) for _ in atoms]
        raw[0] += 1
        mu = DiscreteMeasure(list(atoms.values()), [Fraction(w, sum(raw)) for w in raw])
        mu2 = DiscreteMeasure.from_json(json.loads(json.dumps(mu.to_json())))
        assert mu2.exact
        assert (mu2.atoms, mu2.weights, mu2.shape) == (mu.atoms, mu.weights, (m, n))


def test_exact_barycenter_matches_the_atom_sum():
    # one integer pass per entry gives the sum of the scaled atoms exactly
    rng = random.Random(47)
    mus = [kr_measure(r) for r in range(3)]
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        atoms, count = {}, rng.randint(1, 7)
        while len(atoms) < count:
            A = RationalMatrix([[rand_rat(rng, rng.choice((1, 5, 12))) for _ in range(n)]
                                for _ in range(m)])
            atoms[A.entries] = A
        raw = [rng.randint(0, 9) for _ in atoms]
        raw[0] += 1
        mus.append(DiscreteMeasure(list(atoms.values()), [Fraction(w, sum(raw)) for w in raw]))
    for mu in mus:
        m, n = mu.shape
        acc = RationalMatrix([[0] * n] * m)
        for w, a in zip(mu.weights, mu.atoms):
            acc = acc + a.scale(w)
        assert mu.barycenter() == acc
    assert all(mu.barycenter().is_zero() for mu in mus[:3])


def test_translation_shift_keeps_commutation():
    # property-R style check: shifting every atom by a fixed matrix moves the
    # barycenter but keeps the commutation identities, all orders
    rng = random.Random(1)
    A = RationalMatrix([[1, 2], [2, 4]])
    mu = DiscreteMeasure([A, A.scale(-1)], [Fraction(1, 2), Fraction(1, 2)])
    for _ in range(5):
        C = RationalMatrix([[rand_rat(rng) for _ in range(2)] for _ in range(2)])
        shifted = DiscreteMeasure([a + C for a in mu.atoms], mu.weights)
        assert is_null_lagrangian(shifted).verdict


def float_measures(rng, m, n):
    """A seeded float measure of 1-7 random atoms on m x n, and one with the
    same weights on a rank-one line, which commutes with every minor."""
    count = int(rng.integers(1, 8))
    weights = rng.random(count) + 0.1
    weights /= weights.sum()
    generic = DiscreteMeasure(list(rng.standard_normal((count, m, n))), weights)
    base, a, b = rng.standard_normal((m, n)), rng.standard_normal(m), rng.standard_normal(n)
    line = DiscreteMeasure([base + t * np.outer(a, b) for t in rng.standard_normal(count)], weights)
    return generic, line


@pytest.mark.parametrize("block_entries", [measures.BLOCK_ENTRIES, 20])
def test_float_check_matches_per_minor_reference(monkeypatch, block_entries):
    # the stacked, blocked float check gives the per-minor residuals bit for
    # bit, in the same order; at 20 float entries a block holds one minor of
    # at most five 2 x 2 or two 3 x 3 submatrices (a 5 x 5 one alone), so
    # every shape spans many blocks and the atoms are split into groups
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(26)
    verdicts = set()
    for m in range(2, 7):
        for n in range(2, 7):
            for mu in float_measures(rng, m, n):
                for orders in [2, 3, "all"] if min(m, n) >= 3 else [2, "all"]:
                    rep = is_null_lagrangian(mu, orders=orders)
                    ref = null_lagrangian_reference(mu, orders=orders)
                    assert [(k, v.hex()) for k, v in rep.residuals.items()] == [
                        (k, v.hex()) for k, v in ref.residuals.items()], (m, n, orders)
                    assert (rep.verdict, rep.checked, rep.skipped, rep.exact) == (
                        ref.verdict, ref.checked, 0, False)
                    verdicts.add(rep.verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Farkas kernel
# ---------------------------------------------------------------------------

def test_farkas_identity_feasible():
    res = farkas_solve(farkas_problem(RationalMatrix.identity(2), [1, 1]))
    assert res.feasible and res.x == (Fraction(1), Fraction(1))


def test_farkas_identity_infeasible():
    prob = farkas_problem(RationalMatrix.identity(2), [-1, 0])
    res = farkas_solve(prob)
    assert not res.feasible
    y = res.certificate
    for col in zip(*prob.A.entries):
        assert vec_dot(y, col) >= 0
    assert vec_dot(y, prob.b) < 0


def test_farkas_five_atom_linear_system():
    # the linear-flux four-atom system with equal offsets: symmetry forces
    # equal weights eps/4 (oracle: direct elimination of the 4x4 system)
    s = Fraction(1, 10)
    A = RationalMatrix(
        [
            [s**2, s**2, -(s**2), -(s**2)],
            [0, 0, s**3 / 2, -(s**3) / 2],
            [s**3 / 2, -(s**3) / 2, 0, 0],
            [1, 1, 1, 1],
        ]
    )
    eps = Fraction(1, 10)
    res = farkas_solve(farkas_problem(A, [0, 0, 0, eps]))
    assert res.feasible
    assert res.x == (eps / 4, eps / 4, eps / 4, eps / 4)


def test_farkas_fuzz_against_bruteforce():
    rng = random.Random(2)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = RationalMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)])
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        prob = farkas_problem(A, b)
        res = farkas_solve(prob)
        oracle = farkas_feasible_bruteforce(prob)
        assert res.feasible == oracle
        if res.feasible:
            assert matvec(A, res.x) == tuple(b)
            assert all(x >= 0 for x in res.x)
        else:
            y = res.certificate
            assert all(vec_dot(y, col) >= 0 for col in zip(*A.entries))
            assert vec_dot(y, prob.b) < 0


def _reference_systems():
    """2,000 small seeded systems with degenerate features, then six of
    the size construct_nontrivial solves on sym3-open (12-24 rows x 32-256
    columns, a ones row and b = (0, ..., 0, 1))."""
    rng = random.Random(12)
    for k in range(2000):
        m = rng.randint(1, 7)
        n = rng.randint(1, 10)
        den = rng.choice((1, 1, 2, 5))
        A = [[Fraction(rng.randint(-4, 4), rng.randint(1, den)) if rng.random() < 0.7 else Fraction(0)
              for _ in range(n)] for _ in range(m)]
        if k % 5 == 1:
            A[rng.randrange(m)] = [Fraction(0)] * n
        if k % 7 == 2:
            for row in A:
                row[rng.randrange(n)] = Fraction(0)
        if k % 3 == 0 and n > 1:
            src, dst = rng.randrange(n), rng.randrange(n)
            for row in A:
                row[dst] = row[src]
        kind = k % 4
        if kind == 0:
            b = [Fraction(0)] * m
        elif kind == 1:
            b = [Fraction(-rng.randint(0, 3), rng.randint(1, 2)) for _ in range(m)]
        elif kind == 2:
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
        else:
            A[-1] = [Fraction(1)] * n
            b = [Fraction(0)] * (m - 1) + [Fraction(1)]
        yield farkas_problem(RationalMatrix(A), b)
    for m, n, positive in ((12, 32, 0), (13, 64, 1), (12, 128, 0), (16, 48, 0), (24, 32, 1),
                           (12, 256, 2)):
        # non-negative first rows keep the origin out of the hull
        A = [[Fraction(rng.randint(0 if i < positive else -9, 9), rng.randint(1, 3)) for _ in range(n)]
             for i in range(m - 1)]
        yield farkas_problem(RationalMatrix(A + [[1] * n]), [0] * (m - 1) + [1])


def test_farkas_matches_fraction_reference():
    # the integer tableau takes Bland's pivots on the rational tableau
    outcomes = set()
    for prob in _reference_systems():
        res = farkas_solve(prob)
        ref = farkas_solve_reference(prob)
        assert (res.x, res.certificate, res.pivots) == (ref.x, ref.certificate, ref.pivots)
        outcomes.add((res.feasible, prob.A.rows >= 12))
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}


def test_farkas_resume_matches_cold_reference():
    # 300 nested families: the same rows and b, columns appended over 2-5
    # steps; each step resumes from the last step's checkpoint and must end
    # at the cold reference's x or y, in no more pivots
    rng = random.Random(21)
    reentered = stale = 0
    outcomes = set()
    for k in range(300):
        m = rng.randint(1, 6)
        den = rng.choice((1, 2, 3))
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
        if k % 3 == 0:  # the shape construct_nontrivial solves
            b = [Fraction(0)] * (m - 1) + [Fraction(1)]
        cols, res = [], None
        for _ in range(rng.randint(2, 5)):
            for _ in range(rng.randint(1, 4)):
                col = [Fraction(rng.randint(-4, 4), rng.randint(1, den)) if rng.random() < 0.7
                       else Fraction(0) for _ in range(m)]
                cols.append(col[:-1] + [Fraction(1)] if k % 3 == 0 else col)
            prob = farkas_problem(RationalMatrix.from_columns(cols), b)
            ref = farkas_solve_reference(prob)
            res = farkas_solve(prob, start=res.checkpoint if res else None)
            assert (res.x, res.certificate) == (ref.x, ref.certificate)
            assert res.pivots <= ref.pivots
            outcomes.add(res.feasible)
        # resumed on its own problem, a solve takes the pivots after its
        # checkpoint: an artificial column enters first
        again = farkas_solve(prob, start=res.checkpoint)
        assert (again.x, again.certificate) == (ref.x, ref.certificate)
        reentered += again.pivots > 0
        # a checkpoint is ignored on other rows, another b or another first column
        other_rows = farkas_problem(RationalMatrix([[1] * len(cols)] + [list(r) for r in prob.A.entries]), [1] + b)
        other_b = farkas_problem(prob.A, [x + 1 for x in b])
        other_col = farkas_problem(RationalMatrix.from_columns([[x + 1 for x in cols[0]]] + cols[1:]), b)
        for other in (other_rows, other_b, other_col):
            cold, ref = farkas_solve(other, start=res.checkpoint), farkas_solve_reference(other)
            assert (cold.x, cold.certificate, cold.pivots) == (ref.x, ref.certificate, ref.pivots)
            stale += cold.pivots > 0
    assert reentered > 0 and stale > 0 and outcomes == {True, False}


def scaled_problem(cols, b, ratios, factors):
    """A diag(ratios) for A with the given columns, as a RationalMatrix and
    as integer columns cleared with factors[j] times the lcm of column j's
    denominators (any positive scale, not the least one)."""
    A = RationalMatrix.from_columns([[r * x for x in col] for r, col in zip(ratios, cols)])
    cleared = [_integer_row(col) for col in zip(*A.entries)]
    scales = [t * c for t, (c, _) in zip(factors, cleared)]
    columns = [[t * v for v in a] for t, (_, a) in zip(factors, cleared)]
    return A, FarkasProblem(scales, columns, b)


def test_farkas_column_scale_invariance():
    # a positive column scale moves no pivot: A diag(r) takes A's pivots
    # and certificate, with x_j / r_j, whatever positive scales clear its
    # columns; on nested families, each step resumed from the last
    rng = random.Random(37)
    reentered = 0
    outcomes = set()
    for k in range(150):
        m = rng.randint(1, 6)
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
        if k % 2 == 0:  # the shape construct_nontrivial solves
            b = [Fraction(0)] * (m - 1) + [Fraction(1)]
        cols, ratios, factors = [], [], []
        res = res_s = None
        for _ in range(rng.randint(2, 4)):
            for _ in range(rng.randint(1, 4)):
                col = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7
                       else Fraction(0) for _ in range(m)]
                cols.append(col[:-1] + [Fraction(1)] if k % 2 == 0 else col)
                ratios.append(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                factors.append(rng.randint(1, 6))
            prob = farkas_problem(RationalMatrix.from_columns(cols), b)
            A_s, scaled = scaled_problem(cols, b, ratios, factors)
            res = farkas_solve(prob, start=res.checkpoint if res else None)
            res_s = farkas_solve(scaled, start=res_s.checkpoint if res_s else None)
            cold, cold_s = farkas_solve(prob), farkas_solve(scaled)
            ref = farkas_solve_reference(farkas_problem(A_s, b))
            for got, want in ((res_s, res), (cold_s, cold)):
                assert (got.certificate, got.pivots) == (want.certificate, want.pivots)
                assert got.feasible == want.feasible
                if got.feasible:
                    assert [r * x for r, x in zip(ratios, got.x)] == list(want.x)
            assert (cold_s.x, cold_s.certificate, cold_s.pivots) == (ref.x, ref.certificate, ref.pivots)
            assert (res_s.x, res_s.certificate) == (ref.x, ref.certificate)
            assert scaled.A == A_s
            outcomes.add(res.feasible)
        # past the checkpoint an artificial column enters, in both scales
        again, again_s = farkas_solve(prob, start=res.checkpoint), farkas_solve(scaled, start=res_s.checkpoint)
        assert (again_s.certificate, again_s.pivots) == (again.certificate, again.pivots)
        reentered += again.pivots > 0
    assert reentered > 0 and outcomes == {True, False}
    # the row basis of a value table: each point's values times a positive
    # rational, or cleared of denominators, keep the same keys
    for _ in range(40):
        npoints, base = rng.randint(1, 12), rng.randint(1, 5)
        rows = [[rand_rat(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(npoints)]
                for _ in range(base)]
        for _ in range(rng.randint(0, 6)):  # dependent rows: combinations of earlier ones
            f = [rand_rat(rng) for _ in rows]
            rows.insert(rng.randint(0, len(rows)), [sum(c * row[j] for c, row in zip(f, rows))
                                                    for j in range(npoints)])
        keys = rng.sample(range(100), len(rows))
        values = [{key: row[j] for key, row in zip(keys, rows) if row[j]} for j in range(npoints)]
        ratios = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in values]
        scaled = [{key: r * v for key, v in vals.items()} for r, vals in zip(ratios, values)]
        cleared = [dict(zip(vals, _integer_row(vals.values())[1])) for vals in values]
        assert _independent_value_rows(scaled) == _independent_value_rows(values)
        assert _independent_value_rows(cleared) == _independent_value_rows(values)


def test_farkas_feasibility_matches_highs():
    # systems of 6-12 rows and 12-40 columns, too large for the brute-force
    # oracle: planted solutions, planted separating vectors, random b
    rng = random.Random(31)
    outcomes = set()
    for k in range(90):
        m = rng.randint(6, 12)
        n = rng.randint(12, 40)
        A = [[rng.randint(-3, 3) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(m)]
        if k % 3 == 0:
            x0 = [rng.randint(1, 3) if rng.random() < 0.3 else 0 for _ in range(n)]
            b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        elif k % 3 == 1:
            y0 = [rng.randint(-2, 2) for _ in range(m)]
            y0[0] = 1
            for j in range(n):
                if sum(y * row[j] for y, row in zip(y0, A)) < 0:
                    for row in A:
                        row[j] = -row[j]
            b = [rng.randint(-3, 3) for _ in range(m)]
            b[0] -= sum(y * v for y, v in zip(y0, b)) + 1  # y0.b = -1
        else:
            b = [rng.randint(-3, 3) for _ in range(m)]
        res = farkas_solve(farkas_problem(RationalMatrix(A), b))
        lp = linprog(np.zeros(n), A_eq=np.array(A, dtype=float), b_eq=np.array(b, dtype=float),
                     bounds=(0, None), method="highs")
        assert lp.status in (0, 2)  # optimal or infeasible
        assert res.feasible == (lp.status == 0)
        outcomes.add((k % 3, res.feasible))
    assert {(0, True), (1, False)} <= outcomes


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_construct_on_rank_one_line():
    # K spanned by one rank-one matrix: the symmetric two-atom measure
    K = Subspace([[[1, 2], [2, 4]]])
    mu = construct_nontrivial_for_subspace(K, seed=3)
    assert mu is not None
    assert len(mu.atoms) == 2
    assert is_null_lagrangian(mu).verdict
    assert mu.barycenter().is_zero()


def test_construct_polynomial_family_surface():
    # same search expressed through the value function of an explicit family;
    # sample points are non-zero, so every listed value is non-zero
    vm = construct_nontrivial(cleared(lambda p: {0: p[0] ** 2, 1: p[0]}), 1, seed=0)
    assert vm is None  # z^2 >= 0 blocks any non-trivial barycenter-zero measure

    # the family {0, z}
    vm2 = construct_nontrivial(cleared(lambda p: {1: p[0]}), 1, seed=0)
    assert vm2 is not None
    assert sum(w * p[0] for w, p in zip(vm2.weights, vm2.points)) == 0


def test_construct_draws_the_whole_budget():
    # {z^2, z} is never feasible, so the sample grows until the budget
    drawn = []

    def value_fn(p):
        drawn.append(p)
        return {0: p[0] ** 2, 1: p[0]}

    stats = {}
    assert construct_nontrivial(cleared(value_fn), 1, budget=320, stats=stats) is None
    assert len(drawn) == len(set(drawn)) == 320
    # every growth step (32, 64, ..., 320 points) is either solved or
    # settled by the last certificate; the last LP solved has the rows
    # z^2, z and the ones row on the first 256 points
    assert stats["farkas_solves"] + stats["farkas_screened"] == 10
    assert stats["farkas_pivots"] > 0
    assert (stats["farkas_rows"], stats["farkas_cols"]) == (3, 256)


def assert_value_fn_follows_the_minor_enumeration(K, p):
    """The sorted keys are the row order of the Farkas instance: non-zero
    minors in enumerate_minors order, then the non-zero projections.  The
    column comes cleared of denominators: the scale and the integers are
    those of ``_integer_row`` of the Fraction values, not just
    proportional to them."""
    m, n = K.m, K.n
    M = K.evaluate(p)
    scale, ints = subspace_value_fn(K)(p)
    minors = [(rows, cols) for rows, cols in enumerate_minors(m, n)
              if minor(M, rows, cols) != 0]
    proj = [l for l in range(K.d) if p[l] != 0]
    assert sorted(ints) == ([(len(rows), rows, cols) for rows, cols in minors]
                            + [(min(m, n) + 1, l) for l in proj])
    vals = {(len(rows), rows, cols): minor(M, rows, cols) for rows, cols in minors}
    vals.update(((min(m, n) + 1, l), p[l]) for l in proj)
    L, want = _integer_row(vals.values())
    assert scale == L
    assert ints == dict(zip(vals, want))
    return ints


def test_value_fn_keys_follow_the_minor_enumeration():
    rng = random.Random(29)
    for m in range(2, 6):
        for n in range(2, 6):
            d = rng.randint(1, 4)
            while True:
                basis = [[[rand_rat(rng) if rng.random() < 0.4 else 0 for _ in range(n)]
                          for _ in range(m)] for _ in range(d)]
                try:
                    K = Subspace(basis)
                    break
                except ValueError:
                    continue
            for _ in range(3):
                p = tuple(rand_rat(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(d))
                if not any(p):
                    continue
                assert_value_fn_follows_the_minor_enumeration(K, p)
    # dense 4x5 and 5x5 pencils with denominators up to 4 in the basis and
    # in the points: minors up to order 5, taken off the integer grid
    # cL * P(z), put over (cL)**top and reduced by the column's gcd
    top = set()
    for m, n in ((4, 5), (5, 5)):
        for d in (2, 3, 5):
            K = Subspace([[[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                           for _ in range(m)] for _ in range(d)])
            for _ in range(4):
                p = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
                if any(p):
                    vals = assert_value_fn_follows_the_minor_enumeration(K, p)
                    top.add(max(key[0] for key in vals if len(key) == 3))
    assert top == {4, 5}


def test_construct_blocked_by_certificate():
    # diag(z1, z1, z2, z2): y1^2 + y2^2 is a strictly positive minor
    # combination, so no sample set can ever be feasible
    b1 = [[0] * 4 for _ in range(4)]
    b2 = [[0] * 4 for _ in range(4)]
    b1[0][0] = b1[1][1] = 1
    b2[2][2] = b2[3][3] = 1
    K = Subspace([b1, b2])
    for seed in range(4):
        assert construct_nontrivial_for_subspace(K, budget=96, seed=seed) is None


# ---------------------------------------------------------------------------
# the sample path against the solve-every-step reference
# ---------------------------------------------------------------------------

@pytest.fixture
def solve_results(monkeypatch):
    """Column counts and results of the library's Farkas solves, in call order."""
    results = []
    solve = measures.farkas_solve

    def spy(problem, start=None):
        res = solve(problem, start=start)
        results.append((problem.A.cols, res))
        return res

    monkeypatch.setattr(measures, "farkas_solve", spy)
    return results


def assert_matches_reference(value_fn, reference_fn, d, results, budget=256, seed=0):
    ref, cold = construct_nontrivial_reference(reference_fn, d, budget, seed)
    results.clear()
    stats = {}
    vm = construct_nontrivial(value_fn, d, budget=budget, seed=seed, stats=stats)
    if ref is None:
        assert vm is None
    else:
        assert (vm.points, vm.weights) == (ref.points, ref.weights)
    # each solve, resumed or not, ends at the cold solve's vertex or certificate
    for cols, res in results:
        assert (res.x, res.certificate) == (cold[cols].x, cold[cols].certificate)
    assert results[-1][0] == stats["farkas_cols"]
    assert stats["farkas_solves"] + stats["farkas_screened"] == len(cold)
    assert stats["farkas_solves"] == len(results)
    assert stats["farkas_resumed"] < len(results)
    assert stats["farkas_pivots"] == sum(res.pivots for _, res in results)
    assert stats["farkas_pivots"] <= sum(res.pivots for res in cold.values())
    return vm, stats


def test_screening_matches_solving_every_step_on_pencils(solve_results):
    # the open symmetric 3x3 pool (three draws exhaust the budget) and the
    # Kr ladder: same measure or None, same LPs as one cold solve per step
    counters = []
    for basis in sym3_open_pool(8):
        K = Subspace(basis)
        _, stats = assert_matches_reference(
            subspace_value_fn(K), value_fn_reference(K), K.d, solve_results)
        counters.append(tuple(stats["farkas_" + key] for key in
                              ("solves", "screened", "resumed", "pivots", "rows", "cols")))
    for r in range(5):
        K = kr_family(r)
        vm, stats = assert_matches_reference(
            subspace_value_fn(K), value_fn_reference(K), K.d, solve_results)
        assert vm is not None and stats["farkas_screened"] == 0
    # (solves, screened, resumed, pivots, rows, cols) of each draw; the
    # three that exhaust the budget take 8 growth steps each, and their
    # row keys never change, so every solve after the first resumes
    assert counters == [(5, 3, 4, 15, 12, 256), (6, 0, 5, 76, 13, 192), (6, 2, 5, 53, 12, 224),
                        (2, 0, 1, 42, 13, 64), (4, 4, 3, 32, 12, 192), (6, 0, 5, 188, 13, 192),
                        (4, 0, 3, 90, 12, 128), (3, 0, 2, 55, 13, 96)]


def test_screening_matches_solving_every_step_on_polynomial_families(solve_results):
    # {z^2, z}-style families: the projections plus seeded quadratic and
    # cubic polynomials, some never feasible and some feasible
    rng = random.Random(53)
    screened = found = 0
    for _ in range(24):
        d = rng.randint(1, 3)
        polys = []
        for _ in range(rng.randint(1, 3)):
            terms = []
            for _ in range(rng.randint(1, 3)):
                exps = [0] * d
                for _ in range(rng.choice((2, 3))):
                    exps[rng.randrange(d)] += 1
                terms.append((rng.choice((-3, -2, -1, 1, 2, 3)), tuple(exps)))
            polys.append(terms)

        def value_fn(p, polys=polys):
            vals = {}
            for k, terms in enumerate(polys):
                v = sum(c * math.prod(x ** e for x, e in zip(p, exps)) for c, exps in terms)
                if v:
                    vals[(0, k)] = v
            vals.update(((1, i), x) for i, x in enumerate(p) if x)
            return vals

        vm, stats = assert_matches_reference(
            cleared(value_fn), value_fn, d, solve_results, budget=rng.choice((64, 128)),
            seed=rng.randint(0, 9))
        screened += stats["farkas_screened"]
        found += vm is not None
    assert screened > 0 and 0 < found < 24


def test_transpose_skip_keeps_the_independent_rows():
    # on a symmetric pencil a minor and its transpose give equal rows; the
    # value function keeps only the twin that sorts first, with the same
    # cleared column otherwise, and the row basis is the one of the full
    # table
    rng = random.Random(59)
    skipped = 0
    for _ in range(30):
        m = rng.randint(2, 4)
        d = rng.randint(1, min(4, m * (m + 1) // 2))
        while True:
            basis = []
            for _ in range(d):
                s = [[Fraction(0)] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        if rng.random() < 0.6:
                            s[i][j] = s[j][i] = rand_rat(rng)
                basis.append(s)
            try:
                K = Subspace(basis)
                break
            except ValueError:
                continue
        points = [tuple(rand_rat(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(d))
                  for _ in range(rng.randint(1, 12))]
        points = [p for p in points if any(p)] or [(Fraction(1),) * d]
        full = [cleared(value_fn_reference(K))(p) for p in points]
        kept = [subspace_value_fn(K)(p) for p in points]
        for (f_scale, f), (k_scale, k) in zip(full, kept):
            assert k_scale == f_scale
            assert k == {key: v for key, v in f.items() if len(key) == 2 or key[1] <= key[2]}
            skipped += len(f) - len(k)
        assert (_independent_value_rows([k for _, k in kept])
                == _independent_value_rows([f for _, f in full]))
    assert skipped > 0

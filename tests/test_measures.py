import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from bench_inputs import sym3_open_pool
from farkas_oracle import farkas_feasible_bruteforce, farkas_solve_reference
from nullag import measures
from nullag.algebra import RationalMatrix, enumerate_minors, minor, vec_dot
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
from nullag.fixtures import kr_family
from nullag.certify import reduce_chain
from nullag.subspace import Subspace
from sample_oracle import construct_nontrivial_reference, value_fn_reference


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


# ---------------------------------------------------------------------------
# Farkas kernel
# ---------------------------------------------------------------------------

def test_farkas_identity_feasible():
    res = farkas_solve(FarkasProblem(RationalMatrix.identity(2), [1, 1]))
    assert res.feasible and res.x == (Fraction(1), Fraction(1))


def test_farkas_identity_infeasible():
    prob = FarkasProblem(RationalMatrix.identity(2), [-1, 0])
    res = farkas_solve(prob)
    assert not res.feasible
    y = res.certificate
    for j in range(2):
        assert vec_dot(y, prob.A.column(j)) >= 0
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
    res = farkas_solve(FarkasProblem(A, [0, 0, 0, eps]))
    assert res.feasible
    assert res.x == (eps / 4, eps / 4, eps / 4, eps / 4)


def test_farkas_fuzz_against_bruteforce():
    rng = random.Random(2)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = RationalMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)])
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        prob = FarkasProblem(A, b)
        res = farkas_solve(prob)
        oracle = farkas_feasible_bruteforce(prob)
        assert res.feasible == oracle
        if res.feasible:
            assert A.matvec(res.x) == tuple(b)
            assert all(x >= 0 for x in res.x)
        else:
            y = res.certificate
            assert all(vec_dot(y, A.column(j)) >= 0 for j in range(n))
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
        yield FarkasProblem(RationalMatrix(A), b)
    for m, n, positive in ((12, 32, 0), (13, 64, 1), (12, 128, 0), (16, 48, 0), (24, 32, 1),
                           (12, 256, 2)):
        # non-negative first rows keep the origin out of the hull
        A = [[Fraction(rng.randint(0 if i < positive else -9, 9), rng.randint(1, 3)) for _ in range(n)]
             for i in range(m - 1)]
        yield FarkasProblem(RationalMatrix(A + [[1] * n]), [0] * (m - 1) + [1])


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
            prob = FarkasProblem(RationalMatrix.from_columns(cols), b)
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
        other_rows = FarkasProblem(RationalMatrix([[1] * len(cols)] + prob.A.tolist()), [1] + b)
        other_b = FarkasProblem(prob.A, [x + 1 for x in b])
        other_col = FarkasProblem(RationalMatrix.from_columns([[x + 1 for x in cols[0]]] + cols[1:]), b)
        for other in (other_rows, other_b, other_col):
            cold, ref = farkas_solve(other, start=res.checkpoint), farkas_solve_reference(other)
            assert (cold.x, cold.certificate, cold.pivots) == (ref.x, ref.certificate, ref.pivots)
            stale += cold.pivots > 0
    assert reentered > 0 and stale > 0 and outcomes == {True, False}


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
        res = farkas_solve(FarkasProblem(RationalMatrix(A), b))
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
    vm = construct_nontrivial(lambda p: {0: p[0] ** 2, 1: p[0]}, 1, seed=0)
    assert vm is None  # z^2 >= 0 blocks any non-trivial barycenter-zero measure

    # the family {0, z}
    vm2 = construct_nontrivial(lambda p: {1: p[0]}, 1, seed=0)
    assert vm2 is not None
    assert sum(w * p[0] for w, p in zip(vm2.weights, vm2.points)) == 0


def test_construct_draws_the_whole_budget():
    # {z^2, z} is never feasible, so the sample grows until the budget
    drawn = []

    def value_fn(p):
        drawn.append(p)
        return {0: p[0] ** 2, 1: p[0]}

    stats = {}
    assert construct_nontrivial(value_fn, 1, budget=320, stats=stats) is None
    assert len(drawn) == len(set(drawn)) == 320
    # every growth step (32, 64, ..., 320 points) is either solved or
    # settled by the last certificate; the last LP solved has the rows
    # z^2, z and the ones row on the first 256 points
    assert stats["farkas_solves"] + stats["farkas_screened"] == 10
    assert stats["farkas_pivots"] > 0
    assert (stats["farkas_rows"], stats["farkas_cols"]) == (3, 256)


def assert_value_fn_follows_the_minor_enumeration(K, p):
    """The sorted keys are the row order of the Farkas instance: non-zero
    minors in enumerate_minors order, then the non-zero projections."""
    m, n = K.m, K.n
    M = K.evaluate(p)
    vals = subspace_value_fn(K)(p)
    minors = [(rows, cols) for rows, cols in enumerate_minors(m, n)
              if minor(M, rows, cols) != 0]
    proj = [l for l in range(K.d) if p[l] != 0]
    assert sorted(vals) == ([(len(rows), rows, cols) for rows, cols in minors]
                            + [(min(m, n) + 1, l) for l in proj])
    for rows, cols in minors:
        assert vals[(len(rows), rows, cols)] == minor(M, rows, cols)
    for l in proj:
        assert vals[(min(m, n) + 1, l)] == p[l]
    return vals


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
    # cL * P(z) and divided by (cL)**p
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
    screened, resumed = [], []
    for basis in sym3_open_pool(8):
        K = Subspace(basis)
        _, stats = assert_matches_reference(
            subspace_value_fn(K), value_fn_reference(K), K.d, solve_results)
        screened.append(stats["farkas_screened"])
        resumed.append(stats["farkas_resumed"])
    for r in range(5):
        K = kr_family(r)
        vm, stats = assert_matches_reference(
            subspace_value_fn(K), value_fn_reference(K), K.d, solve_results)
        assert vm is not None and stats["farkas_screened"] == 0
    # the three draws that exhaust the budget: 8 growth steps each; the
    # row keys never change, so every solve after the first resumes
    assert screened == [3, 0, 2, 0, 4, 0, 0, 0]
    assert resumed == [4, 5, 5, 1, 3, 5, 3, 2]


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
            value_fn, value_fn, d, solve_results, budget=rng.choice((64, 128)), seed=rng.randint(0, 9))
        screened += stats["farkas_screened"]
        found += vm is not None
    assert screened > 0 and 0 < found < 24


def test_transpose_skip_keeps_the_independent_rows():
    # on a symmetric pencil a minor and its transpose give equal rows; the
    # value function keeps only the twin that sorts first, and the row
    # basis is the one of the full table
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
        full = [value_fn_reference(K)(p) for p in points]
        kept = [subspace_value_fn(K)(p) for p in points]
        for f, k in zip(full, kept):
            assert k == {key: v for key, v in f.items() if len(key) == 2 or key[1] <= key[2]}
            skipped += len(f) - len(k)
        assert _independent_value_rows(kept) == _independent_value_rows(full)
    assert skipped > 0

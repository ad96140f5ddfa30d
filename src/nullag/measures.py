"""Discrete measures on matrix space and the Farkas feasibility kernel.

A finite atomic probability measure commutes with a minor M when
int M dmu = M(int X dmu); measures doing so for every minor are the
objects the rest of the library certifies against.  Verification is exact
over the rationals.  Non-trivial measures with barycenter zero are
constructed by convex-hull membership: collect candidate support points,
stack the values of a spanning family of polynomials, and solve the
resulting equality-form Farkas problem with an exact simplex.

The simplex runs on one fraction-free integer tableau: each row is scaled
to integers once, every entry is the rational tableau entry times the
basis determinant D (and a positive row or column scale), and a pivot is
the exact Bareiss step (p*x - f*r) // D.  The reduced costs are one more
row of that tableau.  All scale factors are positive and cancel in each
pivot decision, so Bland's rule takes the same pivots as on the rational
tableau and returns the same solution or certificate (see
``farkas_solve``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .algebra import (
    RationalMatrix,
    enumerate_minors,
    independent_indices,
    minor,
    minor_count,
    nonvanishing_minor_candidates,
    rat,
    rat_from_str,
    rat_to_str,
    vec_dot,
    vec_is_zero,
)
from .subspace import Subspace


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

class DiscreteMeasure:
    """Finite atomic probability measure.

    Atoms are RationalMatrix (exact) or float arrays (numeric); weights
    follow the same split.  Weights are non-negative and sum to one;
    atoms are pairwise distinct.
    """

    __slots__ = ("atoms", "weights", "exact")

    def __init__(self, atoms, weights):
        atoms = list(atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        exact = all(isinstance(a, RationalMatrix) for a in atoms)
        if exact:
            weights = tuple(rat(w) for w in weights)
            if any(w < 0 for w in weights):
                raise ValueError("weights must be non-negative")
            if sum(weights) != 1:
                raise ValueError("weights must sum to one")
            if len({a.entries for a in atoms}) != len(atoms):
                raise ValueError("atoms must be pairwise distinct")
        else:
            atoms = [np.asarray(a, dtype=float) for a in atoms]
            weights = tuple(float(w) for w in weights)
            if any(w < -1e-15 for w in weights):
                raise ValueError("weights must be non-negative")
            if abs(sum(weights) - 1.0) > 1e-9:
                raise ValueError("weights must sum to one")
        if len(atoms) != len(weights):
            raise ValueError("atom and weight counts differ")
        self.atoms = atoms
        self.weights = weights
        self.exact = exact

    @property
    def shape(self):
        a = self.atoms[0]
        if self.exact:
            return (a.rows, a.cols)
        return tuple(a.shape)

    def barycenter(self):
        if self.exact:
            m, n = self.shape
            acc = RationalMatrix.zeros(m, n)
            for w, a in zip(self.weights, self.atoms):
                acc = acc + a.scale(w)
            return acc
        acc = np.zeros(self.shape)
        for w, a in zip(self.weights, self.atoms):
            acc = acc + w * a
        return acc

    def is_dirac(self):
        return sum(1 for w in self.weights if (w != 0 if self.exact else w > 1e-15)) <= 1

    def to_json(self):
        m, n = self.shape
        if self.exact:
            atoms = [[[rat_to_str(a[i, j]) for j in range(n)] for i in range(m)] for a in self.atoms]
            weights = [rat_to_str(w) for w in self.weights]
        else:
            atoms = [[[float(a[i, j]) for j in range(n)] for i in range(m)] for a in self.atoms]
            weights = [float(w) for w in self.weights]
        return {"kind": "measure", "shape": [m, n], "atoms": atoms, "weights": weights}

    @staticmethod
    def from_json(obj):
        try:
            atoms_raw = obj["atoms"]
            weights_raw = obj["weights"]
            exact = all(
                isinstance(x, (str, int)) for a in atoms_raw for row in a for x in row
            ) and all(isinstance(w, (str, int)) for w in weights_raw)
            if exact:
                atoms = [RationalMatrix([[rat_from_str(x) for x in row] for row in a]) for a in atoms_raw]
                weights = [rat_from_str(w) for w in weights_raw]
            else:
                atoms = [np.asarray(a, dtype=float) for a in atoms_raw]
                weights = [float(w) for w in weights_raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("bad measure JSON: %s" % exc) from exc
        mu = DiscreteMeasure(atoms, weights)
        shape = obj.get("shape", list(mu.shape))
        if not isinstance(shape, list) or tuple(shape) != mu.shape:
            raise ValueError("measure JSON shape inconsistent with atoms")
        return mu


class NLReport:
    """Verdict of the Null-Lagrangian check with per-minor residuals.

    ``residuals`` maps (rowset, colset) to the residual value for every
    minor that was actually evaluated; minors skipped because every atom
    (and the barycenter) has a structurally zero submatrix there are
    exactly zero and only counted.
    """

    __slots__ = ("verdict", "residuals", "checked", "skipped", "exact")

    def __init__(self, verdict, residuals, checked, skipped, exact):
        self.verdict = verdict
        self.residuals = residuals
        self.checked = checked
        self.skipped = skipped
        self.exact = exact

    def max_residual(self):
        if not self.residuals:
            return 0
        return max(abs(v) for v in self.residuals.values())


def is_null_lagrangian(mu: DiscreteMeasure, orders="all", tol=1e-9) -> NLReport:
    """Check int M dmu == M(barycenter) for the enumerated minors.

    Exact measures get an exact verdict (residuals must vanish
    identically); float measures are checked against ``tol``.
    """
    m, n = mu.shape
    bary = mu.barycenter()
    if mu.exact:
        cand = nonvanishing_minor_candidates(list(mu.atoms) + [bary], m, n, orders)
        total = minor_count(m, n, orders)
        residuals = {}
        for rows, cols in sorted(cand):
            val = sum(
                (w * minor(a, rows, cols) for w, a in zip(mu.weights, mu.atoms)),
                Fraction(0),
            ) - minor(bary, rows, cols)
            residuals[(rows, cols)] = val
        verdict = all(v == 0 for v in residuals.values())
        return NLReport(verdict, residuals, len(residuals), total - len(residuals), True)
    pairs = enumerate_minors(m, n, orders)
    residuals = {}
    for rows, cols in pairs:
        val = sum(
            w * float(np.linalg.det(a[np.ix_(rows, cols)])) for w, a in zip(mu.weights, mu.atoms)
        ) - float(np.linalg.det(bary[np.ix_(rows, cols)]))
        residuals[(rows, cols)] = val
    verdict = all(abs(v) <= tol for v in residuals.values())
    return NLReport(verdict, residuals, len(residuals), 0, False)


def two_atom_measure(K: Subspace, witness) -> DiscreteMeasure:
    """The measure (1/2) delta_A + (1/2) delta_{-A} at A = P(witness)."""
    A = K.evaluate(witness)
    if A.is_zero():
        raise ValueError("witness direction evaluates to the zero matrix")
    return DiscreteMeasure([A, A.scale(-1)], [Fraction(1, 2), Fraction(1, 2)])


# ---------------------------------------------------------------------------
# Farkas kernel
# ---------------------------------------------------------------------------

class FarkasProblem:
    """Feasibility instance: does Ax = b admit x >= 0?"""

    __slots__ = ("A", "b")

    def __init__(self, A: RationalMatrix, b):
        b = tuple(rat(x) for x in b)
        if len(b) != A.rows:
            raise ValueError("right-hand side length mismatch")
        self.A = A
        self.b = b


class FarkasResult:
    """Either a non-negative solution or a separating certificate.

    ``x``            solution with Ax = b, x >= 0 (exact), or None.
    ``certificate``  y with y.A >= 0 componentwise and y.b < 0, or None.
    ``pivots``       simplex pivots taken.
    Exactly one of ``x`` and ``certificate`` is set.
    """

    __slots__ = ("x", "certificate", "pivots")

    def __init__(self, x=None, certificate=None, pivots=0):
        self.x = x
        self.certificate = certificate
        self.pivots = pivots

    @property
    def feasible(self):
        return self.x is not None


def farkas_solve(problem: FarkasProblem) -> FarkasResult:
    """Exact phase-one simplex with Bland's rule (termination guaranteed).

    Minimizes the artificial mass of Ax + s = b', x, s >= 0, where row i
    is sign-flipped so that b'_i >= 0; a zero optimum yields the solution,
    a positive optimum yields the separating vector from the simplex
    multipliers.  Both outcomes are re-verified exactly before returning.

    The tableau is fraction-free (Edmonds 1967, Bareiss 1968).  Row i is
    scaled once by L_i, the lcm of its denominators, and its artificial
    variable by L_i too, so the start is an integer tableau on a unit
    basis, and the artificial costs become D0/L_i with D0 = lcm(L_i).
    The reduced costs are one more tableau row.  Each pivot on
    p = M[l][e] keeps row l, maps every other row r to
    (p*r - r[e]*M[l]) // D, an exact division, and sets D = p; D is the
    determinant of the current basis and stays positive.

    Let T be the rational tableau of the unscaled problem on the same
    basis.  Then M = D*T, except that a row whose basic variable is
    artificial i carries a factor L_i and artificial column i a factor
    1/L_i; the cost row holds D*D0*rc, divided by L_i in column n+i.
    All these factors are positive, so the entering column (the first
    non-basic one with a negative reduced cost) is the same.  In the
    ratio test, a row's factor cancels in its own ratio M[i][-1] / M[i][e],
    and D and the factor of column e are shared by every row, so the
    ratios keep their order and their ties (compared by cross-multiplying;
    a tie goes to the smaller basic index).  The pivots, the final basis,
    x and y are therefore those of Bland's rule on T, with
    y'_i = 1 - rc(n+i) read off the cost row.
    """
    A, b = problem.A, problem.b
    m, n = A.rows, A.cols
    ncols = n + m
    signs = [-1 if x < 0 else 1 for x in b]
    M = []
    scales = []
    for i in range(m):
        row = [signs[i] * v for v in A.entries[i]] + [signs[i] * b[i]]
        L = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (L // v.denominator) for v in row]
        M.append(ints[:n] + [int(k == i) for k in range(m)] + ints[n:])
        scales.append(L)
    D0 = math.lcm(*scales)
    costs = [D0 // L for L in scales]
    # reduced costs on the artificial basis: c_j - sum_i c_(n+i) M[i][j]
    cost_row = [-sum(c * row[j] for c, row in zip(costs, M)) for j in range(n)] + [0] * m
    cost_row.append(-sum(c * row[ncols] for c, row in zip(costs, M)))
    basis = list(range(n, ncols))
    basic = [False] * n + [True] * m
    D = 1
    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if cost_row[j] < 0 and not basic[j]), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(M):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # row[-1] / a against M[leave][-1] / M[leave][enter]
                lhs = row[ncols] * M[leave][enter]
                rhs = M[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; this cannot happen")
        prow = M[leave]
        p = prow[enter]
        for row in itertools.chain(M, (cost_row,)):
            if row is prow:
                continue
            f = row[enter]
            if f:
                row[:] = [(p * x - f * r) // D for x, r in zip(row, prow)]
            elif p != D:
                row[:] = [p * x // D for x in row]
        basic[basis[leave]] = False
        basic[enter] = True
        basis[leave] = enter
        D = p
        pivots += 1

    if cost_row[ncols] == 0:  # -D*D0 times the artificial mass
        x = [Fraction(0)] * n
        for row, j in zip(M, basis):
            if j < n:
                x[j] = Fraction(row[ncols], D)
        x = tuple(x)
        if any(xi < 0 for xi in x) or A.matvec(x) != b:
            raise RuntimeError("simplex produced an invalid solution")
        return FarkasResult(x=x, pivots=pivots)
    # simplex multipliers off the artificial columns: y'_i = 1 - rc(n+i)
    y = tuple(
        -signs[i] * (1 - Fraction(cost_row[n + i] * scales[i], D * D0)) for i in range(m)
    )
    ys = [vec_dot(y, A.column(j)) for j in range(n)]
    if any(v < 0 for v in ys) or vec_dot(y, b) >= 0:
        raise RuntimeError("simplex produced an invalid infeasibility certificate")
    return FarkasResult(certificate=y, pivots=pivots)


# ---------------------------------------------------------------------------
# non-trivial measure construction
# ---------------------------------------------------------------------------

class VectorMeasure:
    """Finite atomic measure on R^d points (pre-push-forward form)."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        self.points = [tuple(rat(x) for x in p) for p in points]
        self.weights = tuple(rat(w) for w in weights)

    def barycenter(self):
        d = len(self.points[0])
        return tuple(
            sum((w * p[i] for w, p in zip(self.weights, self.points)), Fraction(0))
            for i in range(d)
        )


def default_cone_sampler(d, seed=0):
    """Deterministic stratified stream of rational points on R^d \\ {0}.

    Yields signed coordinate directions first, then signed two-index
    combinations, then seeded random rational points.  Low-height points
    come first because structured measures tend to be supported there.
    """
    import random as _random

    def gen():
        seen = set()

        def emit(p):
            p = tuple(rat(x) for x in p)
            if vec_is_zero(p) or p in seen:
                return None
            seen.add(p)
            return p

        for i in range(d):
            for s in (1, -1):
                p = [Fraction(0)] * d
                p[i] = Fraction(s)
                q = emit(p)
                if q is not None:
                    yield q
        for i in range(d):
            for j in range(i + 1, d):
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    p = [Fraction(0)] * d
                    p[i], p[j] = Fraction(si), Fraction(sj)
                    q = emit(p)
                    if q is not None:
                        yield q
        rng = _random.Random(seed)
        attempts = 0
        while True:
            attempts += 1
            span = 12 + attempts // 16  # widen so the point space never exhausts
            p = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(d)]
            q = emit(p)
            if q is not None:
                yield q

    return gen()


# points drawn per growth step of the sample
_BATCH = 32


def construct_nontrivial(value_fn, d, budget=256, seed=0, stats=None):
    """Search for a non-trivial measure on R^d with barycenter 0 commuting
    with a family of homogeneous functions.

    ``value_fn(p)`` gives the family's non-zero values at a point p as a
    sparse map {key: value}; the keys sort in a fixed row order, and the
    family must contain the d coordinate projections, so that a solution
    automatically has barycenter zero.  Points come from
    ``default_cone_sampler(d, seed)``.  Feasibility over a
    finite sample is monotone in the sample, so the sample grows, first to
    max(32, 2d) points and then by 32, until the Farkas solve succeeds or
    ``budget`` points are drawn.

    An infeasible solve leaves its certificate y on its row keys and the
    ones row.  If y . a_c >= 0 on every new column c of the next step
    (with y = 0 on rows new at that step), y certifies the enlarged
    system too, since a certificate on a subset of the rows certifies the
    whole system, and the step is settled without a solve.  Only
    infeasible steps are skipped, so the final LP, its vertex and the
    measure are those of solving at every step.

    ``stats``, a dict if given, receives the Farkas counters:
    ``farkas_solves``, ``farkas_screened`` (steps settled by the last
    certificate), ``farkas_pivots`` (summed over the solves) and
    ``farkas_rows`` and ``farkas_cols`` of the last LP solved.

    Returns a VectorMeasure (atoms in R^d), or None.
    """
    if stats is None:
        stats = {}
    stats.update(farkas_solves=0, farkas_screened=0, farkas_pivots=0, farkas_rows=0, farkas_cols=0)
    sampler = default_cone_sampler(d, seed=seed)
    points = []
    values = []
    keys, y = (), None  # row keys and certificate of the last infeasible solve
    while True:
        want = min(max(_BATCH, 2 * d) if not points else _BATCH, budget - len(points))
        start = len(points)
        for p in itertools.islice(sampler, max(want, 0)):
            points.append(p)
            values.append(value_fn(p))
        if not points:
            return None
        if y is not None and all(
            sum((yr * v[k] for k, yr in zip(keys, y) if k in v), y[-1]) >= 0
            for v in values[start:]
        ):
            stats["farkas_screened"] += 1
        else:
            keys = _independent_value_rows(values)
            ncols = len(points)
            Amat = RationalMatrix(
                [[values[c].get(r, Fraction(0)) for c in range(ncols)] for r in keys]
                + [[Fraction(1)] * ncols]
            )
            b = [Fraction(0)] * len(keys) + [Fraction(1)]
            res = farkas_solve(FarkasProblem(Amat, b))
            stats["farkas_solves"] += 1
            stats["farkas_pivots"] += res.pivots
            stats["farkas_rows"], stats["farkas_cols"] = Amat.rows, Amat.cols
            if res.feasible:
                support = [(lam, p) for lam, p in zip(res.x, points) if lam != 0]
                mu = VectorMeasure([p for _, p in support], [lam for lam, _ in support])
                _verify_vector_measure(mu, values, res.x)
                return mu
            y = res.certificate
        if len(points) >= budget:
            return None


def _independent_value_rows(values):
    """Keys of a row basis of the (functions x points) value matrix.

    Values are sparse per-point maps {key: value}; rows that vanish on
    every point never appear.  The rows are taken in sorted key order and
    a row is kept when ``independent_indices`` finds it independent of the
    rows before it: dependent rows, repeated ones included, do not change
    the solution set, so the Farkas instance only needs this basis.
    """
    live = sorted(set().union(*values)) if values else []
    rows = ([v.get(r, Fraction(0)) for v in values] for r in live)
    return [live[i] for i in independent_indices(rows)]


def _verify_vector_measure(mu: VectorMeasure, values, x):
    total = sum(mu.weights, Fraction(0))
    if total != 1:
        raise RuntimeError("constructed measure weights do not sum to one")
    for r in sorted(set().union(*values)):
        acc = sum(
            (lam * values[c].get(r, Fraction(0)) for c, lam in enumerate(x) if lam != 0),
            Fraction(0),
        )
        if acc != 0:
            raise RuntimeError("constructed measure fails exact commutation")
    if len(mu.points) < 2:
        raise RuntimeError("constructed measure is a Dirac; projections row missing?")


# ---------------------------------------------------------------------------
# subspace front end
# ---------------------------------------------------------------------------

def subspace_value_fn(K: Subspace):
    """Per-point values of every minor of P(z) plus the d projections.

    A minor is keyed ``(p, rows, cols)`` and the l-th projection
    ``(min(m, n) + 1, l)``, so the keys sort in ``enumerate_minors(m, n)``
    order, followed by the projections.  Minor values are computed on the
    evaluated matrix with structural-zero filtering, so sparse sample
    points stay cheap even for big shapes.  When every basis matrix is
    symmetric, P(z) is too and a minor equals its transpose; only the
    twin with rows <= cols, the one that sorts first, is kept, so the
    independent rows are the same.
    """
    proj = min(K.m, K.n) + 1
    symmetric = all(b == b.transpose() for b in K.basis)

    def value(p):
        M = K.evaluate(p)
        vals = {}
        for rows, cols in nonvanishing_minor_candidates([M], K.m, K.n):
            if symmetric and rows > cols:
                continue
            v = minor(M, rows, cols)
            if v != 0:
                vals[(len(rows), rows, cols)] = v
        for i in range(K.d):
            if p[i] != 0:
                vals[(proj, i)] = p[i]
        return vals

    return value


def construct_nontrivial_for_subspace(K: Subspace, budget=256, seed=0, stats=None):
    """Non-trivial barycenter-zero measure on K, or None.

    Solves the convex-hull membership in pencil coordinates, maps atoms
    through the pencil and re-verifies the matrix measure exactly against
    every minor order before returning it.  ``stats`` is passed on to
    ``construct_nontrivial``.
    """
    vm = construct_nontrivial(subspace_value_fn(K), K.d, budget=budget, seed=seed, stats=stats)
    if vm is None:
        return None
    mu = DiscreteMeasure([K.evaluate(p) for p in vm.points], vm.weights)
    report = is_null_lagrangian(mu)
    if not report.verdict:
        raise RuntimeError("constructed matrix measure fails exact verification")
    if not mu.barycenter().is_zero():
        raise RuntimeError("constructed measure has non-zero barycenter")
    return mu

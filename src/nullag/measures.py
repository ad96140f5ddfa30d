"""Discrete measures on matrix space and the Farkas feasibility kernel.

A finite atomic probability measure commutes with a minor M when
int M dmu = M(int X dmu); measures doing so for every minor are the
objects the rest of the library certifies against.  Verification is exact
over the rationals.  Non-trivial measures with barycenter zero are
constructed by convex-hull membership: collect candidate support points,
stack the values of a spanning family of polynomials, and solve the
resulting equality-form Farkas problem with an exact simplex.  On a
subspace the family is the minors of the pencil P(z) and the d
projections; a point's minors are read off one integer grid, cL * P(z)
with c the lcm of the basis denominators (``Subspace.L``, once per pencil)
and L that of the point's, by the Laplace minor table of
``algebra.minor_table``, and handed on cleared of denominators.

The simplex is a revised, fraction-free one.  Each column is held as a
positive integer scale and an integer column, cleared of denominators
once: by its own lcm for a problem given as a RationalMatrix, and by the
value function of the measure constructor, whose row basis and certificate
screening read the same integer columns.  The solver keeps
D * B^-1 (D the determinant of the basis B) and the right-hand side in
integers, prices each column when it needs it, and a pivot is the Bareiss
step (p*x - f*r) // D.  A positive column scale cancels in each pivot
decision, so Bland's rule takes the rational tableau's pivots.  A problem
with columns appended resumes from the checkpoint of its last solve, the
first basis where no old column could enter, on a cold solve's pivots
(see ``farkas_solve``).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .algebra import (
    RationalMatrix,
    _integer_row,
    bad_json,
    enumerate_minors,
    independent_indices,
    minor,
    minor_count,
    minor_table,
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
            # entry (i, j) is sum_c w_c a_c[i][j], over the lcm of the
            # weights' denominators times that of the atoms' entries there
            lw, w = _integer_row(self.weights)
            return RationalMatrix([[Fraction(sum(map(operator.mul, w, q)), lw * l)
                                    for l, q in map(_integer_row, zip(*rows))]
                                   for rows in zip(*(a.entries for a in self.atoms))])
        acc = np.zeros(self.shape)
        for w, a in zip(self.weights, self.atoms):
            acc = acc + w * a
        return acc

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
            raise bad_json("measure", exc) from exc
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


# float entries that one block of a stacked float kernel may hold: the
# commutation check below and the genericity kernel of ``certify``
BLOCK_ENTRIES = 1 << 17


def is_null_lagrangian(mu: DiscreteMeasure, orders="all", tol=1e-9) -> NLReport:
    """Check int M dmu == M(barycenter) for the enumerated minors.

    Exact measures get an exact verdict (residuals must vanish
    identically); float measures are checked against ``tol``.

    The float check is stacked and blocked.  For each minor order p it
    gathers the order-p submatrices of every atom and of the barycenter, a
    block of minors at a time, and takes their determinants in one stacked
    ``np.linalg.det`` call per block (per group of atoms, when the atoms
    alone fill a block), so a block holds at most ``BLOCK_ENTRIES`` float
    entries whatever the shape or the atom count.  The residual of a minor
    is then 0 + w_1 det_1 + ... + w_k det_k - det(barycenter), added in atom
    order.  It equals the residual of one ``det`` call per minor and atom,
    bit for bit: a stacked LAPACK call copies each matrix into the same
    buffer and runs the same routine on it as a call on that matrix alone,
    and the elementwise sums keep the per-minor order of operations.
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
    stack = np.stack(list(mu.atoms) + [bary])
    residuals = {}
    for p, pairs in itertools.groupby(enumerate_minors(m, n, orders), lambda pair: len(pair[0])):
        pairs = list(pairs)
        rows, cols = (np.array(index) for index in zip(*pairs))
        group = max(1, min(len(stack), BLOCK_ENTRIES // (p * p)))
        block = max(1, BLOCK_ENTRIES // (group * p * p))
        for start in range(0, len(pairs), block):
            r, c = rows[start:start + block, :, None], cols[start:start + block, None, :]
            dets = np.concatenate([np.linalg.det(stack[g:g + group][:, r, c])
                                   for g in range(0, len(stack), group)])
            val = sum(w * det for w, det in zip(mu.weights, dets)) - dets[-1]
            residuals.update(zip(pairs[start:start + block], val.tolist()))
    verdict = all(abs(v) <= tol for v in residuals.values())
    return NLReport(verdict, residuals, len(residuals), 0, False)


def check_measure(obj):
    """Re-check a measure's JSON by ``is_null_lagrangian``; (ok, verdict
    entries), naming the worst minor when it fails.  A ValueError when the
    JSON is malformed."""
    rep = is_null_lagrangian(DiscreteMeasure.from_json(obj))
    entry = {
        "operation": "is_null_lagrangian",
        "exact": rep.exact,
        "verdict": rep.verdict,
        "max_residual": None if rep.exact else rep.max_residual(),
        "checked": rep.checked,
        "skipped": rep.skipped,
    }
    if not rep.verdict:
        worst = max(rep.residuals, key=lambda k: abs(rep.residuals[k]))
        entry["witness_minor"] = {
            "rows": list(worst[0]),
            "cols": list(worst[1]),
            "residual": str(rep.residuals[worst]),
        }
    return rep.verdict, [entry]


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
    """Feasibility instance: does Ax = b admit x >= 0?

    Column j of A is held cleared of denominators: a positive integer
    scale c_j (``scales[j]``) and the integer column c_j A_j
    (``columns[j]``), each of length len(b), which are all that
    ``farkas_solve`` reads of A.  The RationalMatrix ``A`` is built only
    when it is read.
    """

    __slots__ = ("b", "scales", "columns", "_A")

    def __init__(self, scales, columns, b):
        if any(c <= 0 for c in scales):
            raise ValueError("column scales must be positive")
        self.b, self._A = tuple(rat(x) for x in b), None
        self.scales, self.columns = tuple(scales), tuple(columns)

    @property
    def A(self):
        """A as a RationalMatrix, built here on first read.  ``farkas_solve``
        never reads it; only the tests and the benchmark's tracer do."""
        if self._A is None:
            self._A = RationalMatrix([[Fraction(a[i], c) for a, c in zip(self.columns, self.scales)]
                                      for i in range(len(self.b))])
        return self._A


class FarkasResult:
    """Either a non-negative solution or a separating certificate.

    ``x``            solution with Ax = b, x >= 0 (exact), or None.
    ``certificate``  y with y.A >= 0 componentwise and y.b < 0, or None.
    ``pivots``       simplex pivots taken.
    ``checkpoint``   (problem, M, cost row, basis, D) at the first basis
                     where no column of A could enter: the ``start`` of a
                     solve with columns appended (``farkas_solve``).
    Exactly one of ``x`` and ``certificate`` is set.
    """

    __slots__ = ("x", "certificate", "pivots", "checkpoint")

    def __init__(self, x=None, certificate=None, pivots=0, checkpoint=None):
        self.x = x
        self.certificate = certificate
        self.pivots = pivots
        self.checkpoint = checkpoint

    @property
    def feasible(self):
        return self.x is not None


def farkas_solve(problem: FarkasProblem, start=None) -> FarkasResult:
    """Exact phase-one simplex with Bland's rule (termination guaranteed).

    Minimizes the artificial mass of Ax + s = b', x, s >= 0, where row i
    is sign-flipped so that b'_i >= 0; a zero optimum yields the solution,
    a positive optimum yields the separating vector from the simplex
    multipliers.  Both outcomes are re-verified exactly before returning.

    The simplex is revised and fraction-free (Edmonds 1967, Bareiss 1968).
    It reads A only as the problem's integer columns a_j = c_j A_j, c_j > 0
    (``FarkasProblem``), with row i times the sign of b_i, and b' scaled by
    c_b, the lcm of its denominators, to the integers b''.  With B the basis
    of [a_1 ... a_n | I] and D > 0 its determinant, the solver keeps the
    integers M = D * B^-1 [I | b''] and, as the cost row, D (1 - y'_k) for
    artificial k and -D times the artificial mass.  Column j of the full
    tableau is D B^-1 a_j, M's first m columns times a_j, and its reduced
    cost times D is -sum_k (D - cost[k]) a_jk; both are computed when
    needed.  A pivot on entry p of the entering column keeps row l, maps
    every other row r to (p*r - f*M[l]) // D, exactly, with f the entering
    column's entry in row r, and sets D = p.  On the same basis, the
    rational tableau T of the unscaled problem has D * T[i][j] * c_j /
    c_(basis i) in row i and column j (c = 1 off A), and column j's reduced
    cost is c_j times T's: the entering column (the first with a negative
    reduced cost) is the same, and the ratios of the ratio test are c_b /
    c_e times T's, so they keep their order and their ties (a tie goes to
    the smaller basic index).  Only the signs of the c_j enter this, not
    their values: the pivots, x and y are Bland's on T for any positive
    column scales, with x_j = c_j M[i][-1] / (c_b D) and y'_k = 1 - rc(n+k).

    ``result.checkpoint`` is the state at the first basis where no column
    of A has a negative reduced cost (artificial columns may enter after
    it).  Append columns to A, rows and b unchanged: a cold solve of the
    wider problem takes the same pivots up to that basis, as the first old
    column with a negative reduced cost enters in both (new columns come
    after it, artificial ones last) and the ratio test sees the same rows
    and basic indices in the same order.  ``start=result.checkpoint``
    resumes there, to the cold solve's later pivots, x or y.  The old
    columns are not cleared again; a ``start`` is ignored unless its
    problem has the same b and its scales and integer columns are a prefix
    of ``problem``'s, as the checkpoint's integers hold in those scales.
    """
    b, scales, columns = problem.b, problem.scales, problem.columns
    m, n = len(b), len(columns)
    signs = [-1 if x < 0 else 1 for x in b]
    cols = [list(map(operator.mul, signs, a)) for a in columns] if -1 in signs else columns
    c_b, top = _integer_row(b)
    old = start[0] if start else None
    n_old = len(old.columns) if old else 0
    if old and old.b == b and old.scales == scales[:n_old] and old.columns == columns[:n_old]:
        _, M, cost_row, basis, D = start
        basis = [j + n - n_old if j >= n_old else j for j in basis]
    else:
        top = list(map(operator.mul, signs, top))
        M = [[int(k == i) for k in range(m)] + [top[i]] for i in range(m)]
        cost_row, basis, D = [0] * m + [-sum(top)], [n + i for i in range(m)], 1
    checkpoint, pivots = None, 0
    while True:
        Dy = [D - c for c in cost_row[:m]]  # D * y'
        # column j's reduced cost times D is -Dy . a_j
        enter = next((j for j, a in enumerate(cols) if sum(map(operator.mul, Dy, a)) > 0), None)
        if enter is None:
            if checkpoint is None:
                checkpoint = (problem, M, cost_row, basis[:], D)
            enter = next((n + k for k in range(m) if cost_row[k] < 0), None)
            if enter is None:
                break
            column, f = [row[enter - n] for row in M], cost_row[enter - n]
        else:  # D B^-1 a_e; map stops at the end of a_e, before M's rhs
            column = [sum(map(operator.mul, row, cols[enter])) for row in M]
            f = -sum(map(operator.mul, Dy, cols[enter]))
        rows = [i for i in range(m) if column[i] > 0]
        if not rows:
            raise RuntimeError("phase-one objective unbounded; this cannot happen")
        # the least ratio M[i][-1] / column[i], a tie to the smaller basic
        # index; the columns are positive, so ratios compare crosswise
        leave = rows[0]
        for i in rows[1:]:
            lhs, rhs = M[i][m] * column[leave], M[leave][m] * column[i]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        prow, p = M[leave], column[leave]
        # M is replaced, never changed in place, so the checkpoint keeps its own
        M = [row if row is prow else _pivoted(row, prow, f_r, p, D) for row, f_r in zip(M, column)]
        cost_row = _pivoted(cost_row, prow, f, p, D)
        basis[leave] = enter
        D = p
        pivots += 1

    if cost_row[m] == 0:  # -D times the scaled artificial mass
        x = [Fraction(0)] * n
        for row, j in zip(M, basis):
            if j < n:
                x[j] = Fraction(row[m] * scales[j], D * c_b)
        x = tuple(x)
        # A x = b, with A_j = a_j / c_j, summed over the non-zero x_j
        support = [j for j in range(n) if x[j]]
        if any(xj < 0 for xj in x) or any(
                sum((x[j] * columns[j][i] / scales[j] for j in support), Fraction(0)) != b[i]
                for i in range(m)):
            raise RuntimeError("simplex produced an invalid solution")
        return FarkasResult(x=x, pivots=pivots, checkpoint=checkpoint)
    # simplex multipliers off the artificial columns: y'_i = 1 - rc(n+i);
    # y = Y / D with D > 0 and c_j > 0, so y.A_j >= 0 iff Y . (c_j A_j) >= 0 in integers
    Y = [-s * (D - c) for s, c in zip(signs, cost_row[:m])]
    y = tuple(Fraction(v, D) for v in Y)
    if vec_dot(y, b) >= 0 or any(sum(map(operator.mul, Y, a)) < 0 for a in columns):
        raise RuntimeError("simplex produced an invalid infeasibility certificate")
    return FarkasResult(certificate=y, pivots=pivots, checkpoint=checkpoint)


def _pivoted(row, prow, f, p, D):
    """The Bareiss step of ``row``, whose entering-column entry is f, on the
    pivot row ``prow`` with pivot p."""
    if f:
        return [(p * x - f * r) // D for x, r in zip(row, prow)]
    return row if p == D else [p * x // D for x in row]


# ---------------------------------------------------------------------------
# non-trivial measure construction
# ---------------------------------------------------------------------------

class VectorMeasure:
    """Finite atomic measure on R^d points (pre-push-forward form)."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        self.points = [tuple(rat(x) for x in p) for p in points]
        self.weights = tuple(rat(w) for w in weights)


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
_ZERO = Fraction(0)


def construct_nontrivial(value_fn, d, budget=256, seed=0, stats=None):
    """Search for a non-trivial measure on R^d with barycenter 0 commuting
    with a family of homogeneous functions.

    ``value_fn(p)`` gives the family's non-zero values at a point p as a
    column cleared of denominators, ``(L, {key: int})``: a positive integer
    scale L and the values times L; the keys sort in a fixed row order, and
    the family must contain the d coordinate projections, so that a
    solution automatically has barycenter zero.  Points come from
    ``default_cone_sampler(d, seed)``.  Feasibility over a
    finite sample is monotone in the sample, so the sample grows, first to
    max(32, 2d) points and then by 32, until the Farkas solve succeeds or
    ``budget`` points are drawn.

    The value function clears each column where it computes the values
    (``subspace_value_fn``), and L goes in the ones row; no sampled value
    becomes a Fraction here.  The row basis, the certificate screening, the
    LP and the final check read only these integer columns.  A positive
    column scale changes no row independence, no sign of y . a_c and no
    pivot (``farkas_solve``), so the rows, pivots, certificates and measure
    are those of the rational columns, whatever positive scale clears each.

    An infeasible solve leaves its certificate y on its row keys and the
    ones row.  If y . a_c >= 0 on every new column c of the next step
    (with y = 0 on rows new at that step), y certifies the enlarged
    system too, since a certificate on a subset of the rows certifies the
    whole system, and the step is settled without a solve.  Otherwise,
    if the row keys are those of the last solve, its LP is a column prefix
    of the new one: the old columns are kept, the new points' appended,
    and the solve resumes from its checkpoint, taking the pivots a cold
    solve takes after it (``farkas_solve``).  So the final LP, its vertex
    and the measure are those of solving cold at every step.

    ``stats``, a dict if given, receives the Farkas counters:
    ``farkas_solves``, ``farkas_screened`` (steps settled by the last
    certificate), ``farkas_resumed`` (solves started from the last
    checkpoint), ``farkas_pivots`` (the pivots taken, summed over the
    solves, so not those a resumed solve skips) and ``farkas_rows`` and
    ``farkas_cols`` of the last LP solved.

    Returns a VectorMeasure (atoms in R^d), or None.
    """
    if stats is None:
        stats = {}
    stats.update(farkas_solves=0, farkas_screened=0, farkas_resumed=0, farkas_pivots=0,
                 farkas_rows=0, farkas_cols=0)
    sampler = default_cone_sampler(d, seed=seed)
    points = []
    # per point, the scale L and the integer values {key: L * value}
    scales = []
    cleared = []
    # row keys, certificate (cleared of denominators) and checkpoint of the
    # last infeasible solve, and the LP columns on those keys
    keys, Y, checkpoint, columns = (), None, None, []
    while True:
        want = min(max(_BATCH, 2 * d) if not points else _BATCH, budget - len(points))
        start = len(points)
        for p in itertools.islice(sampler, max(want, 0)):
            L, ints = value_fn(p)
            points.append(p)
            scales.append(L)
            cleared.append(ints)
        if not points:
            return None
        if Y is not None and all(
            sum((yr * c[k] for k, yr in zip(keys, Y) if k in c), Y[-1] * L) >= 0
            for L, c in zip(scales[start:], cleared[start:])
        ):
            stats["farkas_screened"] += 1
        else:
            rows = _independent_value_rows(cleared)
            resumed, keys = rows == keys, rows
            if not resumed:
                columns = []
            for L, c in zip(scales[len(columns):], cleared[len(columns):]):
                columns.append([c.get(r, 0) for r in keys] + [L])
            b = [_ZERO] * len(keys) + [Fraction(1)]
            res = farkas_solve(FarkasProblem(scales, columns, b),
                               start=checkpoint if resumed else None)
            stats["farkas_solves"] += 1
            stats["farkas_resumed"] += resumed
            stats["farkas_pivots"] += res.pivots
            stats["farkas_rows"], stats["farkas_cols"] = len(b), len(columns)
            if res.feasible:
                support = [(lam, p) for lam, p in zip(res.x, points) if lam != 0]
                mu = VectorMeasure([p for _, p in support], [lam for lam, _ in support])
                _verify_vector_measure(mu, scales, cleared, res.x)
                return mu
            Y, checkpoint = _integer_row(res.certificate)[1], res.checkpoint
        if len(points) >= budget:
            return None


def _independent_value_rows(values):
    """Keys of a row basis of the (functions x points) value matrix.

    Values are sparse per-point maps {key: value}; rows that vanish on
    every point never appear.  A point's map times a positive scale (its
    values cleared of denominators) keeps the row basis, as it scales a
    column of the matrix.  The rows are taken in sorted key order and
    a row is kept when ``independent_indices`` finds it independent of the
    rows before it: dependent rows, repeated ones included, do not change
    the solution set, so the Farkas instance only needs this basis.
    """
    live = sorted(set().union(*values)) if values else []
    rows = ([v.get(r, 0) for v in values] for r in live)
    return [live[i] for i in independent_indices(rows)]


def _verify_vector_measure(mu: VectorMeasure, scales, cleared, x):
    """Check sum_c x_c ints_c[r] / L_c == 0 on every row r of the cleared
    columns (L_c, ints_c), in integers, with the weights x_c / L_c cleared."""
    total = sum(mu.weights, Fraction(0))
    if total != 1:
        raise RuntimeError("constructed measure weights do not sum to one")
    support = [c for c, lam in enumerate(x) if lam != 0]
    _, w = _integer_row([x[c] / scales[c] for c in support])
    for r in set().union(*cleared):
        if sum(wc * cleared[c].get(r, 0) for wc, c in zip(w, support)) != 0:
            raise RuntimeError("constructed measure fails exact commutation")
    if len(mu.points) < 2:
        raise RuntimeError("constructed measure is a Dirac; projections row missing?")


# ---------------------------------------------------------------------------
# subspace front end
# ---------------------------------------------------------------------------

def subspace_value_fn(K: Subspace):
    """Per-point values of every minor of P(z) plus the d projections, as
    a column cleared of denominators, ``(scale, {key: int})``.

    A minor is keyed ``(p, rows, cols)`` and the l-th projection
    ``(min(m, n) + 1, l)``, so the keys sort in ``enumerate_minors(m, n)``
    order, followed by the projections.  The minors come from one integer
    grid per point: with c = ``K.L`` and L the lcm of the denominators of
    z = q / L, E = cL * P(z) is read off ``K.int_grid``, and
    ``minor_table`` expands its non-zero minors by Laplace on row prefixes.
    Every value is put over S = (cL)**top, top = min(m, n): an order-p
    minor of E times (cL)**(top - p), projection l as q_l c**top L**(top-1).
    The column and S are divided by their gcd, which leaves S the least
    positive scale that clears the values.  When every basis matrix is
    symmetric, P(z) is too and a minor equals its transpose; only the twin
    with rows <= cols, the one that sorts first, is kept, so the
    independent rows are the same.
    """
    d, top = K.d, min(K.m, K.n)
    proj = top + 1
    symmetric = all(b == b.transpose() for b in K.basis)

    def value(p):
        if len(p) != d:
            raise ValueError("point dimension mismatch")
        L, q = _integer_row([rat(x) for x in p])
        grid = [[sum(q[l] * v for l, v in entry) for entry in row] for row in K.int_grid]
        # lift[k] = (cL)**(top - k) puts an order-k minor of E over S = lift[0]
        lift = [(K.L * L) ** (top - k) for k in range(top + 1)]
        col = {(len(rows), rows, cols): det * lift[len(rows)]
               for (rows, cols), det in minor_table(grid, top).items()
               if not (symmetric and rows > cols)}
        col.update(((proj, i), K.L * lift[1] * x) for i, x in enumerate(q) if x)
        g = math.gcd(lift[0], *col.values())
        return lift[0] // g, {key: v // g for key, v in col.items()}

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

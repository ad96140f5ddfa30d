"""Reference oracles for the Farkas kernel tests.

``farkas_feasible_bruteforce`` decides feasibility by exhaustive basic
solutions.  ``farkas_solve_reference`` is the phase-one simplex with
Bland's rule on the rational tableau in ``Fraction`` arithmetic: the
integer-tableau ``measures.farkas_solve`` must take the same pivots and
return the same solution or certificate.
"""

import itertools
from fractions import Fraction

from nullag.algebra import RationalMatrix, _integer_row, vec_dot
from nullag.measures import FarkasProblem, FarkasResult
from poly_oracle import matvec


def farkas_problem(A: RationalMatrix, b) -> FarkasProblem:
    """The problem Ax = b, x >= 0, with each column of the RationalMatrix A
    cleared by the lcm of its own denominators."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length mismatch")
    scales, columns = zip(*(_integer_row(col) for col in zip(*A.entries)))
    return FarkasProblem(scales, columns, b)


def farkas_feasible_bruteforce(problem) -> bool:
    """Independent oracle: enumerate candidate basic solutions exhaustively.

    A feasible system has a basic feasible solution supported on linearly
    independent columns, so checking every independent column subset S
    decides feasibility.  One rref of [A_S | b] decides each S: its pivots
    are exactly the first |S| columns iff A_S is independent and the system
    is consistent, and then the last column holds the unique solution.
    Exponential; for cross-checking small systems.
    """
    A, b = problem.A, problem.b
    n = A.cols
    columns = list(zip(*A.entries))
    if all(x == 0 for x in b):
        return True
    for size in range(1, min(A.rows, n) + 1):
        basic = tuple(range(size))
        for subset in itertools.combinations(range(n), size):
            red, pivots = RationalMatrix.from_columns([columns[j] for j in subset] + [b]).rref()
            if pivots == basic and all(red.entries[r][size] >= 0 for r in range(size)):
                return True
    return False


def farkas_solve_reference(problem) -> FarkasResult:
    """Phase-one simplex with Bland's rule on the rational tableau.

    Minimizes the artificial mass of Ax + s = b', x, s >= 0, with every
    row sign-flipped so that b' >= 0; the reduced costs are recomputed
    from the tableau for each candidate column.  A zero optimum yields the
    solution, a positive optimum the separating vector from the simplex
    multipliers; both are re-verified exactly.
    """
    A, b = problem.A, problem.b
    m, n = A.rows, A.cols
    signs = [Fraction(-1) if x < 0 else Fraction(1) for x in b]
    T = [
        [signs[i] * A.entries[i][j] for j in range(n)]
        + [Fraction(int(i == k)) for k in range(m)]
        + [signs[i] * b[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    ncols = n + m
    pivots = 0

    def reduced_cost(j):
        # cost 0 on structural, 1 on artificial columns
        rc = Fraction(1) if j >= n else Fraction(0)
        for i in range(m):
            if basis[i] >= n:
                rc -= T[i][j]
        return rc

    while True:
        enter = None
        for j in range(ncols):
            if j in basis:
                continue
            if reduced_cost(j) < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][ncols] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; this cannot happen")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * p for a, p in zip(T[i], T[leave])]
        basis[leave] = enter
        pivots += 1

    objective = sum((T[i][ncols] for i in range(m) if basis[i] >= n), Fraction(0))
    if objective == 0:
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = T[i][ncols]
        x = tuple(x)
        if any(xi < 0 for xi in x) or matvec(A, x) != b:
            raise RuntimeError("simplex produced an invalid solution")
        return FarkasResult(x=x, pivots=pivots)
    # simplex multipliers off the artificial columns: y'_i = (c_B B^-1)_i
    yprime = []
    for i in range(m):
        yprime.append(sum((T[r][n + i] for r in range(m) if basis[r] >= n), Fraction(0)))
    y = tuple(-signs[i] * yprime[i] for i in range(m))
    ys = [vec_dot(y, col) for col in zip(*A.entries)]
    if any(v < 0 for v in ys) or vec_dot(y, b) >= 0:
        raise RuntimeError("simplex produced an invalid infeasibility certificate")
    return FarkasResult(certificate=y, pivots=pivots)

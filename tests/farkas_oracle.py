"""Brute-force feasibility oracle for the Farkas kernel tests."""

import itertools

from nullag.algebra import RationalMatrix


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
    if all(x == 0 for x in b):
        return True
    for size in range(1, min(A.rows, n) + 1):
        basic = tuple(range(size))
        for subset in itertools.combinations(range(n), size):
            red, pivots = RationalMatrix.from_columns([A.column(j) for j in subset] + [b]).rref()
            if pivots == basic and all(red.entries[r][size] >= 0 for r in range(size)):
                return True
    return False

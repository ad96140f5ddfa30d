"""Reference determinant identities for criterion 7.

``det_sum_expansion`` computes det(A+X) through the mixed-minor
expansion and ``cofactor_identity_2x2`` computes det(A-B) of 2x2
matrices through the cofactor of B; both must agree exactly with the
direct ``RationalMatrix.det``.
"""

import itertools
from fractions import Fraction

from nullag.algebra import RationalMatrix


def det_sum_expansion(A: RationalMatrix, X: RationalMatrix) -> Fraction:
    """det(A+X) computed through the mixed-minor expansion.

    Expands det(A+X) = det(A) + det(X) + sum over proper row subsets of X
    of cofactor(A) * minor(X) terms (generalized Laplace across the row
    split).  Must agree with the direct determinant exactly.
    """
    if A.rows != A.cols or X.rows != X.cols or A.rows != X.rows:
        raise ValueError("det_sum_expansion needs two square matrices of equal size")
    n = A.rows
    total = A.det() + X.det()
    full = tuple(range(n))
    for p in range(1, n):
        for rowset in itertools.combinations(full, p):
            comp_rows = tuple(i for i in full if i not in rowset)
            for colset in itertools.combinations(full, p):
                comp_cols = tuple(j for j in full if j not in colset)
                sign = -1 if (sum(rowset) + sum(colset)) % 2 else 1
                cof = A.submatrix(comp_rows, comp_cols).det()
                if cof == 0:
                    continue
                total += sign * cof * X.submatrix(rowset, colset).det()
    return total


def cofactor_identity_2x2(A: RationalMatrix, B: RationalMatrix) -> Fraction:
    """det(A) - A:Cof(B) + det(B); equals det(A-B) for 2x2 matrices."""
    if A.rows != 2 or A.cols != 2 or B.rows != 2 or B.cols != 2:
        raise ValueError("cofactor_identity_2x2 needs 2x2 matrices")
    a, b = A.entries, B.entries
    cof = ((b[1][1], -b[1][0]), (-b[0][1], b[0][0]))
    frobenius = sum((x * y for r1, r2 in zip(a, cof) for x, y in zip(r1, r2)), Fraction(0))
    return A.det() - frobenius + B.det()

"""Reference oracle for the exact matrix kernel tests.

``rref_reference`` is Gauss-Jordan elimination in ``Fraction`` arithmetic:
each pivot row is divided by its pivot and every other row is cleared
against it.  The integer-row ``RationalMatrix.rref`` must return the
identical matrix and pivot columns.  ``solve_reference``,
``nullspace_reference`` and ``inverse_reference`` read their answers off
this reference exactly as the ``RationalMatrix`` methods read theirs off
``rref``.
"""

from fractions import Fraction

from nullag.algebra import RationalMatrix, rat


def rref_reference(A: RationalMatrix):
    """Reduced row echelon form; returns (matrix, pivot column tuple)."""
    m = [list(r) for r in A.entries]
    nrows, ncols = A.rows, A.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RationalMatrix(m), tuple(pivots)


def nullspace_reference(A: RationalMatrix):
    red, pivots = rref_reference(A)
    basis = []
    for f in (c for c in range(A.cols) if c not in pivots):
        v = [Fraction(0)] * A.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return basis


def solve_reference(A: RationalMatrix, b):
    aug = RationalMatrix([list(r) + [rat(x)] for r, x in zip(A.entries, b)])
    red, pivots = rref_reference(aug)
    if A.cols in pivots:
        return None
    x = [Fraction(0)] * A.cols
    for r, p in enumerate(pivots):
        x[p] = red.entries[r][A.cols]
    return tuple(x)


def inverse_reference(A: RationalMatrix):
    """The inverse of a square matrix, or None when it is singular."""
    n = A.rows
    aug = RationalMatrix(
        [list(A.entries[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    )
    red, pivots = rref_reference(aug)
    if pivots != tuple(range(n)):
        return None
    return RationalMatrix([list(red.entries[i][n:]) for i in range(n)])

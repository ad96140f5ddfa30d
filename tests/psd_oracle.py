"""Reference oracle for the fraction-free ``algebra.psd_analyze``.

``psd_analyze_reference`` is the LDL^T-style analysis in ``Fraction``
arithmetic: the largest positive active diagonal entry (a tie to the
smaller index) is the pivot, its Schur complement is taken on the active
coordinates, and each congruence vector is reduced against the pivot's.
The integer ``psd_analyze`` keeps every active entry at D times this
one's, D the last pivot, so it must return the same verdict, rank, kernel
and witness, bit for bit.
"""

from fractions import Fraction

from nullag.algebra import PSDReport, RationalMatrix


def psd_analyze_reference(M: RationalMatrix) -> PSDReport:
    if not M.is_symmetric():
        raise ValueError("psd_analyze needs a symmetric matrix")
    n = M.rows
    S = [list(r) for r in M.entries]
    vs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    active = list(range(n))
    rank = 0
    while active:
        neg = [i for i in active if S[i][i] < 0]
        if neg:
            return PSDReport(False, None, tuple(vs[neg[0]]), rank)
        pos = [i for i in active if S[i][i] > 0]
        if not pos:
            for i in active:
                for j in active:
                    if i < j and S[i][j] != 0:
                        # Q(v_i + t v_j) = 2 t S_ij with S_ii = S_jj = 0
                        sgn = -1 if S[i][j] > 0 else 1
                        w = [a + sgn * b for a, b in zip(vs[i], vs[j])]
                        return PSDReport(False, None, tuple(w), rank)
            kernel = [tuple(vs[i]) for i in active]
            return PSDReport(True, kernel, None, rank)
        p = max(pos, key=lambda i: (S[i][i], -i))
        piv = S[p][p]
        active.remove(p)
        rank += 1
        coeffs = {i: S[i][p] / piv for i in active}
        for i in active:
            f = coeffs[i]
            if f != 0:
                vs[i] = [a - f * b for a, b in zip(vs[i], vs[p])]
        for i in active:
            for j in active:
                S[i][j] = S[i][j] - coeffs[i] * piv * coeffs[j]
    return PSDReport(True, [], None, rank)

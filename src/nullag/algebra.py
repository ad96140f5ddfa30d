"""Exact rational linear algebra and sparse multivariate polynomials.

Everything in this module is exact: scalars are `fractions.Fraction`
(always reduced, positive denominator), matrices are dense arrays of
Fractions, polynomials are sparse exponent-vector maps.  Floating point
never enters here; numeric work lives in the modules that need it.

The elimination kernels run on integer rows, cleared of denominators once.
``RationalMatrix.det``, ``psd_analyze`` and the Farkas simplex share one
fraction-free step, ``bareiss_step``: (p*x - f*r) // D, exact because each
entry stays a minor of the cleared matrix (Bareiss 1968).  ``rref_rows``
(behind ``rref``, ``solve``, ``nullspace`` and ``inverse``) and
``echelon_pivots`` (behind ``independent_indices``) divide each new row by
the gcd of its entries instead: under Bareiss a Gauss-Jordan row grows to
the size of a minor.

No command builds a polynomial: the library handles the minors as
integer quadratic forms (``subspace.MinorForms``) and Laplace tables
(``minor_table``).  ``MultiPoly`` stays only as the reference behind
``subspace.minor_polys`` and ``QuadraticForm.from_poly``, which the
benchmark's tracer names; the tests compare the forms against it.

All objects are treated as immutable after construction.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple


def rat(x) -> Fraction:
    """Coerce ints, strings like ``-3/7``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to Fraction; convert explicitly")
    return Fraction(x)


def rat_to_str(x: Fraction) -> str:
    """Serialize as ``p/q`` (or just ``p`` when q == 1)."""
    return str(x if isinstance(x, Fraction) else Fraction(x))


# the exponent of a decimal spelling, as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rat_from_str(s) -> Fraction:
    """Parse an input rational; anything else, ``"1/0"`` included, is a
    ValueError.

    The two spellings ``rat_to_str`` writes, ``p`` and ``p/q`` in ASCII
    digits with an optional ``-`` on p, are read by ``int``; every other
    string goes to ``Fraction``.  An exponent larger in magnitude than the
    interpreter's limit on integer digits is refused before ``Fraction``
    computes its power of ten.
    """
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            if not slash:
                return Fraction(int(num))
            q = int(den)
            if q == 0:
                raise ValueError("zero denominator: %r" % (s,))
            return Fraction(int(num), q)
        exponent = _EXPONENT.search(s)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise ValueError("exponent beyond %d digits: %r" % (limit, s))
    elif isinstance(s, bool) or not isinstance(s, (int, Fraction)):
        raise ValueError("not a rational: %r" % (s,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator: %r" % (s,)) from None


def bad_json(what, exc):
    """The ValueError for malformed ``what`` JSON that raised ``exc``; a
    KeyError is a missing key, and says so."""
    detail = "missing key %r" % exc.args[0] if isinstance(exc, KeyError) else exc
    return ValueError("bad %s JSON: %s" % (what, detail))


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fractions)
# ---------------------------------------------------------------------------

def vec_dot(a, b):
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vec_is_zero(a):
    return all(x == 0 for x in a)


class RationalMatrix:
    """Dense matrix of Fractions, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = [tuple(rat(x) for x in row) for row in entries]
        if not rows:
            raise ValueError("matrix must have at least one row")
        ncols = len(rows[0])
        if ncols == 0 or any(len(r) != ncols for r in rows):
            raise ValueError("ragged or empty matrix rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n):
        return RationalMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols):
        cols = [tuple(rat(x) for x in c) for c in cols]
        return RationalMatrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    # -- basic access ------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RationalMatrix(%r)" % ([[str(x) for x in r] for r in self.entries],)

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return RationalMatrix([[c * x for x in r] for r in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return RationalMatrix(
            [
                [
                    sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def transpose(self):
        return RationalMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def submatrix(self, rowset, colset):
        return RationalMatrix([[self.entries[i][j] for j in colset] for i in rowset])

    # -- elimination kernels -----------------------------------------------

    def det(self):
        """Exact determinant; cofactor expansion up to 3x3, Bareiss beyond."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        e = self.entries
        if n == 1:
            return e[0][0]
        if n == 2:
            return e[0][0] * e[1][1] - e[0][1] * e[1][0]
        if n == 3:
            return (
                e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
            )
        # Bareiss on the rows cleared of denominators
        cleared = [_integer_row(r) for r in e]
        m = [w for _, w in cleared]
        sign, D = 1, 1
        for k in range(n - 1):
            pr = next((i for i in range(k, n) if m[i][k]), None)
            if pr is None:
                return Fraction(0)
            if pr != k:
                m[k], m[pr] = m[pr], m[k]
                sign = -sign
            for i in range(k + 1, n):
                m[i] = bareiss_step(m[i], m[k], m[i][k], m[k][k], D)
            D = m[k][k]
        return Fraction(sign * m[n - 1][n - 1], math.prod(l for l, _ in cleared))

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple),
        read off ``rref_rows`` of the rows cleared of denominators."""
        m = [_integer_row(r)[1] for r in self.entries]
        pivots = rref_rows(m)
        zero = Fraction(0)
        red = [[Fraction(a, row[c]) if a else zero for a in row] for row, c in zip(m, pivots)]
        red += [[zero] * self.cols for _ in range(self.rows - len(pivots))]
        return RationalMatrix(red), pivots

    def rank(self):
        """Row rank, by the forward pass of ``independent_indices``."""
        return len(independent_indices(self.entries))

    def nullspace(self):
        """Basis of the right null space, as a list of vectors."""
        m = [_integer_row(r)[1] for r in self.entries]
        pivots = rref_rows(m)
        basis = []
        for f in (c for c in range(self.cols) if c not in pivots):
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for row, p in zip(m, pivots):
                v[p] = Fraction(-row[f], row[p])
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        """One exact solution of ``self @ x = b``, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side has wrong length")
        return solve_rows([_integer_row(list(r) + [rat(x)])[1] for r, x in zip(self.entries, b)])

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        m = [_integer_row(list(r) + [Fraction(int(i == j)) for j in range(n)])[1]
             for i, r in enumerate(self.entries)]
        if rref_rows(m) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix([[Fraction(a, row[i]) for a in row[n:]] for i, row in enumerate(m)])


def _integer_row(v):
    """(l, w): l the lcm of the denominators of the Fractions v, w = l v in ints."""
    l = math.lcm(*(x.denominator for x in v))
    return l, [x.numerator * (l // x.denominator) for x in v]


def bareiss_step(row, prow, f, p, D):
    """The Bareiss step of ``row``, whose pivot-column entry is f, on the
    pivot row ``prow`` with pivot p, D the pivot before it."""
    if f:
        return [(p * x - f * r) // D for x, r in zip(row, prow)]
    return row if p == D else [p * x // D for x in row]


def rref_rows(m):
    """Gauss-Jordan on the integer rows m, in place; the pivot columns.

    Every other row is eliminated against the pivot row as
    ``p*row - f*pivot_row`` with the gcd of its entries divided out.  Row
    k, divided by its pivot ``m[k][pivots[k]]``, is then row k of the
    (unique) reduced form of the rational rows, and later rows are zero.
    """
    nrows = len(m)
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(m[i], prow)]
                g = math.gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        if r + 1 == nrows:
            break
    return tuple(pivots)


def solve_rows(m, scale=1):
    """The rref basic solution x of the integer system whose rows ``m`` end
    in the right-hand side, divided by ``scale``; None if inconsistent."""
    n = len(m[0]) - 1
    pivots = rref_rows(m)
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(m, pivots):
        x[p] = Fraction(row[n], row[p] * scale)
    return tuple(x)


def independent_indices(vectors):
    """Indices of the rational vectors independent of those before them:
    the pivot columns of the matrix with the vectors as columns, by the
    forward pass of ``echelon_pivots``."""
    return echelon_pivots(vectors)[0]


def echelon_pivots(vectors):
    """``(chosen, pivots)``: the indices of the rational vectors independent
    of those before them, and the pivot positions of their echelon form.

    One forward-elimination pass in integers: each vector is cleared of
    denominators and reduced against the stored (pivot, row) pairs, with
    the gcd of its entries divided out after each step; a non-zero
    remainder is stored with its first non-zero position as the next pair.
    Once the pivots fill the dimension no later vector can be independent.
    A stored row is zero at every earlier pivot, so the chosen vectors'
    entries at the pivot positions form a non-singular matrix: those
    coordinates alone tell the vectors' dependencies apart.
    """
    chosen = []
    basis = []
    for idx, v in enumerate(vectors):
        r = _integer_row(v)[1]
        for p, br in basis:
            f = r[p]
            if f:
                c = br[p]
                r = [c * a - f * b for a, b in zip(r, br)]
                g = math.gcd(*r)
                if g > 1:
                    r = [a // g for a in r]
        if not any(r):
            continue
        basis.append((next(i for i, x in enumerate(r) if x), r))
        chosen.append(idx)
        if len(basis) == len(r):
            break
    return chosen, [p for p, _ in basis]


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def minor(A: RationalMatrix, rowset, colset) -> Fraction:
    """Exact determinant of the submatrix picked by the index sets.

    Index sets are 0-based, strictly increasing, of equal length >= 1.
    """
    rowset = tuple(rowset)
    colset = tuple(colset)
    if len(rowset) != len(colset):
        raise ValueError("rowset and colset must have the same size")
    if len(rowset) < 1:
        raise ValueError("minor order must be at least 1")
    for name, idxs, bound in (("row", rowset, A.rows), ("col", colset, A.cols)):
        if any(i < 0 or i >= bound for i in idxs):
            raise IndexError("%s index out of range" % name)
        if any(idxs[i] >= idxs[i + 1] for i in range(len(idxs) - 1)):
            raise ValueError("%s indices must be strictly increasing" % name)
    return A.submatrix(rowset, colset).det()


def _minor_orders(m, n, order):
    """The sizes p that ``order`` names: "all" is p = 2..min(m,n), an
    integer names itself and must lie in that range (ValueError)."""
    if order == "all":
        return range(2, min(m, n) + 1)
    p = int(order)
    if p < 2 or p > min(m, n):
        raise ValueError("minor order %d out of range for %dx%d" % (p, m, n))
    return (p,)


def minor_count(m, n, order="all"):
    """len(enumerate_minors(m, n, order)), without listing the minors."""
    return sum(math.comb(m, p) * math.comb(n, p) for p in _minor_orders(m, n, order))


def enumerate_minors(m, n, order="all"):
    """Deterministic lexicographic enumeration of minor index pairs.

    Minors are the determinants of p x p submatrices for p >= 2 ("all"
    ranges over p = 2..min(m,n)).  The order fixes only where a minor sits
    in the float index arrays (``subspace._minor_index_arrays``) and among
    the rows of the LP (``measures.subspace_value_fn``); the minor forms
    and the certificates name a minor by its (rows, cols).
    """
    out = []
    for p in _minor_orders(m, n, order):
        for rowset in itertools.combinations(range(m), p):
            for colset in itertools.combinations(range(n), p):
                out.append((rowset, colset))
    return out


def nonvanishing_minor_candidates(matrices, m, n, order="all"):
    """Minor index pairs that can be non-zero on at least one given matrix.

    A minor whose submatrix has an all-zero row or column in every listed
    matrix is exactly zero there; such pairs are omitted.  Used to keep
    exact verification cheap on sparse atoms (large shapes have tens of
    thousands of minors, almost all structurally zero).
    """
    needed = set()
    orders = _minor_orders(m, n, order)
    for A in matrices:
        rows_sup = [set() for _ in range(m)]
        cols_sup = [set() for _ in range(n)]
        for i in range(m):
            for j in range(n):
                if A.entries[i][j] != 0:
                    rows_sup[i].add(j)
                    cols_sup[j].add(i)
        live_rows = [i for i in range(m) if rows_sup[i]]
        live_cols = [j for j in range(n) if cols_sup[j]]
        for p in orders:
            if p > min(len(live_rows), len(live_cols)):
                continue
            for rowset in itertools.combinations(live_rows, p):
                cols_avail = set().union(*(rows_sup[i] for i in rowset))
                if len(cols_avail) < p:
                    continue
                for colset in itertools.combinations(sorted(cols_avail), p):
                    cs = set(colset)
                    if any(not (rows_sup[i] & cs) for i in rowset):
                        continue
                    if any(not (cols_sup[j] & set(rowset)) for j in colset):
                        continue
                    needed.add((rowset, colset))
    return needed


def minor_table(grid, top):
    """{(rows, cols): det} for every non-zero minor of order 2..top of the
    integer matrix ``grid`` (a list of rows of ints).

    Laplace expansion along the last row: a minor on rows R + (r,) is the
    signed sum of e[r][c] times the minors on its row prefix R that miss
    column c, the sign being (-1) to the number of their columns after c.
    The minors of one order are kept per row set, with the column set as a
    bit mask, and only non-zero entries and non-zero minors are expanded,
    so the work grows with the non-zero minors, not with C(m,p)*C(n,p).
    """
    support = [[(1 << j, v) for j, v in enumerate(row) if v] for row in grid]
    # minors of the current order: {rows: {column mask: det}}
    level = {(i,): dict(s) for i, s in enumerate(support) if s}
    names = {}
    out = {}
    for _ in range(2, top + 1):
        nxt = {}
        for rows, dets in level.items():
            for r in range(rows[-1] + 1, len(grid)):
                entries = support[r]
                if not entries:
                    continue
                acc = {}
                for mask, det in dets.items():
                    for bit, v in entries:
                        if mask & bit:
                            continue
                        key = mask | bit
                        # the sign counts the columns of mask after this one
                        term = -v * det if (mask // bit).bit_count() & 1 else v * det
                        acc[key] = acc.get(key, 0) + term
                live = {key: x for key, x in acc.items() if x}
                if live:
                    new = rows + (r,)
                    nxt[new] = live
                    for key, x in live.items():
                        cols = names.get(key)
                        if cols is None:
                            cols = names[key] = tuple(
                                j for j in range(key.bit_length()) if key >> j & 1)
                        out[(new, cols)] = x
        level = nxt
    return out


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial over the rationals in variables z_1..z_nvars.

    Terms map exponent tuples to non-zero Fraction coefficients.  No
    command calls it: it stays only as the reference behind
    ``subspace.minor_polys`` and ``QuadraticForm.from_poly``, which the
    benchmark's tracer names, with the arithmetic those two use;
    evaluation and coefficient vectors live with the tests.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        nvars = int(nvars)
        clean = {}
        if terms:
            for expo, coeff in dict(terms).items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars or any(e < 0 for e in expo):
                    raise ValueError("bad exponent vector %r" % (expo,))
                coeff = rat(coeff)
                if coeff != 0:
                    clean[expo] = clean.get(expo, Fraction(0)) + coeff
                    if clean[expo] == 0:
                        del clean[expo]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", dict(clean))

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def zero(nvars):
        return MultiPoly(nvars)

    @staticmethod
    def linear(coeffs):
        """The linear polynomial coeffs . z."""
        nvars = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = rat(c)
            if c != 0:
                e = [0] * nvars
                e[i] = 1
                terms[tuple(e)] = c
        return MultiPoly(nvars, terms)

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self, deg=None):
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return False
        return deg is None or degs == {deg}

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, terms)

    def _check(self, other):
        if not isinstance(other, MultiPoly) or other.nvars != self.nvars:
            raise ValueError("polynomial variable-count mismatch")

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "z%d" % (i + 1) if p == 1 else "z%d^%d" % (i + 1, p)
                for i, p in enumerate(e)
                if p
            )
            bits.append("%s%s" % (c, "*" + mono if mono else ""))
        return "MultiPoly(%s)" % " + ".join(bits)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------

class QuadraticForm:
    """Homogeneous quadratic form on R^dim with an exactly symmetric matrix."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix: RationalMatrix):
        if not matrix.is_symmetric():
            raise ValueError("quadratic form matrix must be exactly symmetric")
        object.__setattr__(self, "dim", matrix.rows)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *a):
        raise AttributeError("QuadraticForm is immutable")

    @staticmethod
    def from_poly(p: MultiPoly):
        if not p.is_homogeneous(2) and not p.is_zero():
            raise ValueError("polynomial is not a homogeneous quadratic")
        d = p.nvars
        m = [[Fraction(0)] * d for _ in range(d)]
        for e, c in p.terms.items():
            idx = [i for i, q in enumerate(e) if q]
            if len(idx) == 1:
                m[idx[0]][idx[0]] = c
            else:
                i, j = idx
                m[i][j] = c / 2
                m[j][i] = c / 2
        return QuadraticForm(RationalMatrix(m))

    def __add__(self, other):
        return QuadraticForm(self.matrix + other.matrix)

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.matrix == other.matrix

    def __repr__(self):
        return "QuadraticForm(%r)" % (self.matrix,)


class PSDReport(NamedTuple):
    """Outcome of the exact semidefiniteness analysis of a symmetric matrix.

    ``is_psd``        exact verdict.
    ``kernel``        basis of the kernel when PSD (zero set of the form).
    ``neg_witness``   vector v with v^T M v < 0 when not PSD.
    ``rank``          number of strictly positive pivots found.
    """

    is_psd: bool
    kernel: list
    neg_witness: tuple
    rank: int


def psd_analyze(M: RationalMatrix) -> PSDReport:
    """Exact LDL^T-style analysis with diagonal pivoting, fraction-free.

    M is cleared once by the lcm of its denominators, which moves no sign.
    Row i of the work array is [S_i | V_i]: S the symmetric Schur
    complement on the active coordinates and V_i the congruence vector of
    coordinate i (so that v_i^T M v_j is a positive multiple of S_ij), both
    times the last pivot D; they start at M and the identity, with D = 1.
    The largest positive active diagonal entry (a tie to the smaller index)
    is the pivot p, every active row takes ``bareiss_step`` on row p, and D
    becomes S_pp.  Every entry is then D times the one of the elimination
    in fractions (``tests/psd_oracle.py``), so the pivots, the rank, the
    kernel and the witnesses are its, read off as V_i / D.  A negative
    diagonal entry, or a zero diagonal with a non-zero off-diagonal entry
    (which forces indefiniteness), yields an exact witness vector.
    """
    if not M.is_symmetric():
        raise ValueError("psd_analyze needs a symmetric matrix")
    n = M.rows
    l = math.lcm(*(x.denominator for r in M.entries for x in r))
    W = [[x.numerator * (l // x.denominator) for x in r] + [int(i == j) for j in range(n)]
         for i, r in enumerate(M.entries)]
    D, active = 1, list(range(n))
    while True:  # the rank is the number of pivots taken, n - len(active)
        neg = next((i for i in active if W[i][i] < 0), None)
        if neg is not None:
            return PSDReport(False, None, tuple(Fraction(v, D) for v in W[neg][n:]), n - len(active))
        pos = [i for i in active if W[i][i] > 0]
        if not pos:
            for i, j in itertools.combinations(active, 2):
                if W[i][j]:
                    # Q(v_i + t v_j) = 2 t S_ij with S_ii = S_jj = 0
                    sgn = -1 if W[i][j] > 0 else 1
                    w = tuple(Fraction(a + sgn * b, D) for a, b in zip(W[i][n:], W[j][n:]))
                    return PSDReport(False, None, w, n - len(active))
            kernel = [tuple(Fraction(v, D) for v in W[i][n:]) for i in active]
            return PSDReport(True, kernel, None, n - len(active))
        p = max(pos, key=lambda i: (W[i][i], -i))
        active.remove(p)
        prow, piv = W[p], W[p][p]
        for i in active:
            W[i] = bareiss_step(W[i], prow, W[i][p], piv, D)
        D = piv

"""Exact evaluation helpers for the polynomial and quadratic-form tests.

The library keeps ``MultiPoly`` only as the reference behind
``minor_polys`` and ``QuadraticForm.from_poly``; the tests read it through
these functions: coefficient vectors against a monomial list and the
independent polynomials of a list, evaluation at a rational point, the
polynomial of a quadratic form, and v^T M v.
"""

from fractions import Fraction

from nullag.algebra import MultiPoly, QuadraticForm, RationalMatrix, independent_indices, rat, vec_dot


def coefficient_vector(p: MultiPoly, monomials):
    """Coefficients against an explicit monomial list (exponent tuples)."""
    return tuple(p.terms.get(tuple(e), Fraction(0)) for e in monomials)


def span_basis_indices(polys):
    """Indices of the polynomials independent of those before them."""
    monomials = sorted({e for p in polys for e in p.terms})
    return independent_indices([coefficient_vector(p, monomials) for p in polys])


def variable(nvars, i):
    """The polynomial z_{i+1} in nvars variables."""
    e = [0] * nvars
    e[i] = 1
    return MultiPoly(nvars, {tuple(e): Fraction(1)})


def poly_eval(p: MultiPoly, point):
    """Exact evaluation at a rational point."""
    if len(point) != p.nvars:
        raise ValueError("point dimension mismatch")
    point = [rat(x) for x in point]
    total = Fraction(0)
    for e, c in p.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x**k
        total += v
    return total


def to_poly(q: QuadraticForm):
    """The homogeneous quadratic polynomial z^T M z of the form."""
    d = q.dim
    terms = {}
    for i in range(d):
        for j in range(i, d):
            c = q.matrix[i, j] if i == j else 2 * q.matrix[i, j]
            if c != 0:
                e = [0] * d
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = c
    return MultiPoly(d, terms)


def matvec(A: RationalMatrix, v):
    """A v, exactly."""
    if A.cols != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    return tuple(
        sum((A.entries[i][k] * v[k] for k in range(A.cols)), Fraction(0))
        for i in range(A.rows)
    )


def form_value(M: RationalMatrix, v):
    """v^T M v of the symmetric matrix M at a rational point."""
    v = tuple(rat(x) for x in v)
    return vec_dot(v, matvec(M, v))

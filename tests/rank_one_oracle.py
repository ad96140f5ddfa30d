"""Reference oracle for rank-one directions of pencils with d <= 2.

``find_rank_one_exact`` decides, by exact polynomial arithmetic over Q,
whether some z != 0 has rank P(z) <= 1.  For d == 2 it dehomogenizes
every order-2 minor form at z = (t, 1) and takes the gcd of the
resulting univariate quadratics: a common root is a rank-one direction.
It shares nothing with the certificate chain of ``certify.reduce_chain``
beyond ``Subspace.minor_forms``, so the two can be compared on the same
pencils.
"""

import math
from fractions import Fraction

import numpy as np

from nullag.subspace import Subspace


class ExactRankOne:
    """Outcome of the exact search.

    ``found``           a rank-one direction exists.
    ``witness``         exact rational direction (rank P(witness) == 1), or None.
    ``witness_minpoly`` when the direction is a quadratic irrational t with
                        z = (t, 1): the monic minimal polynomial coefficients
                        (c0, c1, 1) and the chosen branch; every order-2
                        minor polynomial is divisible by this polynomial.
    ``witness_float``   floating approximation of the direction.
    """

    __slots__ = ("found", "witness", "witness_minpoly", "witness_float")

    # every verdict here is exact
    is_proof = True

    def __init__(self, found, witness=None, witness_minpoly=None, witness_float=None):
        self.found = found
        self.witness = witness
        self.witness_minpoly = witness_minpoly
        self.witness_float = witness_float


def find_rank_one_exact(K: Subspace) -> ExactRankOne:
    if K.d > 2:
        raise ValueError("exact search supports d <= 2 only")
    if K.d == 1:
        if K.basis[0].rank() == 1:
            return ExactRankOne(True, witness=(Fraction(1),), witness_float=np.array([1.0]))
        return ExactRankOne(False)

    forms = list(K.minor_forms().values())
    if not forms:
        return ExactRankOne(True, witness=(Fraction(1), Fraction(0)),
                            witness_float=np.array([1.0, 0.0]))

    # z = (1, 0): every form must have zero z1^2 coefficient
    if all(upper.get((0, 0), 0) == 0 for upper in forms):
        return ExactRankOne(True, witness=(Fraction(1), Fraction(0)),
                            witness_float=np.array([1.0, 0.0]))

    # dehomogenize at z = (t, 1) and take the gcd of the univariate forms
    # 2 L^2 M_k(t, 1) = S_00 t^2 + 2 S_01 t + S_11; the monic gcd ignores the scale
    unis = [
        [Fraction(upper.get((1, 1), 0)), Fraction(2 * upper.get((0, 1), 0)),
         Fraction(upper.get((0, 0), 0))]
        for upper in forms
    ]
    g = _poly_gcd_many(unis)
    deg = len(g) - 1
    if deg == 0:
        return ExactRankOne(False)
    if deg == 1:
        t = -g[0] / g[1]
        return ExactRankOne(True, witness=(t, Fraction(1)),
                            witness_float=np.array([float(t), 1.0]))
    # monic quadratic t^2 + b t + c
    b, c = g[1], g[0]
    disc = b * b - 4 * c
    if disc < 0:
        return ExactRankOne(False)
    root = _rational_sqrt(disc)
    if root is not None:
        t = (-b + root) / 2
        return ExactRankOne(True, witness=(t, Fraction(1)),
                            witness_float=np.array([float(t), 1.0]))
    tf = (-float(b) + math.sqrt(float(disc))) / 2.0
    return ExactRankOne(True, witness_minpoly={"coeffs": (c, b, Fraction(1)), "branch": +1},
                        witness_float=np.array([tf, 1.0]))


def _rational_sqrt(x: Fraction):
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(x != 0 for x in a):
        da = len(a) - 1
        f = a[-1] / lb
        for k in range(db + 1):
            a[da - db + k] -= f * b[k]
        a = _poly_trim(a)
        if not a:
            break
    return a


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _poly_gcd_many(polys):
    g = []
    for p in polys:
        p = _poly_trim(list(p))
        if not p:
            continue
        g = p if not g else _poly_gcd(g, p)
        if len(g) == 1:
            return [Fraction(1)]
    if not g:
        return [Fraction(1)]
    return [x / g[-1] for x in g]


def poly_divides(g, p):
    """True when g divides p exactly in Q[t] (coefficient lists, low to high)."""
    p = _poly_trim(list(p))
    if not p:
        return True
    return not _poly_mod(p, _poly_trim(list(g)))

"""Reference implementations of the measure constructor's sample path.

``evaluate_reference`` is P(z) = sum_l z_l B_l as d dense scale-and-add
passes over the whole basis.  ``value_fn_reference`` evaluates every
minor of P(z), so on a symmetric pencil it keeps both transposed twins.
``construct_nontrivial_reference`` solves the Farkas LP again at every
growth step of the sample, cold, with no certificate screening, on the
Fraction values.  The library's ``Subspace.evaluate``,
``subspace_value_fn`` and ``construct_nontrivial`` must give the same
matrices, the same independent rows and the same measure (or None) as
these.  ``cleared`` turns a value function with Fraction values into one
that gives the cleared column ``(scale, {key: int})`` that
``construct_nontrivial`` reads, by ``clear``.
"""

import itertools
from fractions import Fraction

from farkas_oracle import farkas_problem
from nullag.algebra import RationalMatrix, _integer_row, minor, nonvanishing_minor_candidates, rat
from nullag.measures import (
    _BATCH,
    VectorMeasure,
    _independent_value_rows,
    _verify_vector_measure,
    default_cone_sampler,
    farkas_solve,
)


def evaluate_reference(K, z):
    """P(z) as d dense passes: acc + B_l scaled by z_l."""
    if len(z) != K.d:
        raise ValueError("point dimension mismatch")
    acc = RationalMatrix([[0] * K.n] * K.m)
    for zl, b in zip(z, K.basis):
        acc = acc + b.scale(rat(zl))
    return acc


def value_fn_reference(K):
    """Every non-zero minor of P(z), keyed ``(p, rows, cols)``, and the
    non-zero projections, keyed ``(min(m, n) + 1, l)``."""
    proj = min(K.m, K.n) + 1

    def value(p):
        M = evaluate_reference(K, p)
        vals = {}
        for rows, cols in nonvanishing_minor_candidates([M], K.m, K.n):
            v = minor(M, rows, cols)
            if v != 0:
                vals[(len(rows), rows, cols)] = v
        for i in range(K.d):
            if p[i] != 0:
                vals[(proj, i)] = p[i]
        return vals

    return value


def clear(vals):
    """A {key: value} map cleared of denominators, ``(L, {key: L * value})``
    with L the least such scale."""
    L, ints = _integer_row(vals.values())
    return L, dict(zip(vals, ints))


def cleared(value_fn):
    """``value_fn`` with each point's values cleared by ``clear``."""
    return lambda p: clear(value_fn(p))


def construct_nontrivial_reference(value_fn, d, budget=256, seed=0):
    """One cold exact Farkas solve per growth step of the sample.

    Returns ``(measure or None, solves)``, with ``solves`` mapping the
    column count of each step's LP to its ``FarkasResult``.
    """
    sampler = default_cone_sampler(d, seed=seed)
    points = []
    values = []
    solves = {}
    while True:
        want = min(max(_BATCH, 2 * d) if not points else _BATCH, budget - len(points))
        for p in itertools.islice(sampler, max(want, 0)):
            points.append(p)
            values.append(value_fn(p))
        if not points:
            return None, solves
        rows = _independent_value_rows(values)[0]
        ncols = len(points)
        Amat = RationalMatrix(
            [[values[c].get(r, Fraction(0)) for c in range(ncols)] for r in rows]
            + [[Fraction(1)] * ncols]
        )
        b = [Fraction(0)] * len(rows) + [Fraction(1)]
        res = solves[ncols] = farkas_solve(farkas_problem(Amat, b))
        if res.feasible:
            support = [(lam, p) for lam, p in zip(res.x, points) if lam != 0]
            mu = VectorMeasure([p for _, p in support], [lam for lam, _ in support])
            scales, columns = zip(*map(clear, values))
            _verify_vector_measure(mu, scales, columns, res.x)
            return mu, solves
        if len(points) >= budget:
            return None, solves

"""Differential tests: the integer minor-form builder against the polynomial route.

``minor_polys`` followed by ``QuadraticForm.from_poly`` is the reference;
``Subspace.minor_forms`` must reproduce it exactly.  Pencils come from a
seeded ``random.Random``; hypothesis draws the seed and the shape with
``derandomize=True``, so every run checks the same cases.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nullag.algebra import MultiPoly, QuadraticForm, RationalMatrix
from nullag.subspace import Subspace, minor_polys

SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

# (seed, m, n, d, share of zero entries)
pencils = st.tuples(
    st.integers(0, 10**6),
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(1, 6),
    st.sampled_from((0.0, 0.5, 0.8)),
)


def rand_rat(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def random_pencil(seed, m, n, d, sparsity):
    rng = random.Random(seed)
    d = min(d, m * n)
    while True:
        basis = [
            [[Fraction(0) if rng.random() < sparsity else rand_rat(rng) for _ in range(n)]
             for _ in range(m)]
            for _ in range(d)
        ]
        try:
            return rng, Subspace(basis)
        except ValueError:
            continue


def sparse_beta(rng, q0):
    beta = [Fraction(0)] * q0
    for k in rng.sample(range(q0), rng.randint(1, min(q0, 4))):
        beta[k] = rand_rat(rng) or Fraction(1)
    return beta


def monomial_solve(polys, g):
    """beta from the polynomial coefficients, one equation per monomial."""
    monomials = sorted(set(e for p in polys for e in p.terms) | set(g.terms))
    if not monomials:
        return None
    A = RationalMatrix.from_columns([p.coefficient_vector(monomials) for p in polys])
    return A.solve(g.coefficient_vector(monomials))


@SETTINGS
@given(pencils)
def test_forms_match_minor_polys(case):
    _, K = random_pencil(*case)
    forms = K.minor_forms()
    polys = minor_polys(K, 2)
    assert len(forms.S) == len(polys)
    for k, p in enumerate(polys):
        Q = QuadraticForm.from_poly(p).matrix
        assert forms.combination([int(l == k) for l in range(len(polys))]).matrix == Q


@SETTINGS
@given(pencils)
def test_combination_form_matches_poly_sum(case):
    rng, K = random_pencil(*case)
    polys = minor_polys(K, 2)
    for _ in range(3):
        beta = sparse_beta(rng, len(polys))
        acc = MultiPoly.zero(K.d)
        for b, p in zip(beta, polys):
            acc = acc + p.scale(b)
        assert K.minor_forms().combination(beta) == QuadraticForm.from_poly(acc)


@settings(SETTINGS, max_examples=25)
@given(pencils)
def test_solve_beta_matches_monomial_solve(case):
    rng, K = random_pencil(*case)
    polys = minor_polys(K, 2)
    in_span = MultiPoly.zero(K.d)
    for b, p in zip(sparse_beta(rng, len(polys)), polys):
        in_span = in_span + p.scale(b)
    line = MultiPoly.linear([rand_rat(rng) for _ in range(K.d)])
    sym = [[Fraction(0)] * K.d for _ in range(K.d)]
    for i in range(K.d):
        for j in range(i, K.d):
            sym[i][j] = sym[j][i] = rand_rat(rng)
    generic = QuadraticForm(RationalMatrix(sym)).to_poly()
    for g in (in_span, line * line, generic, polys[0], MultiPoly.zero(K.d)):
        assert K.minor_forms().solve(QuadraticForm.from_poly(g).matrix) == monomial_solve(polys, g)


@SETTINGS
@given(pencils)
def test_restricted_forms_are_pulled_back(case):
    # a chain step on a cone C is decided on K.restricted(C), whose forms
    # must be exactly C^T Q C for every combination Q of K's forms
    rng, K = random_pencil(*case)
    while True:
        cone = [tuple(rand_rat(rng) for _ in range(K.d)) for _ in range(rng.randint(1, K.d))]
        if RationalMatrix(cone).rank() == len(cone):
            break
    C = RationalMatrix.from_columns(cone)
    sub = K.restricted(cone)
    for _ in range(3):
        beta = sparse_beta(rng, len(K.minor_forms().S))
        Q = K.minor_forms().combination(beta).matrix
        assert sub.minor_forms().combination(beta).matrix == C.transpose() @ Q @ C

"""Differential tests: the integer minor-form builder against the polynomial route.

``minor_polys`` followed by ``QuadraticForm.from_poly`` is the reference;
``Subspace.minor_forms`` must reproduce it exactly, keyed by each minor's
(rows, cols) in ``enumerate_minors`` order and holding only the minors whose
polynomial is not zero.  Pencils come from a
seeded ``random.Random``; hypothesis draws the seed and the shape with
``derandomize=True``, so every run checks the same cases.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nullag.algebra import MultiPoly, QuadraticForm, RationalMatrix, enumerate_minors
from nullag.subspace import Subspace, minor_polys
from poly_oracle import coefficient_vector, to_poly

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


def sparse_beta(rng, keys):
    """1 to 4 non-zero coefficients at keys drawn from ``keys``."""
    return {key: rand_rat(rng) or Fraction(1)
            for key in rng.sample(keys, rng.randint(1, min(len(keys), 4)))}


def monomial_solve(polys, g):
    """beta from the polynomial coefficients, one equation per monomial,
    as the dict of its non-zero coefficients."""
    monomials = sorted(set(e for p in polys.values() for e in p.terms) | set(g.terms))
    if not monomials:
        return None
    A = RationalMatrix.from_columns([coefficient_vector(p, monomials) for p in polys.values()])
    x = A.solve(coefficient_vector(g, monomials))
    return None if x is None else {key: b for key, b in zip(polys, x) if b != 0}


def keyed_polys(K):
    return dict(zip(enumerate_minors(K.m, K.n, 2), minor_polys(K, 2)))


@SETTINGS
@given(pencils)
def test_forms_match_minor_polys(case):
    # a minor has a form exactly when its polynomial is not zero, the keys
    # come in enumerate order, and each form is its polynomial's
    _, K = random_pencil(*case)
    forms = K.minor_forms()
    polys = keyed_polys(K)
    assert list(forms.S) == [key for key, p in polys.items() if not p.is_zero()]
    for key, p in polys.items():
        Q = QuadraticForm.from_poly(p).matrix
        assert forms.combination({key: 1}).matrix == Q


@SETTINGS
@given(pencils)
def test_combination_form_matches_poly_sum(case):
    rng, K = random_pencil(*case)
    polys = keyed_polys(K)
    for _ in range(3):
        beta = sparse_beta(rng, list(polys))
        acc = MultiPoly.zero(K.d)
        for key, b in beta.items():
            acc = acc + polys[key].scale(b)
        assert K.minor_forms().combination(beta) == QuadraticForm.from_poly(acc)


@settings(SETTINGS, max_examples=25)
@given(pencils)
def test_solve_beta_matches_monomial_solve(case):
    rng, K = random_pencil(*case)
    polys = keyed_polys(K)
    in_span = MultiPoly.zero(K.d)
    for key, b in sparse_beta(rng, list(polys)).items():
        in_span = in_span + polys[key].scale(b)
    line = MultiPoly.linear([rand_rat(rng) for _ in range(K.d)])
    sym = [[Fraction(0)] * K.d for _ in range(K.d)]
    for i in range(K.d):
        for j in range(i, K.d):
            sym[i][j] = sym[j][i] = rand_rat(rng)
    generic = to_poly(QuadraticForm(RationalMatrix(sym)))
    first = next(iter(polys.values()))
    for g in (in_span, line * line, generic, first, MultiPoly.zero(K.d)):
        assert K.minor_forms().solve(QuadraticForm.from_poly(g).matrix) == monomial_solve(polys, g)


@SETTINGS
@given(pencils)
def test_combination_of_solve_is_the_target(case):
    # beta holds only non-zero coefficients at live minors, and gives back
    # every target in the span of the forms
    rng, K = random_pencil(*case)
    forms = K.minor_forms()
    for _ in range(3):
        target = forms.combination(sparse_beta(rng, list(keyed_polys(K)))).matrix
        beta = forms.solve(target)
        if not forms.S:
            assert beta is None
            continue
        assert set(beta) <= set(forms.S) and all(b != 0 for b in beta.values())
        assert forms.combination(beta).matrix == target


@SETTINGS
@given(pencils)
def test_restricted_forms_are_pulled_back(case):
    # a chain step on a cone C is decided on K.restricted(C), whose forms
    # must be exactly C^T Q C for every combination Q of K's forms, dead
    # minors of either pencil included
    rng, K = random_pencil(*case)
    while True:
        cone = [tuple(rand_rat(rng) for _ in range(K.d)) for _ in range(rng.randint(1, K.d))]
        if RationalMatrix(cone).rank() == len(cone):
            break
    C = RationalMatrix.from_columns(cone)
    sub = K.restricted(cone)
    keys = enumerate_minors(K.m, K.n, 2)
    for _ in range(3):
        beta = sparse_beta(rng, keys)
        Q = K.minor_forms().combination(beta).matrix
        assert sub.minor_forms().combination(beta).matrix == C.transpose() @ Q @ C

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
from nullag.certify import Obstruction, reduce_chain
from nullag.fixtures import kr_family, sub_k0_random
from nullag.subspace import Subspace, minor_form, minor_polys
from bench_inputs import certify_corpus_subspaces
from poly_oracle import coefficient_vector, to_poly
from rref_oracle import solve_reference

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
    assert list(forms) == [key for key, p in polys.items() if not p.is_zero()]
    for key, p in polys.items():
        Q = QuadraticForm.from_poly(p).matrix
        assert K.combination({key: 1}) == Q


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
        assert K.combination(beta) == QuadraticForm.from_poly(acc).matrix


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
        assert K.solve(QuadraticForm.from_poly(g).matrix) == monomial_solve(polys, g)


@SETTINGS
@given(pencils)
def test_combination_of_solve_is_the_target(case):
    # beta holds only non-zero coefficients at live minors, and gives back
    # every target in the span of the forms
    rng, K = random_pencil(*case)
    forms = K.minor_forms()
    for _ in range(3):
        target = K.combination(sparse_beta(rng, list(keyed_polys(K))))
        beta = K.solve(target)
        if not forms:
            assert beta is None
            continue
        assert set(beta) <= set(forms) and all(b != 0 for b in beta.values())
        assert K.combination(beta) == target


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
        Q = K.combination(beta)
        assert sub.combination(beta) == C.transpose() @ Q @ C


def assert_forms_are_the_table(K):
    # the form of every key, live or vanishing, is the table's entry, and
    # a key with no entry has the empty form
    forms = K.minor_forms()
    for key in enumerate_minors(K.m, K.n, 2):
        assert minor_form(K.int_grid, key) == forms.get(key, {}), key


@SETTINGS
@given(pencils)
def test_minor_form_is_the_table_entry(case):
    rng, K = random_pencil(*case)
    assert_forms_are_the_table(K)
    while True:
        cone = [tuple(rand_rat(rng) for _ in range(K.d)) for _ in range(rng.randint(1, K.d))]
        if RationalMatrix(cone).rank() == len(cone):
            break
    assert_forms_are_the_table(K.restricted(cone))


def test_minor_form_is_the_table_entry_on_chain_pencils():
    # the pencils a certificate chain walks: each stored cone restricted
    steps = 0
    for seed in range(12):
        for d in (2, 3):
            K = sub_k0_random(seed, d)
            chain = reduce_chain(K)
            assert not isinstance(chain, Obstruction)
            for cone in chain.cones:
                assert_forms_are_the_table(K.restricted(cone))
                steps += 1
    assert steps > 24


def fraction_path_solve(K, target):
    """``Subspace.solve`` through Fraction matrices: the system
    sum_k beta_k S_k = 2 L^2 target as a RationalMatrix, solved by the
    Fraction Gauss-Jordan reference."""
    d, forms = K.d, K.minor_forms()
    positions = sorted({key for upper in forms.values() for key in upper}
                       | {(i, j) for i in range(d) for j in range(i, d) if target[i, j]})
    A = RationalMatrix([[upper.get(key, 0) for upper in forms.values()] for key in positions])
    x = solve_reference(A, [target[key] * 2 * K.L ** 2 for key in positions])
    return None if x is None else {key: b for key, b in zip(forms, x) if b}


def test_solve_matches_fraction_path():
    # on Kr(2)..Kr(10), the identity target of the exact chain step (outside
    # the span: Kr carries a non-trivial measure) and a combination of four
    # forms; on seeded dense pencils, those two and a generic symmetric target
    rng = random.Random(3)
    for r in range(2, 11):
        K = kr_family(r)
        forms = K.minor_forms()
        identity = RationalMatrix.identity(K.d)
        assert K.solve(identity) is None and fraction_path_solve(K, identity) is None, r
        target = K.combination(sparse_beta(rng, list(forms)))
        beta = K.solve(target)
        assert beta == fraction_path_solve(K, target) and K.combination(beta) == target, r
    for seed in range(40):
        rng = random.Random(seed)
        m, n, d = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 6)
        _, K = random_pencil(rng.randrange(10**6), m, n, d, 0.0)
        forms = K.minor_forms()
        sym = [[Fraction(0)] * K.d for _ in range(K.d)]
        for i in range(K.d):
            for j in range(i, K.d):
                sym[i][j] = sym[j][i] = rand_rat(rng)
        targets = [RationalMatrix.identity(K.d), RationalMatrix(sym)]
        if forms:
            targets.append(K.combination(sparse_beta(rng, list(forms))))
        for target in targets:
            assert K.solve(target) == fraction_path_solve(K, target), seed


def test_identity_solve_matches_the_fraction_path():
    # the d >= 4 identity step of the chain: the dense pencil4x4 draws of
    # certify-corpus (seed 1), and Kr(10), whose identity system, 105
    # equations in 339 forms and the right-hand side, is inconsistent
    pencils = [Subspace.from_json(sub) for sub in certify_corpus_subspaces(1)]
    pencils = [K for K in pencils if K.d >= 4]
    assert len(pencils) == 18 and all((K.m, K.n) == (4, 4) for K in pencils)
    for K in pencils:
        identity = RationalMatrix.identity(K.d)
        assert K.solve(identity) == fraction_path_solve(K, identity)
    K = kr_family(10)
    forms = K.minor_forms()
    positions = {key for upper in forms.values() for key in upper}
    assert (len(positions | {(i, i) for i in range(K.d)}), len(forms)) == (105, 339)
    identity = RationalMatrix.identity(K.d)
    assert K.solve(identity) is None and fraction_path_solve(K, identity) is None

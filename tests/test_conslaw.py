import ast
import collections
import contextlib
import io
import math
import random
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import flux_parser_oracle as oracle
from bench_inputs import k1_draws
from float_k1_oracle import five_atom_constants_reference, negative_branch_evidence_reference
import nullag.conslaw
from nullag.cli import _build_atoms_halving, main
from nullag.conslaw import (
    AtomConstructionError,
    FluxFunction,
    IterationError,
    build_atoms,
    five_atom_measure,
    iterate_weights,
    negative_branch_evidence,
    p1_matrix,
    push_forward_to_K1,
    solve_linear_weights,
    support_radius,
    _checked,
    _defined_evaluator,
    _diff,
    _flux_functions,
    _flux_values,
    _integral,
    _power,
)
from nullag.measures import DiscreteMeasure, is_null_lagrangian


# ---------------------------------------------------------------------------
# flux functions
# ---------------------------------------------------------------------------

def test_flux_named_forms():
    lin = FluxFunction.named("linear")
    assert lin.a(0.3) == 0.3 and lin.a_prime(2.0) == 1.0
    quad = FluxFunction.named("quadratic:1")
    assert quad.a(0.5) == pytest.approx(0.75)
    assert quad.a_prime(0.0) == pytest.approx(1.0)
    assert quad.primitive(1.0) == pytest.approx(0.5 + 1.0 / 3.0)


def test_flux_expression_parser():
    f = FluxFunction.named("v + v^2")
    assert f.a(0.5) == pytest.approx(0.75)
    assert f.a_prime(0.5) == pytest.approx(2.0)
    assert f.primitive(1.0) == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-10)
    g = FluxFunction.named("(1 - v) * v / 2")
    assert g.a(0.5) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        FluxFunction.named("v ^ v")
    with pytest.raises(ValueError):
        FluxFunction.named("w + 1")
    with pytest.raises(ValueError):
        FluxFunction.named("v +")


def test_flux_primitive_consistency_enforced():
    with pytest.raises(ValueError):
        FluxFunction(lambda v: v, lambda v: v, lambda v: 1.0)._check_primitive(_integral)


# numbers as the flux grammar reads them: leading zeros, "2." and ".5"
NUMBERS = ("0", "1", "2", "3", "0.5", "1.25", "007", "010.50", "2.", ".5", "0.", "00", "12")


def random_flux_expression(rng, depth):
    """A seeded expression over the flux grammar, with nested + - * / ^,
    unary signs, parentheses and exponents that are not always constant."""
    number = lambda: rng.choice(NUMBERS)
    sub = lambda: random_flux_expression(rng, depth - 1)
    r = rng.random()
    if depth == 0 or r < 0.2:
        return rng.choice(("v", "v", number()))
    if r < 0.32:
        return rng.choice("+-") + rng.choice(("", " ")) + sub()
    if r < 0.44:
        return "(" + sub() + ")"
    if r < 0.6:
        base = rng.choice(("v", number(), "(%s)" % sub()))
        exponent = rng.choice((number(), "(%s)" % number(), "+" + number(), "-" + number(),
                               number() + "^" + number(), "v", "(%s)" % sub()))
        return base + "^" + exponent
    space = lambda: rng.choice(("", "", " "))
    return sub() + space() + rng.choice("+-*/") + space() + sub()


FLUX_LISTED = ("v**2", "1e3*v", "v^-1", "v^2^3", "v^(2)", "2v", "v//2", "()", "--v", " 15",
               "v\r+1", "\u00b2", "\u0663*v")
FLUX_ALPHABET = "0123456789.+-*/^()v \t\n"
FLUX_POINTS = [0.0, 0.5, -0.5, 1.0, -2.0, 3.0, 0.1, np.float64(0.0), np.float64(-0.75)]


def outcome(f, v):
    """("raises",) or (value, type, sign of zero) of f at v."""
    try:
        value = f(v)
    except ValueError:
        return ("raises",)
    return (value, type(value), math.copysign(1.0, value.real))


def test_flux_expressions_agree_with_reference_parser():
    """Python's parser with the whitelisted tree accepts and rejects what
    the hand-written parser did, and a and a' agree in value, type and
    sign of zero; unary minus stays 0.0 - x, so -v is +0.0 at v = 0."""
    rng = random.Random(20)
    corpus = list(FLUX_LISTED)
    corpus += [random_flux_expression(rng, rng.randint(1, 5)) for _ in range(20000)]
    corpus += ["".join(rng.choice(FLUX_ALPHABET) for _ in range(rng.randint(1, 10)))
               for _ in range(20000)]
    accepted = 0
    with np.errstate(all="ignore"):
        for text in corpus:
            try:
                node = oracle.parse_flux_expression(text)
                reference = [_defined_evaluator(lambda v, n=n: oracle.evaluate(n, v), "reference")
                             for n in (node, oracle.diff(node))]
            except ValueError:
                reference = None
            try:
                compiled = _flux_functions(text)
            except ValueError:
                compiled = None
            assert (reference is None) == (compiled is None), text
            if compiled is None:
                continue
            accepted += 1
            for ref, new in zip(reference, compiled):
                for v in FLUX_POINTS:
                    assert outcome(ref, v) == outcome(new, v), (text, v)
    assert 15000 < accepted < len(corpus) - 5000


def test_primitive_agrees_with_quad_on_random_expressions():
    # seeded flux expressions that scipy's quad integrates on [-0.9, 1.1]
    # without a warning: F(v) = int_0^v a agrees with quad from 0
    rng = random.Random(32)
    kept = 0
    while kept < 400:
        text = random_flux_expression(rng, rng.randint(1, 4))
        try:
            a = _flux_functions(text)[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                quad(a, -0.9, 1.1, limit=200)
        except (ValueError, ArithmeticError, Warning):
            continue
        kept += 1
        F = FluxFunction.from_expression(text).primitive
        for v in (-0.9, -0.35, 0.4, 0.77, 1.1):
            reference = quad(a, 0.0, v, limit=200)[0]
            assert abs(F(v) - reference) <= 1e-10 * max(1.0, abs(reference)), (text, v)
    # fluxes near a pole, a branch point or a narrow peak, which take
    # bisections
    evaluations = []
    for _ in range(60):
        c, e = round(rng.uniform(0.91, 1.3), 3), round(rng.uniform(0.0005, 0.01), 4)
        for text in ("1/(v+%r)" % c, "(v+%r)^0.5 - v^2" % c, "1/((v-%r)^2 + %r)" % (c - 0.9, e)):
            a = _flux_functions(text)[0]
            for v in (-0.9, 0.4, 1.1):
                calls = []
                value = _integral(lambda x: calls.append(x) or a(x), 0.0, v, text)
                reference = quad(a, 0.0, v, limit=200)[0]
                assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference)), (text, v)
                evaluations.append(len(calls))
    assert max(evaluations) > 20 and sorted(evaluations)[len(evaluations) // 2] > 1


def test_cubic_primitive_matches_the_closed_form_in_one_evaluation():
    # the 10-point rule is exact to degree 19, so a polynomial flux takes
    # one 31-point evaluation; the error is relative to the terms of the
    # closed form 1/2 v^2 - c v^4 / 4, which cancel at its roots
    rng = random.Random(41)
    for _ in range(200):
        c = round(rng.uniform(-3.0, 3.0), 3)
        v = rng.uniform(-1.2, 1.2)
        a = _flux_functions("v - %r*v^3" % c)[0]
        calls = []
        counted = lambda x: calls.append(x) or a(x)
        exact = 0.5 * v * v - c * v**4 / 4
        assert abs(_integral(counted, 0.0, v, "cubic") - exact) <= 1e-14 * (0.5 * v * v + abs(c) * v**4 / 4)
        assert len(calls) == 1 and calls[0].shape == (31,)
    a = _flux_functions("v^19 - 3*v^7 + 2")[0]
    calls = []
    assert _integral(lambda x: calls.append(x) or a(x), 0.0, 1.1, "degree 19") == pytest.approx(
        1.1**20 / 20 - 3 * 1.1**8 / 8 + 2.2, rel=1e-14)
    assert len(calls) == 1


def test_integral_that_does_not_converge_is_an_error():
    # the 200-subinterval limit, on a flux oscillating faster than the
    # bisections resolve; and a pole that a bisection finds
    with pytest.raises(ValueError, match=r"the integral of flux 'fast' does not converge on \[0.0, 1.0\]: "
                                         r"200 subintervals miss the error bound"):
        _integral(lambda v: np.cos(1e6 * v), 0.0, 1.0, "fast")
    with pytest.raises(ValueError, match=r"does not converge on \[0.0, 0.7\]: flux '0-1/\(v-0.5\)' "
                                         r"is undefined at v = 0.5"):
        FluxFunction.named("0-1/(v-0.5)")
    # an empty interval is 0 without evaluating a, as with quad
    assert FluxFunction.named("v/v").primitive(0.0) == 0.0


def test_one_quadrature_per_primitive_point(monkeypatch):
    # one k1 at a positive slope reads F(alpha_2) at every atom, and the
    # primitive check integrates [0, 0.7] as F(0.7) does: each interval is
    # integrated once
    calls = collections.Counter()

    def counted(a, x0, x1, name):
        calls[x0, x1] += 1
        return _integral(a, x0, x1, name)

    monkeypatch.setattr(nullag.conslaw, "_integral", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["k1", "--flux", "v - 1.492*v^3", "--alpha1", "0.1", "--alpha2", "-0.182"]) == 0
    assert calls[0.0, -0.182] == calls[0.0, 0.7] == 1
    assert len(calls) == 11 and set(calls.values()) == {1}
    # an error is not kept: F past a pole raises on every call
    F = FluxFunction.named("0-1/(v-1.5)").primitive
    for _ in range(2):
        with pytest.raises(ValueError, match=r"does not converge on \[0.0, 2.1\]"):
            F(2.1)


def test_power_keeps_python_pow_on_scalars():
    # Python's ** itself: a complex at a negative Python float under a
    # fractional power, numpy's nan at a negative np.float64
    for x in (0.0, -0.0, 0.5, -0.5, 1.5, -2.0, np.float64(-0.75), np.float64(-0.0)):
        for c in (0, 1, 2, 3, 4, 0.0, 2.0, 3.0, 5.0, 0.5, 1.25):
            with np.errstate(invalid="ignore"):
                expected = x ** c
                value = _power(x, c)
            assert type(value) is type(expected), (x, c)
            assert value == expected or (value != value and expected != expected), (x, c)
            if not isinstance(value, complex):
                assert math.copysign(1.0, value) == math.copysign(1.0, expected), (x, c)


@pytest.mark.filterwarnings("error")
def test_power_on_arrays_against_python_pow():
    # entries >= 0 keep numpy's x ** c bits, -0.0 included; negative entries
    # are +-|x| ** c, within 1 ulp of Python's pow and differing from it no
    # more often than the entries >= 0 already do
    rng = np.random.default_rng(33)
    for c, draws in ((3, 10**6), (3.0, 10**5), (2, 10**5), (4.0, 10**5), (7, 10**5), (1.0, 10**4)):
        x = np.concatenate([[0.0, -0.0], rng.uniform(-2.0, 2.0, draws)])
        value = _power(x, c)
        python = np.array([v ** c for v in x.tolist()])
        kept = x >= 0
        assert np.array_equal(value[kept], x[kept] ** c), c
        assert np.array_equal(np.signbit(value[kept]), np.signbit(x[kept] ** c)), c
        assert np.array_equal(value[~kept], (-1.0) ** c * np.abs(x[~kept]) ** c), c
        assert (np.abs(value - python) <= np.spacing(np.abs(python))).all(), c
        differ = value != python
        assert abs(differ[kept].mean() - differ[~kept].mean()) <= 0.005, c
    # a non-integral exponent at a negative entry is numpy's nan and invalid
    # error, so the array evaluation falls back to the scalar loop, which
    # names the first v where the flux is undefined
    with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
        _power(np.array([0.25, -0.5]), 0.5)
    a = _flux_functions("v^0.5")[0]
    with pytest.raises(ValueError, match=r"flux 'v\^0.5' is undefined at v = -0.5"):
        _flux_values(a, np.array([0.25, -0.5, -1.0]))


def test_power_nodes_are_read_in_place():
    # a power is a _power call in the checked tree, and the derivative
    # calls _power on the same base node: nothing is copied
    names = {"v": ast.Name("v", ast.Load()), "_1": ast.Constant(1.0), "_2": ast.Constant(3.0)}
    tree = _checked(ast.parse("(v + _1) ** _2", mode="eval").body, names, "(v + 1)^3")
    assert isinstance(tree, ast.Call) and tree.func.id == "_power"
    base = tree.args[0]
    derivative = _diff(tree)
    power = derivative.left.right
    assert power.func.id == "_power" and power.args[0] is base and power.args[1].value == 2.0


class K1Point:
    """The 3x2 matrix of a state (u, v), checked against the manifold."""

    __slots__ = ("matrix",)

    def __init__(self, u, v, matrix, check_against=None, tol=1e-9):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.shape != (3, 2):
            raise ValueError("manifold points are 3x2 matrices")
        if check_against is not None:
            scale = max(1.0, float(np.abs(check_against).max()))
            if float(np.abs(self.matrix - check_against).max()) > tol * scale:
                raise ValueError("matrix is off the manifold at (%g, %g)" % (u, v))

    @staticmethod
    def on_manifold(flux, u, v, tol=1e-9):
        M = p1_matrix(flux, u, v)
        return K1Point(u, v, M, check_against=M, tol=tol)


def test_k1_point_validation():
    flux = FluxFunction.linear()
    pt = K1Point.on_manifold(flux, 0.3, -0.2)
    assert pt.matrix.shape == (3, 2)
    M = p1_matrix(flux, 0.3, -0.2)
    M[2, 1] += 1.0
    with pytest.raises(ValueError):
        K1Point(0.3, -0.2, M, check_against=p1_matrix(flux, 0.3, -0.2))


# ---------------------------------------------------------------------------
# atom construction
# ---------------------------------------------------------------------------

def test_build_atoms_linear_matrix():
    flux = FluxFunction.linear()
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    s = 0.1
    expect = np.array(
        [
            [s**2, s**2, -(s**2), -(s**2)],
            [0.0, 0.0, s**3 / 2, -(s**3) / 2],
            [s**3 / 2, -(s**3) / 2, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
    )
    assert np.abs(S.A - expect).max() < 1e-15
    assert S.atoms[0].tolist() == np.zeros((3, 2)).tolist()
    assert 0 < S.lam <= S.Lam
    assert 0 < S.theta < 0.5
    assert S.eps0 > 0


def test_build_atoms_rejects_negative_slope():
    flux = FluxFunction.named("0 - v")
    with pytest.raises(AtomConstructionError):
        build_atoms(flux, (0.0, 0.0), 0.1, 0.1)


def test_build_atoms_rejects_large_offsets():
    flux = FluxFunction.named("quadratic:1")
    with pytest.raises(AtomConstructionError):
        build_atoms(flux, (0.0, 0.0), 0.1, 1.5)  # shifted flux keeps one sign


def test_build_atoms_quadratic_constants():
    flux = FluxFunction.named("quadratic:1")
    S = build_atoms(flux, (0.0, 0.0), 0.05, 0.05)
    inv_last = np.linalg.inv(S.A)[:, 3]
    assert np.all(inv_last > 0)
    assert S.lam == pytest.approx(inv_last.min())
    assert S.Lam == pytest.approx(inv_last.max())


@pytest.mark.parametrize("seed", [1, 2])
def test_build_atoms_matches_entry_by_entry_reference(seed):
    # the positive-slope k1 draws of the benchmark: A and the quadratic
    # coefficient matrices from one array expression, and the constants read
    # off them, equal the entry-by-entry fill bit for bit
    for flux, a1, a2 in k1_draws(seed, positive=True):
        S = _build_atoms_halving(FluxFunction.named(flux), (a1, a2), 0.1, 0.1)
        A, quad_mats, C1, C2, theta, eps0 = five_atom_constants_reference(S.atoms)
        assert S.A.tobytes() == A.tobytes(), flux
        assert [Q.tobytes() for Q in S.quad_mats] == [Q.tobytes() for Q in quad_mats], flux
        assert (S.C1, S.C2, S.theta, S.eps0) == (C1, C2, theta, eps0), flux


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_linear_weights_symmetric_offsets():
    flux = FluxFunction.linear()
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    eps = 0.01
    gamma0 = solve_linear_weights(S, eps)
    assert np.abs(gamma0 - eps / 4).max() < 1e-14
    assert np.abs(S.quadratic_term(gamma0)).max() < 1e-14


def test_linear_weights_asymmetric_offsets():
    flux = FluxFunction.linear()
    s, t = 0.1, 0.05
    S = build_atoms(flux, (0.0, 0.0), s, t)
    eps = 0.01
    gamma0 = solve_linear_weights(S, eps)
    # rows two and three force the pairs equal; rows one and four fix the ratio
    g12 = eps * t**2 / (2 * (s**2 + t**2))
    g34 = eps * s**2 / (2 * (s**2 + t**2))
    assert np.abs(gamma0 - np.array([g12, g12, g34, g34])).max() < 1e-14


def test_linear_weights_solve_equation():
    flux = FluxFunction.named("quadratic:1")
    S = build_atoms(flux, (0.3, 0.1), 0.05, 0.04)
    eps = 1e-3
    gamma0 = solve_linear_weights(S, eps)
    assert np.abs(S.A @ gamma0 - np.array([0, 0, 0, eps])).max() < 1e-16


def test_iteration_linear_zero_steps():
    flux = FluxFunction.linear()
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    res = iterate_weights(S, 0.01)
    assert res.trace == []
    assert np.abs(res.gamma - res.gamma0).max() == 0.0


def test_iteration_quadratic_converges():
    flux = FluxFunction.named("quadratic:1")
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    eps = S.eps0 / 2
    res = iterate_weights(S, eps)
    assert res.g_norm <= 1e-12
    norm0 = np.linalg.norm(res.gamma0)
    for entry in res.trace:
        assert entry["delta_norm"] <= entry["bound"] * (1 + 1e-9)
        assert entry["bound"] == pytest.approx(2.0 ** (entry["k"] - 1) * S.theta ** entry["k"] * norm0)
    floor = 0.5 * S.lam * eps
    assert np.all(res.gamma >= floor * (1 - 1e-9))
    assert np.linalg.norm(res.gamma - res.gamma0) <= floor * (1 + 1e-9)
    # defining equation restated: A gamma - (0,0,0,eps) = Q(gamma)
    assert np.abs(S.linear_term(res.gamma, eps) - S.quadratic_term(res.gamma)).max() <= 1e-12


def test_iteration_error_reported_when_budget_exhausted():
    # the failure mode outside the guarantee is non-convergence within
    # k_max; a tight cap exercises the reporting path deterministically
    flux = FluxFunction.named("quadratic:1")
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    with pytest.raises(IterationError, match="no convergence"):
        iterate_weights(S, S.eps0 / 2, tol=1e-15, k_max=1)


# ---------------------------------------------------------------------------
# measures and push-forward
# ---------------------------------------------------------------------------

def test_five_atom_measure_linear():
    flux = FluxFunction.linear()
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    res = iterate_weights(S, 0.01)
    mu, rep = five_atom_measure(S, res)
    assert rep.verdict and rep.checked == 3
    assert is_null_lagrangian(mu, orders=2, tol=1e-12).verdict


def test_five_atom_measure_quadratic_and_push_forward():
    flux = FluxFunction.named("quadratic:1")
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    res = iterate_weights(S, S.eps0 / 2)
    mu, rep = five_atom_measure(S, res)
    assert rep.residuals == is_null_lagrangian(mu, orders=2, tol=1e-9).residuals
    pushed, rep = push_forward_to_K1(mu, flux, (0.0, 0.0))
    assert rep.verdict
    assert rep.residuals == is_null_lagrangian(pushed, orders=2, tol=1e-9).residuals
    assert support_radius(pushed) > 0


def test_push_forward_dirac():
    flux = FluxFunction.named("quadratic:1")
    alpha = (0.3, 0.2)
    mu = DiscreteMeasure([np.zeros((3, 2))], [1.0])
    pushed, _ = push_forward_to_K1(mu, flux, alpha)
    assert np.abs(pushed.atoms[0] - p1_matrix(flux, *alpha)).max() < 1e-12


def test_push_forward_matches_stripped_at_origin():
    # with base point 0 and a(0) = 0, the stripped and full parametrizations
    # coincide, so atoms must come back unchanged
    flux = FluxFunction.linear()
    S = build_atoms(flux, (0.0, 0.0), 0.1, 0.1)
    res = iterate_weights(S, 0.01)
    mu, _ = five_atom_measure(S, res)
    pushed, _ = push_forward_to_K1(mu, flux, (0.0, 0.0))
    for a, b in zip(mu.atoms, pushed.atoms):
        assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-12


def test_push_forward_rejects_off_manifold_atom():
    flux = FluxFunction.linear()
    bad = np.array([[0.1, 0.0], [0.5, 0.1], [0.0, 0.005]])  # second row wrong
    mu = DiscreteMeasure([bad], [1.0])
    with pytest.raises(ValueError):
        push_forward_to_K1(mu, flux, (0.0, 0.0))


def test_nonzero_base_point_quadratic():
    flux = FluxFunction.named("quadratic:1")
    alpha = (0.7, 0.4)
    S = build_atoms(flux, alpha, 0.05, 0.05)
    res = iterate_weights(S, S.eps0 / 2)
    mu, _ = five_atom_measure(S, res)
    pushed, rep = push_forward_to_K1(mu, flux, alpha)
    assert rep.verdict


# ---------------------------------------------------------------------------
# negative branch
# ---------------------------------------------------------------------------

def test_negative_branch_linear_decreasing():
    flux = FluxFunction.named("0 - v")
    report = negative_branch_evidence(flux, (0.0, 0.0), delta=0.1, samples=2000, seed=0)
    assert report["sign_constant"]
    assert report["min"] >= 0


def test_negative_branch_requires_negative_slope():
    with pytest.raises(ValueError):
        negative_branch_evidence(FluxFunction.linear(), (0.0, 0.0))


def test_negative_branch_quadratic():
    flux = FluxFunction.named("0 - v + v^2")
    report = negative_branch_evidence(flux, (0.0, 0.0), delta=0.05, samples=10000, seed=1)
    assert report["sign_constant"]


def assert_same_evidence(report, expected):
    # one array evaluation gives the scalar loop's evidence; numpy's array
    # powers may differ from Python's pow in the last bit, so min and max
    # may move there
    for key in ("sign_constant", "samples", "delta", "note"):
        assert report[key] == expected[key]
    for key in ("min", "max"):
        assert report[key] == pytest.approx(expected[key], rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "flux, alpha, delta, samples, seed",
    [
        ("0 - v", (0.0, 0.0), 0.1, 2000, 0),
        ("0 - v + v^2", (0.0, 0.0), 0.05, 10000, 1),
        ("v - v^2", (0.0, 1.0), 0.1, 10000, 0),
        ("v - 2.718*v^3", (0.0, 0.5), 0.1, 10000, 0),
        ("0 - v - (v^2)^0.75", (0.3, 0.5), 0.2, 5000, 4),
        ("quadratic:-1", (0.0, 0.9), 0.1, 10000, 0),
        ("cubic:-2", (0.0, -0.7), 0.1, 10000, 0),
    ],
)
@pytest.mark.filterwarnings("error")
def test_negative_branch_matches_scalar_reference(flux, alpha, delta, samples, seed):
    flux = FluxFunction.named(flux)
    assert_same_evidence(negative_branch_evidence(flux, alpha, delta, samples, seed),
                         negative_branch_evidence_reference(flux, alpha, delta, samples, seed))


@pytest.mark.parametrize("seed", [1, 2, 13, 16])
@pytest.mark.filterwarnings("error")
def test_negative_branch_matches_scalar_reference_on_benchmark_draws(seed):
    draws = k1_draws(seed, positive=False)
    assert len(draws) == 24
    for flux, a1, a2 in draws:
        flux = FluxFunction.named(flux)
        assert_same_evidence(negative_branch_evidence(flux, (a1, a2)),
                             negative_branch_evidence_reference(flux, (a1, a2)))


@pytest.mark.filterwarnings("error")
def test_negative_branch_falls_back_to_the_scalar_loop():
    # a(v) = -sin v by math.sin, which takes no array: the scalar loop runs,
    # to the same bits
    flux = FluxFunction(lambda v: -math.sin(v), lambda v: math.cos(v) - 1.0,
                        lambda v: -math.cos(v), name="-sin")
    report = negative_branch_evidence(flux, (0.0, 0.2))
    assert report == negative_branch_evidence_reference(flux, (0.0, 0.2))
    # a flux undefined beyond v = 2 (an invalid power on the array) and one
    # that overflows near v = 2 raise the scalar loop's ValueError, naming
    # the same first undefined v, with no numpy warning
    for text, alpha in (("(2-v)^0.5", (0.0, 1.95)), ("0 - v - 1/(v-2)^120", (0.0, 1.95))):
        flux = FluxFunction.named(text)
        with pytest.raises(ValueError) as expected:
            negative_branch_evidence_reference(flux, alpha, samples=2000)
        with pytest.raises(ValueError, match="undefined at v = ") as raised:
            negative_branch_evidence(flux, alpha, samples=2000)
        assert str(raised.value) == str(expected.value)

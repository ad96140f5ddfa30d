"""Five-atom measures on the conservation-law manifold.

The manifold is the image of (u, v) -> [[u, v], [a(v), u],
[u a(v), u^2/2 + F(v)]] for a flux a with primitive F.  Around a base
point where a' > 0, five atoms (the base point plus four symmetric
offsets) support a family of commuting measures: the weights solve the
linear system A gamma = (0,0,0,eps)^T up to a quadratic correction, and a
contraction iteration starting from the linear solution converges to
exact weights while staying componentwise positive.  Everything here is
binary64: the flux is a user callable, so all verifications are
tolerance-based and the tolerances ride along in the results.

A flux expression is parsed by Python's ``ast``; a whitelisted copy of its
tree and the copy's derivative are compiled once each, without builtins.
Its primitive F(v) = int_0^v a comes from ``_integral``: adaptive
Gauss-Legendre quadrature with a 10- and a 21-point rule on each
subinterval, whose difference estimates the error.  The subinterval with
the largest estimate is bisected until the estimates sum to at most
min(1e-13 int|a|, 1.49e-8 max(1, |F|)), which is never looser than
``scipy.integrate.quad``'s defaults; past 200 subintervals (quad's
``limit=200``) it raises a ValueError that the integral of the flux does
not converge on the interval.
"""

from __future__ import annotations

import ast
import functools
import heapq
import itertools
import math

import numpy as np

from .measures import DiscreteMeasure, is_null_lagrangian

# relative gap allowed between F(x1) - F(x0) and the quadrature of a
_PRIMITIVE_TOL = 1e-8
# the quadrature's error bound: a share of int|a| and quad's default
# epsabs = epsrel; and its subinterval limit, quad's limit=200
_QUAD_RTOL = 1e-13
_QUAD_EPS = 1.49e-8
_QUAD_LIMIT = 200
# tolerance of the commutation checks on the five-atom and pushed measures,
# and relative distance of a pushed atom from the stripped parametrization
_MEASURE_TOL = 1e-9


# ---------------------------------------------------------------------------
# flux functions
# ---------------------------------------------------------------------------

class FluxFunction:
    """Flux a with primitive F (F' = a) and derivative a'."""

    __slots__ = ("a", "primitive", "a_prime", "name")

    def __init__(self, a, primitive, a_prime, name="custom"):
        self.a = a
        self.primitive = primitive
        self.a_prime = a_prime
        self.name = name

    def _check_primitive(self, quadrature):
        """F(x1) - F(x0) against ``quadrature`` of a on three intervals:
        ``_integral``, or the flux's own cached copy of it."""
        for x0, x1 in ((0.0, 0.7), (-0.9, 0.3), (0.2, 1.1)):
            integral = quadrature(self.a, x0, x1, self.name)
            diff = self.primitive(x1) - self.primitive(x0)
            scale = max(1.0, abs(integral))
            if abs(diff - integral) > _PRIMITIVE_TOL * scale:
                raise ValueError(
                    "primitive inconsistent with flux on [%g, %g]: F-diff %g vs integral %g"
                    % (x0, x1, diff, integral)
                )

    def __repr__(self):
        return "FluxFunction(%r)" % self.name

    @staticmethod
    def linear():
        return FluxFunction(lambda v: v, lambda v: 0.5 * v * v, lambda v: 1.0, name="linear")

    @staticmethod
    def from_expression(text):
        """The flux of an expression in v, with F = int_0^v a by adaptive
        10/21-point Gauss-Legendre quadrature (``_integral``).

        The error estimates of the rule sum to at most
        min(1e-13 int_0^v |a|, 1.49e-8 max(1, |F|)); a polynomial of degree
        at most 19 is integrated by one 31-point evaluation.  Past 200
        subintervals F(v) raises a ValueError that the integral of the flux
        does not converge on [0, v], as it does across a pole.  Each
        interval is integrated once per flux (the construction reads
        F(alpha_2) at every atom, and the primitive check integrates
        [0, 0.7] as F(0.7) does); an error is not kept, so it is raised
        again on every call.

        Grammar: ``str.isdigit`` digits, ``.``, ``+ - * / ^ ( )``, ``v``
        and whitespace; each maximal run of digits and dots is one
        ``float``.  ^ binds tighter than unary signs and its exponent must
        be a number (``v^(0.5)``, not ``v^-1`` or ``v^2^3``); ** is refused.
        Only a whitelisted copy of the parsed tree is compiled
        (``_flux_functions``).  a and a' raise ValueError where the value
        is not a finite real number.
        """
        a, a_prime = _flux_functions(text)
        integral = functools.lru_cache(maxsize=None)(_integral)
        flux = FluxFunction(a, lambda v: integral(a, 0.0, v, text), a_prime, name=text)
        flux._check_primitive(integral)
        return flux

    @staticmethod
    def named(spec):
        """Resolve "linear", "quadratic:c", "cubic:c", or an expression.

        quadratic:c means a(v) = v + c v^2 and cubic:c means
        a(v) = v + c v^3, keeping a'(0) = 1 positive.  Any other spec is
        an expression in v over digits, ``.``, ``+ - * / ^ ( )`` and spaces
        with constant exponents, compiled from a whitelisted tree only.
        """
        if spec == "linear":
            return FluxFunction.linear()
        for prefix, power in (("quadratic", 2), ("cubic", 3)):
            if spec == prefix or spec.startswith(prefix + ":"):
                c = float(spec.split(":", 1)[1]) if ":" in spec else 1.0
                if not math.isfinite(c):
                    raise ValueError("the %s constant must be finite, not %r" % (prefix, c))
                return FluxFunction(
                    lambda v, c=c, p=power: v + c * _power(v, p),
                    lambda v, c=c, p=power: 0.5 * v * v + c * _power(v, p + 1) / (p + 1),
                    lambda v, c=c, p=power: 1.0 + p * c * _power(v, p - 1),
                    name=spec,
                )
        return FluxFunction.from_expression(spec)


# -- flux expressions: Python's parser, a whitelisted tree, one compile ----

def _flux_functions(text):
    """(a, a') of a flux expression, wrapped by ``_defined_evaluator``.

    Each maximal run of digits and dots is read by ``float`` and enters the
    Python source as a placeholder name; whitespace becomes a space and ^
    becomes **.  Only ``_checked``'s copy of the parsed tree is compiled.
    """
    source, names = [], {"v": ast.Name("v", ast.Load(), lineno=1, col_offset=0)}
    kind = lambda ch: "number" if ch.isdigit() or ch == "." else "space" if ch.isspace() else ch
    for k, run in itertools.groupby(text, kind):
        run = "".join(run)
        if k == "number":
            name = "_%d" % len(names)
            names[name], run = _const(float(run)), " %s " % name
        elif k == "space":
            run = " "
        elif k not in "+-*/^()v":
            raise ValueError("unexpected character %r in flux expression" % k)
        elif run.startswith("**"):
            raise ValueError("malformed flux expression %r" % text)
        source.append(run.replace("^", "**"))
    try:
        tree = _checked(ast.parse("".join(source).strip(), mode="eval").body, names, text)
        return (_defined_evaluator(_compiled(tree), "flux %r" % text),
                _defined_evaluator(_compiled(_diff(tree)), "slope of flux %r" % text))
    except SyntaxError:
        raise ValueError("malformed flux expression %r" % text) from None
    except (RecursionError, MemoryError):
        raise ValueError("flux expression %r is nested too deeply" % text) from None


def _checked(node, names, text):
    """A copy of ``node`` made of v, float constants, + - * / and
    ``_power`` calls with a constant exponent.  Unary plus is dropped and
    unary minus becomes 0.0 - x, so -v is +0.0 at v = 0."""
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _checked(node.operand, names, text)
        return operand if isinstance(node.op, ast.UAdd) else _op(_const(0.0), ast.Sub, operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
        left, right = _checked(node.left, names, text), _checked(node.right, names, text)
        if not isinstance(node.op, ast.Pow):
            return _op(left, type(node.op), right)
        if not isinstance(right, ast.Constant):
            raise ValueError("exponent must be a constant in %r" % text)
        return _power_node(left, right.value)
    raise ValueError("malformed flux expression %r" % text)


def _const(c):
    """Nodes get their location when built: the derivative shares subtrees,
    which ``ast.fix_missing_locations`` would walk once per use."""
    return ast.Constant(c, lineno=1, col_offset=0)


def _op(left, op, right):
    return ast.BinOp(left, op(), right, lineno=1, col_offset=0)


def _power_node(base, c):
    """The call ``_power(base, c)``, the tree's only power node."""
    return ast.Call(ast.Name("_power", ast.Load(), lineno=1, col_offset=0), [base, _const(c)], [],
                    lineno=1, col_offset=0)


def _power(x, c):
    """x ** c, with Python's ** on a scalar.  numpy's array pow takes a
    slow path at a negative base (35 times the time at a positive one, in
    numpy 2.4 on AVX-512), so on an array and an integral c other than
    numpy's own fast exponents -1, 0, 1 and 2 this is sign(x)^c |x|^c: it
    keeps the bits of x ** c at every entry >= 0 and is within 1 ulp of
    Python's pow at the others.  A non-integral c is left to ** (nan and
    numpy's invalid error at a negative entry)."""
    if isinstance(x, np.ndarray) and c not in (-1, 0, 1, 2) and float(c).is_integer():
        power = np.abs(x) ** c
        return np.copysign(power, x) if c % 2 else power
    return x ** c


def _diff(node):
    """d/dv of a ``_checked`` tree by the sum, product, quotient and
    constant-power rules; subtrees are shared, not copied."""
    if isinstance(node, ast.Constant):
        return _const(0.0)
    if isinstance(node, ast.Name):
        return _const(1.0)
    if isinstance(node, ast.Call):
        base, c = node.args[0], node.args[1].value
        power = _power_node(base, c - 1.0)
        return _op(_op(_const(c), ast.Mult, power), ast.Mult, _diff(base))
    left, op, right = node.left, type(node.op), node.right
    if op in (ast.Add, ast.Sub):
        return _op(_diff(left), op, _diff(right))
    if op is ast.Mult:
        return _op(_op(_diff(left), ast.Mult, right), ast.Add, _op(left, ast.Mult, _diff(right)))
    num = _op(_op(_diff(left), ast.Mult, right), ast.Sub, _op(left, ast.Mult, _diff(right)))
    return _op(num, ast.Div, _op(right, ast.Mult, right))


# the arguments of ``lambda v:``, parsed once; compile only reads them
_LAMBDA_ARGS = ast.parse("lambda v: 0", mode="eval").body.args


def _compiled(body):
    """``lambda v: body``, compiled with no builtins and ``_power`` its
    only global."""
    tree = ast.Expression(ast.Lambda(_LAMBDA_ARGS, body, lineno=1, col_offset=0))
    return eval(compile(tree, "<flux>", "eval"), {"__builtins__": {}, "_power": _power})


def _defined_evaluator(f, label):
    """``f``, raising ValueError at a v where the value is not a finite
    real number: a division by zero, a negative base under a fractional
    power (a Python or numpy complex), an overflow.

    An ndarray v is passed through to ``f`` unchecked, for one array
    evaluation at many points: the caller checks the values, as
    ``negative_branch_evidence`` does, and evaluates point by point where
    they are not all defined.
    """

    def evaluate(v):
        if isinstance(v, np.ndarray):
            return f(v)
        try:
            value = f(v)
            if not isinstance(value, complex) and math.isfinite(value):
                return value
        except ArithmeticError:
            pass
        raise ValueError("%s is undefined at v = %r" % (label, float(v)))

    return evaluate


# -- the primitive: adaptive 10/21-point Gauss-Legendre quadrature --------

# the 10- and 21-point nodes on [-1, 1], stacked, and the (2, 31) weight
# matrix whose rows give the two rules' sums in one product
(_X10, _W10), (_X21, _W21) = (np.polynomial.legendre.leggauss(n) for n in (10, 21))
_GL_NODES = np.concatenate([_X10, _X21])
_GL_WEIGHTS = np.block([[_W10, np.zeros(21)], [np.zeros(10), _W21]])


def _flux_values(a, v):
    """a at each entry of the float array v.

    One array evaluation, under numpy's floating-point errors raised; on
    any floating-point error, a non-finite entry or a result that is not a
    float array of v's shape, the scalar loop instead, which raises the
    ValueError of the first v where a is undefined.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            values = a(v)
        if (isinstance(values, np.ndarray) and values.dtype == float
                and values.shape == v.shape and np.isfinite(values).all()):
            return values
    except (ArithmeticError, TypeError, ValueError):
        pass
    return np.array([a(x) for x in v.tolist()])


def _gauss_part(a, lo, hi):
    """(-error estimate, 21-point value, 21-point int|a|, lo, hi) of
    int_lo^hi a, from one ``_flux_values`` call at the 31 nodes."""
    half = 0.5 * (hi - lo)
    values = _flux_values(a, 0.5 * (lo + hi) + half * _GL_NODES)
    coarse, fine = _GL_WEIGHTS @ values * half
    return -abs(fine - coarse), fine, abs(half) * float(_GL_WEIGHTS[1] @ np.abs(values)), lo, hi


def _integral(a, x0, x1, name):
    """int_x0^x1 a by adaptive 10/21-point Gauss-Legendre quadrature.

    The subinterval with the largest estimate |21-point - 10-point| is
    bisected until the estimates sum to at most the smaller of 1e-13
    int|a| and 1.49e-8 max(1, |integral|); the integral is then the
    correctly rounded sum of the 21-point values.  A ValueError that the
    integral does not converge, naming the flux and the interval, ends
    the search past ``_QUAD_LIMIT`` subintervals, or where a bisection
    finds a point at which a is undefined: a pole that the first 31
    nodes missed.  An undefined point among those first nodes raises
    ``_defined_evaluator``'s error as it is.  As with quad, an empty
    interval gives 0 without evaluating a, so F(0) = 0 where a(0) is
    undefined.
    """
    if x0 == x1:
        return 0.0
    diverges = "the integral of flux %r does not converge on [%r, %r]: %%s" % (name, float(x0), float(x1))
    parts = [_gauss_part(a, x0, x1)]
    while True:
        total = math.fsum(part[1] for part in parts)
        bound = min(_QUAD_RTOL * math.fsum(part[2] for part in parts),
                    _QUAD_EPS * max(1.0, abs(total)))
        if -math.fsum(part[0] for part in parts) <= bound:
            return total
        if len(parts) == _QUAD_LIMIT:
            raise ValueError(diverges % ("%d subintervals miss the error bound" % _QUAD_LIMIT))
        _, _, _, lo, hi = heapq.heappop(parts)
        mid = 0.5 * (lo + hi)
        try:
            heapq.heappush(parts, _gauss_part(a, lo, mid))
            heapq.heappush(parts, _gauss_part(a, mid, hi))
        except ValueError as undefined:
            raise ValueError(diverges % undefined) from None


# ---------------------------------------------------------------------------
# manifold points
# ---------------------------------------------------------------------------

def p1_matrix(flux: FluxFunction, u, v):
    a = flux.a(v)
    return np.array([[u, v], [a, u], [u * a, 0.5 * u * u + flux.primitive(v)]])


def p1_alpha_matrix(flux: FluxFunction, alpha, u, v):
    a1, a2 = alpha
    du = u - a1
    da = flux.a(v) - flux.a(a2)
    dF = flux.primitive(v) - flux.primitive(a2) - flux.a(a2) * (v - a2)
    return np.array([[du, v - a2], [da, du], [du * da, 0.5 * du * du + dF]])


def _minor(M, i, j):
    return M[..., i, 0] * M[..., j, 1] - M[..., i, 1] * M[..., j, 0]


def minors_3x2(M):
    """(D1, D2, D3) = row-pair minors (1,2), (2,3), (1,3); of a stack of
    3 x 2 matrices, (D1, D2, D3) each over the stack."""
    return np.array([_minor(M, 0, 1), _minor(M, 1, 2), _minor(M, 0, 2)])


# ---------------------------------------------------------------------------
# the five-atom system
# ---------------------------------------------------------------------------

class FiveAtomSystem:
    """Atoms, the linear system matrix and all iteration constants."""

    __slots__ = (
        "flux", "alpha", "s0", "t0", "atoms", "A", "A_inv",
        "lam", "Lam", "C1", "C2", "theta", "eps0", "quad_mats",
    )

    def __init__(self, flux, alpha, s0, t0, atoms, A, A_inv, lam, Lam, C1, C2, theta, eps0, quad_mats):
        self.flux = flux
        self.alpha = alpha
        self.s0 = s0
        self.t0 = t0
        self.atoms = atoms
        self.A = A
        self.A_inv = A_inv
        self.lam = lam
        self.Lam = Lam
        self.C1 = C1
        self.C2 = C2
        self.theta = theta
        self.eps0 = eps0
        self.quad_mats = quad_mats

    def quadratic_term(self, gamma):
        """Q(gamma): the three minors of the weighted atom sum, padded with 0."""
        g = np.asarray(gamma, dtype=float)
        return np.array([float(g @ S @ g) for S in self.quad_mats] + [0.0])

    def linear_term(self, gamma, eps):
        return self.A @ np.asarray(gamma, dtype=float) - np.array([0.0, 0.0, 0.0, eps])

    def g_term(self, gamma, eps):
        return self.linear_term(gamma, eps) - self.quadratic_term(gamma)

    def to_json(self):
        return {
            "flux": self.flux.name,
            "alpha": [float(x) for x in self.alpha],
            "s0": self.s0,
            "t0": self.t0,
            "atoms": [a.tolist() for a in self.atoms],
            "A": self.A.tolist(),
            "lambda": self.lam,
            "Lambda": self.Lam,
            "C1": self.C1,
            "C2": self.C2,
            "theta": self.theta,
            "eps0": self.eps0,
        }


class AtomConstructionError(ValueError):
    pass


def build_atoms(flux: FluxFunction, alpha=(0.0, 0.0), s0=0.1, t0=0.1) -> FiveAtomSystem:
    """Construct the five atoms and every constant the iteration needs.

    Preconditions checked explicitly: a' > 0 at the base state, the
    shifted flux changes sign across the offset, and the shifted primitive
    is strictly convex over the offset (positive at both +-t0).
    """
    a1, a2 = float(alpha[0]), float(alpha[1])
    if s0 <= 0 or t0 <= 0:
        raise AtomConstructionError("offsets must be positive")
    if flux.a_prime(a2) <= 0:
        raise AtomConstructionError(
            "flux slope %g at the base state is not positive" % flux.a_prime(a2)
        )
    a_sh = lambda t: flux.a(a2 + t) - flux.a(a2)
    F_sh = lambda t: flux.primitive(a2 + t) - flux.primitive(a2) - flux.a(a2) * t
    if not (a_sh(t0) > 0 and a_sh(-t0) < 0):
        raise AtomConstructionError(
            "offset t0=%g too large: shifted flux does not change sign" % t0
        )
    if not (F_sh(t0) > 0 and F_sh(-t0) > 0):
        raise AtomConstructionError(
            "offset t0=%g too large: shifted primitive is not strictly convex" % t0
        )

    zeta0 = np.zeros((3, 2))
    zeta1 = p1_alpha_matrix(flux, (a1, a2), a1 + s0, a2)
    zeta2 = p1_alpha_matrix(flux, (a1, a2), a1 - s0, a2)
    zeta3 = p1_alpha_matrix(flux, (a1, a2), a1, a2 + t0)
    zeta4 = p1_alpha_matrix(flux, (a1, a2), a1, a2 - t0)
    atoms = [zeta0, zeta1, zeta2, zeta3, zeta4]

    # column j of A: the minors of atom j + 1 over a row of ones
    Z = np.stack(atoms[1:])
    D = minors_3x2(Z)
    A = np.vstack([D, np.ones(4)])
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise AtomConstructionError("atom minor matrix is singular") from exc
    last_col = A_inv[:, 3]
    if not np.all(last_col > 0):
        raise AtomConstructionError(
            "positivity of the linear weights failed; offsets too large"
        )
    lam = float(last_col.min())
    Lam = float(last_col.max())

    # quadratic coefficient matrices of the three minors in the weights:
    # S[i, j, l] is half of minor i of atom j + atom l less minor i of each,
    # for every (i, j, l) at once by the operations of one entry
    S = 0.5 * (minors_3x2(Z[:, None] + Z[None, :]) - D[:, :, None] - D[:, None, :])
    quad_mats = 0.5 * (S + S.transpose(0, 2, 1))
    # row-sum bound on each quadratic block gives |Q| <= C1 |g|^2 and
    # |DQ| <= C1 r on the r-ball
    C1 = 2.0 * math.sqrt(sum(float(np.abs(S).sum(axis=1).max()) ** 2 for S in quad_mats))
    C2 = float(np.linalg.norm(A_inv, 2)) * (1.0 + 1e-9) * C1
    theta = lam / (4.0 * Lam + 2.0 * lam)
    theta = math.nextafter(theta, 0.0)
    eps0 = theta / (2.0 * C2 * Lam)
    return FiveAtomSystem(flux, (a1, a2), float(s0), float(t0), atoms, A, A_inv,
                          lam, Lam, C1, C2, theta, eps0, quad_mats)


def solve_linear_weights(system: FiveAtomSystem, eps):
    """gamma0 = A^-1 (0,0,0,eps)^T, componentwise within [lam*eps, Lam*eps]."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    gamma0 = eps * system.A_inv[:, 3]
    lo, hi = system.lam * eps, system.Lam * eps
    slack = 1e-12 * max(1.0, hi)
    if not (np.all(gamma0 >= lo - slack) and np.all(gamma0 <= hi + slack)):
        raise RuntimeError("linear weights escaped their bracket")
    return gamma0


class IterationError(RuntimeError):
    pass


class IterationResult:
    """Converged weights plus the per-step trace.

    Trace entries carry the step norm and the guaranteed bound
    2^(k-1) theta^k |gamma0| so callers can audit the contraction.
    """

    __slots__ = ("gamma", "eps", "trace", "converged", "g_norm", "gamma0")

    def __init__(self, gamma, eps, trace, converged, g_norm, gamma0):
        self.gamma = gamma
        self.eps = eps
        self.trace = trace
        self.converged = converged
        self.g_norm = g_norm
        self.gamma0 = gamma0

    def to_json(self):
        return {
            "eps": self.eps,
            "gamma": [float(x) for x in self.gamma],
            "gamma0": [float(x) for x in self.gamma0],
            "converged": self.converged,
            "g_norm": self.g_norm,
            "trace": self.trace,
        }


def iterate_weights(system: FiveAtomSystem, eps, tol=1e-12, k_max=64) -> IterationResult:
    """Contraction iteration from the linear solution.

    Guaranteed for eps <= eps0; larger eps is attempted best-effort and
    non-convergence raises.  On every converged run the result satisfies
    the drift bound |gamma - gamma0| <= (lam/2) eps and the componentwise
    floor (lam/2) eps, both re-checked here.
    """
    guaranteed = eps <= system.eps0
    gamma0 = solve_linear_weights(system, eps)
    gamma = gamma0.copy()
    norm0 = float(np.linalg.norm(gamma0))
    trace = []
    g = system.g_term(gamma, eps)
    g_norm = float(np.linalg.norm(g))
    k = 0
    while g_norm > tol and k < k_max:
        k += 1
        delta = system.A_inv @ (-g)
        gamma = gamma + delta
        bound = 2.0 ** (k - 1) * system.theta**k * norm0
        step = float(np.linalg.norm(delta))
        trace.append({"k": k, "delta_norm": step, "bound": bound})
        if guaranteed and step > bound * (1.0 + 1e-9) + 1e-300:
            raise IterationError(
                "step %d violated the contraction bound (%g > %g)" % (k, step, bound)
            )
        g = system.g_term(gamma, eps)
        g_norm = float(np.linalg.norm(g))
    if g_norm > tol:
        raise IterationError(
            "no convergence in %d steps at eps=%g (eps0=%g); reduce eps or the offsets"
            % (k_max, eps, system.eps0)
        )
    drift = float(np.linalg.norm(gamma - gamma0))
    floor = 0.5 * system.lam * eps
    if guaranteed:
        if drift > floor * (1.0 + 1e-9):
            raise IterationError("weight drift %g exceeded (lam/2) eps = %g" % (drift, floor))
        if not np.all(gamma >= floor * (1.0 - 1e-9)):
            raise IterationError("a weight fell below the (lam/2) eps floor")
    elif np.any(gamma < 0):
        raise IterationError("weights went negative outside the guaranteed regime")
    return IterationResult(gamma, float(eps), trace, True, g_norm, gamma0)


def five_atom_measure(system: FiveAtomSystem, result: IterationResult):
    """(1-eps) at the base atom plus the converged weights, verified: the
    measure and its ``is_null_lagrangian`` report over the order-2 minors."""
    eps = result.eps
    weights = [1.0 - eps] + [float(x) for x in result.gamma]
    mu = DiscreteMeasure(list(system.atoms), weights)
    report = is_null_lagrangian(mu, orders=2, tol=_MEASURE_TOL)
    if not report.verdict:
        raise IterationError(
            "five-atom measure failed the commutation check (max residual %g)"
            % report.max_residual()
        )
    return mu, report


def push_forward_to_K1(mu_alpha: DiscreteMeasure, flux: FluxFunction, alpha):
    """Transport a measure from the stripped manifold back to the full one.

    The first row of a stripped point is (u - alpha_1, v - alpha_2), so
    the state is read off row one, each atom is checked against the
    stripped parametrization, and the full-manifold measure is
    re-verified numerically.  Returns the measure and its
    ``is_null_lagrangian`` report over the order-2 minors.
    """
    a1, a2 = float(alpha[0]), float(alpha[1])
    new_atoms = []
    for atom in mu_alpha.atoms:
        atom = np.asarray(atom, dtype=float)
        u = a1 + atom[0, 0]
        v = a2 + atom[0, 1]
        expect = p1_alpha_matrix(flux, (a1, a2), u, v)
        scale = max(1.0, float(np.abs(expect).max()))
        if float(np.abs(atom - expect).max()) > _MEASURE_TOL * scale:
            raise ValueError("atom is off the stripped manifold beyond tolerance")
        new_atoms.append(p1_matrix(flux, u, v))
    mu = DiscreteMeasure(new_atoms, [float(w) for w in mu_alpha.weights])
    report = is_null_lagrangian(mu, orders=2, tol=_MEASURE_TOL)
    if not report.verdict:
        raise RuntimeError(
            "pushed-forward measure failed the commutation check (max residual %g)"
            % report.max_residual()
        )
    return mu, report


def support_radius(mu: DiscreteMeasure):
    """Largest atom norm; reported instead of an a-priori constant."""
    return max(float(np.linalg.norm(np.asarray(a, dtype=float))) for a in mu.atoms)


def negative_branch_evidence(flux: FluxFunction, alpha, delta=0.1, samples=10000, seed=0):
    """Sign sampling for the decreasing-flux branch.

    With a' < 0 at the base state, (u2-u1)^2 - (v2-v1)(a(v2)-a(v1)) should
    stay non-negative on pairs near the base point, vanishing only on the
    diagonal; this reports the sampled range as evidence, not a proof.
    The flux is evaluated once on the v2 array and once on the v1 array
    (``_flux_values``); any floating-point error there falls back to the
    scalar loop, so an undefined flux raises the ValueError naming the
    first undefined v, with no numpy warning.  numpy's array powers may
    differ from Python's ``pow`` in the last bit, so min and max may too.
    """
    a1, a2 = float(alpha[0]), float(alpha[1])
    if flux.a_prime(a2) >= 0:
        raise ValueError("negative branch needs a' < 0 at the base state")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-delta, delta, size=(samples, 4))
    u1, v1 = a1 + pts[:, 0], a2 + pts[:, 1]
    u2, v2 = a1 + pts[:, 2], a2 + pts[:, 3]
    av = _flux_values(flux.a, v2) - _flux_values(flux.a, v1)
    vals = (u2 - u1) ** 2 - (v2 - v1) * av
    return {
        "min": float(vals.min()),
        "max": float(vals.max()),
        "sign_constant": bool(vals.min() >= 0.0),
        "samples": int(samples),
        "delta": float(delta),
        "note": "sampled evidence only; the triviality conclusion is not proved here",
    }

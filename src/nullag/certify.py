"""Triviality certificates for Null Lagrangian measures on subspaces.

A certificate step is a vector beta over the fixed order-2 minor
enumeration whose combination sum_k beta_k M_k(P(z)) is a PSD, non-zero
quadratic form on the current cone.  For pencils of dimension d <= 3 and
no rank-one directions such a beta always exists and is found
constructively: locate a row or column whose coefficient vectors span a
1-, 2- or 3-dimensional space, reduce the pencil by elementary operations
to a canonical shape, read off an explicitly non-negative polynomial
(a squared linear form, or a definite 2x2 determinant), and pull it back
through the invariance of the minor span under pencil operations.

The reduction is built from two elimination steps.  Clearing the first
row moves a row of span s to the top, its first s independent entries to
columns 0..s-1, and clears the rest of the row by column operations;
each span case begins with it.  Clearing the first column moves s rows
with independent column-0 entries to the top and clears column 0 below
them by row operations; the two-column case and the tall three-span case
use it.  Every "first independent vectors" choice, and every span
dimension, comes from ``algebra.independent_indices``.

The descending chain repeatedly restricts to the kernel of the current
certificate form; it stops at the zero cone (triviality certified) or at
a cone carrying no combination (obstruction).  A step on a cone with
basis C is decided and verified on the one pencil ``K.restricted(C)``,
whose minor forms are exactly C^T Q_k C, and its kernel and any witness
are lifted through C.  A cone of dimension d >= 4, and the symmetric
3x3 shape where the reduction ends without either outcome, take one
exact step instead: ``MinorForms.solve`` on the identity matrix.  A beta
found there is a positive definite step that ends the chain; no beta
means the identity form lies outside the minor span, and the cone is an
obstruction without a witness.  No floating point enters a chain step.

Form convention.  Every minor form comes from ``Subspace.minor_forms``.
With L the lcm of the basis denominators and A_ij = L a_ij the integer
entry vectors, the k-th minor of ``enumerate_minors(m, n, 2)`` (rows
r1 < r2, columns c1 < c2) is z^T Q_k z with Q_k = S_k / (2 L^2) and the
integer symmetric matrix

    S_k = A11 A22^T + A22 A11^T - A12 A21^T - A21 A12^T,

A11 = A_{r1 c1}, A22 = A_{r2 c2}, A12 = A_{r1 c2}, A21 = A_{r2 c1}.  A
combination sum_k beta_k Q_k is summed over the support of beta in
integers and divided once.  The d <= 3 reduction builds its targets, a
square (v.z)^2 or a pencil determinant, with the same outer-product
builder as S_k and halves once, so each target is an exact symmetric
matrix that ``MinorForms.solve`` pulls back to a beta.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import (
    RationalMatrix,
    independent_indices,
    psd_analyze,
    rat,
    rat_from_str,
    rat_to_str,
    vec_is_zero,
)
from .subspace import Subspace, _add_sym_outer, _minor_index_arrays, _rational_sqrt


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class MinorCombination:
    """Coefficients beta over the order-2 minor enumeration.

    Its form on a pencil K is ``K.minor_forms().combination(beta)``.
    """

    __slots__ = ("beta",)

    def __init__(self, beta):
        beta = tuple(rat(b) for b in beta)
        if all(b == 0 for b in beta):
            raise ValueError("combination must have a non-zero coefficient")
        self.beta = beta

    def __repr__(self):
        nz = sum(1 for b in self.beta if b != 0)
        return "MinorCombination(%d coefficients, %d non-zero)" % (len(self.beta), nz)


class TrivialityCertificate:
    """Chain of combinations with strictly descending cones.

    ``cones[i]`` is the basis of the cone on which ``chain[i]`` is PSD and
    non-zero; ``cones[i+1]`` spans its kernel there.  ``terminal`` marks
    that the final kernel is the origin.
    """

    __slots__ = ("chain", "cones", "terminal")

    def __init__(self, chain, cones, terminal):
        self.chain = list(chain)
        self.cones = [list(c) for c in cones]
        self.terminal = bool(terminal)

    def to_json(self, K: Subspace = None):
        obj = {
            "kind": "triviality-certificate",
            "terminal": self.terminal,
            "chain": [
                {
                    "beta": [rat_to_str(b) for b in comb.beta],
                    "cone_basis": [[rat_to_str(x) for x in v] for v in cone],
                }
                for comb, cone in zip(self.chain, self.cones)
            ],
        }
        if K is not None:
            obj["subspace"] = K.to_json()
        return obj

    @staticmethod
    def chain_from_json(obj):
        try:
            chain = [
                (
                    tuple(rat_from_str(x) for x in entry["beta"]),
                    [tuple(rat_from_str(x) for x in v) for v in entry["cone_basis"]],
                )
                for entry in obj["chain"]
            ]
            return chain, bool(obj["terminal"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("bad certificate JSON: %s" % exc) from exc


class Obstruction:
    """A cone on which the certificate search failed."""

    __slots__ = ("cone", "rank_one_witness", "note")

    def __init__(self, cone, rank_one_witness=None, note=""):
        self.cone = [tuple(v) for v in cone]
        self.rank_one_witness = rank_one_witness
        self.note = note

    def __repr__(self):
        return "Obstruction(cone_dim=%d)" % len(self.cone)


class GenericityReport:
    """Outcome of one Grassmannian chart probe."""

    __slots__ = ("lambda_value", "span_dim", "beta", "min_eigenvalue", "exact_span_dim")

    def __init__(self, lambda_value, span_dim, beta, min_eigenvalue, exact_span_dim=None):
        self.lambda_value = lambda_value
        self.span_dim = span_dim
        self.beta = beta
        self.min_eigenvalue = min_eigenvalue
        self.exact_span_dim = exact_span_dim


class CertificateOutcome:
    """Result of the constructive search: a combination or a rank-one reason."""

    __slots__ = ("combination", "rank_one_witness", "note")

    def __init__(self, combination=None, rank_one_witness=None, note=""):
        self.combination = combination
        self.rank_one_witness = rank_one_witness
        self.note = note

    @property
    def found(self):
        return self.combination is not None


# ---------------------------------------------------------------------------
# pencil reduction on entry-vector grids
# ---------------------------------------------------------------------------
#
# The grid E holds the pencil's coefficient vectors, E[i][j] in Q^d.
# Elementary row/column operations act on these vectors; the variable z is
# untouched, so any polynomial produced from a reduced grid lives in the
# same minor span as the original pencil, and any direction z0 found on a
# reduced grid is a direction for the original pencil (pointwise ranks
# agree under the operations, and lines that are identically zero never
# carry rank).

def _vector_rank(vectors):
    return len(independent_indices(vectors))


def _drop_zero_lines(E):
    E = [row for row in E if any(not vec_is_zero(v) for v in row)]
    if not E:
        return E
    keep = [j for j in range(len(E[0])) if any(not vec_is_zero(row[j]) for row in E)]
    return [[row[j] for j in keep] for row in E]


def _transpose_grid(E):
    return [list(col) for col in zip(*E)]


def _sparse(v):
    return [(l, x) for l, x in enumerate(v) if x != 0]


def _half_matrix(d, acc):
    """The symmetric d x d matrix whose upper triangle is acc / 2."""
    m = [[Fraction(0)] * d for _ in range(d)]
    for (i, j), s in acc.items():
        m[i][j] = m[j][i] = s / 2
    return RationalMatrix(m)


def _square_of(v):
    """The matrix of the form (v.z)^2."""
    acc = {}
    _add_sym_outer(acc, _sparse(v), _sparse(v), 1)
    return _half_matrix(len(v), acc)


def _annihilator(vectors, d):
    """A non-zero z with v.z = 0 for every given v; they span less than R^d."""
    rows = [v for v in vectors if not vec_is_zero(v)] or [(Fraction(0),) * d]
    return RationalMatrix(rows).nullspace()[0]


def _clear_first_row(E, i0, s):
    """Row i0 moved to the top, its first s independent entries moved to
    columns 0..s-1, and the rest of that row cleared by column operations."""
    E = [list(r) for r in E]
    E[0], E[i0] = E[i0], E[0]
    # the pivots increase, so these swaps never displace a later pivot
    for target, j in enumerate(independent_indices(E[0])[:s]):
        for row in E:
            row[target], row[j] = row[j], row[target]
    W = RationalMatrix.from_columns(E[0][:s])
    for j in range(s, len(E[0])):
        if vec_is_zero(E[0][j]):
            continue
        coeffs = W.solve(E[0][j])
        for row in E:
            row[j] = tuple(
                a - sum(c * w[t] for c, w in zip(coeffs, row)) for t, a in enumerate(row[j])
            )
    return E


def _clear_first_column(E, s):
    """s rows whose column-0 entries are independent moved to the top, and
    column 0 below them cleared by row operations."""
    E = [list(r) for r in E]
    # the chosen rows increase with chosen[pos] >= pos, so these swaps
    # never displace a later chosen row
    for pos, i in enumerate(independent_indices([row[0] for row in E])[:s]):
        E[pos], E[i] = E[i], E[pos]
    top = RationalMatrix.from_columns([row[0] for row in E[:s]])
    for i in range(s, len(E)):
        if vec_is_zero(E[i][0]):
            continue
        coeffs = top.solve(E[i][0])
        E[i] = [
            tuple(a - sum(c * E[k][j][t] for k, c in enumerate(coeffs)) for t, a in enumerate(v))
            for j, v in enumerate(E[i])
        ]
    return E


def _has_rows_below(E, s):
    return any(not vec_is_zero(v) for row in E[s:] for v in row)


def _case_span_one(E, d, i0):
    E = _clear_first_row(E, i0, 1)
    inner = [v for row in E[1:] for v in row[1:]]
    if _vector_rank(inner) < d:
        return ("rank1", _annihilator(inner, d),
                "a direction annihilates every entry off the first row and column")
    return ("form", _square_of(E[0][0]))


def _case_min_two(E, d):
    """Pencil with two columns (rows handled by transposition upstream)."""
    for j in (0, 1):
        col = [row[j] for row in E]
        if _vector_rank(col) < d:
            return ("rank1", _annihilator(col, d),
                    "a direction annihilates one full column of a two-column pencil")
    E = _clear_first_column(E, d)
    if _has_rows_below(E, d):
        return ("continue", E)
    if d == 3:
        return (
            "rank1",
            None,
            "pencil reduces to a three-dimensional subspace of 3x2 matrices, "
            "which always carries a rank-one direction",
        )
    # d == 2: the pencil determinant decides everything
    acc = {}
    _add_sym_outer(acc, _sparse(E[0][0]), _sparse(E[1][1]), 1)
    _add_sym_outer(acc, _sparse(E[0][1]), _sparse(E[1][0]), -1)
    return _decide_binary_form(_half_matrix(d, acc))


def _decide_binary_form(H: RationalMatrix):
    """For the 2x2 matrix of a binary quadratic pencil determinant:
    definite => certificate, real root => rank-one direction."""
    if H.is_zero():
        return ("rank1", (Fraction(1), Fraction(0)), "pencil determinant vanishes identically")
    # h(z) = c20 z1^2 + c11 z1 z2 + c02 z2^2
    c20, c11, c02 = H[0, 0], 2 * H[0, 1], H[1, 1]
    if c20 == 0:
        return ("rank1", (Fraction(1), Fraction(0)), "pencil determinant vanishes at (1, 0)")
    disc = c11 * c11 - 4 * c20 * c02
    if disc < 0:
        return ("form", H if c20 > 0 else -H)
    root = _rational_sqrt(disc)
    if root is not None:
        t = (-c11 + root) / (2 * c20)
        return ("rank1", (t, Fraction(1)), "pencil determinant has a rational root")
    return (
        "rank1",
        None,
        "pencil determinant has an irrational real root (discriminant %s)" % rat_to_str(disc),
    )


def _case_span_two(E, d, i0):
    E = _clear_first_row(E, i0, 2)
    lower_cols = [
        j for j in range(2, len(E[0])) if any(not vec_is_zero(row[j]) for row in E[1:])
    ]
    if not lower_cols:
        return ("continue", [row[:2] for row in E])
    U1 = [row[lower_cols[0]] for row in E[1:] if not vec_is_zero(row[lower_cols[0]])]
    if _vector_rank(U1) == 1:
        return ("continue", E)
    psi = _intersect_spans([E[0][0], E[0][1]], U1, d)
    if psi is None:
        raise RuntimeError("span intersection unexpectedly empty")
    return ("form", _square_of(psi))


def _intersect_spans(vs, ws, d):
    """A non-zero vector in span(vs) ∩ span(ws), if one exists."""
    cols = [list(v) for v in vs] + [[-x for x in w] for w in ws]
    A = RationalMatrix.from_columns([tuple(c) for c in cols])
    for nv in A.nullspace():
        combo = [Fraction(0)] * d
        for c, v in zip(nv[: len(vs)], vs):
            for i in range(d):
                combo[i] += c * v[i]
        if any(x != 0 for x in combo):
            return tuple(combo)
    return None


def _case_span_three(E, d, i0):
    E = _clear_first_row(E, i0, 3)
    for row in E[1:]:
        for v in row[3:]:
            if not vec_is_zero(v):
                return ("form", _square_of(v))
    E = [row[:3] for row in E]
    if len(E) > 3:
        if _vector_rank([row[0] for row in E]) < 3:
            return ("continue", E)
        E = _clear_first_column(E, 3)
        if _has_rows_below(E, 3):
            return ("continue", E)
        E = E[:3]
    col0 = RationalMatrix([list(E[i][0]) for i in range(3)])
    if col0.rank() < 3:
        return ("continue", E)
    inv = col0.inverse()
    newE = []
    for i in range(3):
        newE.append(
            [
                tuple(
                    sum(inv[i, k] * E[k][j][t] for k in range(3))
                    for t in range(d)
                )
                for j in range(3)
            ]
        )
    E = newE
    basis = [tuple(Fraction(int(i == k)) for i in range(3)) for k in range(3)]
    if _vector_rank([basis[0], E[0][1], E[0][2]]) < 3:
        return ("continue", E)
    # remove the e1 component of the row-0 entries in columns 1, 2
    for j in (1, 2):
        alpha = E[0][j][0]
        if alpha != 0:
            for i in range(3):
                E[i][j] = tuple(a - alpha * b for a, b in zip(E[i][j], E[i][0]))
    # map (row-0 col-1, row-0 col-2) to (e2, e3) with a column transform
    M2 = RationalMatrix([[E[0][1][1], E[0][2][1]], [E[0][1][2], E[0][2][2]]])
    M2i = M2.inverse()
    for i in range(3):
        c1, c2 = E[i][1], E[i][2]
        E[i][1] = tuple(M2i[0, 0] * a + M2i[1, 0] * b for a, b in zip(c1, c2))
        E[i][2] = tuple(M2i[0, 1] * a + M2i[1, 1] * b for a, b in zip(c1, c2))
    b = tuple(x - y for x, y in zip(E[1][2], E[2][1]))
    if any(x != 0 for x in b):
        return ("form", _square_of(b))
    # symmetric terminal shape: (b.z)^2 degenerates, and rank-one-free
    # three-dimensional symmetric pencils do exist, so neither outcome can
    # be assumed here; fall back to a direct search
    return ("symmetric", None, "reduction terminated at a symmetric 3x3 pencil")


def _certificate_target(K: Subspace):
    """Run the reduction; return ('form', T) with T the matrix of a PSD
    non-zero form in the minor span, ('rank1', witness_or_None, note) or
    ('symmetric', None, note)."""
    d = K.d
    E = K.entry_grid()
    for _ in range(16 * (K.m + K.n + 4)):
        E = _drop_zero_lines(E)
        if not E:
            raise RuntimeError("pencil vanished during reduction")
        m_, n_ = len(E), len(E[0])
        if m_ == 1 or n_ == 1:
            v = next(v for row in E for v in row if not vec_is_zero(v))
            return ("rank1", v, "pencil has a single non-zero line")
        row_spans = [_vector_rank(row) for row in E]
        col_spans = [_vector_rank([E[i][j] for i in range(m_)]) for j in range(n_)]
        s = min(row_spans + col_spans)
        if s in row_spans:
            i0 = row_spans.index(s)
        else:
            E = _transpose_grid(E)
            i0 = col_spans.index(s)
            m_, n_ = n_, m_
        if s == 1:
            return _case_span_one(E, d, i0)
        if s == 2:
            if min(m_, n_) == 2:
                if n_ != 2:
                    E = _transpose_grid(E)
                res = _case_min_two(E, d)
            else:
                res = _case_span_two(E, d, i0)
        elif s == 3:
            # a two-line pencil caps every line span at 2, so here m_, n_ >= 3
            res = _case_span_three(E, d, i0)
        else:
            raise RuntimeError("span dimension %d exceeds pencil dimension" % s)
        if res[0] == "continue":
            E = res[1]
            continue
        return res
    raise RuntimeError("pencil reduction failed to terminate")


def find_certificate_d_le_3(K: Subspace) -> CertificateOutcome:
    """Constructive certificate for pencils of dimension at most three.

    When the reduction runs into a rank-one direction, the outcome reports
    it, exactly where it can, instead of a combination.  At the symmetric
    terminal shape neither outcome can be assumed, and the exact identity
    step decides.
    """
    if K.d > 3:
        raise ValueError("constructive search supports d <= 3 (got d=%d)" % K.d)
    kind, *rest = _certificate_target(K)
    if kind == "rank1":
        witness, note = rest
        return CertificateOutcome(rank_one_witness=witness, note=note)
    if kind == "symmetric":
        return _identity_combination(K, rest[1])
    beta = K.minor_forms().solve(rest[0])
    if beta is None:
        raise RuntimeError("target form left the minor span; reduction is broken")
    return CertificateOutcome(combination=MinorCombination(beta))


def _identity_combination(K: Subspace, note="") -> CertificateOutcome:
    """The combination whose form is exactly the identity, if there is one.

    The identity form is positive definite, so such a beta is a chain step
    whose kernel is the origin.  Otherwise the outcome carries no witness,
    and its note, after the caller's ``note``, says why.
    """
    beta = K.minor_forms().solve(RationalMatrix.identity(K.d))
    if beta is not None:
        return CertificateOutcome(combination=MinorCombination(beta))
    outside = "identity form is outside the span of the minor forms"
    return CertificateOutcome(note="%s; %s" % (note, outside) if note else outside)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _lift(w, basis):
    """The point with coordinates w on the basis vectors."""
    return tuple(sum(c * v[i] for c, v in zip(w, basis)) for i in range(len(basis[0])))


class VerifyReport:
    """Exact verdict for one combination on one subspace."""

    __slots__ = ("verdict", "neg_witness", "pos_witness", "kernel")

    def __init__(self, verdict, neg_witness=None, pos_witness=None, kernel=None):
        self.verdict = verdict
        self.neg_witness = neg_witness
        self.pos_witness = pos_witness
        self.kernel = kernel

    @property
    def ok(self):
        return self.verdict == "psd-nontrivial"


def verify_combination(K: Subspace, comb: MinorCombination) -> VerifyReport:
    """Exact check that the combination is PSD and non-zero on all of R^d.

    The form is built from beta alone.  A chain step on a cone C is checked
    on ``K.restricted(C)``, whose minor forms are exactly C^T Q_k C; the
    kernel and the witnesses are then in coordinates on C.
    """
    form = K.minor_forms().combination(comb.beta)
    if form.is_zero():
        return VerifyReport("trivial")
    rep = psd_analyze(form.matrix)
    if rep.is_psd:
        return VerifyReport("psd-nontrivial", kernel=rep.kernel)
    neg_rep = psd_analyze(form.matrix.scale(-1))
    if neg_rep.is_psd:
        return VerifyReport("nsd-nontrivial", neg_witness=rep.neg_witness)
    return VerifyReport("indefinite", neg_witness=rep.neg_witness, pos_witness=neg_rep.neg_witness)


# ---------------------------------------------------------------------------
# descending chain
# ---------------------------------------------------------------------------

def reduce_chain(K: Subspace):
    """Descending-cone reduction; terminal certificate or obstruction.

    Every cone appearing here is a subspace: each certificate form is PSD,
    so its zero set within the current cone is the kernel of the
    restricted form.  Each step is decided and verified on one pencil,
    K itself on the whole space and ``K.restricted(cone)`` below it, and
    the kernel and any witness are lifted through the cone.  With d <= 3
    the per-step search is the guaranteed constructive one.  A larger cone
    takes one exact step: the beta whose form is the identity, when the
    identity lies in the span of the minor forms; otherwise the chain
    stops there without a witness.
    """
    cone = [tuple(Fraction(int(i == k)) for i in range(K.d)) for k in range(K.d)]
    if min(K.m, K.n) < 2:
        # P(e_1) = B_1 is non-zero, and a non-zero single-line matrix has rank one
        return Obstruction(cone, cone[0], "single-line matrices are all of rank at most one")
    chain = []
    cones = []
    sub = K
    while True:
        if sub.d <= 3:
            outcome = find_certificate_d_le_3(sub)
        else:
            outcome = _identity_combination(sub)
        if not outcome.found:
            witness = outcome.rank_one_witness
            lifted = None if witness is None else _lift(witness, cone)
            return Obstruction(cone, lifted, outcome.note)
        comb = outcome.combination
        report = verify_combination(sub, comb)
        if not report.ok:
            raise RuntimeError("chain step failed exact verification: %s" % report.verdict)
        chain.append(comb)
        cones.append(cone)
        if len(report.kernel) >= len(cone):
            raise RuntimeError("chain cone failed to shrink")
        if not report.kernel:
            return TrivialityCertificate(chain, cones, terminal=True)
        cone = [_lift(w, cone) for w in report.kernel]
        sub = K.restricted(cone)


# ---------------------------------------------------------------------------
# Grassmannian genericity
# ---------------------------------------------------------------------------

# |Lambda| at or below this counts as zero
LAMBDA_TOL = 1e-12


def grassmann_genericity(k, m, n, chart, A) -> GenericityReport:
    """Probe one chart point of the space of k-dimensional subspaces.

    ``chart`` is a pair (W0 basis, W1 basis) of transversal subspaces of
    R^(mn); ``A`` is the (mn-k) x k matrix of the linear map whose graph
    over W0 picks the subspace.  The 2x2 minors restricted to that
    subspace give quadratic forms on R^k; the report carries the volume
    Lambda = det(Pi Pi^T) of their vectorization, the span dimension, and,
    when the span is full (|Lambda| above ``LAMBDA_TOL``), the combination
    beta whose form is the identity by least squares, and the form's least
    eigenvalue.

    The float forms are one q0 x k x k tensor gathered through the flat
    minor index map of the numeric rank-one search; column j of Pi lists
    the upper triangle of form j, row-major (``np.triu_indices(k)``
    order).  On a rational chart the exact span dimension is the rank of
    ``Subspace.minor_forms()`` of the chart subspace.
    """
    if k > m * n:
        raise ValueError("k exceeds the matrix dimension")
    W0, W1 = chart
    W0 = [list(v) for v in W0]
    W1 = [list(v) for v in W1]
    if len(W0) != k or len(W1) != m * n - k or any(len(v) != m * n for v in W0 + W1):
        raise ValueError("chart bases have wrong sizes")
    A_raw = [list(row) for row in A]
    A = np.asarray([[float(x) for x in row] for row in A_raw], dtype=float)
    if A.shape != (m * n - k, k):
        raise ValueError("chart matrix must be (mn-k) x k")
    stack = np.array([[float(x) for x in v] for v in W0 + W1])
    if np.linalg.matrix_rank(stack) < m * n:
        raise ValueError("chart subspaces are not transversal")

    span_vecs = stack[:k] + A.T @ stack[k:]  # rows: a_l + T(a_l)
    # pencil coefficient vectors h_st in R^k, one row per flat entry s * n + t
    H = span_vecs.T
    h11, h22, h12, h21 = (H[idx] for idx in _minor_index_arrays(m, n))
    outer = lambda u, v: u[:, :, None] * v[:, None, :]
    X_all = 0.5 * (((outer(h11, h22) + outer(h22, h11)) - outer(h12, h21)) - outer(h21, h12))
    upper = np.triu_indices(k)
    Pi = np.ascontiguousarray(X_all[:, upper[0], upper[1]].T)
    lam = float(np.linalg.det(Pi @ Pi.T))
    span_dim = int(np.linalg.matrix_rank(Pi, tol=1e-10 * max(1.0, float(np.abs(Pi).max()))))
    exact_span_dim = None
    if _chart_is_rational(chart, A_raw):
        exact_span_dim = _chart_subspace(m, n, W0, W1, A_raw).minor_forms().span_dim()
    beta = min_eig = None
    if abs(lam) > LAMBDA_TOL and span_dim == len(Pi):
        beta, *_ = np.linalg.lstsq(Pi, np.eye(k)[upper], rcond=None)
        min_eig = float(np.linalg.eigvalsh(np.tensordot(beta, X_all, axes=1)).min())
    return GenericityReport(lam, span_dim, beta, min_eig, exact_span_dim)


def _chart_is_rational(chart, A):
    W0, W1 = chart
    try:
        for v in list(W0) + list(W1):
            for x in v:
                rat(x)
        for row in A:
            for x in row:
                rat(x)
    except (TypeError, ValueError):
        return False
    return True


def _chart_subspace(m, n, W0, W1, A) -> Subspace:
    """The chart subspace, spanned by W0[l] + sum_i A[i][l] W1[i], exactly."""
    basis = []
    for l, w in enumerate(W0):
        v = [rat(x) for x in w]
        for row, u in zip(A, W1):
            c = rat(row[l])
            if c != 0:
                v = [x + c * rat(y) for x, y in zip(v, u)]
        basis.append([v[i * n : (i + 1) * n] for i in range(m)])
    return Subspace(basis)

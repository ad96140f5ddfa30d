"""Triviality certificates for Null Lagrangian measures on subspaces.

A certificate step is a dict beta of non-zero coefficients, keyed by the
(rows, cols) of order-2 minors, whose combination sum_k beta_k M_k(P(z)) is
a PSD, non-zero quadratic form on the current cone.  For pencils of
dimension d <= 3 and no rank-one directions such a beta always exists and
is found constructively: locate a row or column whose coefficient vectors
span a 1-, 2- or 3-dimensional space, reduce the pencil by elementary
operations to a canonical shape, read off an explicitly non-negative
polynomial (a squared linear form, or a definite 2x2 determinant), and
pull it back through the invariance of the minor span under pencil
operations.

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
exact step instead: ``Subspace.solve`` on the identity matrix.  A beta
found there is a positive definite step that ends the chain; no beta
means the identity form lies outside the minor span, and the cone is an
obstruction without a witness.  No floating point enters a chain step.

Form convention.  Every minor form is a ``subspace.minor_form``.  With
L = ``Subspace.L``, the lcm of the basis denominators, and the integer
entry vectors of ``Subspace.int_grid``, the minor k on rows r1 < r2 and
columns c1 < c2, keyed ((r1, r2), (c1, c2)), is z^T Q_k z with
Q_k = S_k / (2 L^2) and S_k its integer symmetric ``minor_form``; only
the minors with S_k != 0 have a form.  ``Subspace.combination`` builds
the forms of a beta's keys and sums sum_k beta_k Q_k in integers,
dividing once by ``subspace.form_matrix``; ``Subspace.minor_forms`` holds
the table of every live form, which ``Subspace.solve`` reads.  The d <= 3
reduction builds each target as the ``minor_form`` of a small grid, the
2x2 pencil determinant or a square (v.z)^2 = det diag(v.z, v.z), halved
by ``form_matrix`` into an exact symmetric matrix that ``Subspace.solve``
pulls back to a beta.  In a certificate's JSON, beta is an object of its
non-zero coefficients keyed "r1,r2|c1,c2" (0-based), so no artifact
depends on the order in which minors are enumerated.

Deciding a pencil.  ``decide`` runs the stages in this order and stops at
the first that decides.  The exact chain decides first.  For d <= 2 it is
complete: an obstruction without a witness means the rank-one directions
are irrational (the note gives the discriminant), so only a pencil with
d >= 3 gets the numeric rank-one sweep.  An exact rank-one direction
gives the two-atom measure and anything else goes to the exact LP, so
every non-trivial verdict carries a measure with rational atoms.
``check`` re-checks what ``decide`` emits: a certificate by walking its
chain with the step ``reduce_chain`` takes, a measure by the exact test
of ``measures.check_measure``.
"""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import (
    RationalMatrix,
    bad_json,
    enumerate_minors,
    independent_indices,
    minor_count,
    psd_analyze,
    rat_from_str,
    rat_to_str,
    vec_is_zero,
)
from .measures import (
    BLOCK_ENTRIES,
    check_measure,
    construct_nontrivial_for_subspace,
    is_null_lagrangian,
    two_atom_measure,
)
from .subspace import Subspace, _minor_index_arrays, find_rank_one, form_matrix, minor_form


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

_MINOR_KEY = re.compile(r"([0-9]+),([0-9]+)\|([0-9]+),([0-9]+)")


def _minor_key_json(key):
    return "%d,%d|%d,%d" % (*key[0], *key[1])


def _beta_from_json(obj):
    """The beta of a certificate step's JSON, a non-empty object of non-zero
    coefficients keyed "r1,r2|c1,c2" (0-based, r1 < r2, c1 < c2), or a ValueError."""
    if not isinstance(obj, dict) or not obj:
        raise ValueError('beta must be a non-empty object keyed "r1,r2|c1,c2"')
    beta = {}
    for text, value in obj.items():
        match = _MINOR_KEY.fullmatch(text)
        r1, r2, c1, c2 = map(int, match.groups()) if match else (0, 0, 0, 0)
        key = (r1, r2), (c1, c2)
        if not (r1 < r2 and c1 < c2) or _minor_key_json(key) != text:
            raise ValueError("bad minor key %r" % (text,))
        b = beta[key] = rat_from_str(value)
        if b == 0:
            raise ValueError("zero beta coefficient at %r" % text)
    return beta


class TrivialityCertificate:
    """Chain of combinations with strictly descending cones.

    ``chain[i]`` is a beta, the dict {(rows, cols): coefficient} of its
    non-zero coefficients, and ``cones[i]`` the basis of the cone on which
    its form is PSD and non-zero; ``cones[i+1]`` spans its kernel there,
    and the last kernel is the origin (the JSON marks this
    ``"terminal": true``).
    """

    __slots__ = ("chain", "cones")

    def __init__(self, chain, cones):
        self.chain = list(chain)
        self.cones = [list(c) for c in cones]

    def to_json(self, K: Subspace):
        """The certificate's JSON, with K, the pencil it certifies."""
        return {
            "kind": "triviality-certificate",
            "terminal": True,
            "chain": [
                {
                    "beta": {_minor_key_json(key): rat_to_str(b) for key, b in beta.items()},
                    "cone_basis": [[rat_to_str(x) for x in v] for v in cone],
                }
                for beta, cone in zip(self.chain, self.cones)
            ],
            "subspace": K.to_json(),
        }

    @staticmethod
    def chain_from_json(obj):
        try:
            chain = [
                (
                    _beta_from_json(entry["beta"]),
                    [tuple(rat_from_str(x) for x in v) for v in entry["cone_basis"]],
                )
                for entry in obj["chain"]
            ]
            return chain, bool(obj["terminal"])
        except (KeyError, TypeError, ValueError) as exc:
            raise bad_json("certificate", exc) from exc


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
    """Outcome of the genericity probe of one subspace."""

    __slots__ = ("lambda_value", "span_dim", "beta", "min_eigenvalue")

    def __init__(self, lambda_value, span_dim, beta=None, min_eigenvalue=None):
        self.lambda_value = lambda_value
        self.span_dim = span_dim
        self.beta = beta
        self.min_eigenvalue = min_eigenvalue


class CertificateOutcome:
    """Result of the constructive search: a combination (its beta) or a
    rank-one reason."""

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


def _square_of(v):
    """The matrix of the form (v.z)^2 = det diag(v.z, v.z)."""
    u = _sparse(v)
    return form_matrix(len(v), minor_form([[u, []], [[], u]], ((0, 1), (0, 1))))


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
    # d == 2: the pencil determinant, the 2x2 minor, decides everything
    grid = [[_sparse(v) for v in row] for row in E[:2]]
    return _decide_binary_form(form_matrix(d, minor_form(grid, ((0, 1), (0, 1)))))


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


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
    if _vector_rank([_unit_basis(3)[0], E[0][1], E[0][2]]) < 3:
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
    beta = K.solve(rest[0])
    if beta is None:
        raise RuntimeError("target form left the minor span; reduction is broken")
    return CertificateOutcome(combination=beta)


def _identity_combination(K: Subspace, note="") -> CertificateOutcome:
    """The combination whose form is exactly the identity, if there is one.

    The identity form is positive definite, so such a beta is a chain step
    whose kernel is the origin.  Otherwise the outcome carries no witness,
    and its note, after the caller's ``note``, says why.
    """
    beta = K.solve(RationalMatrix.identity(K.d))
    if beta is not None:
        return CertificateOutcome(combination=beta)
    outside = "identity form is outside the span of the minor forms"
    return CertificateOutcome(note="%s; %s" % (note, outside) if note else outside)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _lift(w, basis):
    """The point with coordinates w on the basis vectors."""
    return tuple(sum(c * v[i] for c, v in zip(w, basis)) for i in range(len(basis[0])))


def _unit_basis(d):
    return [tuple(Fraction(int(i == k)) for i in range(d)) for k in range(d)]


class VerifyReport(NamedTuple):
    """Exact verdict for one combination on one subspace."""

    verdict: str
    neg_witness: tuple = None
    pos_witness: tuple = None
    kernel: list = None

    @property
    def ok(self):
        return self.verdict == "psd-nontrivial"


def verify_combination(K: Subspace, beta) -> VerifyReport:
    """Exact check that the combination beta is PSD and non-zero on all of R^d.

    The form is built from beta alone.  A chain step on a cone C is checked
    on ``K.restricted(C)``, whose minor forms are exactly C^T Q_k C; the
    kernel and the witnesses are then in coordinates on C.
    """
    form = K.combination(beta)
    if form.is_zero():
        return VerifyReport("trivial")
    rep = psd_analyze(form)
    if rep.is_psd:
        return VerifyReport("psd-nontrivial", kernel=rep.kernel)
    neg_rep = psd_analyze(-form)
    if neg_rep.is_psd:
        return VerifyReport("nsd-nontrivial", neg_witness=rep.neg_witness)
    return VerifyReport("indefinite", neg_witness=rep.neg_witness, pos_witness=neg_rep.neg_witness)


# ---------------------------------------------------------------------------
# descending chain
# ---------------------------------------------------------------------------

def _chain_step(K: Subspace, sub: Subspace, cone, beta):
    """One chain step, as ``reduce_chain`` takes it and ``check_certificate``
    re-takes it.

    ``sub`` is the pencil of the cone with basis ``cone``: K itself on the
    whole space, ``K.restricted(cone)`` below it.  The combination beta is
    verified exactly on ``sub``.  Returns the report and, when it passes,
    the next cone (the kernel lifted through ``cone``) with its pencil,
    None at the origin.
    """
    report = verify_combination(sub, beta)
    if not report.ok:
        return report, None, None
    kernel = [_lift(w, cone) for w in report.kernel]
    return report, kernel, K.restricted(kernel) if kernel else None


def reduce_chain(K: Subspace):
    """Descending-cone reduction; terminal certificate or obstruction.

    Every cone appearing here is a subspace: each certificate form is PSD,
    so its zero set within the current cone is the kernel of the
    restricted form.  Each step is found on the cone's pencil and taken by
    ``_chain_step``.  With d <= 3 the per-step search is the guaranteed
    constructive one.  A larger cone takes one exact step: the beta whose
    form is the identity, when the identity lies in the span of the minor
    forms; otherwise the chain stops there without a witness.
    """
    cone = _unit_basis(K.d)
    if min(K.m, K.n) < 2:
        # P(e_1) = B_1 is non-zero, and a non-zero single-line matrix has rank one
        return Obstruction(cone, cone[0], "single-line matrices are all of rank at most one")
    chain = []
    cones = []
    sub = K
    while True:
        outcome = find_certificate_d_le_3(sub) if sub.d <= 3 else _identity_combination(sub)
        if not outcome.found:
            witness = outcome.rank_one_witness
            return Obstruction(cone, None if witness is None else _lift(witness, cone), outcome.note)
        report, kernel, sub = _chain_step(K, sub, cone, outcome.combination)
        if not report.ok:
            raise RuntimeError("chain step failed exact verification: %s" % report.verdict)
        if len(kernel) >= len(cone):
            raise RuntimeError("chain cone failed to shrink")
        chain.append(outcome.combination)
        cones.append(cone)
        if not kernel:
            return TrivialityCertificate(chain, cones)
        cone = kernel


# ---------------------------------------------------------------------------
# deciding a pencil and checking what it emits
# ---------------------------------------------------------------------------

class Decision(NamedTuple):
    """What ``decide`` found: the verdict ("trivial", "nontrivial" or
    "inconclusive"), its artifact (a TrivialityCertificate, a DiscreteMeasure
    or None), the report's verdict entries, the seconds of each stage run
    and the report's conclusion."""

    verdict: str
    artifact: object
    verdicts: list
    timings: dict
    conclusion: str


def decide(K: Subspace, budget=256, seed=0) -> Decision:
    """Run the stages of the module docstring on K, in order, until one
    decides; ``seed`` seeds the sweep and the LP's sampler of ``budget`` points."""
    timings = {}
    t0 = time.perf_counter()
    chain = reduce_chain(K)
    timings["reduce_chain"] = time.perf_counter() - t0
    if isinstance(chain, TrivialityCertificate):
        entry = {"operation": "reduce_chain", "terminal": True, "chain_length": len(chain.chain)}
        return Decision("trivial", chain, [entry], timings, "trivial: terminal certificate chain")
    verdicts = [{"operation": "reduce_chain", "terminal": False, "stuck_cone_dim": len(chain.cone),
                 "note": chain.note}]
    witness = chain.rank_one_witness
    if witness is None and K.d >= 3:
        t1 = time.perf_counter()
        res = find_rank_one(K, seed=seed)
        timings["find_rank_one"] = time.perf_counter() - t1
        witness = res.witness
        rank_entry = {
            "operation": "find_rank_one",
            "mode": res.mode,
            "found": res.found,
            "is_proof": witness is not None,
            "residual": res.residual,
            "lower_bound": None if res.found else res.residual,
            "minors_evaluated": res.minors,
            "minors_total": minor_count(K.m, K.n, 2),
            "gauss_newton_steps": res.gauss_newton_steps,
        }
        if res.witness_float is not None:
            rank_entry["witness_float"] = [float(x) for x in res.witness_float]
        if witness is not None:
            rank_entry["witness"] = [rat_to_str(x) for x in witness]
        verdicts.append(rank_entry)
    if witness is not None:
        mu = two_atom_measure(K, witness)
        nl = is_null_lagrangian(mu)
        verdicts.append({"operation": "is_null_lagrangian", "exact": True, "verdict": nl.verdict})
        if nl.verdict:
            return Decision("nontrivial", mu, verdicts, timings,
                            "non-trivial measure from a rank-one direction")

    t2 = time.perf_counter()
    lp = {}
    mu = construct_nontrivial_for_subspace(K, budget=budget, seed=seed, stats=lp)
    timings["construct_nontrivial"] = time.perf_counter() - t2
    if mu is not None:
        verdicts.append({"operation": "construct_nontrivial", "found": True, "atoms": len(mu.atoms),
                         "exact": True, **lp})
        return Decision("nontrivial", mu, verdicts, timings, "non-trivial measure with barycenter zero")
    verdicts.append({"operation": "construct_nontrivial", "found": False, **lp})
    return Decision("inconclusive", None, verdicts, timings,
                    "inconclusive: no certificate chain and no measure within budget")


def check_certificate(obj):
    """Re-check a certificate's JSON exactly; (ok, verdict entries).

    The chain is walked by ``_chain_step`` from the whole space: each
    stored cone must span the cone the walk has reached, and the walk must
    end at the origin of a certificate marked terminal.  A ValueError or
    KeyError when the JSON is malformed.
    """
    chain, terminal = TrivialityCertificate.chain_from_json(obj)
    if "subspace" not in obj:
        raise bad_json("certificate", KeyError("subspace"))
    K = Subspace.from_json(obj["subspace"])
    outside = [key for beta, _ in chain for key in beta if key[0][1] >= K.m or key[1][1] >= K.n]
    if outside:
        raise bad_json("certificate", ValueError("minor %r is outside the %dx%d pencil"
                                                 % (_minor_key_json(outside[0]), K.m, K.n)))
    if any(len(v) != K.d for _, cone in chain for v in cone):
        raise bad_json("certificate", ValueError("a cone vector is not of length d = %d" % K.d))
    if not terminal:
        return False, [{"operation": "verify-cert", "error": "certificate is not marked terminal"}]
    entries = []
    cone, sub = _unit_basis(K.d), K
    for step, (beta, stored_cone) in enumerate(chain):
        if not _same_span(cone, stored_cone):
            entries.append({"operation": "verify-cert", "step": step, "error": "cone mismatch"})
            return False, entries
        if not cone:
            entries.append({"operation": "verify-cert", "step": step,
                            "error": "chain continues past the origin"})
            return False, entries
        report, kernel, next_sub = _chain_step(K, sub, cone, beta)
        entry = {"operation": "verify_combination", "step": step, "verdict": report.verdict}
        entries.append(entry)
        if not report.ok:
            if report.neg_witness is not None:
                entry["witness_point"] = [rat_to_str(x) for x in _lift(report.neg_witness, cone)]
            return False, entries
        cone, sub = kernel, next_sub
    if cone:
        entries.append({"operation": "verify-cert", "error": "chain does not terminate at the origin"})
    return not cone, entries


def _same_span(cone, stored):
    """Whether ``stored`` spans ``cone``, a basis: exactly when one
    independence pass over stored + cone picks ``len(cone)`` vectors, all
    of them stored."""
    if not cone or not stored:
        return not cone and not stored
    picked = independent_indices(list(stored) + list(cone))
    return len(picked) == len(cone) and picked[-1] < len(stored)


# the artifacts a report may embed, in the order they are re-checked
_EMBEDDED = (("measure", check_measure), ("measure_stripped", check_measure),
             ("certificate", check_certificate))


def check(obj):
    """Re-check an emitted artifact; (ok, verdict entries, conclusion).

    A measure or a certificate, and each one a report embeds, is
    re-checked exactly.  A grassmann-scan report, a bare subspace and a
    report with no artifact carry nothing exact: only their schema is
    checked.  A ValueError or KeyError when the JSON is malformed.
    """
    if not isinstance(obj, dict):
        raise ValueError("artifact JSON must be an object")
    kind = obj.get("kind")
    if kind == "grassmann-scan":
        _check_scan_report(obj)
        return (True, [{"operation": "scan-schema", "verdict": True}],
                "report carries float probes and no exact artifact; schema accepted")
    if kind == "measure":
        targets = [(check_measure, obj)]
    elif kind == "triviality-certificate":
        targets = [(check_certificate, obj)]
    else:
        targets = [(checker, obj[key]) for key, checker in _EMBEDDED if key in obj]
    if not targets:
        if "basis" in obj:
            Subspace.from_json(obj)
            return (True, [{"operation": "subspace-schema", "verdict": True}],
                    "subspace carries no re-verifiable artifact; schema accepted")
        if "command" in obj and "verdicts" in obj:
            return (True, [{"operation": "report-schema", "verdict": True}],
                    "report carries no re-verifiable artifact; schema accepted")
        raise ValueError("artifact carries nothing verifiable")
    ok, entries = True, []
    for checker, target in targets:
        target_ok, target_entries = checker(target)
        ok = ok and target_ok
        entries += target_entries
    return ok, entries, "verified" if ok else "verification failed"


# ---------------------------------------------------------------------------
# Grassmannian genericity
# ---------------------------------------------------------------------------

# |Lambda| at or below this counts as zero
LAMBDA_TOL = 1e-12
# a chart that alone needs more float entries than this is refused
CHART_ENTRIES = 1 << 24
# a scan report keeps every sample, about 1.4 KB each: a scan of more is refused
SCAN_SAMPLES = 100_000


def genericity_block(k, m, n):
    """Charts per kernel block of shape (k, m, n) within ``BLOCK_ENTRIES``.

    A chart holds, at once, its mn x mn rows (held by the scan's draw), the
    gathered pencil coefficients, the forms tensor with its product buffer,
    and Pi gathered and made contiguous.  A ValueError when one chart alone
    needs more than ``CHART_ENTRIES`` float entries.
    """
    q0 = (m * (m - 1) // 2) * (n * (n - 1) // 2)
    entries = (m * n) ** 2 + 2 * q0 * (2 * k + k * k + k * (k + 1) // 2)
    if entries > CHART_ENTRIES:
        raise ValueError(
            "a chart of %d-dimensional subspaces of %dx%d matrices needs %d float entries,"
            " over the limit of %d" % (k, m, n, entries, CHART_ENTRIES)
        )
    return max(1, BLOCK_ENTRIES // entries)


def grassmann_genericity(k, m, n, bases) -> list:
    """Probe a block of k-dimensional subspaces of m x n matrices.

    ``bases[s]`` holds k vectors of R^(mn), the flattened (row-major) basis
    matrices of subspace s, so a block of S subspaces is an (S, k, mn)
    array or nested list; one subspace is a block of one.  The 2x2 minors
    restricted to a subspace give quadratic forms on R^k.  The S reports,
    in block order, carry the volume Lambda = det(Pi Pi^T) of their
    vectorization, the span dimension, and, when the span is full
    (|Lambda| above ``LAMBDA_TOL``), the combination beta whose form is the
    identity by least squares, and the form's least eigenvalue.

    The forms are one S x q0 x k x k tensor X, built from the pencil
    coefficients gathered through the flat minor index map of the numeric
    rank-one search; column j of a subspace's Pi lists the upper triangle
    of form j, row-major (``np.triu_indices(k)`` order).  X and Pi are
    built over the whole block, and det(Pi Pi^T), the span rank and the
    eigenvalues are one stacked LAPACK call each; only ``lstsq`` and
    ``tensordot`` run per subspace, and only on subspaces with a full span.
    Every number equals the one the subspace gives as a block of one, bit
    for bit: a stacked LAPACK or BLAS call runs the same routine on each
    matrix as a call on that matrix alone, given the same memory layout
    (so X and Pi are C-contiguous per subspace, and Pi Pi^T takes the same
    BLAS path), and the elementwise products keep the operand order of the
    per-subspace formula.

    A caller with many subspaces feeds them in blocks of
    ``genericity_block(k, m, n)``, which hold at most ``BLOCK_ENTRIES``
    float entries in the kernel, so memory stays bounded whatever the
    number of subspaces.
    """
    if len(bases) == 0:
        return []
    span_vecs = np.asarray(bases, dtype=float)
    if span_vecs.ndim != 3 or span_vecs.shape[1:] != (k, m * n):
        raise ValueError("subspace bases must be an (S, %d, %d) block" % (k, m * n))
    # h[c][s, t]: the coefficient vector in R^k of corner c (11, 22, 12, 21)
    # of minor t on subspace s
    corners = np.array(_minor_index_arrays(n, enumerate_minors(m, n, 2)))
    h = span_vecs[:, :, corners].transpose(2, 0, 3, 1)
    outer = lambda u, v, out=None: np.multiply(u[..., :, None], v[..., None, :], out=out, order="C")
    X = outer(h[0], h[1])
    term = np.empty_like(X)
    X += outer(h[1], h[0], term)
    X -= outer(h[2], h[3], term)
    X -= outer(h[3], h[2], term)
    X *= 0.5
    upper = np.triu_indices(k)
    Pi = np.ascontiguousarray(X[:, :, upper[0], upper[1]].transpose(0, 2, 1))
    lam = np.linalg.det(Pi @ Pi.transpose(0, 2, 1))
    span_dim = np.linalg.matrix_rank(Pi, tol=1e-10 * np.maximum(1.0, np.abs(Pi).max(axis=(1, 2))))
    reports = [GenericityReport(float(v), int(r)) for v, r in zip(lam, span_dim)]

    full = np.flatnonzero((np.abs(lam) > LAMBDA_TOL) & (span_dim == len(upper[0])))
    if len(full):
        forms = np.empty((len(full), k, k))
        for s, form in zip(full, forms):
            beta, *_ = np.linalg.lstsq(Pi[s], np.eye(k)[upper], rcond=None)
            form[...] = np.tensordot(beta, X[s], axes=1)
            reports[s].beta = beta
        for s, e in zip(full, np.linalg.eigvalsh(forms).min(axis=1)):
            reports[s].min_eigenvalue = float(e)
    return reports


def _check_scan_report(obj):
    """Schema of a grassmann-scan report; raises ValueError when it is off."""
    inputs, samples, summary = obj.get("inputs"), obj.get("samples"), obj.get("summary")
    if not isinstance(inputs, dict) or not all(
        isinstance(inputs.get(key), int) for key in ("k", "m", "n", "samples", "seed")
    ):
        raise ValueError("bad grassmann-scan JSON: 'inputs'")
    if not isinstance(samples, list) or len(samples) != inputs["samples"] or not all(
        isinstance(s, dict) and all(key in s for key in ("seed", "lambda", "span_dim", "pd_found"))
        for s in samples
    ):
        raise ValueError("bad grassmann-scan JSON: 'samples'")
    if not isinstance(summary, dict) or not all(
        key in summary for key in ("lambda_nonzero_fraction", "pd_fraction", "target_span_dim")
    ):
        raise ValueError("bad grassmann-scan JSON: 'summary'")

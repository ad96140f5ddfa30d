"""Linear subspaces of matrix space, presented as pencils.

A d-dimensional subspace K of m x n matrices is stored through a basis
B_1..B_d; the associated pencil P(z) = sum_l z_l B_l has entry (i,j) equal
to a_ij . z for coefficient vectors a_ij in Q^d.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import (
    MultiPoly,
    QuadraticForm,
    RationalMatrix,
    enumerate_minors,
    rat,
    rat_from_str,
    rat_to_str,
)


class Subspace:
    """Basis presentation of a subspace of m x n matrices."""

    __slots__ = ("m", "n", "d", "basis", "_minor_forms")

    def __init__(self, basis):
        basis = tuple(
            b if isinstance(b, RationalMatrix) else RationalMatrix(b) for b in basis
        )
        if not basis:
            raise ValueError("subspace needs at least one basis matrix")
        m, n = basis[0].rows, basis[0].cols
        if any(b.rows != m or b.cols != n for b in basis):
            raise ValueError("basis matrices must share one shape")
        d = len(basis)
        if d > m * n:
            raise ValueError("dimension %d exceeds %d x %d" % (d, m, n))
        stacked = RationalMatrix([[b[i, j] for i in range(m) for j in range(n)] for b in basis])
        if stacked.rank() != d:
            dep = stacked.transpose().nullspace()[0] if d > 1 else (Fraction(1),)
            # surface one explicit vanishing combination of the basis
            combo = " + ".join(
                "(%s)*B%d" % (rat_to_str(c), l + 1) for l, c in enumerate(dep) if c != 0
            )
            raise ValueError("basis matrices are linearly dependent: %s = 0" % combo)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_minor_forms", None)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis

    def __repr__(self):
        return "Subspace(m=%d, n=%d, d=%d)" % (self.m, self.n, self.d)

    def entry_vector(self, i, j):
        """Coefficient vector a_ij of the pencil entry (i, j)."""
        return tuple(b[i, j] for b in self.basis)

    def entry_grid(self):
        return [[self.entry_vector(i, j) for j in range(self.n)] for i in range(self.m)]

    def minor_forms(self):
        """The exact 2x2 minor forms of the pencil, built on first use."""
        if self._minor_forms is None:
            object.__setattr__(self, "_minor_forms", MinorForms(self))
        return self._minor_forms

    def evaluate(self, z):
        """P(z) = sum_l z_l B_l, exactly, added up over the non-zero z_l B_l[i][j]."""
        if len(z) != self.d:
            raise ValueError("point dimension mismatch")
        grid = [[Fraction(0)] * self.n for _ in range(self.m)]
        for zl, b in zip(map(rat, z), self.basis):
            if zl:
                for acc, row in zip(grid, b.entries):
                    for j, v in enumerate(row):
                        if v:
                            acc[j] += zl * v
        return RationalMatrix(grid)

    def basis_float(self):
        """d x (m*n) float array of the flattened basis matrices."""
        return np.array(
            [[float(b[i, j]) for i in range(self.m) for j in range(self.n)] for b in self.basis]
        )

    def restricted(self, vectors):
        """Subspace spanned by P(v) for the given independent vectors in R^d."""
        return Subspace([self.evaluate(v) for v in vectors])

    def to_json(self):
        return {
            "m": self.m,
            "n": self.n,
            "d": self.d,
            "basis": [[[rat_to_str(b[i, j]) for j in range(self.n)] for i in range(self.m)] for b in self.basis],
        }

    @staticmethod
    def from_json(obj):
        try:
            basis = [
                RationalMatrix([[rat_from_str(x) for x in row] for row in bm])
                for bm in obj["basis"]
            ]
            stated = {key: int(obj[key]) for key in ("m", "n", "d") if key in obj}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("bad subspace JSON: %s" % exc) from exc
        K = Subspace(basis)
        for key, value in stated.items():
            if value != getattr(K, key):
                raise ValueError("subspace JSON field %r inconsistent with basis" % key)
        return K


# ---------------------------------------------------------------------------
# pencil entries and minor forms
# ---------------------------------------------------------------------------

def parametrize(K: Subspace):
    """The pencil as an m x n grid of degree-1 polynomials in z_1..z_d."""
    return [
        [MultiPoly.linear(K.entry_vector(i, j)) for j in range(K.n)]
        for i in range(K.m)
    ]


def _poly_det(grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    nvars = grid[0][0].nvars
    acc = MultiPoly.zero(nvars)
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = grid[0][j] * _poly_det(sub)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def minor_polys(K: Subspace, order=2):
    """Minor polynomials M_k(P(z)) in the fixed enumeration order.

    No command calls this: it is the reference that the tests check
    ``MinorForms`` against, and the benchmark's tracer names it."""
    pencil = parametrize(K)
    out = []
    for rows, cols in enumerate_minors(K.m, K.n, order):
        out.append(_poly_det([[pencil[i][j] for j in cols] for i in rows]))
    return out


def _add_sym_outer(acc, u, v, sign):
    """acc += sign * (u v^T + v u^T) on the upper triangle; u, v sparse."""
    for l, x in u:
        for t, y in v:
            key = (l, t) if l <= t else (t, l)
            acc[key] = acc.get(key, 0) + (2 * sign * x * y if l == t else sign * x * y)


class MinorForms:
    """The quadratic forms of the order-2 minors of a pencil, exactly.

    Let L be the lcm of the denominators of the basis entries, so that the
    entry vectors A_ij = L a_ij are integer vectors.  The k-th minor in
    ``enumerate_minors(m, n, 2)`` order, rows r1 < r2 and columns c1 < c2,
    is M_k(P(z)) = z^T Q_k z with

        Q_k = S_k / (2 L^2),
        S_k = A11 A22^T + A22 A11^T - A12 A21^T - A21 A12^T,

    where A11 = A_{r1 c1}, A22 = A_{r2 c2}, A12 = A_{r1 c2}, A21 = A_{r2 c1}.
    ``S[k]`` holds the non-zero upper-triangle entries of the integer matrix
    S_k as ``{(i, j): s}`` with i <= j; the products run over the non-zero
    coordinates of the entry vectors only.  A combination is its beta:
    ``combination`` gives the form of sum_k beta_k M_k, and ``solve`` pulls
    an exact symmetric target matrix back to a beta.
    """

    __slots__ = ("d", "L", "S")

    def __init__(self, K: Subspace):
        L = 1
        for b in K.basis:
            for row in b.entries:
                for x in row:
                    L = math.lcm(L, x.denominator)
        grid = [
            [
                [(l, b.entries[i][j].numerator * (L // b.entries[i][j].denominator))
                 for l, b in enumerate(K.basis) if b.entries[i][j] != 0]
                for j in range(K.n)
            ]
            for i in range(K.m)
        ]
        S = []
        for (r1, r2), (c1, c2) in enumerate_minors(K.m, K.n, 2):
            acc = {}
            _add_sym_outer(acc, grid[r1][c1], grid[r2][c2], 1)
            _add_sym_outer(acc, grid[r1][c2], grid[r2][c1], -1)
            S.append({key: s for key, s in acc.items() if s != 0})
        self.d = K.d
        self.L = L
        self.S = tuple(S)

    def combination(self, beta) -> QuadraticForm:
        """The form of sum_k beta_k M_k, summed over beta's support only.

        beta is scaled to integers by the lcm D of its denominators, the
        integer matrices are summed, and the sum is divided once by 2 L^2 D.
        """
        if len(beta) != len(self.S):
            raise ValueError("beta length %d != %d minors" % (len(beta), len(self.S)))
        support = [(k, b) for k, b in enumerate(map(rat, beta)) if b != 0]
        D = 1
        for _, b in support:
            D = math.lcm(D, b.denominator)
        acc = {}
        for k, b in support:
            c = b.numerator * (D // b.denominator)
            for key, s in self.S[k].items():
                acc[key] = acc.get(key, 0) + c * s
        den = 2 * self.L * self.L * D
        m = [[Fraction(0)] * self.d for _ in range(self.d)]
        for (i, j), s in acc.items():
            if s != 0:
                m[i][j] = m[j][i] = Fraction(s, den)
        return QuadraticForm(RationalMatrix(m))

    def span_dim(self):
        """Dimension of the span of the Q_k, by exact rank."""
        live = [upper for upper in self.S if upper]
        if not live:
            return 0
        positions = sorted({key for upper in live for key in upper})
        return RationalMatrix([[upper.get(key, 0) for key in positions] for upper in live]).rank()

    def solve(self, target: RationalMatrix):
        """One exact beta with sum_k beta_k Q_k == target, or None.

        The system has one equation per upper-triangle position where some
        Q_k or the target is non-zero; beta is the rref basic solution,
        whose free coefficients are zero.  A zero Q_k is never a pivot
        column, so it is left out of the elimination; with no non-zero Q_k
        there is no solution to report.
        """
        live = [k for k, upper in enumerate(self.S) if upper]
        if not live:
            return None
        den = 2 * self.L * self.L
        d = self.d
        positions = {key for k in live for key in self.S[k]}
        positions |= {(i, j) for i in range(d) for j in range(i, d) if target[i, j] != 0}
        positions = sorted(positions)
        A = RationalMatrix([[self.S[k].get(key, 0) for k in live] for key in positions])
        x = A.solve([target[i, j] * den for i, j in positions])
        if x is None:
            return None
        beta = [Fraction(0)] * len(self.S)
        for k, b in zip(live, x):
            beta[k] = b
        return tuple(beta)


# ---------------------------------------------------------------------------
# rank-one detection
# ---------------------------------------------------------------------------

class RankOneResult:
    """Outcome of the numeric rank-one sweep.

    ``found``          a direction with residual below ``_FOUND_TOL``.
    ``witness``        exact rational direction (rank P(witness) == 1)
                       polished from the float one, or None.
    ``witness_float``  floating approximation of the best direction.
    ``residual``       scale-free residual at that direction.
    ``mode``           "numeric", or "numeric-inconclusive" when nothing
                       was found but the smallest residual is at most
                       ``_ABSENT_TOL``.
    ``minors``         number of order-2 minors searched: those whose exact
                       form ``Subspace.minor_forms().S[k]`` is not zero.
    ``gauss_newton_steps`` Gauss-Newton iterations summed over the refined
                       candidates.
    """

    __slots__ = ("found", "witness", "witness_float", "residual", "mode", "minors",
                 "gauss_newton_steps")

    def __init__(self, found, witness, witness_float, residual, mode, minors,
                 gauss_newton_steps):
        self.found = found
        self.witness = witness
        self.witness_float = witness_float
        self.residual = residual
        self.mode = mode
        self.minors = minors
        self.gauss_newton_steps = gauss_newton_steps

    def __repr__(self):
        return "RankOneResult(found=%r, witness=%r, residual=%r, mode=%r)" % (
            self.found, self.witness, self.residual, self.mode)


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


# -- numeric search ---------------------------------------------------------

# sphere samples with the smallest residuals that Gauss-Newton refines
_REFINE_CANDIDATES = 12
# residual below which a direction counts as found, and above which a miss
# is reported as mode "numeric" rather than "numeric-inconclusive"
_FOUND_TOL = 1e-9
_ABSENT_TOL = 1e-6
# Gauss-Newton steps per refined candidate, at most
_GAUSS_NEWTON_ITERS = 60


def _minor_index_arrays(m, n):
    pairs = enumerate_minors(m, n, 2)
    a1 = np.array([r[0] * n + c[0] for r, c in pairs])
    a2 = np.array([r[1] * n + c[1] for r, c in pairs])
    b1 = np.array([r[0] * n + c[1] for r, c in pairs])
    b2 = np.array([r[1] * n + c[0] for r, c in pairs])
    return a1, a2, b1, b2


def _live_minor_index_arrays(K: Subspace):
    """``_minor_index_arrays`` of K's shape at the minors whose exact form
    ``K.minor_forms().S[k]`` is not zero; the others vanish on all of K."""
    live = [k for k, upper in enumerate(K.minor_forms().S) if upper]
    return tuple(a[live] for a in _minor_index_arrays(K.m, K.n))


def _residuals(Z, B, idx):
    """Scale-free residual sqrt(sum minors^2) / ||P(z)||_F^2 per sample row."""
    a1, a2, b1, b2 = idx
    E = Z @ B
    s = (E * E).sum(axis=1)
    M = E[:, a1] * E[:, a2] - E[:, b1] * E[:, b2]
    return np.sqrt((M * M).sum(axis=1)) / s


def _sphere_samples(d, density, seed):
    if d == 1:
        return np.array([[1.0]])
    if d == 2:
        theta = np.pi * (np.arange(density) + 0.5) / density
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if d == 3:
        i = np.arange(density)
        z = 1.0 - 2.0 * (i + 0.5) / density
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((density, d))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def _gauss_newton(z, B, idx):
    """Refine z towards a zero of the minors in idx, for at most
    ``_GAUSS_NEWTON_ITERS`` steps; returns the best direction, its residual
    and the number of iterations run."""
    a1, a2, b1, b2 = idx
    Bt = B.T  # (mn) x d
    best = z / np.linalg.norm(z)
    best_res = None
    cur = best
    stale = 0
    steps = 0
    for steps in range(1, _GAUSS_NEWTON_ITERS + 1):
        e = cur @ B
        s = float(e @ e)
        mvals = e[a1] * e[a2] - e[b1] * e[b2]
        res_vec = mvals / s
        res = float(np.linalg.norm(res_vec))
        if best_res is None or res < best_res * (1.0 - 1e-3):
            best_res, best = res, cur
            stale = 0
        else:
            if res < best_res:
                best_res, best = res, cur
            stale += 1
            if stale >= 4:  # stagnated far from a zero; stop early
                break
        if res < 1e-17:
            break
        G = (
            Bt[a1] * e[a2][:, None]
            + Bt[a2] * e[a1][:, None]
            - Bt[b1] * e[b2][:, None]
            - Bt[b2] * e[b1][:, None]
        )  # q0 x d, gradients of the minors
        grad_s = 2.0 * (B @ e)
        J = (G * s - mvals[:, None] * grad_s[None, :]) / (s * s)
        step, *_ = np.linalg.lstsq(J, -res_vec, rcond=None)
        nz = cur + step
        nrm = np.linalg.norm(nz)
        if nrm == 0 or not np.all(np.isfinite(nz)):
            break
        cur = nz / nrm
    return best, best_res, steps


def _polish_witness(K: Subspace, z):
    """Try to turn a float direction into an exact rational rank-one witness."""
    z = np.asarray(z, dtype=float)
    scale = np.max(np.abs(z))
    if scale == 0:
        return None
    z = z / scale
    for digits in (100, 10**4, 10**8, 10**12):
        cand = tuple(Fraction(float(x)).limit_denominator(digits) for x in z)
        if all(x == 0 for x in cand):
            continue
        M = K.evaluate(cand)
        if not M.is_zero() and M.rank() == 1:
            return cand
    return None


def find_rank_one(K: Subspace, density=20000, seed=0) -> RankOneResult:
    """Search for z != 0 with rank P(z) <= 1 by a numeric sweep.

    ``density`` points of the unit sphere of R^d (a seeded random draw
    when d >= 4) are scored by the residual of the live order-2 minors,
    the best are refined by Gauss-Newton, and a found direction is
    polished to an exact rational witness where rounding gives one.  A
    negative answer is only a numeric statement, never a proof.
    """
    B = K.basis_float()
    idx = _live_minor_index_arrays(K)
    density = int(density)
    best_overall = None
    best_z = None
    # sized by all C(m,2) C(n,2) minors, not the live ones: each block sends
    # its 6 best samples on, so the block count fixes which candidates
    # reach the Gauss-Newton refinement
    block = max(1, int(4_000_000 // max(1, len(K.minor_forms().S))))
    samples = _sphere_samples(K.d, density, seed)
    top = []
    for start in range(0, len(samples), block):
        Z = samples[start : start + block]
        res = _residuals(Z, B, idx)
        k = min(len(res), _REFINE_CANDIDATES // 2)
        order = np.argpartition(res, k - 1)[:k]
        for i in order:
            top.append((float(res[i]), Z[i]))
        i_min = int(np.argmin(res))
        if best_overall is None or res[i_min] < best_overall:
            best_overall = float(res[i_min])
            best_z = Z[i_min]
    top.sort(key=lambda t: t[0])
    gn_steps = 0
    for _, z0 in top[:_REFINE_CANDIDATES]:
        z, res, steps = _gauss_newton(z0, B, idx)
        gn_steps += steps
        if res is not None and res < best_overall:
            best_overall, best_z = res, z
    witness_float = None if best_z is None else np.asarray(best_z)
    if best_overall is not None and best_overall < _FOUND_TOL:
        return RankOneResult(True, _polish_witness(K, best_z), witness_float, best_overall,
                             "numeric", len(idx[0]), gn_steps)
    certified = best_overall is not None and best_overall > _ABSENT_TOL
    return RankOneResult(False, None, witness_float, best_overall,
                         "numeric" if certified else "numeric-inconclusive", len(idx[0]), gn_steps)

"""Linear subspaces of matrix space, presented as pencils.

A d-dimensional subspace K of m x n matrices is stored through a basis
B_1..B_d; the associated pencil P(z) = sum_l z_l B_l has entry (i,j) equal
to a_ij . z for coefficient vectors a_ij in Q^d.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .algebra import (
    MultiPoly,
    QuadraticForm,
    RationalMatrix,
    _integer_row,
    bad_json,
    enumerate_minors,
    independent_indices,
    minor_count,
    rat,
    rat_from_str,
    rat_to_str,
    solve_rows,
)


class Subspace:
    """Basis presentation of a subspace of m x n matrices, cleared of
    denominators once: ``L`` is the lcm of those of the basis entries, and
    ``int_grid[i][j]`` the pairs (l, L B_l[i][j]) of the non-zero entries,
    which ``evaluate``, ``combination``, ``MinorForms`` and
    ``subspace_value_fn`` read."""

    __slots__ = ("m", "n", "d", "basis", "L", "int_grid", "_minor_forms")

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
        flat = [[x for row in b.entries for x in row] for b in basis]
        if len(independent_indices(flat)) != d:
            dep = RationalMatrix.from_columns(flat).nullspace()[0] if d > 1 else (Fraction(1),)
            # surface one explicit vanishing combination of the basis
            combo = " + ".join(
                "(%s)*B%d" % (rat_to_str(c), l + 1) for l, c in enumerate(dep) if c != 0
            )
            raise ValueError("basis matrices are linearly dependent: %s = 0" % combo)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "basis", basis)
        L = math.lcm(*(x.denominator for b in basis for row in b.entries for x in row))
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "int_grid", tuple(  # rows: row i of every B_l
            tuple(tuple((l, x.numerator * (L // x.denominator)) for l, x in enumerate(a) if x)
                  for a in zip(*rows)) for rows in zip(*(b.entries for b in basis))))
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

    def combination(self, beta) -> QuadraticForm:
        """The form of sum_k beta_k M_k, for beta a dict {key: coefficient}.

        Each key, inside the pencil's shape, has its ``minor_form`` built
        from ``int_grid``; no table of the pencil's forms is read.  beta is
        scaled to integers by the lcm D of its denominators, the integer
        matrices are summed, and the sum is divided once by 2 L^2 D.
        """
        D = math.lcm(*(b.denominator for b in beta.values()))
        acc = {}
        for key, b in beta.items():
            c = b.numerator * (D // b.denominator)
            for pos, s in minor_form(self.int_grid, key).items():
                acc[pos] = acc.get(pos, 0) + c * s
        den = 2 * self.L * self.L * D
        m = [[Fraction(0)] * self.d for _ in range(self.d)]
        for (i, j), s in acc.items():
            if s != 0:
                m[i][j] = m[j][i] = Fraction(s, den)
        return QuadraticForm(RationalMatrix(m))

    def evaluate(self, z):
        """P(z) = sum_l z_l B_l, exactly: with (L_z, q) the point cleared of
        denominators, entry (i, j) is (sum_l q_l A_ij[l]) / (L L_z)."""
        if len(z) != self.d:
            raise ValueError("point dimension mismatch")
        Lz, q = _integer_row([rat(x) for x in z])
        den = self.L * Lz
        return RationalMatrix([[Fraction(sum(q[l] * a for l, a in entry), den) for entry in row]
                               for row in self.int_grid])

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
            raise bad_json("subspace", exc) from exc
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


def minor_form(grid, key):
    """The form S of the minor keyed ((r1, r2), (c1, c2)) of a grid of
    sparse entry vectors, ``Subspace.int_grid`` or one like it, as the dict
    ``{(i, j): s}`` of the non-zero entries of its upper triangle, i <= j:

        S = A11 A22^T + A22 A11^T - A12 A21^T - A21 A12^T,

    A11 = grid[r1][c1], A22 = grid[r2][c2], A12 = grid[r1][c2] and
    A21 = grid[r2][c1].  A minor that vanishes has the empty form.
    """
    (r1, r2), (c1, c2) = key
    acc = {}
    _add_sym_outer(acc, grid[r1][c1], grid[r2][c2], 1)
    _add_sym_outer(acc, grid[r1][c2], grid[r2][c1], -1)
    return {pos: s for pos, s in acc.items() if s != 0}


class MinorForms:
    """The table of the quadratic forms of the order-2 minors of a pencil,
    exactly, which ``solve`` and the rank-one sweep read.

    With L and the integer entry vectors A_ij = L a_ij of ``Subspace``
    (``K.L`` and ``K.int_grid``), the minor keyed ((r1, r2), (c1, c2)) is
    M(P(z)) = z^T Q z with Q = S / (2 L^2) and S its ``minor_form``.
    ``S`` maps the key of each minor with S != 0, in ``enumerate_minors``
    order, to its form; a minor with no key vanishes on K.  Only the keys
    whose two rows have non-zero entries in two different columns are
    built.  A
    combination is its beta, a dict {key: coefficient}: ``solve`` pulls an
    exact symmetric target matrix back to a beta, and
    ``Subspace.combination`` builds a beta's form from the pencil's
    entries, at the cost of its keys, with no table.
    """

    __slots__ = ("d", "L", "S")

    def __init__(self, K: Subspace):
        grid = K.int_grid
        support = [[j for j, a in enumerate(row) if a] for row in grid]
        S = {}
        for rows in itertools.combinations(range(K.m), 2):
            live = {(c1, c2) if c1 < c2 else (c2, c1)
                    for c1 in support[rows[0]] for c2 in support[rows[1]] if c1 != c2}
            for cols in sorted(live):
                upper = minor_form(grid, (rows, cols))
                if upper:
                    S[rows, cols] = upper
        self.d = K.d
        self.L = K.L
        self.S = S

    def span_dim(self):
        """Dimension of the span of the forms, by exact rank."""
        positions = sorted({key for upper in self.S.values() for key in upper})
        return len(independent_indices([[upper.get(key, 0) for key in positions]
                                        for upper in self.S.values()]))

    def solve(self, target: RationalMatrix):
        """One exact beta with sum_k beta_k Q_k == target, or None.

        The system has one equation per upper-triangle position where some
        S_k or the target is non-zero, in integers: sum_k y_k S_k = 2 L^2 T
        target, T the lcm of the target's denominators.  beta = y / T is
        the rref basic solution (free coefficients zero) of
        ``algebra.solve_rows``, returned as the dict of its non-zero
        coefficients.  With no form there is no solution to report.
        """
        if not self.S:
            return None
        d = self.d
        forms = self.S.values()
        positions = {key for upper in forms for key in upper}
        positions |= {(i, j) for i in range(d) for j in range(i, d) if target[i, j] != 0}
        positions = sorted(positions)
        T = math.lcm(*(target[key].denominator for key in positions))
        den = 2 * self.L * self.L * T
        x = solve_rows([[upper.get(key, 0) for upper in forms]
                        + [target[key].numerator * (den // target[key].denominator)]
                        for key in positions], T)
        if x is None:
            return None
        return {key: b for key, b in zip(self.S, x) if b != 0}


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
    ``minors``         number of order-2 minors searched: the live ones,
                       the keys of ``Subspace.minor_forms().S``.
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
# float entries of w(z) scored at once (8 MB), whatever the sample block
_SCORE_ENTRIES = 1 << 20
# scores closer than this may rank in another order than the residuals
# (their rounding differs by about 1e-15 on residuals of at most 1)
_SCORE_TIE = 1e-12


def _minor_index_arrays(n, minors):
    """Flat indices, row-major in an m x n matrix, of the corners 11, 22,
    12 and 21 of each listed order-2 minor ((r1, r2), (c1, c2))."""
    return tuple(np.array([r[i] * n + c[j] for r, c in minors], dtype=np.intp)
                 for i, j in ((0, 0), (1, 1), (0, 1), (1, 0)))


def _residuals(Z, B, idx):
    """Scale-free residual sqrt(sum minors^2) / ||P(z)||_F^2 per sample row."""
    a1, a2, b1, b2 = idx
    E = Z @ B
    s = (E * E).sum(axis=1)
    M = E[:, a1] * E[:, a2] - E[:, b1] * E[:, b2]
    return np.sqrt((M * M).sum(axis=1)) / s


def _score_factor(K: Subspace, B):
    """(R, G) with sqrt(sum_k M_k(P(z))^2) = ||R w(z)|| and ||P(z)||_F^2 = z^T G z.

    w(z) = (z_i z_j), i <= j in ``np.triu_indices`` order, has D = d(d+1)/2
    entries.  Each live exact form of ``K.minor_forms().S`` is one row of F,
    its coefficient of z_i z_j: s_ii / (2 L^2) on the diagonal and
    2 s_ij / (2 L^2) off it, so M_k(P(z)) = (F w(z))_k and the sum of the
    squared minors is ||F w||^2 = ||R w||^2 for R the triangular factor of F
    (at most D x D).  G = B B^T is the Gram matrix of the float basis B.
    """
    d = K.d
    col = {key: c for c, key in enumerate((i, j) for i in range(d) for j in range(i, d))}
    forms = K.minor_forms().S
    F = np.zeros((len(forms), len(col)))
    den = 2 * K.L * K.L
    for row, upper in zip(F, forms.values()):
        for (i, j), s in upper.items():
            row[col[i, j]] = (s if i == j else 2 * s) / den
    return np.linalg.qr(F, mode="r"), B @ B.T


def _scores(Z, R, G):
    """Scale-free residual ||R w(z)|| / z^T G z per sample row: in exact
    arithmetic sqrt(sum_k M_k^2) / ||P(z)||_F^2 over the live minors, at
    O(D^2) per row whatever the shape m x n and the number of minors.  The
    rows go in chunks of at most ``_SCORE_ENTRIES`` entries of w."""
    iu, ju = np.triu_indices(Z.shape[1])
    out = np.empty(len(Z))
    rows = max(1, _SCORE_ENTRIES // len(iu))
    for start in range(0, len(Z), rows):
        z = Z[start : start + rows]
        RW = (z[:, iu] * z[:, ju]) @ R.T
        out[start : start + rows] = np.sqrt(np.einsum("ij,ij->i", RW, RW)) / np.einsum("ij,ij->i", z @ G, z)
    return out


def _block_residuals(Z, B, idx, R, G, k):
    """(rows, res): ``_residuals`` of the rows of the block Z that can be
    among its k least, ranked by ``_scores``.

    When the k + 1 least scores lie more than ``_SCORE_TIE`` apart, the
    residuals rank them alike, so only the k least are evaluated minor by
    minor.  Otherwise every row is, and the k least are then the ones a
    block scored minor by minor picks, exact ties (a pencil with no live
    minor, or one whose residual is constant on the sphere) included.  A
    block of at most k rows sends every row on, unscored.
    """
    if len(Z) > k:
        score = _scores(Z, R, G)
        lead = np.argpartition(score, k)[: k + 1]
        lead = lead[np.argsort(score[lead])]
        if np.all(np.diff(score[lead]) > _SCORE_TIE):
            return lead[:k], _residuals(Z[lead[:k]], B, idx)
    return np.arange(len(Z)), _residuals(Z, B, idx)


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
    when d >= 4) are scored in blocks, each block sends its 6 least scores
    on, the 12 least of those are refined by Gauss-Newton, and a found
    direction is polished to an exact rational witness where rounding gives
    one.  A negative answer is only a numeric statement, never a proof.

    The score is ``_scores``, the residual of the live order-2 minors read
    off the factor of their exact forms, so a sample costs O(D^2),
    D = d(d+1)/2, whatever m x n and the number of minors.  Only the samples
    a block may send on are then evaluated minor by minor
    (``_block_residuals``), and that residual ranks and is reported, so the
    result is the one of a sweep that evaluated every sample so.  The
    block size still counts all C(m,2) C(n,2) minors (``minor_count``), live
    or not: the block count fixes which samples go on.  Gauss-Newton stays
    on the live minors' index arrays: it steps on the gradients of the
    single minors, which the factor sums away.
    """
    B = K.basis_float()
    idx = _minor_index_arrays(K.n, K.minor_forms().S)
    R, G = _score_factor(K, B)
    block = max(1, 4_000_000 // minor_count(K.m, K.n, 2))
    samples = _sphere_samples(K.d, int(density), seed)
    top = []
    best_overall = best_z = None
    for start in range(0, len(samples), block):
        Z = samples[start : start + block]
        k = min(len(Z), _REFINE_CANDIDATES // 2)
        rows, res = _block_residuals(Z, B, idx, R, G, k)
        for i in np.argpartition(res, k - 1)[:k]:
            top.append((float(res[i]), Z[rows[i]]))
        i_min = int(np.argmin(res))
        if best_overall is None or res[i_min] < best_overall:
            best_overall = float(res[i_min])
            best_z = Z[rows[i_min]]
    top.sort(key=lambda t: t[0])
    gn_steps = 0
    for _, z0 in top[:_REFINE_CANDIDATES]:
        z, res, steps = _gauss_newton(z0, B, idx)
        gn_steps += steps
        if res < best_overall:
            best_overall, best_z = res, z
    witness_float = None if best_z is None else np.asarray(best_z)
    if best_overall is not None and best_overall < _FOUND_TOL:
        return RankOneResult(True, _polish_witness(K, best_z), witness_float, best_overall,
                             "numeric", len(idx[0]), gn_steps)
    certified = best_overall is not None and best_overall > _ABSENT_TOL
    return RankOneResult(False, None, witness_float, best_overall,
                         "numeric" if certified else "numeric-inconclusive", len(idx[0]), gn_steps)

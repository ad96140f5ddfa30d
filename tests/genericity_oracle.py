"""Reference oracle for the Grassmannian genericity probe, one chart at a time.

``genericity_reference`` builds one chart's forms the way the library did
before its kernel took blocks of charts: the chart's W0/W1 rows as lists,
one q0 x k x k tensor of forms, Pi gathered from its upper triangle, and one
numpy call per quantity.  ``scan_samples_reference`` draws the scan's charts
one by one, each from its own ``default_rng(seed + i)``, and turns each
report into the sample entry of a ``grassmann-scan`` report.  The stacked
kernel, ``certify.grassmann_genericity``, reads subspace bases; a test
hands it a block of charts through ``chart_bases`` and checks it against
both bit for bit.  ``exact_span_dim`` is the exact span dimension of a
rational chart's minor forms, the reference the float span dimension is
checked against.
"""

import numpy as np

from nullag.algebra import enumerate_minors, rat
from nullag.certify import LAMBDA_TOL, GenericityReport
from nullag.subspace import Subspace, _minor_index_arrays


def _chart_is_rational(rows, A):
    try:
        for row in list(rows) + list(A):
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


def chart_bases(k, charts, A):
    """The kernel block of the subspaces of a block of charts, each given by
    its mn rows (W0 over W1) and its A: W0 + A^T W1 per chart, as the
    scan's draw computes it."""
    rows = np.asarray(charts, dtype=float)
    return rows[:, :k] + np.asarray(A, dtype=float).transpose(0, 2, 1) @ rows[:, k:]


def exact_span_dim(k, m, n, chart, A):
    """``Subspace.span_dim`` of a chart's subspace, given its mn rows (W0
    over W1) and A as in ``chart_bases``; None when an entry is not
    rational."""
    if not _chart_is_rational(chart, A):
        return None
    return _chart_subspace(m, n, chart[:k], chart[k:], A).span_dim()


def genericity_reference(k, m, n, chart, A) -> GenericityReport:
    """The genericity report of one chart (W0 basis, W1 basis) and A."""
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
    h11, h22, h12, h21 = (H[idx] for idx in _minor_index_arrays(n, enumerate_minors(m, n, 2)))
    outer = lambda u, v: u[:, :, None] * v[:, None, :]
    X_all = 0.5 * (((outer(h11, h22) + outer(h22, h11)) - outer(h12, h21)) - outer(h21, h12))
    upper = np.triu_indices(k)
    Pi = np.ascontiguousarray(X_all[:, upper[0], upper[1]].T)
    lam = float(np.linalg.det(Pi @ Pi.T))
    span_dim = int(np.linalg.matrix_rank(Pi, tol=1e-10 * max(1.0, float(np.abs(Pi).max()))))
    beta = min_eig = None
    if abs(lam) > LAMBDA_TOL and span_dim == len(Pi):
        beta, *_ = np.linalg.lstsq(Pi, np.eye(k)[upper], rcond=None)
        min_eig = float(np.linalg.eigvalsh(np.tensordot(beta, X_all, axes=1)).min())
    return GenericityReport(lam, span_dim, beta, min_eig)


def scan_samples_reference(k, m, n, samples, seed, det_floor=1e-8):
    """The ``samples`` entries of ``grassmann-scan k m n``, chart by chart."""
    out = []
    for s in range(seed, seed + samples):
        rng = np.random.default_rng(s)
        p = m * n
        basis = rng.standard_normal((p, p))
        while abs(np.linalg.det(basis)) < det_floor:
            basis = rng.standard_normal((p, p))
        W0 = [list(v) for v in basis[:k]]
        W1 = [list(v) for v in basis[k:]]
        A = rng.standard_normal((p - k, k))
        rep = genericity_reference(k, m, n, (W0, W1), A)
        out.append({
            "seed": s,
            "lambda": rep.lambda_value,
            "span_dim": rep.span_dim,
            "pd_found": bool(rep.beta is not None and rep.min_eigenvalue is not None
                             and rep.min_eigenvalue > 0),
            "min_eigenvalue": rep.min_eigenvalue,
        })
    return out

"""Reference oracles for the float K1 path, one scalar call at a time.

``null_lagrangian_reference`` is the float commutation check as the library
made it before its check was stacked: one ``np.ix_`` gather and one
``np.linalg.det`` per minor and per atom, the residual summed in atom order
from 0.  ``negative_branch_evidence_reference`` evaluates the flux at one
Python float at a time.  ``five_atom_constants_reference`` fills A and the
quadratic coefficient matrices entry by entry from ``minors_3x2`` of single
atoms.  ``measures.is_null_lagrangian``, ``conslaw.negative_branch_evidence``
and ``conslaw.build_atoms`` are checked against them.
"""

import math

import numpy as np

from nullag.algebra import enumerate_minors
from nullag.measures import NLReport


def null_lagrangian_reference(mu, orders="all", tol=1e-9) -> NLReport:
    """The float ``is_null_lagrangian`` report of ``mu``, minor by minor."""
    m, n = mu.shape
    bary = mu.barycenter()
    residuals = {}
    for rows, cols in enumerate_minors(m, n, orders):
        val = sum(
            w * float(np.linalg.det(a[np.ix_(rows, cols)])) for w, a in zip(mu.weights, mu.atoms)
        ) - float(np.linalg.det(bary[np.ix_(rows, cols)]))
        residuals[(rows, cols)] = val
    verdict = all(abs(v) <= tol for v in residuals.values())
    return NLReport(verdict, residuals, len(residuals), 0, False)


def negative_branch_evidence_reference(flux, alpha, delta=0.1, samples=10000, seed=0):
    """``negative_branch_evidence`` with the flux called at Python floats."""
    a1, a2 = float(alpha[0]), float(alpha[1])
    if flux.a_prime(a2) >= 0:
        raise ValueError("negative branch needs a' < 0 at the base state")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-delta, delta, size=(samples, 4))
    u1, v1 = a1 + pts[:, 0], a2 + pts[:, 1]
    u2, v2 = a1 + pts[:, 2], a2 + pts[:, 3]
    av = np.array([flux.a(x) for x in v2.tolist()]) - np.array([flux.a(x) for x in v1.tolist()])
    vals = (u2 - u1) ** 2 - (v2 - v1) * av
    return {
        "min": float(vals.min()),
        "max": float(vals.max()),
        "sign_constant": bool(vals.min() >= 0.0),
        "samples": int(samples),
        "delta": float(delta),
        "note": "sampled evidence only; the triviality conclusion is not proved here",
    }


def _minors_3x2(M):
    minor = lambda i, j: M[i, 0] * M[j, 1] - M[i, 1] * M[j, 0]
    return np.array([minor(0, 1), minor(1, 2), minor(0, 2)])


def five_atom_constants_reference(atoms):
    """(A, quad_mats, C1, C2, theta, eps0) of the five atoms, entry by entry."""
    A = np.zeros((4, 4))
    for j, z in enumerate(atoms[1:]):
        A[:3, j] = _minors_3x2(z)
        A[3, j] = 1.0
    A_inv = np.linalg.inv(A)
    lam, Lam = float(A_inv[:, 3].min()), float(A_inv[:, 3].max())
    quad_mats = []
    for i_minor in range(3):
        S = np.zeros((4, 4))
        for j in range(4):
            for l in range(4):
                plus = _minors_3x2(atoms[1 + j] + atoms[1 + l])[i_minor]
                S[j, l] = 0.5 * (
                    plus
                    - _minors_3x2(atoms[1 + j])[i_minor]
                    - _minors_3x2(atoms[1 + l])[i_minor]
                )
        quad_mats.append(0.5 * (S + S.T))
    C1 = 2.0 * math.sqrt(sum(float(np.abs(S).sum(axis=1).max()) ** 2 for S in quad_mats))
    C2 = float(np.linalg.norm(A_inv, 2)) * (1.0 + 1e-9) * C1
    theta = math.nextafter(lam / (4.0 * Lam + 2.0 * lam), 0.0)
    eps0 = theta / (2.0 * C2 * Lam)
    return A, quad_mats, C1, C2, theta, eps0

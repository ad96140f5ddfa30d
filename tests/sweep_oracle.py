"""Reference for the numeric rank-one sweep, scored minor by minor.

``residuals_reference`` is the sweep's score as the library computed it
before the score was factored: every live order-2 minor of every sample,
gathered from the m*n-wide float row z B through the flat index arrays, and
sqrt(sum_k M_k^2) / ||P(z)||_F^2 per row.  ``find_rank_one_reference`` is
``subspace.find_rank_one`` with that score in each sample block; the draw,
the block rule, the six best per block, the Gauss-Newton refinement and the
polishing are the library's own.  ``find_rank_one`` and its factored score
are checked against them.
"""

import numpy as np

from nullag.subspace import (
    _FOUND_TOL,
    _ABSENT_TOL,
    _REFINE_CANDIDATES,
    RankOneResult,
    Subspace,
    _gauss_newton,
    _live_minor_index_arrays,
    _polish_witness,
    _sphere_samples,
)


def residuals_reference(Z, B, idx):
    """Scale-free residual sqrt(sum minors^2) / ||P(z)||_F^2 per sample row."""
    a1, a2, b1, b2 = idx
    E = Z @ B
    s = (E * E).sum(axis=1)
    M = E[:, a1] * E[:, a2] - E[:, b1] * E[:, b2]
    return np.sqrt((M * M).sum(axis=1)) / s


def find_rank_one_reference(K: Subspace, density=20000, seed=0) -> RankOneResult:
    """``find_rank_one`` with every sample scored by ``residuals_reference``."""
    B = K.basis_float()
    idx = _live_minor_index_arrays(K)
    density = int(density)
    best_overall = None
    best_z = None
    block = max(1, int(4_000_000 // max(1, len(K.minor_forms().S))))
    samples = _sphere_samples(K.d, density, seed)
    top = []
    for start in range(0, len(samples), block):
        Z = samples[start : start + block]
        res = residuals_reference(Z, B, idx)
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

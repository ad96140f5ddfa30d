"""Elementary pencil operations: the transport harness of the tests.

Elementary row and column operations with constant coefficients act on
every basis matrix of a pencil at once.  They produce an equivalent
subspace that keeps the pointwise rank profile and the span of the 2x2
minor polynomials; the transport tests check that certificates, rank-one
answers and minor spans do not move under a random stream of them.
"""

import random
from fractions import Fraction

from nullag.algebra import RationalMatrix, rat
from nullag.subspace import Subspace

_OP_KINDS = ("row-swap", "row-scale", "row-add", "col-swap", "col-scale", "col-add")


class PencilOp:
    """One elementary row or column operation on a pencil.

    swap:  interchange lines i and j
    scale: line i multiplied by c (c != 0)
    add:   line i incremented by c times line j
    """

    __slots__ = ("kind", "i", "j", "c")

    def __init__(self, kind, i, j=None, c=None):
        if kind not in _OP_KINDS:
            raise ValueError("unknown op kind %r" % kind)
        if kind.endswith("scale"):
            if c is None or rat(c) == 0:
                raise ValueError("scale factor must be non-zero")
            j = None
        elif kind.endswith("swap"):
            if j is None:
                raise ValueError("swap needs two indices")
            c = None
        else:
            if j is None or c is None:
                raise ValueError("add needs a second index and a factor")
        self.kind = kind
        self.i = int(i)
        self.j = None if j is None else int(j)
        self.c = None if c is None else rat(c)

    def __repr__(self):
        return "PencilOp(%r, i=%d, j=%r, c=%r)" % (self.kind, self.i, self.j, self.c)


def _apply_op_to_matrix(M: RationalMatrix, op: PencilOp) -> RationalMatrix:
    rows = [list(r) for r in M.entries]
    if op.kind.startswith("col"):
        rows = [list(r) for r in zip(*rows)]
    if op.kind.endswith("swap"):
        rows[op.i], rows[op.j] = rows[op.j], rows[op.i]
    elif op.kind.endswith("scale"):
        rows[op.i] = [op.c * x for x in rows[op.i]]
    else:
        rows[op.i] = [a + op.c * b for a, b in zip(rows[op.i], rows[op.j])]
    if op.kind.startswith("col"):
        rows = [list(r) for r in zip(*rows)]
    return RationalMatrix(rows)


def apply_ops(K: Subspace, ops) -> Subspace:
    """Equivalent subspace obtained by elementary pencil operations.

    The operations have constant coefficients, so they act on every basis
    matrix simultaneously; the pointwise rank profile is preserved.
    """
    basis = list(K.basis)
    for op in ops:
        limit = K.m if op.kind.startswith("row") else K.n
        idxs = [op.i] if op.j is None else [op.i, op.j]
        if any(i < 0 or i >= limit for i in idxs):
            raise IndexError("op index out of range")
        if op.kind.endswith("add") and op.i == op.j:
            raise ValueError("add op needs distinct lines")
        basis = [_apply_op_to_matrix(b, op) for b in basis]
    return Subspace(basis)


def random_pencil_ops(m, n, count, rng: random.Random):
    """Deterministic stream of well-formed random ops (for transport tests)."""
    ops = []
    for _ in range(count):
        axis = rng.choice(("row", "col"))
        limit = m if axis == "row" else n
        if limit < 2:
            axis = "col" if axis == "row" else "row"
            limit = m if axis == "row" else n
        kind = rng.choice(("swap", "scale", "add"))
        i = rng.randrange(limit)
        if kind == "scale":
            c = Fraction(rng.choice([x for x in range(-3, 4) if x]), rng.randint(1, 3))
            ops.append(PencilOp(axis + "-scale", i, c=c))
        elif kind == "swap":
            j = rng.randrange(limit - 1)
            if j >= i:
                j += 1
            ops.append(PencilOp(axis + "-swap", i, j))
        else:
            j = rng.randrange(limit - 1)
            if j >= i:
                j += 1
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            ops.append(PencilOp(axis + "-add", i, j, c))
    return ops

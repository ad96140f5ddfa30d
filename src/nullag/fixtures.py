"""Catalogue of concrete subspaces and measures used across the test suite
and the CLI.

The centerpiece is the family of (4+r)-dimensional subspaces of
(3+2r)x(3+2r) matrices built around the 3x3 pencil

    [[b+d, a-c, c],
     [a+c, 0,   d],
     [a,   b,   0]]

with extra parameters sitting in 2x2 identity blocks on the diagonal.
These subspaces contain no rank-one directions yet support an eight-atom
measure commuting with every minor, so they separate "no rank-one
connections" from "only Dirac measures" for dimensions four and up.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import RationalMatrix
from .measures import DiscreteMeasure
from .subspace import Subspace


def _b_matrix(a, b, c, d):
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    return [
        [b + d, a - c, c],
        [a + c, 0, d],
        [a, b, 0],
    ]


def _embed_top_left(block, size):
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(len(block)):
        for j in range(len(block[0])):
            out[i][j] = Fraction(block[i][j])
    return out


def kr_family(r: int) -> Subspace:
    """The (4+r)-dimensional no-rank-one subspace of (3+2r)x(3+2r) matrices."""
    if r < 0:
        raise ValueError("r must be non-negative")
    size = 3 + 2 * r
    basis = [
        _embed_top_left(_b_matrix(1, 0, 0, 0), size),
        _embed_top_left(_b_matrix(0, 1, 0, 0), size),
        _embed_top_left(_b_matrix(0, 0, 1, 0), size),
        _embed_top_left(_b_matrix(0, 0, 0, 1), size),
    ]
    for k in range(1, r + 1):
        m = [[Fraction(0)] * size for _ in range(size)]
        m[1 + 2 * k][1 + 2 * k] = Fraction(1)
        m[2 + 2 * k][2 + 2 * k] = Fraction(1)
        basis.append(m)
    return Subspace(basis)


def kr_measure(r: int) -> DiscreteMeasure:
    """Eight atoms +-H_1..+-H_4 with weight 1/8 each, barycenter zero.

    The parameter vectors are the four standard basis vectors of R^4 (any
    mutually orthonormal choice works); the measure commutes exactly with
    every minor of every order.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    size = 3 + 2 * r
    hs = [
        RationalMatrix(_embed_top_left(_b_matrix(*e), size))
        for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ]
    atoms = []
    for h in hs:
        atoms.append(h)
        atoms.append(h.scale(-1))
    return DiscreteMeasure(atoms, [Fraction(1, 8)] * 8)


# ---------------------------------------------------------------------------
# other named subspaces
# ---------------------------------------------------------------------------

def v0_subspace(k=2, m=4, n=4) -> Subspace:
    """Block-scalar diagonal pencil diag(y_1, y_1, ..., y_k, y_k, 0, ...)."""
    if 2 * k > min(m, n):
        raise ValueError("need 2k <= min(m, n)")
    basis = []
    for l in range(k):
        b = [[Fraction(0)] * n for _ in range(m)]
        b[2 * l][2 * l] = Fraction(1)
        b[2 * l + 1][2 * l + 1] = Fraction(1)
        basis.append(b)
    return Subspace(basis)


def rank_one_line() -> Subspace:
    return Subspace([[[1, 0], [0, 0]]])


def rotation_pencil() -> Subspace:
    """[[u, v], [-v, u]]: determinant u^2 + v^2, no rank-one directions."""
    return Subspace([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def k0_pencil() -> Subspace:
    """[[u, v], [v, u]]: the first-order part of the conservation-law set
    with linear flux; rank drops on the diagonal directions."""
    return Subspace([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])


def quaternion_pencil() -> Subspace:
    """Three-dimensional subspace of 4x4 matrices with every non-zero
    element invertible (left multiplications by 1, i, j)."""
    one = RationalMatrix.identity(4)
    i = RationalMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j = RationalMatrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    return Subspace([one, i, j])


def sym3_random(seed: int) -> Subspace:
    """Random 3-dimensional subspace of symmetric 3x3 matrices.

    These are generically rank-one-free: a rank-one symmetric matrix in
    the subspace means a common real point of three quadric curves in the
    projective plane, which random quadrics do not have.  An explicit
    rank-one-free instance is span{E11 - E22, E12 + E21, E13 + E31}.  The
    draw is redone until the descending chain certifies triviality, so
    every returned subspace is a guaranteed certificate case.
    """
    from .certify import TrivialityCertificate, reduce_chain

    rng = random.Random(seed)
    while True:
        basis = []
        for _ in range(3):
            s = [[Fraction(0)] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    s[i][j] = v
                    s[j][i] = v
            basis.append(s)
        try:
            K = Subspace(basis)
        except ValueError:
            continue
        if isinstance(reduce_chain(K), TrivialityCertificate):
            return K


def sub_k0_random(seed: int, d=3) -> Subspace:
    """Random d-dimensional subspace of the 4-dimensional no-rank-one family.

    Subspaces of a rank-one-free space are rank-one-free, so for d <= 3
    these are guaranteed certificate cases.
    """
    if not 1 <= d <= 4:
        raise ValueError("d = %d is outside 1..4: Kr(r=0) is 4-dimensional" % d)
    rng = random.Random(seed)
    K4 = kr_family(0)
    while True:
        coeffs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(4)] for _ in range(d)]
        try:
            return K4.restricted([tuple(c) for c in coeffs])
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

class FixtureEntry:
    """Named subspace with its expected pipeline verdicts.

    ``expected`` fields: rank_one (a rank-one direction exists),
    certificate (a terminal descending chain exists), nontrivial_measure
    (a non-Dirac commuting measure exists).  The three are tied together:
    a certificate excludes a non-trivial measure, a rank-one direction
    produces one.
    """

    __slots__ = ("name", "subspace", "expected", "source")

    def __init__(self, name, subspace, rank_one, certificate, nontrivial_measure, source):
        if certificate and nontrivial_measure:
            raise ValueError("certificate and non-trivial measure exclude each other")
        if rank_one and not nontrivial_measure:
            raise ValueError("a rank-one direction forces a non-trivial measure")
        self.name = name
        self.subspace = subspace
        self.expected = {
            "rank_one": rank_one,
            "certificate": certificate,
            "nontrivial_measure": nontrivial_measure,
        }
        self.source = source


def _parse_args(argstr):
    out = {}
    if not argstr:
        return out
    for part in argstr.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            k, v = part.split("=", 1)
            out[k.strip()] = int(v)
        else:
            out["value"] = int(part)
    return out


def builtin(name: str) -> FixtureEntry:
    """Look up a fixture by name, e.g. ``V0(k=2,m=4,n=4)`` or ``Kr(r=1)``."""
    base, args = name, ""
    if "(" in name:
        if not name.endswith(")"):
            raise KeyError("malformed fixture name %r" % name)
        base, args = name[: name.index("(")], name[name.index("(") + 1 : -1]
    kw = _parse_args(args)
    base = base.strip()
    if base == "V0":
        k = kw.get("k", kw.get("value", 2))
        m = kw.get("m", 4)
        n = kw.get("n", 4)
        return FixtureEntry(
            name, v0_subspace(k, m, n), False, True, False,
            "block-scalar diagonal pencil; its squared coordinate minors give a strictly positive combination",
        )
    if base == "diag-pencil":
        return FixtureEntry(
            name, v0_subspace(2, 4, 4), False, True, False,
            "two-variable diagonal pencil with certificate y1^2 + y2^2",
        )
    if base == "rank1-line":
        return FixtureEntry(
            name, rank_one_line(), True, False, True,
            "line through a single dyad; the symmetric two-atom measure is non-trivial",
        )
    if base == "rotation":
        return FixtureEntry(
            name, rotation_pencil(), False, True, False,
            "rotation-like pencil with determinant u^2 + v^2",
        )
    if base == "K0":
        return FixtureEntry(
            name, k0_pencil(), True, False, True,
            "first-order conservation-law pencil with linear flux; rank drops along u = v",
        )
    if base == "quaternion3":
        return FixtureEntry(
            name, quaternion_pencil(), False, True, False,
            "quaternionic three-dimensional subspace; every non-zero element invertible",
        )
    if base == "sym3-random":
        seed = kw.get("seed", kw.get("value", 0))
        return FixtureEntry(
            name, sym3_random(seed), False, True, False,
            "random three-dimensional symmetric pencil, redrawn until the "
            "descending chain certifies it; generic draws are rank-one-free",
        )
    if base == "sub-k0-random":
        seed = kw.get("seed", kw.get("value", 0))
        d = kw.get("d", 3)
        return FixtureEntry(
            name, sub_k0_random(seed, d), False, True, False,
            "random low-dimensional slice of the rank-one-free four-dimensional family",
        )
    if base == "Kr":
        r = kw.get("r", kw.get("value", 0))
        return FixtureEntry(
            name, kr_family(r), False, False, True,
            "rank-one-free family supporting the eight-atom measure",
        )
    raise KeyError("unknown fixture %r" % name)


def builtin_names():
    return [
        "V0(k=2,m=4,n=4)",
        "diag-pencil",
        "rank1-line",
        "rotation",
        "K0",
        "quaternion3",
        "sym3-random(seed=0)",
        "sub-k0-random(seed=0,d=3)",
        "Kr(r=0)",
        "Kr(r=1)",
        "Kr(r=2)",
    ]

"""Seeded input generators for the nullag benchmark workloads.

Each generator turns a workload seed into a list of ``Instance`` objects:
one deciding command (``analyze``, ``k1`` or ``grassmann-scan``) with its
generated input, the exit code a correct program gives on it, and the
properties later changes quote shares of (m, n, d, minor count, verdict).
The same seed always gives the same instances.  Exact inputs are built
with ``fractions.Fraction`` here, so the generated JSON does not depend on
library internals beyond the public ``nullag fixtures dump`` catalogue.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np

EXIT_TRIVIAL = 0
EXIT_NONTRIVIAL = 10
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 20

# sym3-open always draws its subspaces from this fixed stream (README).
SYM3_OPEN_POOL_SEED = 1


class Instance:
    """One deciding command with its generated input and known answer.

    ``expected`` is the set of exit codes a correct program may give;
    ``decided`` the subset that counts as a definite outcome.
    ``subspace`` is the analyze input (JSON object) or None; ``args`` are
    the remaining command-line arguments.
    """

    __slots__ = ("name", "command", "args", "subspace", "expected", "decided", "props", "check")

    def __init__(self, name, command, args=(), subspace=None, expected=(0,), decided=None,
                 props=None, check=None):
        self.name = name
        self.command = command
        self.args = list(args)
        self.subspace = subspace
        self.expected = frozenset(expected)
        self.decided = frozenset(expected if decided is None else decided)
        self.props = dict(props or {})
        self.check = check


def minor_count(m, n):
    """Number of p x p minors of an m x n matrix, summed over p >= 2."""
    return sum(math.comb(m, p) * math.comb(n, p) for p in range(2, min(m, n) + 1))


def _subspace_json(basis):
    m, n = len(basis[0]), len(basis[0][0])
    return {
        "m": m,
        "n": n,
        "d": len(basis),
        "basis": [[[str(Fraction(x)) for x in row] for row in b] for b in basis],
    }


def _basis_of(obj):
    return [[[Fraction(x) for x in row] for row in b] for b in obj["basis"]]


def _independent(basis):
    flat = np.array([[float(x) for row in b for x in row] for b in basis])
    return np.linalg.matrix_rank(flat) == len(basis)


def _analyze(name, basis, expected, verdict, decided=None):
    m, n = len(basis[0]), len(basis[0][0])
    props = {"m": m, "n": n, "d": len(basis), "minors": minor_count(m, n), "verdict": verdict}
    return Instance(name, "analyze", subspace=_subspace_json(basis), expected=expected,
                    decided=decided, props=props)


def fixture_basis(cli, name):
    """Basis of a catalogue fixture, read through ``nullag fixtures dump``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["fixtures", "dump", name])
    if code != 0:
        raise RuntimeError("fixtures dump %s exited %d" % (name, code))
    return _basis_of(json.loads(out.getvalue())["subspace"])


# ---------------------------------------------------------------------------
# transports: equivalent pencils with the same verdict
# ---------------------------------------------------------------------------

_SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))


def _matmul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def elementary_matrix(size, count, rng):
    """Product of ``count`` random invertible elementary operations."""
    E = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for _ in range(count):
        i, j = rng.sample(range(size), 2)
        kind = rng.choice(("swap", "scale", "add"))
        if kind == "swap":
            E[i], E[j] = E[j], E[i]
        elif kind == "scale":
            c = rng.choice(_SCALES)
            E[i] = [c * x for x in E[i]]
        else:
            c = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
            E[i] = [a + c * b for a, b in zip(E[i], E[j])]
    return E


def equivalence_transport(basis, rng, count=6):
    """P -> E P F with random invertible E, F: same rank profile and verdict."""
    m, n = len(basis[0]), len(basis[0][0])
    E = elementary_matrix(m, count, rng)
    F = elementary_matrix(n, count, rng)
    return [_matmul(_matmul(E, b), F) for b in basis]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def kr_ladder(cli, seed, scale="full"):
    """The catalogue's Kr(r) for r = 2, 3, 4; the inputs do not depend on
    ``seed`` (README)."""
    rs = (0, 1) if scale == "tiny" else (2, 3, 4)
    return [_analyze("Kr(r=%d)" % r, fixture_basis(cli, "Kr(r=%d)" % r), (EXIT_NONTRIVIAL,),
                     "nontrivial") for r in rs]


# (catalogue name, transports per seed, exit code, verdict)
_TRANSPORT_BASES = (
    ("V0(k=2,m=4,n=4)", 6, EXIT_TRIVIAL, "trivial"),
    ("rotation", 9, EXIT_TRIVIAL, "trivial"),
    ("quaternion3", 6, EXIT_TRIVIAL, "trivial"),
    ("rank1-line", 9, EXIT_NONTRIVIAL, "nontrivial"),
    ("K0", 9, EXIT_NONTRIVIAL, "nontrivial"),
    ("V0(k=3,m=6,n=6)", 3, EXIT_TRIVIAL, "trivial"),
)


def random_pencil(rng, m, n, d, lo=-3, hi=3):
    """Random integer pencil with d independent m x n basis matrices."""
    while True:
        basis = [[[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(m)]
                 for _ in range(d)]
        if _independent(basis):
            return basis


def certify_corpus(cli, seed, scale="full"):
    """108 small known-answer subspaces (see README for the mix)."""
    rng = random.Random(seed)
    tiny = scale == "tiny"
    out = []
    for i in range(2 if tiny else 18):
        name = "sym3-random(seed=%d)" % rng.randrange(10**6)
        out.append(_analyze(name, fixture_basis(cli, name), (EXIT_TRIVIAL,), "trivial"))
    for i in range(3 if tiny else 30):
        name = "sub-k0-random(seed=%d,d=%d)" % (rng.randrange(10**6), 1 + i % 3)
        out.append(_analyze(name, fixture_basis(cli, name), (EXIT_TRIVIAL,), "trivial"))
    for base, count, code, verdict in _TRANSPORT_BASES:
        basis = fixture_basis(cli, base)
        for k in range(1 if tiny else count):
            out.append(_analyze("%s~%d" % (base, k), equivalence_transport(basis, rng),
                                (code,), verdict))
    for i in range(3 if tiny else 18):
        d = 4 + i % 3
        out.append(_analyze("pencil4x4(d=%d)#%d" % (d, i), random_pencil(rng, 4, 4, d),
                            (EXIT_TRIVIAL,), "trivial"))
    return out


def sym3_open_pool(count):
    """The fixed base draws: random 4- and 5-dimensional symmetric 3x3 pencils."""
    rng = random.Random(SYM3_OPEN_POOL_SEED)
    pool = []
    while len(pool) < count:
        d = 4 + len(pool) % 2
        basis = []
        for _ in range(d):
            s = [[Fraction(0)] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    s[i][j] = s[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            basis.append(s)
        if _independent(basis):
            pool.append(basis)
    return pool


def sym3_open(cli, seed, scale="full", count=4):
    """Open symmetric 3x3 pencils: any of trivial, non-trivial, inconclusive.

    The inputs do not depend on ``seed``: any equivalent transport of an
    open draw, even a sign-flip congruence, reorders the exact simplex and
    changes its cost up to fivefold (README), so seeded inputs would make
    the timings spread past every usable bound.
    """
    pool = sym3_open_pool(1 if scale == "tiny" else count)
    allowed = (EXIT_TRIVIAL, EXIT_NONTRIVIAL, EXIT_INCONCLUSIVE)
    return [_analyze("sym3-open#%d" % i, b, allowed, "open", decided=(EXIT_TRIVIAL, EXIT_NONTRIVIAL))
            for i, b in enumerate(pool)]


# k1 flux families with the closed-form slope a'(v) the known answer uses
def _flux_draw(rng, family):
    if family == "linear":
        return "linear", lambda v: 1.0
    if family == "quadratic":
        c = round(rng.uniform(-2.0, 2.0), 3)
        return "quadratic:%g" % c, lambda v, c=c: 1.0 + 2.0 * c * v
    if family == "cubic":
        c = round(rng.uniform(-3.0, 1.0), 3)
        return "cubic:%g" % c, lambda v, c=c: 1.0 + 3.0 * c * v * v
    c = round(rng.uniform(0.2, 3.0), 3)
    return "v - %g*v^3" % c, lambda v, c=c: 1.0 - 3.0 * c * v * v


_FLUX_FAMILIES = ("linear", "quadratic", "cubic", "expression")


def k1_probe(rng, family, positive, slope_margin=0.25):
    """One k1 run whose outcome the sign of the flux slope at the base
    state decides; draws are redone until the slope has the wanted sign."""
    while True:
        flux, slope = _flux_draw(rng, family)
        a1 = round(rng.uniform(-1.0, 1.0), 3)
        a2 = round(rng.uniform(-1.0, 1.0), 3)
        s = slope(a2)
        if abs(s) >= slope_margin and (s > 0) == positive:
            break
    args = ["--flux", flux, "--alpha1", repr(a1), "--alpha2", repr(a2)]
    code = EXIT_TRIVIAL if positive else EXIT_PRECONDITION
    verdict = "five-atom" if positive else "negative-slope"
    return Instance("k1[%s,a2=%g]" % (flux, a2), "k1", args, expected=(code,),
                    props={"m": 3, "n": 2, "d": 2, "minors": minor_count(3, 2), "verdict": verdict})


def _scan_check(report):
    summary = report.get("summary", {})
    if summary.get("pd_fraction") != 1.0:
        return "generic chart points gave pd_fraction %r, expected 1.0" % summary.get("pd_fraction")
    return None


def numeric_probes(cli, seed, scale="full"):
    """k1 over fluxes x alpha, plus two Grassmannian genericity scans."""
    rng = random.Random(seed)
    out = []
    for family in _FLUX_FAMILIES:
        # a fixed share of negative slopes per family keeps the latency
        # tail the same from seed to seed (the two paths cost differently)
        negative = 0 if family == "linear" else (1 if scale == "tiny" else 8)
        positive = 1 if scale == "tiny" else 25 - negative
        out += [k1_probe(rng, family, True) for _ in range(positive)]
        out += [k1_probe(rng, family, False) for _ in range(negative)]
    scans = ((2, 4, 4, 400), (3, 6, 6, 100)) if scale != "tiny" else ((2, 4, 4, 8),)
    for k, m, n, samples in scans:
        args = [str(k), str(m), str(n), "--samples", str(samples), "--seed", str(rng.randrange(10**6))]
        out.append(Instance("grassmann-scan(%d,%d,%d)x%d" % (k, m, n, samples), "grassmann-scan",
                            args, expected=(EXIT_TRIVIAL,),
                            props={"m": m, "n": n, "d": k, "minors": minor_count(m, n),
                                   "verdict": "generic"},
                            check=_scan_check))
    return out


WORKLOADS = {
    "kr-ladder": kr_ladder,
    "certify-corpus": certify_corpus,
    "sym3-open": sym3_open,
    "numeric-probes": numeric_probes,
}


def warmup(cli, workload):
    """Untimed commands run once in set-up, touching the workload's code paths."""
    if workload == "numeric-probes":
        return [
            Instance("warm-up k1", "k1", ["--flux", "v - 0.5*v^3"], expected=(EXIT_TRIVIAL,)),
            Instance("warm-up k1 negative", "k1", ["--flux", "v - 0.5*v^3", "--alpha2", "1"],
                     expected=(EXIT_PRECONDITION,)),
            Instance("warm-up scan", "grassmann-scan", ["2", "4", "4", "--samples", "4"],
                     expected=(EXIT_TRIVIAL,)),
        ]
    return [
        _analyze("warm-up rotation", fixture_basis(cli, "rotation"), (EXIT_TRIVIAL,), "trivial"),
        _analyze("warm-up K0", fixture_basis(cli, "K0"), (EXIT_NONTRIVIAL,), "nontrivial"),
    ]

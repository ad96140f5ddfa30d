import pytest

from nullag.fixtures import builtin, builtin_names, kr_family, kr_measure
from nullag.measures import is_null_lagrangian
from nullag.subspace import find_rank_one, parametrize
from poly_oracle import variable


def test_kr_family_dimensions():
    for r in range(4):
        K = kr_family(r)
        assert K.d == 4 + r
        assert (K.m, K.n) == (3 + 2 * r, 3 + 2 * r)


def test_kr_family_pencil_shape():
    K = kr_family(0)
    pencil = parametrize(K)
    a = variable(4, 0)
    b = variable(4, 1)
    c = variable(4, 2)
    d = variable(4, 3)
    assert pencil[0][0] == b + d
    assert pencil[0][1] == a - c
    assert pencil[0][2] == c
    assert pencil[1][0] == a + c
    assert pencil[1][1].is_zero()
    assert pencil[1][2] == d
    assert pencil[2][0] == a
    assert pencil[2][1] == b
    assert pencil[2][2].is_zero()


def test_kr_family_sigma_slots():
    K = kr_family(2)
    pencil = parametrize(K)
    s1 = variable(6, 4)
    s2 = variable(6, 5)
    assert pencil[3][3] == s1 and pencil[4][4] == s1
    assert pencil[5][5] == s2 and pencil[6][6] == s2
    assert pencil[3][4].is_zero()


def test_kr_measure_exact_all_orders():
    for r in range(4):
        mu = kr_measure(r)
        assert mu.barycenter().is_zero()
        rep = is_null_lagrangian(mu, orders="all")
        assert rep.exact and rep.verdict
        if r >= 1:
            assert rep.skipped > 0  # minors touching the zero blocks never evaluated


def test_kr_measure_atoms_on_subspace():
    for r in range(3):
        K = kr_family(r)
        mu = kr_measure(r)
        # pencil coordinates of the atoms: the signed first four axes
        evaluated = [K.evaluate([s * (l == i) for l in range(K.d)])
                     for i in range(4) for s in (1, -1)]
        for atom in mu.atoms:
            assert any(atom == e for e in evaluated)


def test_negative_r_rejected():
    with pytest.raises(ValueError):
        kr_family(-1)
    with pytest.raises(ValueError):
        kr_measure(-1)


def test_builtin_catalogue_loads():
    for name in builtin_names():
        entry = builtin(name)
        assert entry.subspace.d >= 1
        assert set(entry.expected) == {"rank_one", "certificate", "nontrivial_measure"}


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin("no-such-fixture")


def test_builtin_verdict_consistency_enforced():
    # the constructor rejects combinations that contradict each other
    from nullag.fixtures import FixtureEntry, rank_one_line

    with pytest.raises(ValueError):
        FixtureEntry("bad", rank_one_line(), True, True, True, "x")
    with pytest.raises(ValueError):
        FixtureEntry("bad", rank_one_line(), True, False, False, "x")


def test_sym3_random_is_certificate_case():
    # random three-dimensional symmetric pencils are generically
    # rank-one-free (three quadrics in the projective plane have no common
    # real point); the fixture guarantees a terminal chain by redrawing
    from nullag.certify import TrivialityCertificate, reduce_chain

    for seed in (0, 1, 2):
        entry = builtin("sym3-random(seed=%d)" % seed)
        assert entry.expected["certificate"]
        res = find_rank_one(entry.subspace, density=4000, seed=1)
        assert not res.found
        cert = reduce_chain(entry.subspace)
        assert isinstance(cert, TrivialityCertificate)


def test_sym3_rank_one_free_hand_instance():
    # span{E11 - E22, E12 + E21, E13 + E31}: the minors are
    # -x^2 - y^2, -z^2, -yz, xz (up to repeats), which only vanish at 0
    from nullag.subspace import Subspace

    K = Subspace(
        [
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        ]
    )
    res = find_rank_one(K, density=20000, seed=0)
    assert not res.found and res.residual > 1e-6
    from nullag.certify import TrivialityCertificate, reduce_chain

    cert = reduce_chain(K)
    assert isinstance(cert, TrivialityCertificate)

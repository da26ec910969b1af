"""Projector lattice: construction, meets, joins, orthomodularity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import x_plus, z_up
from oracles import logical_equiv, meet_weak_limit
from qlogic.errors import DimensionMismatchError
from qlogic.linalg import commutator, opnorm
from qlogic.projectors import (
    Projector,
    common_null_space_projector,
    commutes,
    join,
    join_all,
    leq,
    meet,
    meet_all,
    ortho,
    sasaki_implies,
)
from qlogic.sampling import random_projector, random_subprojector, rng_from_seed


# ---------------------------------------------------------------------------
# construction


def test_from_basis_orthonormalizes_redundant_span():
    columns = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]).astype(complex)
    p = Projector.from_basis(columns)
    assert p.rank == 1
    assert opnorm(p.matrix @ p.matrix - p.matrix) < 1e-12


def test_from_matrix_validates():
    with pytest.raises(ValueError):
        Projector.from_matrix(np.array([[0.5, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Projector.from_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_zero_identity_rank():
    assert Projector.zero(3).rank == 0
    assert Projector.identity(3).rank == 3
    assert np.allclose(Projector.identity(3).matrix, np.eye(3))


def test_constructor_rejects_wrong_dim():
    with pytest.raises(DimensionMismatchError):
        Projector(np.eye(2), dim=3)
    with pytest.raises(DimensionMismatchError):
        Projector(np.zeros(4))


def test_isclose_requires_same_space():
    with pytest.raises(DimensionMismatchError):
        Projector.identity(2).isclose(Projector.identity(3))


# ---------------------------------------------------------------------------
# kernels and ranges


def test_column_space_projector():
    p = Projector.from_basis(np.array([[1.0], [1.0]]) / np.sqrt(2))
    assert p.rank == 1
    assert p.isclose(x_plus())


def test_common_null_space_projector_joint():
    # x0 = 0 from the first constraint, x2 = 0 from the second.
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 0.0, 1.0]).astype(complex)
    p = common_null_space_projector([a, b])
    assert p.rank == 1
    expected = Projector.from_basis(np.array([[0.0], [1.0], [0.0]]))
    assert p.isclose(expected)


def test_common_null_space_projector_empty_family():
    assert common_null_space_projector([], dim=4).rank == 4
    with pytest.raises(DimensionMismatchError):
        common_null_space_projector([])


def test_common_null_space_projector_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        common_null_space_projector([np.eye(2), np.eye(3)])
    with pytest.raises(DimensionMismatchError):
        common_null_space_projector([np.eye(2)], dim=3)


# ---------------------------------------------------------------------------
# lattice operations on fixed instances


def test_meet_of_transverse_rays_is_zero():
    assert meet(z_up(), x_plus()).rank == 0


def test_meet_of_nested_is_smaller():
    p = z_up()
    assert meet(p, Projector.identity(2)).isclose(p)
    assert meet(p, p).isclose(p)


def test_join_de_morgan():
    p, q = z_up(), x_plus()
    direct = join(p, q)
    expanded = ortho(meet(ortho(p), ortho(q)))
    assert direct.isclose(expanded)
    assert direct.rank == 2


def test_meet_all_and_join_all():
    e0 = Projector.from_basis(np.eye(3)[:, [0]])
    e1 = Projector.from_basis(np.eye(3)[:, [1]])
    plane = Projector.from_basis(np.eye(3)[:, [0, 1]])
    assert meet_all([plane, join(e0, e1)], dim=3).isclose(plane)
    assert join_all([e0, e1], dim=3).isclose(plane)
    assert meet_all([], dim=3).rank == 3
    assert join_all([], dim=3).rank == 0


def test_ortho_double_complement_returns_same_object():
    p = z_up()
    assert ortho(ortho(p)) is p


def test_ortho_complement_matrix():
    p = z_up()
    assert np.allclose(ortho(p).matrix, np.eye(2) - p.matrix, atol=1e-12)


def test_leq_and_operator_sugar():
    p, q = z_up(), x_plus()
    assert leq(p, Projector.identity(2))
    assert not leq(p, q)
    assert (p & q).rank == 0
    assert (p | q).rank == 2
    assert (~p).isclose(Projector.from_matrix(np.diag([0.0, 1.0])))
    assert p <= Projector.identity(2)


def test_commutes():
    assert commutes(z_up(), Projector.from_matrix(np.diag([0.0, 1.0])))
    assert not commutes(z_up(), x_plus())
    family = [z_up(), ortho(z_up()), Projector.identity(2)]
    assert max(opnorm(commutator(p.matrix, q.matrix))
               for p, q in itertools.combinations(family, 2)) < 1e-12


def test_sasaki_implies():
    p, q = z_up(), x_plus()
    # p -> p is the whole space; the Sasaki arrow of transverse rays is not.
    assert sasaki_implies(p, p).rank == 2
    arrow = sasaki_implies(p, q)
    assert arrow.isclose(join(ortho(p), meet(p, q)))


def test_logical_equiv():
    p = z_up()
    assert logical_equiv(p, p).rank == 2
    both_ways = meet(sasaki_implies(p, x_plus()), sasaki_implies(x_plus(), p))
    assert logical_equiv(p, x_plus()).isclose(both_ways)


def test_meet_weak_limit_matches_meet(rng):
    # The alternating-product limit is the independent route to the meet.
    p = random_projector(5, rng, rank=3)
    q = random_projector(5, rng, rank=3)
    limit = meet_weak_limit(p, q, iterations=400)
    assert opnorm(limit - meet(p, q).matrix) < 1e-6


def test_meet_weak_limit_commuting_exact():
    p = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = Projector.from_matrix(np.diag([0.0, 1.0, 1.0]))
    limit = meet_weak_limit(p, q, iterations=5)
    assert opnorm(limit - np.diag([0.0, 1.0, 0.0])) < 1e-12


# ---------------------------------------------------------------------------
# property checks over seeded draws


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lattice_laws_random(seed):
    rng = rng_from_seed(seed)
    dim = int(rng.integers(2, 6))
    p = random_projector(dim, rng)
    q = random_projector(dim, rng)
    # Idempotence, commutativity, absorption.
    assert meet(p, p).isclose(p)
    assert meet(p, q).isclose(meet(q, p))
    assert join(p, q).isclose(join(q, p))
    assert meet(p, join(p, q)).isclose(p)
    assert join(p, meet(p, q)).isclose(p)
    # Complement laws.
    assert meet(p, ortho(p)).rank == 0
    assert join(p, ortho(p)).rank == dim
    # De Morgan.
    assert ortho(join(p, q)).isclose(meet(ortho(p), ortho(q)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_orthomodular_law_random(seed):
    rng = rng_from_seed(seed)
    dim = int(rng.integers(2, 6))
    q = random_projector(dim, rng)
    if q.rank == 0:
        q = Projector.identity(dim)
    p = random_subprojector(q, rng)
    # p <= q forces q = p v (q ^ p').
    assert leq(p, q)
    rebuilt = join(p, meet(q, ortho(p)))
    assert rebuilt.isclose(q)


def test_distributivity_fails_on_transverse_rays():
    p, q = z_up(), x_plus()
    r = ortho(q)
    left = meet(p, join(q, r))
    right = join(meet(p, q), meet(p, r))
    # The lattice is orthomodular but not distributive.
    assert opnorm(left.matrix - right.matrix) > 0.1

"""The batched meet kernel: ``meet_each`` against the stacked kernel of the 1 - P."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import x_plus, z_up
from qlogic import projectors
from qlogic.errors import DimensionMismatchError
from qlogic.projectors import Projector, common_null_space_projector, meet_all, meet_each
from qlogic.sampling import random_projector, random_subprojector, rng_from_seed
from qlogic.tolerances import DEFAULT_TOL


def _stacked_meet(family, dim):
    """The joint kernel of the stacked 1 - P_i in one ``common_null_space_projector``
    call: the route ``meet_all`` took before it became ``meet_each`` of one."""
    eye = np.eye(dim, dtype=complex)
    tol = family[0].tol if family else DEFAULT_TOL
    return common_null_space_projector([eye - p.matrix for p in family], dim, tol)


def _assert_meets_match_meet_all(families, dim):
    batched = meet_each(families, dim)
    assert len(batched) == len(families)
    for family, got in zip(families, batched):
        for expected in (_stacked_meet(family, dim), meet_all(family, dim=dim)):
            assert got.dim == expected.dim
            assert got.tol == expected.tol
            assert np.array_equal(got.basis, expected.basis)
            assert np.array_equal(got.matrix, expected.matrix)


def test_meet_each_edge_cases_match_meet_all():
    up, plus, one = z_up(), x_plus(), Projector.identity(2)
    # A zero meet, an identity meet, a meet equal to one member.
    _assert_meets_match_meet_all([[up, plus], [one, one], [up, one]], 2)
    _assert_meets_match_meet_all([[up], [plus], [Projector.zero(2)]], 2)
    one, none = Projector.identity(1), Projector.zero(1)
    _assert_meets_match_meet_all([[one, one], [one, none], [none, none]], 1)
    _assert_meets_match_meet_all([[one], [none]], 1)
    _assert_meets_match_meet_all([[], []], 3)
    assert meet_each([], 3) == []


def test_meet_each_rejects_mixed_families():
    up, plus = z_up(), x_plus()
    with pytest.raises(DimensionMismatchError):
        meet_each([[up, plus], [up]], 2)
    with pytest.raises(DimensionMismatchError):
        meet_each([[up]], 3)


def test_meet_each_judges_each_family_at_its_first_tolerance():
    loose = DEFAULT_TOL.with_assert_tol(1e-6)
    rng = rng_from_seed(4)
    p, q = random_projector(3, rng, rank=2, tol=loose), random_projector(3, rng, rank=2)
    meets = meet_each([[p, q], [q, p], [q, q]], 3)
    assert [m.tol for m in meets] == [loose, DEFAULT_TOL, DEFAULT_TOL]
    _assert_meets_match_meet_all([[p, q], [q, p], [q, q]], 3)


def test_meet_each_splits_a_stack_beyond_the_chunk(monkeypatch):
    calls = []
    solve = projectors.solution_bases

    def recording(systems, unknowns, tol):
        calls.append(len(systems))
        return solve(systems, unknowns, tol)

    rng = rng_from_seed(5)
    pool = [random_projector(2, rng) for _ in range(4)]
    families = [[pool[i % 4], pool[(i + 1) % 4]] for i in range(5)]
    monkeypatch.setattr(projectors, "_MEET_CHUNK", 20)
    monkeypatch.setattr(projectors, "solution_bases", recording)
    # Each system has 2 * 2 * 2 = 8 entries, so the five families go in
    # chunks of two, two and one.
    meet_each(families, 2)
    assert calls == [2, 2, 1]
    _assert_meets_match_meet_all(families, 2)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=5),
       size=st.integers(min_value=1, max_value=3),
       count=st.integers(min_value=1, max_value=6))
def test_meet_each_gives_each_family_the_bits_of_meet_all(seed, dim, size, count):
    rng = rng_from_seed(seed)
    # Subprojectors of one parent make nonzero meets likely; the identity
    # and zero make the extreme ones.
    parent = random_projector(dim, rng)
    pool = [Projector.identity(dim), Projector.zero(dim), parent,
            random_projector(dim, rng)] + [random_subprojector(parent, rng) for _ in range(3)]
    families = [[pool[int(i)] for i in rng.integers(0, len(pool), size=size)]
                for _ in range(count)]
    _assert_meets_match_meet_all(families, dim)

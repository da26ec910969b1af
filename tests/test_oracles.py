"""The oracles of the spectral-atom tests: ``meet_each`` against ``meet_all``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import x_plus, z_up
from oracles import meet_each
from qlogic.errors import DimensionMismatchError
from qlogic.projectors import Projector, meet_all
from qlogic.sampling import random_projector, random_subprojector, rng_from_seed


def _assert_meets_match_meet_all(families, dim):
    batched = meet_each(families, dim)
    assert len(batched) == len(families)
    for family, got in zip(families, batched):
        expected = meet_all(family, dim=dim)
        assert got.dim == expected.dim
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

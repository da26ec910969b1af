"""Observables: spectral resolution, Borel descriptors, functional calculus."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA_X, SIGMA_Z, diag_obs
from families import FAMILY_KINDS, observable_family
from oracles import stacked_joint_atoms
from qlogic import observables
from qlogic.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
    UndefinedAtSpectralPointError,
)
from qlogic.linalg import opnorm
from qlogic.observables import (
    BorelSet,
    Interval,
    embed_first,
    embed_second,
    heisenberg,
    eigenspace_meets,
    joint_atoms,
    spectral_decompose,
)
from qlogic.projectors import Projector
from qlogic.sampling import haar_unitary, rng_from_seed
from qlogic.tolerances import DEFAULT_TOL


# ---------------------------------------------------------------------------
# Borel descriptors


def test_interval_membership():
    iv = Interval(0.0, 1.0, True, False)
    assert iv.contains(0.0)
    assert iv.contains(0.5)
    assert not iv.contains(1.0)
    # The tolerance widens matching, but an open end excludes its own point.
    assert not iv.contains(1.0, atol=1e-9)
    assert iv.contains(-1e-12, atol=1e-9)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0, True, True)


def test_borel_constructors():
    assert BorelSet.point(2.0).contains(2.0)
    assert not BorelSet.point(2.0).contains(2.1)
    assert BorelSet.point(2.0).contains(2.0 + 1e-12, atol=1e-9)
    assert BorelSet.up_to(1.0).contains(1.0)
    assert not BorelSet.below(1.0).contains(1.0)
    assert BorelSet.above(1.0).contains(1.5)
    assert not BorelSet.above(1.0).contains(1.0)
    assert BorelSet.left_open(0.0, 1.0).contains(1.0)
    assert not BorelSet.left_open(0.0, 1.0).contains(0.0)
    assert BorelSet.whole_line().contains(-1e30)
    assert not BorelSet.empty().contains(0.0)


def test_borel_union_merges_overlaps():
    merged = BorelSet.left_open(0.0, 2.0).union(BorelSet.left_open(1.0, 3.0))
    assert len(merged.intervals) == 1
    assert merged.contains(2.5)


def test_borel_points_absorbed_into_intervals():
    s = BorelSet(intervals=(Interval(0.0, 1.0, True, True),), points=(0.5, 2.0))
    assert s.points == (2.0,)


def test_borel_complement():
    s = BorelSet.up_to(0.0).complement()
    assert s.contains(1.0)
    assert not s.contains(-1.0)
    assert s.complement().contains(-1.0)
    with pytest.raises(ValueError):
        s.union(BorelSet.point(5.0))


# ---------------------------------------------------------------------------
# spectral resolution


def test_spectral_decompose_round_trip(rng):
    u = haar_unitary(4, rng)
    m = u @ np.diag([-1.0, -1.0, 0.5, 2.0]) @ u.conj().T
    x = spectral_decompose("A", m)
    assert x.spectrum == pytest.approx([-1.0, 0.5, 2.0])
    ranks = [p.rank for p in x.eigenprojectors]
    assert ranks == [2, 1, 1]
    rebuilt = sum(v * p.matrix for v, p in zip(x.spectrum, x.eigenprojectors))
    assert opnorm(rebuilt - m) < 1e-10
    total = sum(p.matrix for p in x.eigenprojectors)
    assert opnorm(total - np.eye(4)) < 1e-10


def test_spectral_decompose_clusters_near_degeneracies():
    x = spectral_decompose("A", np.diag([1.0, 1.0 + 1e-12, 3.0]).astype(complex))
    assert len(x.spectrum) == 2


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        spectral_decompose("bad", np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_threshold_ladder():
    x = diag_obs("A", -1.0, 0.0, 2.0)
    assert x.threshold(-2.0).rank == 0
    assert x.threshold(-1.0).rank == 1
    assert x.threshold(0.5).rank == 2
    assert x.threshold(2.0).rank == 3
    # Literals snap onto the spectrum within the cluster width.
    assert x.threshold(-1.0 + 1e-10).rank == 1
    assert x.threshold(2.0 - 1e-10).rank == 3


def test_spectral_projector_of_borel_sets():
    x = diag_obs("A", -1.0, 0.0, 2.0)
    assert x.spectral_projector(BorelSet.point(0.0)).rank == 1
    assert x.spectral_projector(BorelSet.above(-0.5)).rank == 2
    assert x.spectral_projector(BorelSet.whole_line()).rank == 3
    assert x.spectral_projector(BorelSet.point(7.0)).rank == 0
    complement = x.spectral_projector(BorelSet.point(0.0).complement())
    assert complement.rank == 2


def test_eigenprojector_at():
    x = diag_obs("A", -1.0, 0.0, 2.0)
    p = x.eigenprojector_at(0.0)
    assert p.rank == 1
    assert np.allclose(p.matrix, np.diag([0.0, 1.0, 0.0]))
    assert x.eigenprojector_at(0.7).rank == 0


def test_delta_half_smallest_gap():
    assert diag_obs("A", -1.0, 0.0, 2.0).delta() == pytest.approx(0.5)
    assert diag_obs("B", 0.0, 10.0).delta() == pytest.approx(1.0)
    assert diag_obs("C", 3.0, 3.0).delta() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# functional calculus and embeddings


def test_apply_function_callable():
    x = diag_obs("A", -2.0, 1.0, 3.0)
    y = x.apply_function(lambda v: v * v, name="Asq")
    assert y.name == "Asq"
    assert y.spectrum == pytest.approx([1.0, 4.0, 9.0])
    assert np.allclose(y.matrix, np.diag([4.0, 1.0, 9.0]))


def test_apply_function_mapping_and_default_name():
    x = diag_obs("A", 0.0, 1.0)
    y = x.apply_function({0.0: 5.0, 1.0: -5.0})
    assert y.name == "f(A)"
    assert np.allclose(y.matrix, np.diag([5.0, -5.0]))


def test_apply_function_merges_collisions():
    x = diag_obs("A", -1.0, 1.0)
    y = x.apply_function(abs)
    assert y.spectrum == pytest.approx([1.0])
    assert y.eigenprojectors[0].rank == 2


def test_apply_function_undefined_point():
    x = diag_obs("A", 0.0, 1.0)
    with pytest.raises(UndefinedAtSpectralPointError):
        x.apply_function({1.0: 2.0})
    with pytest.raises(UndefinedAtSpectralPointError):
        x.apply_function(lambda v: 1.0 / v)


def test_embed_first_and_second():
    x = spectral_decompose("Z", SIGMA_Z)
    left = embed_first(x, 3)
    right = embed_second(x, 3)
    assert left.dim == 6 and right.dim == 6
    assert np.allclose(left.matrix, np.kron(SIGMA_Z, np.eye(3)))
    assert np.allclose(right.matrix, np.kron(np.eye(3), SIGMA_Z))
    assert left.spectrum == x.spectrum
    for p in left.eigenprojectors:
        assert p.rank == 3


def test_heisenberg_conjugation(rng):
    x = spectral_decompose("Z", SIGMA_Z)
    u = haar_unitary(2, rng)
    y = heisenberg(x, u)
    assert y.spectrum == x.spectrum
    assert opnorm(y.matrix - u.conj().T @ SIGMA_Z @ u) < 1e-10
    for v, p in zip(y.spectrum, y.eigenprojectors):
        assert opnorm(y.matrix @ p.matrix - v * p.matrix) < 1e-10


def test_heisenberg_rejects_bad_input():
    x = spectral_decompose("Z", SIGMA_Z)
    with pytest.raises(NotUnitaryError):
        heisenberg(x, np.diag([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        heisenberg(x, np.eye(3))


def test_commutes_with():
    z = spectral_decompose("Z", SIGMA_Z)
    x = spectral_decompose("X", SIGMA_X)
    d = diag_obs("D", 4.0, 9.0)
    assert z.commutes_with(d)
    assert not z.commutes_with(x)


# ---------------------------------------------------------------------------
# spectral atoms on their own bases


def test_eigenspace_meets_of_a_plane_with_spectral_sets():
    x = diag_obs("A", 0.0, 1.0, 2.0)
    plane = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=complex)
    plane[:, 1] /= np.sqrt(2.0)
    bases = eigenspace_meets([plane], x, [(0, (0,)), (0, (1,)), (0, (1, 2)), (0, ())],
                             DEFAULT_TOL)
    assert [b.shape[1] for b in bases] == [1, 0, 1, 0]
    assert np.allclose(np.abs(bases[0][:, 0]), [1.0, 0.0, 0.0])
    assert np.allclose(np.abs(bases[2][:, 0]), [0.0, 1.0, 1.0] / np.sqrt(2.0))


def test_eigenspace_meets_solve_in_chunks_with_the_same_bits(monkeypatch):
    xs = observable_family("simple", 6, 2, rng_from_seed(8))
    whole = joint_atoms(xs, 6)
    monkeypatch.setattr(observables, "_MEET_CHUNK", 1)
    chunked = joint_atoms(xs, 6)
    assert list(whole) == list(chunked)
    assert all(np.array_equal(whole[k], chunked[k]) for k in whole)


def test_joint_atoms_of_no_observable_and_of_mixed_dimensions():
    assert np.array_equal(joint_atoms([], 3)[()], np.eye(3))
    with pytest.raises(DimensionMismatchError):
        joint_atoms([diag_obs("A", 0.0, 1.0), diag_obs("B", 0.0, 1.0, 2.0)], 2)
    with pytest.raises(DimensionMismatchError):
        eigenspace_meets([np.eye(3)], diag_obs("A", 0.0, 1.0), [(0, (0,))], DEFAULT_TOL)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=10),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(FAMILY_KINDS))
def test_joint_atoms_match_the_stacked_meets(seed, dim, count, kind):
    xs = observable_family(kind, dim, count, rng_from_seed(seed))
    dim = xs[0].dim
    atoms = joint_atoms(xs, dim)
    grid = itertools.product(*(range(len(x.spectrum)) for x in xs))
    for key, oracle in zip(grid, stacked_joint_atoms(xs, dim)):
        ours = Projector(atoms.get(key, np.zeros((dim, 0))), dim=dim)
        assert ours.rank == oracle.rank
        assert opnorm(ours.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol

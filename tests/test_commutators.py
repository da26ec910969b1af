"""Commutator projections: independent routes, subcommutator role, factorization."""

import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _ONE_GIB, SIGMA_X, SIGMA_Z, _run_under_one_gib, x_plus, z_up
from families import FAMILY_KINDS, observable_family, projector_family, projector_pair
from oracles import algebra_route, all_pairs_route, letter_commutator_norm, stacked_com_kernel
from qlogic import commutators, linalg, observables, projectors
from qlogic.algebras import (
    algebra_from_generators,
    contains,
    minimal_central_projections,
)
from qlogic.commutators import (
    com_family,
    com_kernel,
    com_observables,
    com_pair,
    threshold_family,
)
from qlogic.errors import DimensionMismatchError, FamilyTooLargeError, QLogicError
from qlogic.linalg import commutator, opnorm
from qlogic.observables import spectral_decompose
from qlogic.projectors import Projector, leq, ortho
from qlogic.sampling import (
    haar_unitary,
    random_block_observables,
    random_commuting_observables,
    rng_from_seed,
)
from qlogic.tolerances import DEFAULT_TOL


def ray(matrix):
    return Projector.from_matrix(np.asarray(matrix, dtype=complex))


def block_pair():
    """Non-commuting on the first two coordinates, equal on the last two."""
    p = np.zeros((4, 4), dtype=complex)
    p[:2, :2] = np.diag([1.0, 0.0])
    p[2:, 2:] = np.diag([1.0, 0.0])
    q = np.zeros((4, 4), dtype=complex)
    q[:2, :2] = (np.eye(2) + SIGMA_X) / 2.0
    q[2:, 2:] = np.diag([1.0, 0.0])
    return ray(p), ray(q)


SECOND_BLOCK = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)


# ---------------------------------------------------------------------------
# the two-projector commutator


def test_com_pair_commuting_is_identity():
    p = ray(np.diag([1.0, 0.0, 1.0]))
    q = ray(np.diag([1.0, 1.0, 0.0]))
    assert com_pair(p, q).rank == 3


def test_com_pair_transverse_rays_is_zero():
    assert com_pair(z_up(), x_plus()).rank == 0


def test_com_pair_block_structure():
    p, q = block_pair()
    e = com_pair(p, q)
    assert opnorm(e.matrix - SECOND_BLOCK) < 1e-8


def test_com_pair_builds_no_meet(monkeypatch):
    # The pairwise route is the kernel of [P, Q], independent of the lattice
    # formula com_family evaluates.
    def no_meet(*args, **kwargs):
        raise AssertionError("com_pair built a meet")

    monkeypatch.setattr(projectors, "meet", no_meet)
    monkeypatch.setattr(projectors, "meet_all", no_meet)
    monkeypatch.setattr(observables, "eigenspace_meets", no_meet)
    monkeypatch.setattr(commutators, "meet_all", no_meet)
    monkeypatch.setattr(commutators, "joint_atoms", no_meet)
    p, q = block_pair()
    assert opnorm(com_pair(p, q).matrix - SECOND_BLOCK) < 1e-8


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=6),
       kind=st.sampled_from(["random", "block", "commuting", "zero", "identity"]))
def test_com_pair_agrees_with_the_sign_map_join(seed, dim, kind):
    p, q = projector_pair(kind, dim, rng_from_seed(seed))
    pairwise, family = com_pair(p, q), com_family([p, q])
    assert pairwise.rank == family.rank
    assert opnorm(pairwise.matrix - family.matrix) <= DEFAULT_TOL.assert_tol


def test_com_routes_agree_on_blocks():
    p, q = block_pair()
    routes = [com_pair(p, q), com_family([p, q]), com_kernel([p, q])]
    for a in routes:
        for b in routes:
            assert a.isclose(b)


def test_com_family_single_member_is_identity():
    assert com_family([z_up()]).rank == 2


def test_com_family_triple_with_common_block():
    p, q = block_pair()
    r = ray(SECOND_BLOCK)
    e = com_family([p, q, r])
    assert opnorm(e.matrix - SECOND_BLOCK) < 1e-8
    assert com_kernel([p, q, r]).isclose(e)


def test_com_family_monotone_under_enlargement(rng):
    # Adding members can only shrink the compatible sector.
    for _ in range(5):
        dim = int(rng.integers(2, 5))
        family = [Projector.from_basis(
            (rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))), dim=dim)
            for r in rng.integers(1, dim, size=3)]
        small = com_family(family[:2])
        big = com_family(family)
        assert big <= small


def test_com_family_size_cap():
    members = [Projector.identity(2)] * 13
    with pytest.raises(FamilyTooLargeError):
        com_family(members)


def test_com_kernel_empty_family_rejected():
    with pytest.raises(FamilyTooLargeError):
        com_kernel([])


def test_com_kernel_rejects_members_of_different_dimensions():
    with pytest.raises(DimensionMismatchError):
        com_kernel([Projector.identity(2), Projector.identity(3)])


def test_com_observables_empty_family_rejected():
    with pytest.raises(FamilyTooLargeError):
        com_observables([])


def test_com_observables_rejects_members_of_different_dimensions():
    with pytest.raises(DimensionMismatchError):
        com_observables([spectral_decompose("Z", SIGMA_Z),
                         spectral_decompose("D", np.diag([1.0, 2.0, 3.0]))])


def test_invariant_route_rejects_a_member_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        commutators._invariant_route([SIGMA_Z, np.eye(3)], 2, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# observable families


def test_threshold_family_collects_strict_prefixes():
    x = spectral_decompose("A", np.diag([0.0, 1.0, 2.0]).astype(complex))
    members = threshold_family([x])
    # One cumulative projector per spectral point, the full-space one included.
    assert [p.rank for p in members] == [1, 2, 3]


def test_com_observables_commuting_family(rng):
    xs = random_commuting_observables(4, 3, rng)
    assert com_observables(xs).rank == 4


def test_com_observables_pauli_pair_empty():
    z = spectral_decompose("Z", SIGMA_Z)
    x = spectral_decompose("X", SIGMA_X)
    assert com_observables([z, x]).rank == 0


def test_com_observables_matches_projector_route():
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = SIGMA_Z
    a[2:, 2:] = np.diag([3.0, 5.0])
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2] = SIGMA_X
    b[2:, 2:] = np.diag([7.0, 7.0])
    xs = [spectral_decompose("A", a), spectral_decompose("B", b)]
    e = com_observables(xs)
    assert opnorm(e.matrix - SECOND_BLOCK) < 1e-8
    assert e.isclose(com_kernel(threshold_family(xs)))


def test_com_observables_returns_the_spectral_route_bits(rng):
    # The invariant route only checks; the result is the joint-atom route's.
    pauli = [spectral_decompose("Z", SIGMA_Z), spectral_decompose("X", SIGMA_X)]
    commuting = random_commuting_observables(4, 3, rng)
    block = random_block_observables([2, 3], [False, True], 2, rng)
    for xs in (pauli, commuting, block):
        ours = com_observables(xs)
        spectral = commutators._atom_route(xs)[0]
        assert np.array_equal(ours.basis, spectral.basis)
        assert np.array_equal(ours.matrix, spectral.matrix)


def test_com_observables_runs_no_triple_product_kernel(monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("com_observables solved the triple-product kernel")

    monkeypatch.setattr(commutators, "com_kernel", no_kernel)
    xs = random_block_observables([2, 3], [False, True], 2, rng_from_seed(5))
    assert com_observables(xs).rank >= 2


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=10),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(FAMILY_KINDS))
def test_atom_route_matches_the_threshold_kernel(seed, dim, count, kind):
    xs = observable_family(kind, dim, count, rng_from_seed(seed))
    ours, oracle = commutators._atom_route(xs)[0], com_kernel(threshold_family(xs))
    assert ours.rank == oracle.rank
    assert opnorm(ours.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=6),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(["generic", "commuting", "block", "scalar", "zero"]))
def test_generator_route_matches_all_pairs_route(seed, dim, count, kind):
    rng = rng_from_seed(seed)
    gens = [x.matrix for x in observable_family(kind, dim, count, rng)]
    if kind == "generic" and count == 1 and dim >= 4:
        # A rotated block family: the kernel is a proper nonzero subspace.
        u = haar_unitary(dim, rng)
        gens = [u @ x.matrix @ u.conj().T for x in observable_family("block", dim, 2, rng)]
    ours = commutators._invariant_route(gens, dim, DEFAULT_TOL)
    oracle = all_pairs_route(gens, dim)
    assert ours.rank == oracle.rank
    assert opnorm(ours.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol


def test_generator_route_of_zero_and_scalar_generators_is_identity():
    for gens in ([np.zeros((3, 3), complex)], [2.5 * np.eye(3, dtype=complex)],
                 [np.zeros((3, 3), complex), np.eye(3, dtype=complex)]):
        assert commutators._invariant_route(gens, 3, DEFAULT_TOL).rank == 3
        assert all_pairs_route(gens, 3).rank == 3


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=8),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(["generic", "commuting", "block", "determinate-block",
                             "scalar", "zero"]))
def test_invariant_route_matches_the_spectral_and_algebra_routes(seed, dim, count, kind):
    xs = observable_family(kind, dim, count, rng_from_seed(seed))
    dim = xs[0].dim
    gens = [x.matrix for x in xs]
    ours = commutators._invariant_route(gens, dim, DEFAULT_TOL)
    for oracle in (com_kernel(threshold_family(xs)), algebra_route(gens, dim)):
        assert ours.rank == oracle.rank
        assert opnorm(ours.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol


# ---------------------------------------------------------------------------
# the two-stage kernel against the stacked triple products


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=8),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(["generic", "simple", "commuting", "block", "determinate-block",
                             "split", "sector"]))
def test_com_kernel_matches_the_stacked_triple_products(seed, dim, count, kind):
    family = projector_family(kind, dim, count, rng_from_seed(seed))
    ours, oracle = com_kernel(family), stacked_com_kernel(family)
    assert ours.rank == oracle.rank
    assert opnorm(ours.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol


def test_com_kernel_systems_stay_within_the_pairwise_rows(monkeypatch):
    # Stacking the triple products of these 12 thresholds takes 4752 rows;
    # neither stage may exceed the 396 rows of the pairwise commutators.
    family = threshold_family(observable_family("simple", 6, 2, rng_from_seed(6)))
    shapes = []
    solve = linalg.solution_bases

    def recording(systems, unknowns, tol=DEFAULT_TOL):
        shapes.append(np.shape(systems))
        return solve(systems, unknowns, tol)

    monkeypatch.setattr(linalg, "solution_bases", recording)
    assert com_kernel(family).rank == 0
    count, dim = len(family), family[0].dim
    assert max(rows for _, rows, _ in shapes) <= count * (count - 1) // 2 * dim
    assert len(shapes) == 2


# A generic pair with simple spectra at d = 32 has 64 thresholds.  Their
# stacked triple products are one 4.1M x 32 system (1.97 GiB), which raises
# MemoryError under the limit; the two stages solve 64512 and 2048 rows.
_D32_CHILD = _ONE_GIB + textwrap.dedent("""
    from qlogic.commutators import com_observables
    from qlogic.sampling import haar_unitary, observable_from_eigenbasis
    rng = rng_from_seed(32)
    xs = [observable_from_eigenbasis(name, haar_unitary(32, rng), range(32), [1] * 32)
          for name in "XY"]
    start = time.process_time()
    print("rank", com_observables(xs).rank)
    print(time.process_time() - start)
""")


def test_d32_generic_pair_com_fits_in_one_gib():
    verdict, seconds = _run_under_one_gib(_D32_CHILD)
    assert verdict == "rank 0"
    assert seconds < 3.0


# The joint atoms of a simple-spectrum pair at d = 128 screen d^2 (atom,
# eigenvalue) pairs and solve at most 2d systems of d x 1; the two-stage
# com_kernel of its 256 thresholds would stack 4.2M x 128 pairwise
# commutators (about 8 GiB).
_D128_CHILD = _ONE_GIB + textwrap.dedent("""
    from qlogic.commutators import com_observables
    from qlogic.sampling import haar_unitary, observable_from_eigenbasis
    rng = rng_from_seed(128)
    xs = [observable_from_eigenbasis(name, haar_unitary(128, rng), range(128), [1] * 128)
          for name in "XY"]
    start = time.process_time()
    print("rank", com_observables(xs).rank)
    print(time.process_time() - start)
""")


def test_d128_generic_pair_com_fits_in_one_gib():
    verdict, seconds = _run_under_one_gib(_D128_CHILD)
    assert verdict == "rank 0"
    assert seconds < 10.0


# ---------------------------------------------------------------------------
# structural roles of the commutator: com(F) is the central part of the
# generated algebra on which the family commutes, abelian below and with no
# abelian block above


def _is_central(e, algebra):
    """E lies in the algebra and commutes with every letter."""
    limit = e.tol.assert_tol
    return (contains(algebra, e.matrix)
            and all(opnorm(commutator(e.matrix, g)) <= limit for g in algebra.letters))


def _compressions_commute(family, e):
    """The compressions P_i E commute pairwise."""
    compressed = [p.matrix @ e.matrix for p in family]
    return all(opnorm(commutator(a, b)) <= family[0].tol.assert_tol
               for i, a in enumerate(compressed) for b in compressed[i + 1:])


def _blocks_below(algebra, e):
    """The minimal central projections of the algebra under E."""
    return [c for c in minimal_central_projections(algebra) if leq(c, e)]


def test_verify_subcommutator_block_fixture():
    p, q = block_pair()
    algebra = algebra_from_generators([p.matrix, q.matrix], 4)
    e = com_family([p, q])
    assert _is_central(e, algebra)
    assert _compressions_commute([p, q], e)
    assert opnorm(e.matrix - SECOND_BLOCK) < 1e-8
    # Every minimal central piece below com carries a commuting compression.
    below = _blocks_below(algebra, e)
    assert below
    assert all(_compressions_commute([p, q], c) for c in below)


def test_verify_subcommutator_reports_a_com_that_is_not_central():
    # A letter coupling coordinates 1 and 2 makes the algebra M_3 (+) C on
    # coordinates {0, 1, 2} and {3}: com(F), the second block, lies in it but
    # is not central.
    p, q = block_pair()
    mixer = np.zeros((4, 4), dtype=complex)
    mixer[1, 2] = mixer[2, 1] = 1.0
    algebra = algebra_from_generators([p.matrix, q.matrix, mixer], 4)
    e = com_family([p, q])
    assert opnorm(e.matrix - SECOND_BLOCK) < 1e-8
    assert not _is_central(e, algebra)


def test_boolean_factorization_block_fixture():
    p, q = block_pair()
    algebra = algebra_from_generators([p.matrix, q.matrix], 4)
    c = com_family([p, q])
    assert letter_commutator_norm(algebra, c.matrix) < 1e-8
    # The incompatible side is one genuinely non-abelian block.
    above = _blocks_below(algebra, ortho(c))
    assert [e.rank for e in above] == [2]
    assert letter_commutator_norm(algebra, above[0].matrix) > 0.1


def test_boolean_factorization_commuting_family_has_no_residual():
    p = ray(np.diag([1.0, 0.0, 1.0, 0.0]))
    q = ray(np.diag([1.0, 1.0, 0.0, 0.0]))
    algebra = algebra_from_generators([p.matrix, q.matrix], 4)
    c = com_family([p, q])
    assert c.rank == 4
    assert letter_commutator_norm(algebra, c.matrix) <= DEFAULT_TOL.assert_tol
    assert _blocks_below(algebra, ortho(c)) == []


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=5),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(FAMILY_KINDS))
def test_com_is_the_central_abelian_part_of_the_generated_algebra(seed, dim, count, kind):
    family = threshold_family(observable_family(kind, dim, count, rng_from_seed(seed)))
    dim = family[0].dim
    try:
        algebra = algebra_from_generators([p.matrix for p in family], dim)
    except QLogicError:
        # Only a near-degenerate family may be refused by the build.
        assert kind == "split"
        return
    e = com_kernel(family)
    limit = DEFAULT_TOL.assert_tol
    assert _is_central(e, algebra)
    assert _compressions_commute(family, e)
    assert all(_compressions_commute(family, c) for c in _blocks_below(algebra, e))
    assert letter_commutator_norm(algebra, e.matrix) <= limit
    assert all(letter_commutator_norm(algebra, c.matrix) > limit
               for c in _blocks_below(algebra, ortho(e)))

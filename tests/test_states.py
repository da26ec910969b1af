"""States, Born probabilities, determinateness, and quantum equality."""

import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _ONE_GIB, SIGMA_X, SIGMA_Z, _run_under_one_gib, diag_obs
from families import FAMILY_KINDS, family_and_state, observable_family, split_pair
from oracles import (
    born_joint,
    common_eigenvector_span_by_meets,
    cyclic_by_algebra,
    grid_measure_by_meet_all,
    stacked_crossings,
    triple_products,
)
from qlogic import states
from qlogic.commutators import com_kernel
from qlogic.errors import (
    CrossCheckFailure,
    DimensionMismatchError,
    FamilyTooLargeError,
    NotCommutingError,
    QLogicError,
)
from qlogic.linalg import opnorm
from qlogic.observables import embed_first, embed_second, spectral_decompose
from qlogic.projectors import Projector
from qlogic.propositions import ObservableRegistry, parse
from qlogic.sampling import (
    random_commuting_observables,
    random_density,
    random_observable,
    random_vector_state,
    rng_from_seed,
    state_supported_in,
)
from qlogic.states import (
    DensityState,
    JointDistribution,
    common_eigenvector_projector,
    cyclic_projector,
    determinateness_battery,
    equal_in_state,
    equality_battery,
    equality_projector,
    equivalence_relation_check,
    holds,
    probability,
    projector_probability,
    simultaneously_determinate,
)
from qlogic.tolerances import DEFAULT_TOL


def basis_state(dim, index):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return DensityState.from_vector(v)


@pytest.fixture
def bell():
    return DensityState.from_vector(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2))


# ---------------------------------------------------------------------------
# density states


def test_from_matrix_resolves_support():
    rho = DensityState.from_matrix(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert rho.dim == 3
    assert rho.rank == 2
    assert np.allclose(rho.support.matrix, np.diag([1.0, 1.0, 0.0]))


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        DensityState.from_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityState.from_matrix(np.diag([0.9, 0.9]).astype(complex))


def test_from_vector_validation():
    with pytest.raises(ValueError):
        DensityState.from_vector(np.array([1.0, 1.0]))
    rho = DensityState.from_vector(np.array([1.0, 1.0]) / np.sqrt(2))
    assert rho.rank == 1
    assert rho.expectation(SIGMA_X).real == pytest.approx(1.0)


def test_maximally_mixed_and_tensor():
    rho = DensityState.maximally_mixed(2)
    product = rho.tensor(basis_state(3, 0))
    assert product.dim == 6
    assert product.rank == 2
    assert np.trace(product.matrix).real == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# probabilities


def test_projector_probability_clamps_and_checks_dim():
    rho = basis_state(2, 0)
    p = Projector.from_matrix(np.diag([1.0, 0.0]))
    assert projector_probability(p, rho) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatchError):
        projector_probability(Projector.identity(3), rho)


def test_probability_and_holds(pauli_z, pauli_x):
    registry = ObservableRegistry([pauli_z, pauli_x])
    up = basis_state(2, 0)
    assert probability(parse("Z == 1"), up, registry) == pytest.approx(1.0)
    assert probability(parse("Z == -1"), up, registry) == pytest.approx(0.0)
    assert holds(parse("Z == 1"), up, registry)
    assert not holds(parse("X == 1"), up, registry)
    plus = DensityState.from_vector(np.array([1.0, 1.0]) / np.sqrt(2))
    assert probability(parse("X == 1"), plus, registry) == pytest.approx(1.0)


def test_born_joint_matches_hand_computation():
    a = diag_obs("A", 0.0, 1.0, 2.0)
    b = diag_obs("B", 0.0, 0.0, 5.0)
    rho = DensityState.from_matrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
    # Pr{A <= 1, B <= 0} sums the first two diagonal weights.
    assert born_joint([a, b], [1.0, 0.0], rho) == pytest.approx(0.5)
    assert born_joint([a, b], [2.0, 5.0], rho) == pytest.approx(1.0)
    assert born_joint([a, b], [-1.0, 5.0], rho) == pytest.approx(0.0)


def test_born_joint_rejects_non_commuting(pauli_z, pauli_x):
    with pytest.raises(NotCommutingError):
        born_joint([pauli_z, pauli_x], [0.0, 0.0], basis_state(2, 0))


def test_born_joint_threshold_count_mismatch(pauli_z):
    with pytest.raises(DimensionMismatchError):
        born_joint([pauli_z], [0.0, 1.0], basis_state(2, 0))


# ---------------------------------------------------------------------------
# joint distributions


def test_joint_distribution_accessors():
    dist = JointDistribution(("A", "B"), {(0.0, 0.0): 0.2, (1.0, 0.0): 0.3, (2.0, 5.0): 0.5})
    assert dist.total_mass == pytest.approx(1.0)
    assert dist.mass([[0.0, 1.0], [0.0]]) == pytest.approx(0.5)
    assert dist.marginal(0) == pytest.approx({0.0: 0.2, 1.0: 0.3, 2.0: 0.5})
    assert dist.marginal(1) == pytest.approx({0.0: 0.5, 5.0: 0.5})
    assert [v for v, _ in dist.sorted_items()] == [(0.0, 0.0), (1.0, 0.0), (2.0, 5.0)]


def test_joint_distribution_validation():
    with pytest.raises(QLogicError):
        JointDistribution(("A",), {(0.0,): 0.4})
    with pytest.raises(QLogicError):
        JointDistribution(("A",), {(0.0,): 1.5, (1.0,): -0.5})


def test_joint_distribution_checks_at_its_own_tolerance():
    loose = DEFAULT_TOL.with_assert_tol(1e-6)
    off = {(0.0,): 0.5, (1.0,): 0.5 + 5e-8}
    assert JointDistribution(("A",), off, loose).total_mass == pytest.approx(1.0)
    with pytest.raises(QLogicError):
        JointDistribution(("A",), off)
    negative = {(0.0,): -5e-8, (1.0,): 1.0}
    JointDistribution(("A",), negative, loose)
    with pytest.raises(QLogicError):
        JointDistribution(("A",), negative)


def test_battery_distribution_carries_the_state_tolerance():
    loose = DEFAULT_TOL.with_assert_tol(1e-6)
    rng = rng_from_seed(4)
    xs = random_commuting_observables(4, 2, rng, loose)
    report = determinateness_battery(xs, random_density(4, rng, tol=loose))
    assert report.distribution.tol is loose


# ---------------------------------------------------------------------------
# cyclic subspaces


def test_cyclic_projector_spans_orbit():
    a = diag_obs("A", 0.0, 1.0, 2.0)
    rho = basis_state(3, 1)
    p = cyclic_projector([a], rho)
    # A's eigenvectors are the coordinate axes, so the orbit stays on axis 1.
    assert p.rank == 1
    assert np.allclose(p.matrix, np.diag([0.0, 1.0, 0.0]))


def test_cyclic_projector_grows_with_mixing(pauli_x):
    up = basis_state(2, 0)
    p = cyclic_projector([pauli_x], up)
    # X maps the up state onto the down state, so the orbit is everything.
    assert p.rank == 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=6),
       values=st.integers(min_value=1, max_value=6),
       kind=st.sampled_from(["vector", "mixed", "full", "eigenspace"]))
def test_one_observable_cyclic_projector_matches_algebra_route(seed, dim, values, kind):
    rng = rng_from_seed(seed)
    # Fewer distinct values than the dimension gives repeated eigenvalues.
    x = random_observable("X", dim, rng, n_values=min(values, dim))
    if kind == "vector":
        state = random_vector_state(dim, rng)
    elif kind == "mixed":
        state = random_density(dim, rng)
    elif kind == "full":
        state = random_density(dim, rng, rank=dim)
    else:
        eigenspace = x.eigenprojectors[int(rng.integers(len(x.eigenprojectors)))]
        state = state_supported_in(eigenspace, rng)
    direct = cyclic_projector([x], state)
    oracle = cyclic_by_algebra([x], state)
    assert direct.rank == oracle.rank
    assert opnorm(direct.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol
    if kind == "eigenspace":
        assert direct.rank == state.rank


def test_one_observable_cyclic_projector_requires_matching_dims(pauli_z):
    with pytest.raises(DimensionMismatchError):
        cyclic_projector([pauli_z], DensityState.maximally_mixed(3))


def test_family_cyclic_projector_requires_matching_dims(pauli_z):
    with pytest.raises(DimensionMismatchError):
        cyclic_projector([pauli_z, diag_obs("D", 0.0, 1.0, 2.0)], DensityState.maximally_mixed(2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=8),
       count=st.integers(min_value=2, max_value=3),
       family=st.sampled_from(["generic", "commuting", "block", "determinate-block"]),
       kind=st.sampled_from(["vector", "mixed", "full"]))
def test_family_cyclic_projector_matches_algebra_route(seed, dim, count, family, kind):
    rng = rng_from_seed(seed)
    xs = observable_family(family, dim, count, rng)
    dim = xs[0].dim
    if kind == "vector":
        state = random_vector_state(dim, rng)
    elif kind == "mixed":
        state = random_density(dim, rng)
    else:
        state = random_density(dim, rng, rank=dim)
    orbit = cyclic_projector(xs, state)
    oracle = cyclic_by_algebra(xs, state)
    assert orbit.rank == oracle.rank
    assert opnorm(orbit.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol


# ---------------------------------------------------------------------------
# determinateness


def test_simultaneously_determinate_commuting(rng):
    xs = random_commuting_observables(4, 2, rng)
    rho = DensityState.maximally_mixed(4)
    assert simultaneously_determinate(xs, rho)


def test_simultaneously_determinate_depends_on_state(pauli_z, pauli_x):
    xs = [pauli_z, pauli_x]
    assert not simultaneously_determinate(xs, DensityState.maximally_mixed(2))
    assert not simultaneously_determinate(xs, basis_state(2, 0))


def test_determinateness_battery_positive(rng):
    xs = random_commuting_observables(4, 2, rng)
    rho = DensityState.maximally_mixed(4)
    report = determinateness_battery(xs, rho)
    assert report.coherent
    assert report.holds
    assert all(report.clauses.values())
    assert report.projector.rank == 4
    assert report.distribution is not None
    assert report.distribution.total_mass == pytest.approx(1.0)
    assert set(report.clauses) == {
        "full_probability", "state_invariance", "cyclic_dominated",
        "algebra_kills_state", "compressions_commute", "product_measure",
    }


def test_determinateness_battery_negative(pauli_z, pauli_x):
    report = determinateness_battery([pauli_z, pauli_x], DensityState.maximally_mixed(2))
    assert report.coherent
    assert not report.holds
    assert not any(report.clauses.values())
    assert report.distribution is None
    assert report.projector.rank == 0


def test_determinateness_battery_block_state():
    # Non-commuting in one sector, but the state lives in the compatible one.
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = SIGMA_Z
    a[2:, 2:] = np.diag([3.0, 4.0])
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2] = SIGMA_X
    b[2:, 2:] = np.diag([6.0, 7.0])
    xs = [spectral_decompose("A", a), spectral_decompose("B", b)]
    sector_state = DensityState.from_matrix(np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
    report = determinateness_battery(xs, sector_state)
    assert report.holds
    marg = report.distribution.marginal(0)
    assert marg == pytest.approx({-1.0: 0.0, 1.0: 0.0, 3.0: 0.5, 4.0: 0.5}, abs=1e-10)
    outside = DensityState.maximally_mixed(4)
    assert not determinateness_battery(xs, outside).holds


def _split_battery(split, dim, seed):
    """The determinateness battery on ``split_pair`` and a random state."""
    rng = np.random.default_rng(seed)
    x, y = split_pair(dim, split, rng)
    xs = [spectral_decompose("X", x), spectral_decompose("Y", y)]
    return determinateness_battery(xs, random_density(dim, rng))


# com_observables' spectral and invariant routes disagree by 1.0 on this pair,
# before the battery reaches its algebra clause (CHANGES.md, FOUND).
_COM_ROUTES_DISAGREE = (1e-6, 7, 23)


@pytest.mark.parametrize("split", [1e-5, 1e-6])
def test_split_pairs_get_a_coherent_determinateness_report(split):
    # With the algebra clause built on the word span, ten of these 840
    # instances were refused with "algebra does not contain its generators".
    refused = {}
    for dim in range(2, 9):
        for seed in range(60):
            if (split, dim, seed) == _COM_ROUTES_DISAGREE:
                continue
            try:
                _split_battery(split, dim, seed)
            except QLogicError as error:
                refused[dim, seed] = f"{type(error).__name__}: {error}"
    assert refused == {}


@pytest.mark.xfail(raises=CrossCheckFailure, strict=True,
                   reason="com_observables' routes disagree on a 1e-6 split")
def test_the_split_pair_whose_com_routes_disagree():
    _split_battery(*_COM_ROUTES_DISAGREE)


def test_determinateness_joint_distribution_matches_born(rng):
    xs = random_commuting_observables(4, 2, rng)
    rho = DensityState.maximally_mixed(4)
    report = determinateness_battery(xs, rho)
    x, y = xs
    for (a, b), mass in report.distribution.sorted_items():
        direct = np.trace(x.eigenprojector_at(a).matrix @ y.eigenprojector_at(b).matrix
                          @ rho.matrix)
        assert mass == pytest.approx(direct.real, abs=1e-10)


_FAMILY_KINDS = ["commuting", "determinate-block", "generic", "agreeing"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=7),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(_FAMILY_KINDS))
def test_grid_measure_matches_the_per_meet_loop(seed, dim, count, kind):
    xs, state = family_and_state(kind, dim, count, rng_from_seed(seed))
    masses, worst, ok = states._grid_measure(xs, state, DEFAULT_TOL)
    expected_masses, expected_worst, expected_ok = grid_measure_by_meet_all(xs, state, DEFAULT_TOL)
    limit = DEFAULT_TOL.assert_tol
    assert list(masses) == list(expected_masses)
    assert max(abs(masses[k] - expected_masses[k]) for k in masses) <= limit
    assert abs(worst - expected_worst) <= limit
    assert ok == expected_ok


# ---------------------------------------------------------------------------
# equality


def test_equality_projector_diagonal_fixtures():
    a = diag_obs("A", 0.0, 1.0, 2.0)
    b = diag_obs("B", 0.0, 0.0, 5.0)
    q = equality_projector(a, b)
    assert np.allclose(q.matrix, np.diag([1.0, 0.0, 0.0]))
    assert equality_projector(a, a).rank == 3


def test_equality_projector_requires_matching_dims(pauli_z):
    with pytest.raises(DimensionMismatchError):
        equality_projector(pauli_z, diag_obs("B", 0.0, 1.0, 2.0))


def test_equal_in_state_diagonal():
    a = diag_obs("A", 0.0, 1.0, 2.0)
    b = diag_obs("B", 0.0, 0.0, 5.0)
    assert equal_in_state(a, b, basis_state(3, 0))
    assert not equal_in_state(a, b, basis_state(3, 1))


def test_bell_state_equality(bell):
    first = embed_first(spectral_decompose("Z1", SIGMA_Z), 2)
    second = embed_second(spectral_decompose("Z2", SIGMA_Z), 2)
    q = equality_projector(first, second)
    assert np.allclose(q.matrix, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-10)
    # The Bell state is a witness: perfectly correlated, probability one.
    assert projector_probability(q, bell) >= 1.0 - 1e-10
    report = equality_battery(first, second, bell)
    assert report.holds
    assert report.coherent


def test_equality_battery_negative(bell):
    first = embed_first(spectral_decompose("Z1", SIGMA_Z), 2)
    x_second = embed_second(spectral_decompose("X2", SIGMA_X), 2)
    report = equality_battery(first, x_second, bell)
    assert report.coherent
    assert not report.holds
    assert not any(report.clauses.values())


def test_equality_battery_clause_names():
    a = diag_obs("A", 0.0, 1.0)
    b = diag_obs("B", 0.0, 1.0)
    report = equality_battery(a, b, basis_state(2, 1))
    assert set(report.clauses) == {
        "full_probability", "no_cross_correlation", "operators_agree_on_cyclic",
        "expectations_agree_on_cyclic", "spectral_action_on_state",
        "cyclic_subspaces_match", "diagonal_concentration",
    }
    assert report.holds


def test_equivalence_relation_fixtures():
    x = diag_obs("A", 0.0, 1.0, 2.0)
    y = diag_obs("B", 0.0, 0.0, 5.0)
    z = diag_obs("C", 1.0, 3.0, 5.0)
    report = equivalence_relation_check(x, y, z)
    assert report.passed
    assert report.reflexive_residual <= 1e-10
    assert report.symmetric_exact
    assert report.transitive


def test_equivalence_relation_with_non_commuting_middle(pauli_z, pauli_x):
    z2 = spectral_decompose("Z2", SIGMA_Z)
    report = equivalence_relation_check(pauli_z, pauli_x, z2)
    assert report.passed


# The examples are commuting pairs on which solving the swapped (negated)
# threshold system gave singular vectors that differ in the last bits.
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=6),
       kind=st.sampled_from(["generic", "commuting", "agreeing"]))
@example(seed=33, dim=4, kind="commuting")
@example(seed=91, dim=3, kind="commuting")
@example(seed=160, dim=6, kind="commuting")
def test_equality_projector_is_bitwise_symmetric(seed, dim, kind):
    x, y = observable_family(kind, dim, 2, rng_from_seed(seed))
    assert np.array_equal(equality_projector(x, y).matrix, equality_projector(y, x).matrix)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=10),
       kind=st.sampled_from(FAMILY_KINDS))
def test_crossing_route_matches_the_stacked_cross_terms(seed, dim, kind):
    x, y = (observable_family(kind, dim, 2, rng_from_seed(seed)) * 2)[:2]
    ours = states._crossing_route(x, y, DEFAULT_TOL)
    oracle = stacked_crossings(x, y)
    assert ours.rank == oracle.rank
    assert opnorm(ours.matrix - oracle.matrix) <= DEFAULT_TOL.assert_tol


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=10),
       kind=st.sampled_from(FAMILY_KINDS))
def test_cross_correlations_match_the_triple_products(seed, dim, kind):
    rng = rng_from_seed(seed)
    x, y = (observable_family(kind, dim, 2, rng) * 2)[:2]
    state = random_density(x.dim, rng)
    ours = states._cross_correlations(x, y, state)
    assert np.max(np.abs(ours - triple_products(x, y, state))) <= DEFAULT_TOL.assert_tol


# ---------------------------------------------------------------------------
# common eigenvector spans


def test_common_eigenvectors_determinate_mode(rng):
    xs = random_commuting_observables(4, 2, rng)
    span = common_eigenvector_projector(xs, mode="determinate")
    assert span.rank == 4


def test_common_eigenvectors_match_com_on_blocks():
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = SIGMA_Z
    a[2:, 2:] = np.diag([3.0, 4.0])
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2] = SIGMA_X
    b[2:, 2:] = np.diag([6.0, 7.0])
    xs = [spectral_decompose("A", a), spectral_decompose("B", b)]
    span = common_eigenvector_projector(xs, mode="determinate")
    assert np.allclose(span.matrix, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-8)


def test_common_eigenvectors_equal_mode():
    a = diag_obs("A", 0.0, 1.0, 2.0)
    b = diag_obs("B", 0.0, 0.0, 5.0)
    span = common_eigenvector_projector([a, b], mode="equal")
    assert np.allclose(span.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-8)


def test_common_eigenvectors_equal_mode_arity():
    a = diag_obs("A", 0.0, 1.0, 2.0)
    with pytest.raises(DimensionMismatchError):
        common_eigenvector_projector([a], mode="equal")


@pytest.mark.parametrize("mode", ["determinate", "equal"])
def test_common_eigenvectors_of_an_empty_or_mixed_family_raise_typed_errors(mode):
    with pytest.raises(FamilyTooLargeError):
        common_eigenvector_projector([], mode)
    with pytest.raises(DimensionMismatchError):
        common_eigenvector_projector([diag_obs("A", 0.0, 1.0), diag_obs("B", 0.0, 1.0, 2.0)],
                                     mode)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=6),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(_FAMILY_KINDS))
def test_common_eigenvectors_match_the_per_atom_loops(seed, dim, count, kind):
    xs, _ = family_and_state(kind, dim, count, rng_from_seed(seed))
    for family, mode in ((xs, "determinate"), ((xs + xs)[:2], "equal")):
        span = common_eigenvector_projector(family, mode)
        expected = common_eigenvector_span_by_meets(family, mode)
        assert span.rank == expected.rank
        assert opnorm(span.matrix - expected.matrix) <= DEFAULT_TOL.assert_tol


def test_common_eigenvectors_compare_with_the_threshold_kernel(monkeypatch):
    # The determinate mode's target is the triple-product route, not
    # com_observables, which spans the same atoms.
    calls = []
    monkeypatch.setattr(states, "com_kernel",
                        lambda family: calls.append(len(family)) or com_kernel(family))
    monkeypatch.setattr(states, "com_observables", None)
    xs = random_commuting_observables(4, 2, rng_from_seed(2))
    assert common_eigenvector_projector(xs, "determinate").rank == 4
    assert calls == [sum(len(x.spectrum) for x in xs)]


# ---------------------------------------------------------------------------
# the d^4 memory wall

# A d = 16 generic pair.  A double-commutant build solves a 2 d^4-row system
# for it, needs ~2.1 GB and raises MemoryError already at 1.5 GB; the words
# and the one (4 d^2)-row commutant solve fit, in 0.7-1.0 s on a 2-vCPU VM.
_WALL_CHILD = _ONE_GIB + textwrap.dedent("""
    from qlogic.states import determinateness_battery
    rng = rng_from_seed(16)
    xs = [random_observable(name, 16, rng) for name in "XY"]
    state = random_density(16, rng)
    start = time.process_time()
    print("determinate", determinateness_battery(xs, state).holds)
    print(time.process_time() - start)
""")

# A d = 20 pair with degenerate spectra: its 146-element commutant makes the
# double-commutant system 116800 x 400, which raises MemoryError under the
# limit; the word span reaches the 51-element algebra.
_DEGENERATE_CHILD = _ONE_GIB + textwrap.dedent("""
    from qlogic.algebras import algebra_from_generators
    rng = rng_from_seed(1)
    xs = [random_observable(name, 20, rng) for name in "XY"]
    start = time.process_time()
    print("size", algebra_from_generators([x.matrix for x in xs], 20).size)
    print(time.process_time() - start)
""")


# A determinate block family at d = 48 and a pair with simple spectra in Haar
# frames at d = 32.  Building their generated algebras took 79 s and 1.8 GB,
# and 11 s and 407 MB, on a 2-vCPU VM; the abelian part reads one element.
_SCALE_CHILD = _ONE_GIB + textwrap.dedent("""
    from qlogic.sampling import haar_unitary, observable_from_eigenbasis, random_determinate_family
    from qlogic.states import determinateness_battery
    rng = rng_from_seed(48)
    block, sector_state = random_determinate_family(48, 2, rng)
    simple = [observable_from_eigenbasis(name, haar_unitary(32, rng), range(32), [1] * 32)
              for name in "XY"]
    state = random_density(32, rng)
    start = time.process_time()
    print("determinate", determinateness_battery(block, sector_state).holds,
          determinateness_battery(simple, state).holds)
    print(time.process_time() - start)
""")


def test_d48_block_and_d32_simple_batteries_fit_in_one_gib():
    verdict, seconds = _run_under_one_gib(_SCALE_CHILD)
    assert verdict == "determinate True False"
    assert seconds < 3.0


def test_d16_generic_pair_battery_fits_in_one_gib():
    verdict, seconds = _run_under_one_gib(_WALL_CHILD)
    assert verdict == "determinate False"
    assert seconds < 3.0


# A test of its own rather than a parameter of the d = 16 test, so that the
# d = 16 test keeps its id.
def test_d20_degenerate_pair_algebra_fits_in_one_gib():
    verdict, seconds = _run_under_one_gib(_DEGENERATE_CHILD)
    assert verdict == "size 51"
    assert seconds < 3.0


# A pair with simple spectra in Haar frames at d = 64.  With every cross term a
# full d x d product, the crossing route stacks ~d^2 of them and the com route
# solves ~2d^3 pairwise rows; on the observables' own bases the battery fits.
_EQUALITY_CHILD = _ONE_GIB + textwrap.dedent("""
    from qlogic.sampling import haar_unitary, observable_from_eigenbasis
    from qlogic.states import equality_battery
    rng = rng_from_seed(64)
    x, y = (observable_from_eigenbasis(name, haar_unitary(64, rng), range(64), [1] * 64)
            for name in "XY")
    state = random_density(64, rng)
    start = time.process_time()
    print("equal", equality_battery(x, y, state).holds)
    print(time.process_time() - start)
""")


def test_d64_generic_equality_battery_fits_in_one_gib():
    verdict, seconds = _run_under_one_gib(_EQUALITY_CHILD)
    assert verdict == "equal False"
    assert seconds < 10.0

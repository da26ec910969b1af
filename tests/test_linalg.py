"""Matrix utilities: decompositions, kernels, tensor bookkeeping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z
from families import kernel_input
from oracles import unfloored_kernel_basis
from qlogic import DEFAULT_TOL, cli
from qlogic.algebras import algebra_from_generators, minimal_central_projections
from qlogic.errors import (
    DimensionMismatchError,
    FactorizationError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
)
from qlogic.linalg import (
    as_matrix,
    commutator,
    dagger,
    hermitian_eig,
    kernel_basis,
    kron,
    matrices_commute,
    opnorm,
    opnorms,
    partial_trace_second,
    range_basis,
    require_square,
    singular_cutoff,
    solution_bases,
    solution_basis,
)
from qlogic.measurement import POVM, naimark_process
from qlogic.projectors import Projector
from qlogic.scenario import load_scenario
from qlogic.sampling import haar_unitary, random_povm, rng_from_seed


def test_as_matrix_and_require_square():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    with pytest.raises(NonSquareError):
        require_square(np.zeros((2, 3)))
    with pytest.raises(NonSquareError):
        require_square(np.zeros(4))


def test_dagger_and_opnorm():
    m = np.array([[1, 2j], [0, 1]], dtype=complex)
    assert np.allclose(dagger(m), m.conj().T)
    assert opnorm(SIGMA_X) == pytest.approx(1.0)
    assert opnorm(3.0 * SIGMA_Z) == pytest.approx(3.0)


@pytest.mark.parametrize("shape", [(0,), (0, 3, 3), (4, 0, 0), (3, 0, 2), (1, 1, 1),
                                   (5, 3, 3), (6, 4, 2), (7, 7, 7)])
def test_opnorms_equals_opnorm_of_each_matrix_exactly(shape, rng):
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if len(shape) == 3 and shape[0] > 1:
        stack[0] = 0.0
    norms = opnorms(stack)
    assert norms.shape == (shape[0],)
    assert norms.tolist() == [opnorm(m) for m in stack]


def test_commutator_and_matrices_commute():
    assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)
    assert matrices_commute(SIGMA_Z, np.diag([2.0, 5.0]))
    assert not matrices_commute(SIGMA_Z, SIGMA_X)


def test_hermitian_eig_sorted_and_orthonormal(rng):
    u = haar_unitary(5, rng)
    values = np.array([-2.0, -2.0, 0.5, 1.0, 3.0])
    m = u @ np.diag(values) @ dagger(u)
    eigenvalues, vectors = hermitian_eig(m)
    assert np.all(np.diff(eigenvalues) >= 0)
    assert np.allclose(eigenvalues, values, atol=1e-10)
    assert np.allclose(dagger(vectors) @ vectors, np.eye(5), atol=1e-12)
    assert np.allclose(vectors @ np.diag(eigenvalues) @ dagger(vectors), m, atol=1e-10)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_singular_cutoff_scaling():
    s = np.array([5.0, 1.0, 1e-12])
    base = singular_cutoff(s, 3, DEFAULT_TOL)
    assert base == pytest.approx(1e-9 * 5.0 * 3)
    # A floor dominates when the data itself is tiny.
    noise = np.array([1e-15])
    floored = singular_cutoff(noise, 4, DEFAULT_TOL, scale_floor=1.0)
    assert floored == pytest.approx(1e-9 * 4)
    assert singular_cutoff(noise, 4, DEFAULT_TOL) < 1e-20


def test_kernel_basis_exact():
    m = np.diag([1.0, 0.0, 2.0, 0.0]).astype(complex)
    basis = kernel_basis(m)
    assert basis.shape == (4, 2)
    assert opnorm(m @ basis) < 1e-12
    assert np.allclose(dagger(basis) @ basis, np.eye(2), atol=1e-12)


def test_kernel_basis_full_rank_is_empty():
    assert kernel_basis(np.eye(3)).shape == (3, 0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=12),
       kind=st.sampled_from(["projector", "random", "zero", "rank-deficient"]))
def test_kernel_basis_gives_the_bits_of_the_unfloored_oracle(seed, dim, kind):
    # The floor at one moves the cutoff only within (rank_rel_tol d s0,
    # rank_rel_tol d], and no singular value of these inputs lies there:
    # projectors have s0 = 1, and the zero singular values of a zero or
    # rank-deficient matrix sit at rounding level, below either cutoff.
    m = kernel_input(kind, dim, rng_from_seed(seed))
    ours = kernel_basis(m)
    oracle = unfloored_kernel_basis(m)
    assert ours.shape == oracle.shape
    assert np.array_equal(ours, oracle)


def test_solution_basis_rectangular():
    # One equation x0 + x1 + x2 = 0 in three unknowns.
    system = np.ones((1, 3), dtype=complex)
    basis = solution_basis(system, 3)
    assert basis.shape == (3, 2)
    assert opnorm(system @ basis) < 1e-12


def test_solution_basis_tall_stack(rng):
    # More rows than unknowns exercises the economy factorization path.
    rows = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    null_direction = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
    rows -= (rows @ null_direction)[:, None] * null_direction[None, :]
    basis = solution_basis(rows, 4)
    assert basis.shape == (4, 1)
    assert abs(abs(null_direction @ basis[:, 0]) - 1.0) < 1e-10


def test_solution_basis_empty_system():
    basis = solution_basis(np.zeros((0, 3)), 3)
    assert np.allclose(basis, np.eye(3))


def test_solution_basis_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solution_basis(np.zeros((2, 3)), 4)


@pytest.mark.parametrize("shape", [(0, 2, 3), (3, 0, 3), (2, 1, 1), (4, 1, 3), (5, 3, 3),
                                   (3, 8, 3), (2, 12, 4)])
# At scale 1e-12 every system lies below the floored cutoff and is all null space.
@pytest.mark.parametrize("scale", [1e-12, 1.0])
def test_solution_bases_gives_each_system_the_bits_of_solution_basis(shape, scale, rng):
    stack = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    n = shape[2]
    if shape[0] >= 2 and shape[1] > 0:
        # A zero system, and one with a known null direction.
        stack[0] = 0.0
        v = np.ones(n) / np.sqrt(n)
        stack[1] = stack[1] - (stack[1] @ v)[:, None] * v[None, :]
    bases = solution_bases(stack, n)
    assert len(bases) == shape[0]
    for system, basis in zip(stack, bases):
        expected = solution_basis(system, n)
        assert basis.shape == expected.shape
        assert np.array_equal(basis, expected)


def test_solution_bases_shape_checks():
    with pytest.raises(DimensionMismatchError):
        solution_bases(np.zeros((2, 2, 3)), 4)
    with pytest.raises(DimensionMismatchError):
        solution_bases(np.zeros((2, 3)), 3)


@pytest.mark.parametrize("matrix", [
    [[np.nan]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[1e308]],
    [[0.0, 1e308], [-1e308, 0.0]],
    np.full((3, 3), 6e307),
], ids=["nan", "inf", "symmetrization-overflow", "skew-overflow", "norm-overflow"])
def test_hermitian_eig_rejects_non_finite_input_and_overflow(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            hermitian_eig(np.asarray(matrix, dtype=complex))


@pytest.mark.parametrize("matrix", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
    np.full((3, 3), 6e307),
], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("norm", [opnorm, lambda m: opnorms(m[None])], ids=["opnorm", "opnorms"])
def test_norms_reject_non_finite_input_and_overflow(matrix, norm):
    # A NaN norm would pass every "norm > tol" guard silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            norm(np.asarray(matrix, dtype=complex))


def test_range_basis():
    columns = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]], dtype=complex)
    basis = range_basis(columns)
    assert basis.shape == (3, 1)
    projected = basis @ dagger(basis) @ columns
    assert opnorm(projected - columns) < 1e-12


def test_kron_matches_numpy():
    a = SIGMA_X
    b = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert np.allclose(kron(a, b), np.kron(a, b))


def test_partial_trace_second_index_sum(rng):
    # Oracle: explicit index contraction over the second factor.
    d1, d2 = 3, 4
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    expected = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            expected[i, j] = sum(m[i * d2 + k, j * d2 + k] for k in range(d2))
    assert np.allclose(partial_trace_second(m, d1, d2), expected, atol=1e-12)


def test_partial_trace_of_product_factorizes(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    reduced = partial_trace_second(np.kron(a, b), 3, 2)
    assert np.allclose(reduced, a * np.trace(b), atol=1e-12)


def test_partial_trace_shape_check():
    with pytest.raises(DimensionMismatchError):
        partial_trace_second(np.eye(5), 2, 2)


def test_rng_from_seed_is_deterministic():
    a = rng_from_seed(5).normal(size=8)
    b = rng_from_seed(5).normal(size=8)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# factorizations that do not converge


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("no convergence")


_QUBIT_EFFECTS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


# Every SVD and Hermitian eigendecomposition in the package goes through the
# typed wrappers in qlogic.linalg; each case makes the numpy routine it calls
# fail to converge.
@pytest.mark.parametrize("routine, call", [
    ("svd", lambda: solution_basis(np.ones((2, 3)), 3)),
    ("svd", lambda: solution_bases(np.ones((2, 2, 3)), 3)),
    ("svd", lambda: kernel_basis(np.eye(3))),
    ("svd", lambda: range_basis(np.ones((3, 2)))),
    ("svd", lambda: opnorms(np.ones((2, 3, 3)))),
    ("svd", lambda: opnorm(np.eye(3))),
    ("eigh", lambda: hermitian_eig(np.diag([1.0, 2.0]))),
    ("eigh", lambda: POVM([0.0, 1.0], _QUBIT_EFFECTS)),
    ("eigh", lambda: Projector.from_matrix(np.diag([1.0, 0.0]))),
    ("eigh", lambda: random_povm(2, 2, rng_from_seed(1))),
    ("svd", lambda: naimark_process(POVM([0.0, 1.0], _QUBIT_EFFECTS))),
], ids=["solution_basis", "solution_bases", "kernel_basis", "range_basis", "opnorms",
        "opnorm", "hermitian_eig", "POVM", "Projector.from_matrix", "random_povm",
        "naimark_process"])
def test_svd_non_convergence_raises_a_typed_error(monkeypatch, routine, call):
    monkeypatch.setattr(np.linalg, routine, _no_convergence)
    with pytest.raises(FactorizationError, match="did not converge"):
        call()


def test_central_eigh_non_convergence_raises_a_typed_error(monkeypatch):
    alg = algebra_from_generators([np.diag([1.0, 1.0, 2.0])], 3)
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    with pytest.raises(FactorizationError, match="did not converge"):
        minimal_central_projections(alg)


def test_cli_reports_a_failed_factorization_without_traceback(monkeypatch, capsys, scenario_file):
    monkeypatch.setattr(np.linalg, "svd", _no_convergence)
    assert cli.main(["prob", scenario_file, "compatible", "up"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("assertion failure: SVD of a ")
    assert "Traceback" not in captured.err

    # An eigendecomposition that fails after the scenario has loaded.
    monkeypatch.undo()
    scenario = load_scenario(scenario_file)
    monkeypatch.setattr(cli, "load_scenario", lambda path, tol: scenario)
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    assert cli.main(["measure", scenario_file, "pointer", "Z", "up"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("assertion failure: eigendecomposition of a ")
    assert "Traceback" not in captured.err

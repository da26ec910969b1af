"""The tolerance ladder, its invariants, and the tolerance objects carry."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import qlogic
from qlogic import (
    DEFAULT_TOL,
    DensityState,
    ObservableRegistry,
    ToleranceConfig,
    is_contextually_wellformed,
    is_standard,
    parse,
    simultaneously_determinate,
    spectral_decompose,
    truth_value,
)
from qlogic.linalg import commutator, opnorm


def test_defaults():
    assert DEFAULT_TOL.rank_rel_tol == 1e-9
    assert DEFAULT_TOL.assert_tol == 1e-8
    assert DEFAULT_TOL.cluster_tol == 1e-8


def test_ladder_ordering_enforced():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=1e-6, assert_tol=1e-8, cluster_tol=1e-8)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=1e-9, assert_tol=1e-10, cluster_tol=1e-8)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=0.0, assert_tol=1e-8, cluster_tol=1e-8)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=1e-9, assert_tol=1.5, cluster_tol=1e-8)


def test_with_assert_tol_returns_new_config():
    loose = DEFAULT_TOL.with_assert_tol(1e-6)
    assert loose.assert_tol == 1e-6
    assert loose.rank_rel_tol == DEFAULT_TOL.rank_rel_tol
    assert loose.cluster_tol == DEFAULT_TOL.cluster_tol
    assert DEFAULT_TOL.assert_tol == 1e-8


def test_with_assert_tol_still_validates():
    with pytest.raises(ValueError):
        DEFAULT_TOL.with_assert_tol(1e-12)


def test_frozen():
    with pytest.raises(Exception):
        DEFAULT_TOL.assert_tol = 1.0


# ---------------------------------------------------------------------------
# the tolerance travels with the operands

# Classes whose instances carry the tolerance they were built at; a registry
# carries its observables'.
_CARRIERS = ("Projector", "Observable", "ObservableRegistry", "DensityState", "POVM",
             "MeasuringProcess", "MatrixAlgebra")


def _takes_a_carrier(parameters) -> bool:
    return any(re.search(rf"\b{name}\b", str(p.annotation))
               for p in parameters for name in _CARRIERS)


def _exported_operations():
    """Every exported function, and every public instance method of an exported
    carrier class, whose instance is an operand of the method."""
    for name in qlogic.__all__:
        value = getattr(qlogic, name)
        if inspect.isfunction(value):
            yield name, value, False
        elif inspect.isclass(value) and name in _CARRIERS:
            for attr, member in vars(value).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member, True


def test_no_operation_on_a_tolerance_carrier_takes_a_tolerance():
    offenders = []
    for name, fn, is_method in _exported_operations():
        parameters = inspect.signature(fn).parameters
        if "tol" in parameters and (is_method or _takes_a_carrier(parameters.values())):
            offenders.append(name)
    assert offenders == []


def test_no_tolerance_parameter_is_optional():
    root = Path(__file__).resolve().parent.parent / "src" / "qlogic"
    optional = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in node.args.args + node.args.kwonlyargs:
                    if (arg.arg == "tol" and arg.annotation is not None
                            and "None" in ast.unparse(arg.annotation)):
                        optional.append(f"{path.name}:{node.name}")
    assert optional == []


def _nearly_commuting_pair(tol):
    """diag(1, -1, 2) and diag(3, 1, -2) + 2e-7 sigma_x on the first block, with
    a state almost all on the third axis, where the two commute exactly."""
    nudge = np.zeros((3, 3), dtype=complex)
    nudge[0, 1] = nudge[1, 0] = 2e-7
    a = spectral_decompose("A", np.diag([1.0, -1.0, 2.0]).astype(complex), tol)
    b = spectral_decompose("B", np.diag([3.0, 1.0, -2.0]).astype(complex) + nudge, tol)
    state = DensityState.from_matrix(np.diag([1e-7, 0.0, 1.0 - 1e-7]).astype(complex), tol)
    return a, b, state


def test_every_verdict_on_loose_operands_is_given_at_their_tolerance():
    loose = DEFAULT_TOL.with_assert_tol(1e-6)
    a, b, state = _nearly_commuting_pair(loose)
    assert 1e-8 < opnorm(commutator(a.matrix, b.matrix)) < 1e-6
    registry = ObservableRegistry([a, b])
    node = parse("A <= 0 and B <= 0")
    assert a.commutes_with(b)
    assert is_standard(node, registry)
    assert is_contextually_wellformed(node, registry, state)
    com = truth_value(parse("com(A, B)"), registry)
    assert com.tol == loose
    # The rank cut does not move with the assertion rung: com is the third axis.
    assert opnorm(com.matrix - np.diag([0.0, 0.0, 1.0])) <= 1e-8
    assert simultaneously_determinate([a, b], state)

    # Built at the default tolerance, the same matrices get the other verdicts.
    a, b, state = _nearly_commuting_pair(DEFAULT_TOL)
    registry = ObservableRegistry([a, b])
    assert not a.commutes_with(b)
    assert not is_standard(node, registry)
    assert not is_contextually_wellformed(node, registry, state)
    assert truth_value(parse("com(A, B)"), registry).tol == DEFAULT_TOL
    assert not simultaneously_determinate([a, b], state)

"""Grammar, truth-value semantics, and the classical tautology transfer."""

import numpy as np
import pytest

from conftest import diag_obs
from qlogic.errors import (
    NotATautologyError,
    PropositionSyntaxError,
    UnknownObservableError,
)
from qlogic.observables import spectral_decompose
from qlogic.projectors import leq
from qlogic.propositions import (
    And,
    ComO,
    EqConst,
    EqObs,
    Leq,
    Not,
    ObservableRegistry,
    Or,
    Var,
    instantiate,
    is_classical_tautology,
    is_contextually_wellformed,
    is_standard,
    mentioned_observables,
    parse,
    parse_skeleton,
    skeleton_variables,
    tautology_transfer_check,
    truth_value,
)
from qlogic.states import DensityState


@pytest.fixture
def registry():
    return ObservableRegistry([
        diag_obs("A", 0.0, 1.0, 2.0),
        diag_obs("B", 0.0, 0.0, 5.0),
        diag_obs("B2", 0.0, 0.0, 5.0),
        spectral_decompose("R", np.array([[1.0, 1.0, 0.0],
                                          [1.0, -1.0, 0.0],
                                          [0.0, 0.0, 3.0]], dtype=complex)),
    ])


# ---------------------------------------------------------------------------
# parsing


def test_parse_atoms():
    assert parse("A <= 0.5") == Leq("A", 0.5)
    assert parse("A == -2e-1") == EqConst("A", -0.2)
    assert parse("A = B") == EqObs("A", "B")
    assert parse("com(A, B, C)") == ComO(("A", "B", "C"))


def test_parse_precedence_and_associativity():
    node = parse("not A <= 1 and B <= 2 or C <= 3")
    assert node == Or(And(Not(Leq("A", 1.0)), Leq("B", 2.0)), Leq("C", 3.0))
    nested = parse("A <= 1 and B <= 2 and C <= 3")
    assert nested == And(And(Leq("A", 1.0), Leq("B", 2.0)), Leq("C", 3.0))


def test_parse_parentheses_override():
    node = parse("A <= 1 and (B <= 2 or C <= 3)")
    assert node == And(Leq("A", 1.0), Or(Leq("B", 2.0), Leq("C", 3.0)))


def test_parse_spans_cover_source_slices():
    source = "not (A <= 1 or com(B, C))"
    node = parse(source)
    assert node.span == (0, len(source))
    inner = node.child
    assert source[inner.span[0]:inner.span[1]] == "(A <= 1 or com(B, C))"
    com_node = inner.right
    assert source[com_node.span[0]:com_node.span[1]] == "com(B, C)"


def test_parse_syntax_error_positions():
    with pytest.raises(PropositionSyntaxError) as info:
        parse("A <= ")
    assert info.value.line == 1
    assert info.value.column == 6
    assert "number" in info.value.expected

    with pytest.raises(PropositionSyntaxError) as info:
        parse("A <= 1\nand B <=")
    assert info.value.line == 2
    assert info.value.column == 9

    with pytest.raises(PropositionSyntaxError) as info:
        parse("A ? 1")
    assert "unexpected character" in str(info.value)


def test_parse_rejects_trailing_input():
    with pytest.raises(PropositionSyntaxError):
        parse("A <= 1 B <= 2")


def test_parse_reserved_words_are_not_names():
    with pytest.raises(PropositionSyntaxError):
        parse("not <= 1")
    with pytest.raises(PropositionSyntaxError):
        parse("A = or")


def test_parse_com_arity_and_duplicates():
    with pytest.raises(PropositionSyntaxError):
        parse("com(A)")
    with pytest.raises(PropositionSyntaxError):
        parse("com(A, A)")
    with pytest.raises(ValueError):
        ComO(("A",))


def test_parse_skeleton_bare_variables():
    node = parse_skeleton("p and (q or not p)")
    assert node == And(Var("p"), Or(Var("q"), Not(Var("p"))))
    with pytest.raises(PropositionSyntaxError):
        parse_skeleton("com(p, q)")
    with pytest.raises(PropositionSyntaxError):
        parse_skeleton("p <= 1")


# ---------------------------------------------------------------------------
# registry and mention bookkeeping


def test_registry_lookup(registry):
    assert registry.dim == 3
    assert "A" in registry
    assert registry.get("A").name == "A"
    assert registry.names() == ["A", "B", "B2", "R"]
    with pytest.raises(UnknownObservableError):
        registry.get("missing")


def test_mentioned_observables_order_and_dedup():
    node = parse("B <= 1 and com(A, B) or A == 2")
    assert mentioned_observables(node) == ("B", "A")
    with pytest.raises(ValueError):
        mentioned_observables(Var("p"))
    with pytest.raises(TypeError):
        mentioned_observables("A <= 1")


# ---------------------------------------------------------------------------
# truth values on the diagonal fixtures


def test_truth_value_atoms(registry):
    leq_node = parse("A <= 1")
    p = truth_value(leq_node, registry)
    assert np.allclose(p.matrix, np.diag([1.0, 1.0, 0.0]))
    q = truth_value(parse("B == 5"), registry)
    assert np.allclose(q.matrix, np.diag([0.0, 0.0, 1.0]))


def test_truth_value_connectives(registry):
    both = truth_value(parse("A <= 1 and B == 0"), registry)
    assert np.allclose(both.matrix, np.diag([1.0, 1.0, 0.0]))
    negated = truth_value(parse("not A <= 1"), registry)
    assert np.allclose(negated.matrix, np.diag([0.0, 0.0, 1.0]))
    either = truth_value(parse("A == 0 or A == 2"), registry)
    assert np.allclose(either.matrix, np.diag([1.0, 0.0, 1.0]))


def test_or_matches_its_defining_expansion(registry):
    direct = truth_value(parse("A == 0 or R <= 0"), registry)
    expanded = truth_value(parse("not (not A == 0 and not R <= 0)"), registry)
    assert direct.isclose(expanded)


def test_truth_value_equality_atom(registry):
    same = truth_value(parse("B = B2"), registry)
    assert same.rank == 3
    mixed = truth_value(parse("A = B"), registry)
    # They agree exactly on the first coordinate.
    assert np.allclose(mixed.matrix, np.diag([1.0, 0.0, 0.0]))


def test_truth_value_com_atom(registry):
    compatible = truth_value(parse("com(A, B)"), registry)
    assert compatible.rank == 3
    partial = truth_value(parse("com(A, R)"), registry)
    # A and R commute only on the third coordinate.
    assert np.allclose(partial.matrix, np.diag([0.0, 0.0, 1.0]))


def test_classical_bit_consistency(registry):
    # On commuting diagonal observables the semantics is plain boolean logic.
    for source, bits in [
        ("A <= 1 and B == 0", [1, 1, 0]),
        ("A <= 1 or B == 5", [1, 1, 1]),
        ("not (A <= 0)", [0, 1, 1]),
        ("A == 1 or not B == 0", [0, 1, 1]),
    ]:
        p = truth_value(parse(source), registry)
        assert np.allclose(p.matrix, np.diag(np.array(bits, dtype=float))), source


def test_is_standard(registry):
    assert is_standard(parse("A <= 1 and B == 0"), registry)
    assert not is_standard(parse("A <= 1 and R <= 0"), registry)


def test_is_contextually_wellformed(registry):
    third = DensityState.from_vector(np.array([0.0, 0.0, 1.0], dtype=complex))
    spread = DensityState.maximally_mixed(3)
    node = parse("A <= 1 and R <= 0")
    assert is_contextually_wellformed(node, registry, third)
    assert not is_contextually_wellformed(node, registry, spread)


# ---------------------------------------------------------------------------
# skeletons and the transfer principle


def test_skeleton_variables_and_truth_table():
    tautology = parse_skeleton("p or not p")
    assert skeleton_variables(tautology) == ("p",)
    assert is_classical_tautology(tautology)
    assert is_classical_tautology(parse_skeleton("not (p and q) or p"))
    assert not is_classical_tautology(parse_skeleton("p or q"))
    assert not is_classical_tautology(parse_skeleton("not p"))


def test_instantiate():
    skeleton = parse_skeleton("p or not p")
    node = instantiate(skeleton, {"p": parse("A <= 1")})
    assert node == Or(Leq("A", 1.0), Not(Leq("A", 1.0)))
    with pytest.raises(UnknownObservableError):
        instantiate(skeleton, {"q": parse("A <= 1")})


def test_tautology_transfer_pass(registry):
    skeleton = parse_skeleton("not (p and q) or (p and q)")
    report = tautology_transfer_check(
        skeleton, {"p": parse("A <= 1"), "q": parse("R <= 0")}, registry)
    assert report.passed
    assert report.dominated
    assert set(report.mentioned) == {"A", "R"}
    assert leq(report.com, report.truth)


def test_tautology_transfer_excluded_middle_non_commuting(registry):
    report = tautology_transfer_check(
        parse_skeleton("p or not p"), {"p": parse("R <= 0")}, registry)
    assert report.passed
    # A single observable is compatible with itself.
    assert report.com.rank == 3
    assert report.truth.rank == 3


def test_tautology_transfer_rejects_falsifiable_skeleton(registry):
    with pytest.raises(NotATautologyError):
        tautology_transfer_check(parse_skeleton("p and q"),
                                 {"p": parse("A <= 1"), "q": parse("B == 0")},
                                 registry)

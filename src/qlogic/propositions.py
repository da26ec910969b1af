"""Observational propositions: grammar, parser, and projection semantics.

Grammar (EBNF):

    prop  := or
    or    := and ("or" and)*
    and   := unary ("and" unary)*
    unary := "not" unary | "(" prop ")" | atom
    atom  := ID "<=" NUM | ID "==" NUM | ID "=" ID
           | "com" "(" ID ("," ID)+ ")"
    ID    := letter (letter | digit | "_")*
    NUM   := decimal literal with optional sign, fraction, exponent

``not``, ``and``, ``or``, ``com`` are reserved words.  Truth values are
projectors: atoms through the spectral calculus, ``not`` as orthocomplement,
``and`` as lattice meet, and ``or`` exactly as the defined expansion
not(not a and not b), which is the De Morgan join.

Propositional skeletons (same connectives over bare variables) support the
classical-tautology transfer check: any instantiation of a classical
tautology is dominated from below by the commutator of the mentioned
observables.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .commutators import com_observables
from .errors import (
    DimensionMismatchError,
    NotATautologyError,
    PropositionSyntaxError,
    UnknownObservableError,
)
from .observables import BorelSet, Observable
from .projectors import Projector, join, leq, meet, ortho
from .states import DensityState, equality_projector, simultaneously_determinate

Span = tuple[int, int]


@dataclass(frozen=True)
class Leq:
    """Atom "X <= x": the observable's value is at most the literal."""

    observable: str
    bound: float
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class EqConst:
    """Atom "X == x": the observable's value equals the literal."""

    observable: str
    value: float
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class EqObs:
    """Atom "X = Y": quantum equality of two observables."""

    left: str
    right: str
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ComO:
    """Atom "com(X, Y, ...)": simultaneous determinateness of the family."""

    observables: tuple[str, ...]
    span: Span | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.observables) < 2 or len(set(self.observables)) != len(self.observables):
            raise ValueError("com(...) requires at least two distinct observables")


@dataclass(frozen=True)
class Not:
    child: object
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class And:
    left: object
    right: object
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Or:
    left: object
    right: object
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Var:
    """Skeleton-only leaf: a propositional variable awaiting instantiation."""

    name: str
    span: Span | None = field(default=None, compare=False)


_KEYWORDS = frozenset({"not", "and", "or", "com"})

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<le><=)
      | (?P<eqeq>==)
      | (?P<eq>=)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _line_column(source: str, pos: int) -> tuple[int, int]:
    line = source.count("\n", 0, pos) + 1
    last_newline = source.rfind("\n", 0, pos)
    return line, pos - last_newline


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            line, column = _line_column(source, pos)
            raise PropositionSyntaxError(
                f"unexpected character {source[pos]!r}", line, column)
        kind = match.lastgroup
        if kind != "ws":
            text = match.group()
            if kind == "id" and text in _KEYWORDS:
                kind = text
            tokens.append(_Token(kind, text, pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, atom_mode: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        self.atom_mode = atom_mode  # "observable" or "variable"

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, message: str, expected: Sequence[str]) -> "PropositionSyntaxError":
        token = self.peek()
        line, column = _line_column(self.source, token.pos)
        raise PropositionSyntaxError(message, line, column, frozenset(expected))

    def expect(self, kind: str, expected_label: str) -> _Token:
        if self.peek().kind != kind:
            self.fail(f"got {self.peek().text or 'end of input'!r}", [expected_label])
        return self.advance()

    def parse(self):
        node = self.parse_or()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().text!r}", ["end of input"])
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.peek().kind == "or":
            self.advance()
            right = self.parse_and()
            node = Or(node, right, (node.span[0], right.span[1]))
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek().kind == "and":
            self.advance()
            right = self.parse_unary()
            node = And(node, right, (node.span[0], right.span[1]))
        return node

    def parse_unary(self):
        token = self.peek()
        if token.kind == "not":
            self.advance()
            child = self.parse_unary()
            return Not(child, (token.pos, child.span[1]))
        if token.kind == "lparen":
            self.advance()
            node = self.parse_or()
            closing = self.expect("rparen", "')'")
            return _respan(node, (token.pos, closing.pos + 1))
        return self.parse_atom()

    def parse_atom(self):
        token = self.peek()
        if token.kind == "com":
            if self.atom_mode == "variable":
                self.fail("'com' is not valid in a skeleton", ["variable name"])
            return self.parse_com()
        if token.kind != "id":
            wanted = ["observable name"] if self.atom_mode == "observable" else ["variable name"]
            self.fail(f"got {token.text or 'end of input'!r}",
                      wanted + ["'not'", "'('"])
        name_token = self.advance()
        if self.atom_mode == "variable":
            return Var(name_token.text, (name_token.pos, name_token.pos + len(name_token.text)))
        operator = self.peek()
        if operator.kind == "le":
            self.advance()
            num = self.expect("num", "number")
            return Leq(name_token.text, float(num.text),
                       (name_token.pos, num.pos + len(num.text)))
        if operator.kind == "eqeq":
            self.advance()
            num = self.expect("num", "number")
            return EqConst(name_token.text, float(num.text),
                           (name_token.pos, num.pos + len(num.text)))
        if operator.kind == "eq":
            self.advance()
            other = self.expect("id", "observable name")
            return EqObs(name_token.text, other.text,
                         (name_token.pos, other.pos + len(other.text)))
        self.fail(f"got {operator.text or 'end of input'!r}", ["'<='", "'=='", "'='"])

    def parse_com(self):
        start = self.advance()  # the com keyword
        self.expect("lparen", "'('")
        names = [self.expect("id", "observable name").text]
        self.expect("comma", "','")
        names.append(self.expect("id", "observable name").text)
        while self.peek().kind == "comma":
            self.advance()
            names.append(self.expect("id", "observable name").text)
        closing = self.expect("rparen", "')'")
        if len(set(names)) != len(names):
            line, column = _line_column(self.source, start.pos)
            raise PropositionSyntaxError(
                "duplicate observable inside com(...)", line, column)
        return ComO(tuple(names), (start.pos, closing.pos + 1))


def _respan(node, span: Span):
    cls = type(node)
    values = {f: getattr(node, f) for f in cls.__dataclass_fields__}
    values["span"] = span
    return cls(**values)


def parse(source: str):
    """Parse a proposition over observables into its syntax tree."""
    return _Parser(source, "observable").parse()


def parse_skeleton(source: str):
    """Parse a propositional skeleton over bare variables."""
    return _Parser(source, "variable").parse()


class ObservableRegistry:
    """Named observables over one shared space."""

    def __init__(self, observables: Mapping[str, Observable] | Sequence[Observable]):
        if isinstance(observables, Mapping):
            entries = dict(observables)
        else:
            entries = {x.name: x for x in observables}
        dims = {x.dim for x in entries.values()}
        if len(dims) > 1:
            raise DimensionMismatchError(f"registry mixes dimensions {sorted(dims)}")
        self._entries = entries
        self.dim = dims.pop() if dims else 0

    def get(self, name: str) -> Observable:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownObservableError(f"no observable named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


def mentioned_observables(node) -> tuple[str, ...]:
    """Observable names in first-mention order, deduplicated."""
    seen: dict[str, None] = {}

    def walk(n):
        if isinstance(n, Leq) or isinstance(n, EqConst):
            seen.setdefault(n.observable)
        elif isinstance(n, EqObs):
            seen.setdefault(n.left)
            seen.setdefault(n.right)
        elif isinstance(n, ComO):
            for name in n.observables:
                seen.setdefault(name)
        elif isinstance(n, Not):
            walk(n.child)
        elif isinstance(n, (And, Or)):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Var):
            raise ValueError("skeleton variable in an instantiated proposition")
        else:
            raise TypeError(f"not a proposition node: {n!r}")

    walk(node)
    return tuple(seen)


def truth_value(node, registry: ObservableRegistry) -> Projector:
    """Projection-valued truth of a proposition.

    Atoms go through the spectral calculus (literal comparisons snap onto the
    spectrum), negation is the orthocomplement, conjunction the meet, and
    disjunction is evaluated exactly as its defining expansion, i.e. the De
    Morgan join.  Every step judges at the tolerance its operands carry, which
    the atoms take from the registry's observables.
    """
    if isinstance(node, Leq):
        return registry.get(node.observable).threshold(node.bound)
    if isinstance(node, EqConst):
        return registry.get(node.observable).spectral_projector(BorelSet.point(node.value))
    if isinstance(node, EqObs):
        return equality_projector(registry.get(node.left), registry.get(node.right))
    if isinstance(node, ComO):
        return com_observables([registry.get(name) for name in node.observables])
    if isinstance(node, Not):
        return ortho(truth_value(node.child, registry))
    if isinstance(node, And):
        return meet(truth_value(node.left, registry),
                    truth_value(node.right, registry))
    if isinstance(node, Or):
        return join(truth_value(node.left, registry),
                    truth_value(node.right, registry))
    raise TypeError(f"not a proposition node: {node!r}")


def is_standard(node, registry: ObservableRegistry) -> bool:
    """A proposition is standard when every mentioned pair commutes."""
    names = mentioned_observables(node)
    for a, b in itertools.combinations(names, 2):
        if not registry.get(a).commutes_with(registry.get(b)):
            return False
    return True


def is_contextually_wellformed(node, registry: ObservableRegistry, state: DensityState) -> bool:
    """Well-formed relative to a state: the mentioned family is determinate there."""
    names = mentioned_observables(node)
    if not names:
        return True
    return simultaneously_determinate([registry.get(n) for n in names], state)


# ---------------------------------------------------------------------------
# classical skeletons and the tautology transfer


def skeleton_variables(node) -> tuple[str, ...]:
    seen: dict[str, None] = {}

    def walk(n):
        if isinstance(n, Var):
            seen.setdefault(n.name)
        elif isinstance(n, Not):
            walk(n.child)
        elif isinstance(n, (And, Or)):
            walk(n.left)
            walk(n.right)
        else:
            raise TypeError(f"not a skeleton node: {n!r}")

    walk(node)
    return tuple(seen)


def _eval_classical(node, assignment: Mapping[str, bool]) -> bool:
    if isinstance(node, Var):
        return assignment[node.name]
    if isinstance(node, Not):
        return not _eval_classical(node.child, assignment)
    if isinstance(node, And):
        return _eval_classical(node.left, assignment) and _eval_classical(node.right, assignment)
    if isinstance(node, Or):
        return _eval_classical(node.left, assignment) or _eval_classical(node.right, assignment)
    raise TypeError(f"not a skeleton node: {node!r}")


def is_classical_tautology(skeleton) -> bool:
    """Exhaustive truth-table check over the skeleton's variables."""
    variables = skeleton_variables(skeleton)
    for bits in itertools.product((False, True), repeat=len(variables)):
        if not _eval_classical(skeleton, dict(zip(variables, bits))):
            return False
    return True


def instantiate(skeleton, assignment: Mapping[str, object]):
    """Replace every skeleton variable by its assigned proposition subtree."""
    if isinstance(skeleton, Var):
        try:
            return assignment[skeleton.name]
        except KeyError:
            raise UnknownObservableError(
                f"no instantiation for variable {skeleton.name!r}") from None
    if isinstance(skeleton, Not):
        return Not(instantiate(skeleton.child, assignment), skeleton.span)
    if isinstance(skeleton, And):
        return And(instantiate(skeleton.left, assignment),
                   instantiate(skeleton.right, assignment), skeleton.span)
    if isinstance(skeleton, Or):
        return Or(instantiate(skeleton.left, assignment),
                  instantiate(skeleton.right, assignment), skeleton.span)
    raise TypeError(f"not a skeleton node: {skeleton!r}")


@dataclass
class TautologyTransferReport:
    """Instantiated classical tautology versus the commutator lower bound."""

    variables: tuple[str, ...]
    mentioned: tuple[str, ...]
    com: Projector
    truth: Projector
    dominated: bool

    @property
    def passed(self) -> bool:
        return self.dominated


def tautology_transfer_check(skeleton, assignment: Mapping[str, object],
                             registry: ObservableRegistry) -> TautologyTransferReport:
    """Verify com(X1..Xn) <= [[phi]] for an instantiated classical tautology.

    The skeleton is first certified by the exhaustive truth table; the
    instantiated truth value is then compared against the commutator of every
    observable the instantiation mentions.  Every skeleton has a variable and
    every atom names an observable, so that family is never empty.
    """
    if not is_classical_tautology(skeleton):
        raise NotATautologyError("skeleton is classically falsifiable")
    proposition = instantiate(skeleton, assignment)
    names = mentioned_observables(proposition)
    truth = truth_value(proposition, registry)
    com = com_observables([registry.get(n) for n in names])
    return TautologyTransferReport(
        variables=skeleton_variables(skeleton),
        mentioned=names,
        com=com,
        truth=truth,
        dominated=leq(com, truth),
    )

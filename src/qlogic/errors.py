"""Exception types shared across the package."""

from __future__ import annotations


class QLogicError(Exception):
    """Base class for package-specific failures."""


class NonSquareError(QLogicError):
    """A square matrix was required."""


class NotHermitianError(QLogicError):
    """Hermiticity violated beyond the assertion tolerance."""


class NotUnitaryError(QLogicError):
    """Unitarity violated beyond the assertion tolerance."""


class NonFiniteError(QLogicError):
    """A matrix holds a non-finite number, or its norm or symmetrization overflows."""


class FactorizationError(QLogicError):
    """An SVD or eigendecomposition did not converge (numpy raised LinAlgError)."""


class DimensionMismatchError(QLogicError):
    """Operands live on different spaces."""


class FamilyTooLargeError(QLogicError):
    """The sign-map expansion would exceed the supported family size."""


class NotCommutingError(QLogicError):
    """An operation that requires mutually commuting operands received ones that do not."""


class UndefinedAtSpectralPointError(QLogicError):
    """A scalar function was applied to an operator but is undefined at a spectral point."""


class DegenerateRandomizationError(QLogicError):
    """Randomized separation failed repeatedly; the randomization kept landing degenerate."""


class CrossCheckFailure(QLogicError):
    """Two independent computation routes disagreed beyond tolerance (kernel bug signal)."""


class InconsistentBattery(QLogicError):
    """Clauses of an equivalence battery disagreed beyond tolerance (kernel bug signal).

    Carries the offending report in ``args[1]`` when available.
    """


class NotAPOVMError(QLogicError):
    """Effects are not positive or do not resolve the identity."""


class UnknownObservableError(QLogicError):
    """A proposition mentions an observable the registry does not define."""


class NotATautologyError(QLogicError):
    """The propositional skeleton is falsifiable classically."""


class PropositionSyntaxError(QLogicError):
    """Parse failure in the proposition grammar, with position and expectation info."""

    def __init__(self, message: str, line: int, column: int, expected: frozenset[str] = frozenset()):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        detail = f"line {line}, column {column}: {message}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class ScenarioParseError(QLogicError):
    """Malformed scenario document; ``path`` points into the document."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ScenarioValidationError(QLogicError):
    """Well-formed scenario document with semantically invalid content."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(f"{name}: {message}")


class UnknownNameError(QLogicError):
    """A command referenced a scenario object that does not exist."""

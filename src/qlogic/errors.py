"""Exception types shared across the package.

Every failure the package raises is a ``QLogicError``.  ``InputError``
marks the subset caused by the input itself: a malformed or invalid
scenario, an unknown name, operands of the wrong shape or kind.  The CLI
exits 2 for these and 1 for every other ``QLogicError``, which signals a
failed check or, for ``CrossCheckFailure`` and ``InconsistentBattery``, a
kernel bug.
"""

from __future__ import annotations


class QLogicError(Exception):
    """Base class for package-specific failures."""


class InputError(QLogicError):
    """The input is malformed or names something that does not exist."""


class NonSquareError(InputError):
    """A square matrix was required."""


class NotHermitianError(InputError):
    """Hermiticity violated beyond the assertion tolerance."""


class NotUnitaryError(InputError):
    """Unitarity violated beyond the assertion tolerance."""


class NonFiniteError(QLogicError):
    """A matrix holds a non-finite number, or its norm or symmetrization overflows."""


class FactorizationError(QLogicError):
    """An SVD or eigendecomposition did not converge (numpy raised LinAlgError)."""


class DimensionMismatchError(InputError):
    """Operands live on different spaces."""


class FamilyTooLargeError(InputError):
    """The sign-map expansion would exceed the supported family size."""


class NotCommutingError(QLogicError):
    """An operation that requires mutually commuting operands received ones that do not."""


class UndefinedAtSpectralPointError(InputError):
    """A scalar function was applied to an operator but is undefined at a spectral point."""


class DegenerateRandomizationError(QLogicError):
    """Randomized separation failed repeatedly; the randomization kept landing degenerate."""


class NonGenericElementError(QLogicError):
    """An element meant to separate an algebra's blocks has an eigenspace that
    spans more than one Wedderburn slot."""


class CrossCheckFailure(QLogicError):
    """Two independent computation routes disagreed beyond tolerance (kernel bug signal)."""


class InconsistentBattery(QLogicError):
    """Clauses of an equivalence battery disagreed beyond tolerance (kernel bug signal).

    Raised only by ``ClauseReport.checked``, with the report in ``args[1]``.
    """


class NotAPOVMError(InputError):
    """Effects are not positive or do not resolve the identity."""


class UnknownObservableError(InputError):
    """A proposition mentions an observable the registry does not define."""


class NotATautologyError(QLogicError):
    """The propositional skeleton is falsifiable classically."""


class PropositionSyntaxError(InputError):
    """Parse failure in the proposition grammar, with position and expectation info."""

    def __init__(self, message: str, line: int, column: int, expected: frozenset[str] = frozenset()):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        detail = f"line {line}, column {column}: {message}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class ScenarioParseError(InputError):
    """Malformed scenario document; ``path`` points into the document."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ScenarioValidationError(InputError):
    """Well-formed scenario document with invalid content; ``path`` names the object."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnknownNameError(InputError):
    """A command referenced a scenario object that does not exist."""

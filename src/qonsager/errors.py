"""Exception taxonomy shared across the engine."""

from __future__ import annotations


class QonsagerError(Exception):
    """Base class for all engine errors."""


class DivisionByZero(QonsagerError, ZeroDivisionError):
    """Division by the zero rational function."""


class PoleAtPoint(QonsagerError):
    """Evaluation point is a root of the denominator."""


class InvalidQ(QonsagerError):
    """q was specialized to 0, 1 or -1, which the engine forbids."""


class AlphabetMismatch(QonsagerError):
    """Operands live over different generator alphabets."""


class MissingImage(QonsagerError):
    """An evaluation does not assign every generator that occurs."""


class InvalidParams(QonsagerError):
    """Identity parameters outside the identity's valid range."""


class NotLeadingMonomial(QonsagerError):
    """A relation was oriented at a monomial that is not its order maximum."""


class OrderViolation(QonsagerError):
    """A rewrite rule's right side is not strictly below its left side."""


class InvalidCutoff(QonsagerError):
    """Current-algebra index cutoff out of range."""


class IndexOutOfRange(QonsagerError):
    """Generator index exceeds the instantiated cutoff."""


class DegenerateEigenvalues(QonsagerError):
    """Requested eigenvalue array has a collision."""


class DimensionMismatch(QonsagerError):
    """Matrix dimensions are incompatible."""


class NotDiagonalizable(QonsagerError):
    """Matrix has no full set of distinct rational eigenvalues."""


class ParseError(QonsagerError):
    """Malformed input file; the message carries the location."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message} (at {location})" if location else message)
        self.location = location


class InvariantViolation(QonsagerError):
    """A validated object failed one or more structural invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("invariants violated: " + ", ".join(violations))
        self.violations = list(violations)

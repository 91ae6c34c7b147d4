"""Exception types shared across the package, and its integer-argument test."""

from __future__ import annotations


def is_int(x: object) -> bool:
    """An int that is not a bool: True subclasses int but counts nothing."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_positive_int(x: object) -> bool:
    """The rule for vertex and edge multiplicities: an int (not a bool) >= 1."""
    return is_int(x) and x >= 1


class GeonetError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicateVertexAngle(GeonetError):
    pass


class ZeroMultiplicity(GeonetError, ValueError):
    """A multiplicity that is not a positive int; a ValueError like CrossingEdges."""


class SelfLoopEdge(GeonetError):
    pass


class DuplicateEdge(GeonetError):
    pass


class ExactDataMissing(GeonetError):
    """An exact-mode operation was asked of a network without exact positions."""


class InexactPosition(GeonetError):
    """A solver-grade operation needs exact positions (or exact tangent data)."""


class CrossingEdges(GeonetError, ValueError):
    """Two chords of a chord set cross; a ValueError like ChordSet's other checks."""


class IsolatedVertex(GeonetError):
    pass


class DomainError(GeonetError):
    """Angle data outside the valid open domain of a closed-form expression."""


class ParseError(GeonetError):
    """Malformed network file.  Carries line/column when the JSON itself is bad."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class VersionError(GeonetError):
    pass


class NonConvergence(GeonetError):
    """Iteration budget exhausted; the best iterate so far rides along."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best

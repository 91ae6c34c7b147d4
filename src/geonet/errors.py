"""Exception types shared across the package, and its integer-argument rule."""

from __future__ import annotations


def is_int(x: object) -> bool:
    """An int that is not a bool: True subclasses int but counts nothing."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(name: str, value: object) -> None:
    """The rule for integer arguments: ValueError unless value is_int."""
    if not is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")


def is_index(i: object, n: int) -> bool:
    """The rule for vertex indices and chord endpoints: an int (not a bool) in [0, n)."""
    return is_int(i) and 0 <= i < n


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


class InexactPosition(GeonetError):
    """An exact operation was asked of data without an exact form: a point with
    no tan-half, or a length that is not a representable radical."""


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

"""Exception hierarchy shared by the whole package.

Every operation that rejects its input raises a subclass of
:class:`DTargetError`, so callers (and the CLI) can distinguish "bad input"
from genuine bugs with one ``except`` clause.
"""

from __future__ import annotations


class DTargetError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Parsing / construction
# ---------------------------------------------------------------------------


class ParseError(DTargetError):
    """The textual description of a target could not be parsed."""


class AsymmetricRotation(ParseError):
    """Vertex u lists v as a neighbour but v does not list u."""


class DuplicateNeighbour(ParseError):
    """A vertex lists the same neighbour twice in its rotation."""


class MissingMultiplicity(ParseError):
    """An edge of the graph has no multiplicity assignment."""


class NegativeMultiplicity(ParseError):
    """An edge was assigned a negative multiplicity."""


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


class EulerViolation(DTargetError):
    """Face tracing does not satisfy V - E + F = 2."""


class NotTwoConnected(DTargetError):
    """An operation needs both sides of an edge to be distinct regions."""


class TooLarge(DTargetError):
    """The instance exceeds the size cap of an exhaustive routine."""


class OddVertexCount(DTargetError):
    """Perfect-matching machinery needs an even number of vertices."""


class UnsupportedD(DTargetError):
    """The routine is only defined for degree bound d = 8."""


class MismatchedD(DTargetError):
    """Two targets that must share the same d do not."""


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class NotAFourCycle(DTargetError):
    """The four given vertices do not form a cycle in the graph."""


class WouldGoNegative(DTargetError):
    """A multiplicity change would push some edge below zero."""


class NoCommonRegion(DTargetError):
    """Edge insertion needs its two endpoints on a common region."""


class NotATriangle(DTargetError):
    """The named region is not bounded by exactly three edges."""


class AmbiguousContext(DTargetError):
    """A disc-relative quantity was requested for an edge fully inside the disc."""


class BadColouring(DTargetError):
    """A proposed colouring certificate does not cover the multiplicities."""


class IdentityViolation(DTargetError):
    """An operation produced a target that should equal another but does not."""

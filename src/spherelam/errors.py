"""Domain exceptions.

Errors deriving from :class:`DomainError` signal bad input; errors deriving
from :class:`InternalError` signal a bug (a violated uniqueness or bound
assumption) and should never be caught silently.
"""


class SphereLamError(Exception):
    pass


class DomainError(SphereLamError):
    pass


class InternalError(SphereLamError):
    pass


class ZeroVector(DomainError):
    """(0, 0) has no slope."""


class NotFareyNeighbors(DomainError):
    """Mediant requires |ad - bc| = 1."""


class NotFareyTriple(DomainError):
    """Basis changes require a Farey-1 triple."""


class ClosedCurveHasNoArc(DomainError):
    """kappa_inv is only defined on spiraling curves."""


class MalformedInput(DomainError):
    """Input of the wrong shape (a wrong type, or a missing field)."""


class InvalidParameters(DomainError):
    """Triangulation-type parameters violate their row constraints."""


class UnsupportedBaseCase(DomainError):
    """The word construction covers positive finite slopes with a
    counterclockwise spiral at v00 (or closed curves) only."""


class BoundExhausted(SphereLamError):
    """A bounded search that is guaranteed to succeed came up empty;
    either the bound is too small (user-raisable) or there is a bug."""


class InternalNonUnique(InternalError):
    """A search that must return exactly one object returned 0 or >= 2."""


class RankDeficient(InternalError):
    """Cone generators had unexpected rank."""

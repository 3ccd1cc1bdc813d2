"""Exception types shared across the package."""

from __future__ import annotations


class BoardError(Exception):
    """Base class for all kmboard errors."""


class LengthMismatch(BoardError):
    """An input array does not have the expected length k."""


class ConstraintViolation(BoardError):
    """A collapsing map violates mu(2)=1 or mu(2j) < 2j.

    Carries ``j``, the first offending index (1-based).
    """

    def __init__(self, j: int, message: str | None = None):
        self.j = j
        super().__init__(message or f"collapsing-map constraint violated at j={j}")


class OutOfRange(BoardError):
    """A label lies outside the range the operation accepts."""


class KMismatch(BoardError):
    """Two objects with different coupling orders were combined."""


class CapExceeded(BoardError):
    """An enumeration would exceed its configured cap."""


class NotAcceptable(BoardError):
    """The requested KM move is not acceptable for the current map.

    Carries ``j``, the rejected move index.
    """

    def __init__(self, j: int, message: str | None = None):
        self.j = j
        super().__init__(message or f"KM move at j={j} is not acceptable")


class NotAllowable(BoardError):
    """The permutation is not allowable for the current pair."""


class NotAdmissible(BoardError):
    """The tree is not admissible (some child label <= parent label)."""


class NotTamed(BoardError):
    """The operation requires a tamed pair."""


class NotReference(BoardError):
    """The operation requires a reference pair."""


class CyclicRelations(BoardError):
    """The relation set contains a cycle and is not a partial order."""


class NotAForest(BoardError):
    """Some label has two incomparable upper covers; the order is not a forest."""


class CensusViolation(BoardError):
    """A census cross-check failed; the message names the witness."""

"""Exception hierarchy shared across the toolkit.

Negative mathematical answers (infeasible, no minor, condition failed) are
never exceptions; they are ordinary return values.  Exceptions are reserved
for contract violations, malformed input, and exhausted budgets.
"""

from __future__ import annotations


class DefcolorError(Exception):
    """Base class for all toolkit errors."""


class InputFormatError(DefcolorError):
    """Malformed graph6 / JSON input.  Carries a byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class BudgetExceededError(DefcolorError):
    """A generator or search would exceed a configured budget.

    Distinct from a negative answer: the computation was refused, not
    completed.  ``size`` carries the offending quantity (may be huge).
    """

    def __init__(self, message: str, size: object = None):
        self.size = size
        super().__init__(message)


class SizeLimitError(DefcolorError):
    """Input exceeds the documented limit of an exact algorithm."""


class PartialColoringError(DefcolorError):
    """A coloring does not assign a color to every vertex."""


class HypothesisViolationError(DefcolorError):
    """A scheme-step precondition does not hold; names the failed hypothesis."""


class GeodesicTooShortError(DefcolorError):
    """No geodesic of the required length exists for the contraction step."""


class BucketTooSmallError(DefcolorError):
    """No uniform type bucket is large enough to supply the deletion step."""

    def __init__(self, largest: int, needed: int):
        self.largest = largest
        self.needed = needed
        super().__init__(
            f"largest uniform bucket has {largest} members, need {needed}"
        )


class SearchFailureError(DefcolorError):
    """The homogeneous-structure search failed."""


class EmptyPaletteError(DefcolorError):
    """Greedy scheme coloring found no available color.

    Unreachable on certifier-clean schemes; raising it signals a certifier
    gap and must abort the run.
    """

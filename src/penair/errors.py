"""Exception types shared across the package."""

from __future__ import annotations


class PenAirError(Exception):
    """Base class for every error this package raises on bad input."""


class ParseError(PenAirError):
    """A sample file row could not be parsed.

    ``line`` is the 1-based line number of the offending row, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class TimestampOrderError(ParseError):
    """Timestamps decreased between consecutive rows."""


class EmptyInputError(PenAirError):
    """The input contained no samples."""


class ManifestError(PenAirError):
    """Manifest header, labels, or uniqueness constraints violated."""


class InsufficientDataError(PenAirError):
    """Too few samples for the requested statistic."""


class SynthSpecError(PenAirError):
    """A synthesis spec fails to parse or violates its invariants."""


class ExactSizeError(PenAirError):
    """Pooled sample too large for the exact method."""


class EmptyCohortError(PenAirError):
    """No usable files remain in a cohort."""


class DegenerateDataError(PenAirError):
    """The requested result is undefined for this data: all-zero totals
    leave a ratio undefined, and coordinates beyond the float range leave a
    plot undrawable."""

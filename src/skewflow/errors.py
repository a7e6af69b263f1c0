"""Typed failure modes shared across the package."""


class SkewflowError(Exception):
    """Base class for all library errors."""


class NotDivisible(SkewflowError):
    """Synthetic division was requested at a point that is not a root."""


class SingularConfiguration(SkewflowError):
    """A denominator Pfaffian, normalization or sigma value vanished."""


class DegreeBudgetExceeded(SkewflowError):
    """An operation needs moment indices beyond the table's budget."""


class TruncationTooLarge(SkewflowError):
    """A finite Lax-matrix truncation exceeds the verifiable window."""

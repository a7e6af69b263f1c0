"""Machine-readable verification reports.

A :class:`Report` holds the :class:`Check` entries of one suite in the
order they were added.  Both are :class:`~skewflow.algebra.Record`
classes: slotted, equal when their fields are, and unhashable.
"""

from __future__ import annotations

from typing import Any

from .algebra import Record


class Check(Record):
    """One check of a report: its id, its status ("pass", "fail" or
    "skip") and a detail, empty unless the check has something to say."""

    __slots__ = ("id", "status", "detail")

    def __init__(self, id: str, status: str, detail: str = "") -> None:
        self.id = id
        self.status = status
        self.detail = detail

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "status": self.status, "detail": self.detail}


class Report(Record):
    """Outcome of one verification suite on one instance.

    Failures are entries, not exceptions; callers decide what a failure
    means (the CLI maps it to its exit code).  A report made without an
    ``instance`` or ``checks`` gets an empty dict and list of its own.
    """

    __slots__ = ("suite", "instance", "checks", "elapsed_ms")

    def __init__(
        self,
        suite: str,
        instance: dict[str, Any] | None = None,
        checks: list[Check] | None = None,
        elapsed_ms: float = 0.0,
    ) -> None:
        self.suite = suite
        self.instance = {} if instance is None else instance
        self.checks = [] if checks is None else checks
        self.elapsed_ms = elapsed_ms

    def add(self, check_id: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(check_id, "pass" if ok else "fail", detail))

    def skip(self, check_id: str, detail: str = "") -> None:
        """Record a check that cannot be evaluated (stencil leaves the box,
        a bookkeeping denominator vanishes at the origin, ...)."""
        self.checks.append(Check(check_id, "skip", detail))

    def extend(self, other: "Report", prefix: str = "") -> None:
        """Append every check of another report, its id prefixed."""
        self.checks.extend(Check(prefix + c.id, c.status, c.detail) for c in other.checks)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "instance": self.instance,
            "checks": [c.to_json() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }

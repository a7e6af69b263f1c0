"""Machine-readable verification reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class Check:
    id: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "status": self.status, "detail": self.detail}


@dataclass
class Report:
    """Outcome of one verification suite on one instance.

    Failures are entries, not exceptions; callers decide what a failure
    means (the CLI maps it to its exit code).
    """

    suite: str
    instance: dict[str, Any] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    elapsed_ms: float = 0.0

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

"""Validation helpers and the shared :class:`Diagnostic` report type.

Constructors across the package perform the same checks (positive rates,
non-empty names, ranges). Centralizing them keeps error messages uniform and
the call sites one line.

:class:`Diagnostic` is the one currency every static validation pass in the
package reports in — the determinism linter (:mod:`repro.lint`), the recipe
static checker, and chaos-plan validation (:meth:`repro.chaos.plan.FaultPlan
.diagnose`) all emit the same dataclass, so callers render, filter and gate
on findings uniformly regardless of which checker produced them.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Iterable, TypeVar

from repro.errors import ConfigurationError

Number = TypeVar("Number", int, float)

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_in_range",
    "require_name",
    "Severity",
    "Diagnostic",
    "Rule",
    "max_severity",
    "blocking",
]


class Severity(enum.IntEnum):
    """How bad a diagnostic is. Integer-ordered so severities compare."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ConfigurationError(
                f"unknown severity {text!r} (known: info, warning, error)"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static check.

    Location is either a source position (``file``/``line``/``col``, used
    by the lint engine) or a free-form ``where`` (used by artifact checkers:
    ``"task anomaly-body"``, ``"events[2] partition"``).
    """

    rule: str
    severity: Severity
    message: str
    file: str | None = None
    line: int | None = None
    col: int | None = None
    where: str = ""
    hint: str = ""

    @property
    def location(self) -> str:
        if self.file is not None:
            loc = self.file
            if self.line is not None:
                loc += f":{self.line}"
                if self.col is not None:
                    loc += f":{self.col}"
            return loc
        return self.where or "<artifact>"

    @property
    def sort_key(self) -> tuple[str, str, int, int, str]:
        return (self.file or "", self.where, self.line or 0, self.col or 0, self.rule)

    def format(self) -> str:
        text = f"{self.location}: {self.severity}[{self.rule}] {self.message}"
        if self.hint:
            text += f"  ({self.hint})"
        return text

    def replace(self, **changes: Any) -> "Diagnostic":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "location": self.location,
        }
        if self.file is not None:
            payload["file"] = self.file
            payload["line"] = self.line
            payload["col"] = self.col
        if self.where:
            payload["where"] = self.where
        if self.hint:
            payload["hint"] = self.hint
        return payload


@dataclass(frozen=True)
class Rule:
    """One catalogued rule of a checker: stable id, default severity,
    description, and the hint its findings carry unless the site has a
    more specific one. Each engine keeps a registry of these;
    :mod:`repro.lint.catalog` renders them all."""

    rule_id: str
    severity: Severity
    description: str
    hint: str = ""

    def diagnostic(
        self,
        where: str,
        message: str,
        hint: str | None = None,
        severity: Severity | None = None,
        **position: Any,
    ) -> Diagnostic:
        """A finding of this rule; ``position`` is ``file``/``line``/``col``."""
        return Diagnostic(
            rule=self.rule_id,
            severity=self.severity if severity is None else severity,
            message=message,
            where=where,
            hint=self.hint if hint is None else hint,
            **position,
        )


def max_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """Highest severity present, or None for an empty run."""
    worst: Severity | None = None
    for diag in diagnostics:
        if worst is None or diag.severity > worst:
            worst = diag.severity
    return worst


def blocking(
    diagnostics: Iterable[Diagnostic], strict: bool = False
) -> list[Diagnostic]:
    """The diagnostics that should fail a gated run.

    Errors always block; with ``strict`` warnings block too.
    """
    floor = Severity.WARNING if strict else Severity.ERROR
    return [d for d in diagnostics if d.severity >= floor]


def require_positive(value: Number, name: str) -> Number:
    """Return ``value`` if strictly positive, else raise ConfigurationError."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def require_non_negative(value: Number, name: str) -> Number:
    """Return ``value`` if >= 0, else raise ConfigurationError."""
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
    return value


def require_in_range(value: Number, low: float, high: float, name: str) -> Number:
    """Return ``value`` if ``low <= value <= high``, else raise."""
    if not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )
    return value


def require_name(value: str, name: str) -> str:
    """Return ``value`` if a non-empty string without whitespace padding."""
    if not isinstance(value, str) or not value or value != value.strip():
        raise ConfigurationError(
            f"{name} must be a non-empty, unpadded string, got {value!r}"
        )
    return value

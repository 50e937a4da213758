"""The lint rule framework: visitor base class, file context, catalog.

A rule is an :class:`ast.NodeVisitor` subclass with a ``rule_id``, a
default :class:`~repro.util.validate.Severity` and a one-line
``description``. The engine instantiates every registered rule per file,
hands it a shared :class:`FileContext`, and walks the module tree once per
rule. Rules report through :meth:`LintRule.report`, which anchors the
diagnostic to an AST node and honours suppression comments lazily (the
engine filters them out afterwards so suppressed findings can still be
counted).

Name resolution: rules see *resolved dotted paths*. ``import time as t``
followed by ``t.monotonic()`` resolves to ``time.monotonic``;
``from datetime import datetime`` followed by ``datetime.now()`` resolves
to ``datetime.datetime.now``. :class:`ImportMap` implements that without
executing any imports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.util.validate import Diagnostic, Severity

__all__ = [
    "ImportMap",
    "FileContext",
    "LintRule",
    "RULE_CATALOG",
    "register_rule",
]


class ImportMap:
    """Static alias table built from a module's import statements."""

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c->a.b.
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{module}.{alias.name}" if module else alias.name

    def resolve(self, node: ast.expr) -> str | None:
        """Resolved dotted path of a Name/Attribute chain, else None."""
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self._aliases.get(current.id, current.id)
        parts.append(base)
        return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a rule needs to know about the file being linted."""

    filename: str
    source: str
    tree: ast.Module
    imports: ImportMap = field(init=False)

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree)


class LintRule(ast.NodeVisitor):
    """Base class for determinism rules.

    Subclasses set ``rule_id``, ``severity``, ``description`` and a
    ``hint`` shown with every finding, then implement ``visit_*`` methods
    calling :meth:`report`.
    """

    rule_id = ""
    severity = Severity.ERROR
    description = ""
    hint = ""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        self.visit(self.ctx.tree)
        return self.findings

    def resolve(self, node: ast.expr) -> str | None:
        return self.ctx.imports.resolve(node)

    def report(
        self,
        node: ast.AST,
        message: str,
        severity: Severity | None = None,
        hint: str | None = None,
    ) -> None:
        self.findings.append(
            Diagnostic(
                rule=self.rule_id,
                severity=self.severity if severity is None else severity,
                message=message,
                file=self.ctx.filename,
                line=getattr(node, "lineno", None),
                col=getattr(node, "col_offset", None),
                hint=self.hint if hint is None else hint,
            )
        )


#: rule id -> rule class, in registration order.
RULE_CATALOG: dict[str, type[LintRule]] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the catalog."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    existing = RULE_CATALOG.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    RULE_CATALOG[cls.rule_id] = cls
    return cls


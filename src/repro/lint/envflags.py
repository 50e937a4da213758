"""FLG001 — raw ``REPRO_*`` environment reads bypassing the flag registry.

Every runtime toggle is declared once in :mod:`repro.util.flags`; code
that reads ``os.environ["REPRO_*"]`` (or ``os.getenv`` / ``.get`` /
``.setdefault``) directly bypasses the registry, so the flag never shows
up in the documented inventory and its default can silently diverge
between call sites. The registry module itself reads through the
declared :class:`~repro.util.flags.EnvFlag` (non-literal key) and is not
flagged.
"""

from __future__ import annotations

import ast

from repro.lint.rules import LintRule, register_rule
from repro.util.validate import Severity

__all__ = ["EnvFlagRule"]

_ENV_READ_FNS = {"os.getenv", "os.environ.get", "os.environ.setdefault"}


def _literal_repro_key(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith("REPRO_"):
            return node.value
    return None


@register_rule
class EnvFlagRule(LintRule):
    """Flags ``REPRO_*`` environment reads outside ``repro.util.flags``."""

    rule_id = "FLG001"
    severity = Severity.WARNING
    description = "raw REPRO_* environment read bypassing repro.util.flags"
    hint = "declare the flag in repro.util.flags and read it via flag_enabled"

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.resolve(node.func)
        if dotted in _ENV_READ_FNS and node.args:
            key = _literal_repro_key(node.args[0])
            if key is not None:
                self.report(node, f"{dotted}({key!r}) bypasses the flag registry")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Store):
            dotted = self.resolve(node.value)
            if dotted == "os.environ":
                key = _literal_repro_key(node.slice)
                if key is not None:
                    self.report(
                        node, f"os.environ[{key!r}] bypasses the flag registry"
                    )
        self.generic_visit(node)

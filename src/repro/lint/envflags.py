"""FLG001 — a ``REPRO_*`` environment read in the middleware.

The middleware reads no ``REPRO_*`` environment variable at all: its
behaviour is a function of its arguments, so two runs of one scenario
and seed cannot differ by the shell they were started from. A read of
``os.environ["REPRO_*"]`` (or ``os.getenv`` / ``.get`` / ``.setdefault``)
would add a configuration axis that no parameter, test or document
shows; this rule keeps the count of such knobs at zero. Reads through a
non-literal key are not flagged.
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
    """Flags every literal ``REPRO_*`` environment read."""

    rule_id = "FLG001"
    severity = Severity.WARNING
    description = "REPRO_* environment read (the middleware reads none)"
    hint = "make the setting a parameter of the component that needs it"

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.resolve(node.func)
        if dotted in _ENV_READ_FNS and node.args:
            key = _literal_repro_key(node.args[0])
            if key is not None:
                self.report(node, f"{dotted}({key!r}) reads the environment")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Store):
            dotted = self.resolve(node.value)
            if dotted == "os.environ":
                key = _literal_repro_key(node.slice)
                if key is not None:
                    self.report(
                        node, f"os.environ[{key!r}] reads the environment"
                    )
        self.generic_visit(node)

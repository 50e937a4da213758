"""Rendering lint results for humans and machines."""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

from repro.util.validate import Diagnostic, Severity, blocking

__all__ = ["render_text", "render_json", "render_sarif", "summary_counts"]


def summary_counts(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    counts: Counter[str] = Counter(str(d.severity) for d in diagnostics)
    return {str(sev): counts.get(str(sev), 0) for sev in Severity}


def render_text(
    diagnostics: list[Diagnostic],
    strict: bool = False,
    suppressed: int = 0,
    files_checked: int | None = None,
    label: str = "lint",
) -> str:
    """Human-readable report: one line per finding plus a summary.

    ``label`` names the tool in the verdict line — the schedule sanitizer
    reuses this renderer with ``label="san"``.
    """
    lines = [diag.format() for diag in diagnostics]
    counts = summary_counts(diagnostics)
    parts = [f"{n} {name}{'s' if n != 1 else ''}" for name, n in counts.items() if n]
    summary = ", ".join(parts) if parts else "no findings"
    if suppressed:
        summary += f" ({suppressed} suppressed)"
    if files_checked is not None:
        summary = f"{files_checked} file{'s' if files_checked != 1 else ''}: " + summary
    verdict = "FAIL" if blocking(diagnostics, strict=strict) else "OK"
    lines.append(f"{label} {verdict} — {summary}")
    return "\n".join(lines)


def render_json(
    diagnostics: list[Diagnostic],
    strict: bool = False,
    suppressed: int = 0,
    files_checked: int | None = None,
) -> str:
    payload = {
        "ok": not blocking(diagnostics, strict=strict),
        "strict": strict,
        "counts": summary_counts(diagnostics),
        "suppressed": suppressed,
        "diagnostics": [diag.to_dict() for diag in diagnostics],
    }
    if files_checked is not None:
        payload["files_checked"] = files_checked
    return json.dumps(payload, indent=2, sort_keys=True)


_SARIF_LEVEL = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rule_descriptions() -> dict[str, str]:
    """id -> description from the unified catalog (every rule family)."""
    from repro.lint.catalog import catalog_descriptions

    return catalog_descriptions()


def render_sarif(
    diagnostics: list[Diagnostic],
    strict: bool = False,
    suppressed: int = 0,
    files_checked: int | None = None,
) -> str:
    """SARIF 2.1.0 log for code-scanning upload.

    Findings without a file anchor (recipe / drift checks carry ``where``
    instead) become logical locations, which SARIF viewers render as the
    result's scope line.
    """
    descriptions = _rule_descriptions()
    rule_ids = sorted({diag.rule for diag in diagnostics})
    results = []
    for diag in diagnostics:
        result: dict[str, object] = {
            "ruleId": diag.rule,
            "level": _SARIF_LEVEL.get(diag.severity, "warning"),
            "message": {"text": diag.format()},
        }
        if diag.file:
            region: dict[str, int] = {"startLine": max(1, diag.line or 1)}
            if diag.col:
                region["startColumn"] = diag.col + 1
            result["locations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": diag.file},
                        "region": region,
                    }
                }
            ]
        elif diag.where:
            result["locations"] = [
                {"logicalLocations": [{"fullyQualifiedName": diag.where}]}
            ]
        results.append(result)
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": descriptions.get(rule_id, rule_id)
                                },
                            }
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)

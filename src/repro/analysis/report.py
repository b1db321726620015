"""Text and JSON reporters for analysis results.

The JSON document is the machine-readable CI artifact; its shape is
versioned and tested:

.. code-block:: json

    {
      "version": 2,
      "tool": "repro.analysis",
      "files_checked": 63,
      "violation_count": 2,
      "suppressed_count": 1,
      "by_rule": {"RB001": 1, "RB003": 1},
      "errors": [{"path": "...", "error": "syntax error: ..."}],
      "violations": [
        {"rule": "RB001", "message": "...", "path": "...", "line": 7, "col": 4}
      ]
    }

``version`` bumps on any backwards-incompatible change to this shape
(v2: RB006–RB010 ids and RB000 stale-suppression findings).
"""

from __future__ import annotations

import json
from typing import Any

from .engine import AnalysisResult

__all__ = ["JSON_SCHEMA_VERSION", "render_json", "render_text"]

JSON_SCHEMA_VERSION = 2


def render_text(result: AnalysisResult) -> str:
    """One ``path:line:col: RBxxx message`` line per finding plus a summary."""
    lines = []
    for report in result.errors:
        lines.append(f"{report.path}: error: {report.error}")
    for violation in result.violations:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col}: "
            f"{violation.rule} {violation.message}"
        )
    by_rule = result.by_rule()
    breakdown = (
        " (" + ", ".join(f"{rule} x{count}" for rule, count in by_rule.items()) + ")"
        if by_rule
        else ""
    )
    lines.append(
        f"{result.files_checked} files checked: "
        f"{len(result.violations)} violation(s){breakdown}, "
        f"{result.suppressed_count} suppressed, {len(result.errors)} error(s)"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult, indent: "int | None" = 2) -> str:
    doc: dict[str, Any] = {
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "files_checked": result.files_checked,
        "violation_count": len(result.violations),
        "suppressed_count": result.suppressed_count,
        "by_rule": result.by_rule(),
        "errors": [
            {"path": report.path, "error": report.error} for report in result.errors
        ],
        "violations": [violation.as_dict() for violation in result.violations],
    }
    return json.dumps(doc, indent=indent, sort_keys=False)

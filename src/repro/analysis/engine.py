"""Two-phase analysis engine: per-file parse, then project passes.

Phase 1 parses every input into a :class:`ModuleRecord` (AST, noqa
suppression map, dotted module name) and runs the per-file rules
(RB001–RB004, RB010).  Phase 2 builds a shared module index over
*all* records and runs the project passes (RB006 import layering) that
no single file can see.  Only then are suppressions applied — one
filter over the union of findings, which is what lets the engine also
detect suppressions that matched nothing (reported as RB000, so stale
``# repro: noqa`` comments cannot accumulate).

Exit-code contract (shared by ``python -m repro.analysis`` and ``repro
analyze``):

* ``0`` — every file parsed and no unsuppressed violation was found;
* ``1`` — at least one violation (the report is still written, so CI
  can both fail and attach the machine-readable findings);
* ``2`` — usage error: unknown rule id, missing or non-Python input
  path, or a file that does not parse (a syntax error is a build
  problem, not a finding).

Suppressions are per-line comments::

    value = a + b  # repro: noqa RB003 — wraparound is the point
    anything()     # repro: noqa

A bare ``# repro: noqa`` silences every rule on that line; one or more
comma/space-separated rule ids silence only those.  A suppression that
no longer matches any finding is itself a finding (RB000) when the
full rule set runs — fix the code *and* delete the comment.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .graph import (
    PROJECT_RULES,
    RB006ImportLayering,
    build_project_graph,
    module_name_for,
)
from .rules import RULES, UNUSED_SUPPRESSION_RULE_ID, Rule, RuleContext, Violation

__all__ = [
    "ALL_RULE_IDS",
    "AnalysisResult",
    "AnalysisUsageError",
    "FileReport",
    "ModuleRecord",
    "Violation",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "parse_module",
    "parse_suppressions",
]

_PROJECT_RULE_IDS: tuple[str, ...] = tuple(rule.id for rule in PROJECT_RULES)

#: Every selectable rule id: per-file rules plus project passes, sorted.
ALL_RULE_IDS: tuple[str, ...] = tuple(
    sorted({rule.id for rule in RULES} | set(_PROJECT_RULE_IDS))
)

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<ids>(?:[\s,]+RB\d{3})*)", re.IGNORECASE
)

#: Sentinel set meaning "every rule suppressed on this line".
_ALL = frozenset({"*"})


class AnalysisUsageError(Exception):
    """Typed usage error: bad input path or option (CLI exit code 2)."""


@dataclass
class ModuleRecord:
    """Phase-1 product: one parsed input file.

    *module* is the dotted name anchored at the file's ``repro``
    directory (``""`` for files outside any repro tree — they are
    linted per-file but stay out of the import graph).
    """

    relpath: str
    source: str = ""
    tree: "ast.Module | None" = None
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    error: str = ""
    module: str = ""


@dataclass
class FileReport:
    """Outcome of linting a single file."""

    path: str
    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    error: str = ""


@dataclass
class AnalysisResult:
    """Aggregate over all files, plus the exit code for the CLI."""

    reports: list[FileReport] = field(default_factory=list)

    @property
    def violations(self) -> list[Violation]:
        return [v for report in self.reports for v in report.violations]

    @property
    def files_checked(self) -> int:
        return len(self.reports)

    @property
    def suppressed_count(self) -> int:
        return sum(report.suppressed for report in self.reports)

    @property
    def errors(self) -> list[FileReport]:
        return [report for report in self.reports if report.error]

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.violations else 0


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids suppressed there (``{"*"}`` = all).

    Comments are located with :mod:`tokenize` so a ``# repro: noqa``
    inside a string literal does not suppress anything, and a comment
    after a line continuation lands on the physical line it occupies.
    """
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if not match:
                continue
            ids = frozenset(
                part.upper()
                for part in re.split(r"[\s,]+", match.group("ids") or "")
                if part
            )
            suppressions[token.start[0]] = ids or _ALL
    except (tokenize.TokenizeError, IndentationError):
        # A file that does not tokenize is reported as a parse error by
        # phase 1; suppressions simply stay empty here.
        pass
    return suppressions


def _select_rules(
    select: "Iterable[str] | None",
) -> tuple[Sequence[Rule], Sequence[RB006ImportLayering]]:
    """Validate *select* and split it into per-file and project rules."""
    if select is None:
        return RULES, PROJECT_RULES
    wanted = {rule_id.upper() for rule_id in select}
    if UNUSED_SUPPRESSION_RULE_ID in wanted:
        raise ValueError(
            f"{UNUSED_SUPPRESSION_RULE_ID} (stale suppressions) only runs "
            "with the full rule set; drop --select to include it"
        )
    unknown = wanted - set(ALL_RULE_IDS)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return (
        tuple(rule for rule in RULES if rule.id in wanted),
        tuple(rule for rule in PROJECT_RULES if rule.id in wanted),
    )


def parse_module(source: str, relpath: str) -> ModuleRecord:
    """Phase 1 for one in-memory module: AST + suppressions + identity."""
    record = ModuleRecord(relpath=relpath, source=source)
    try:
        record.tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        record.error = f"syntax error: {exc.msg} (line {exc.lineno})"
        return record
    record.suppressions = parse_suppressions(source)
    record.module = module_name_for(relpath)
    return record


def _run_file_rules(
    record: ModuleRecord, rules: Sequence[Rule]
) -> list[Violation]:
    if record.tree is None:
        return []
    ctx = RuleContext.for_path(record.relpath)
    out: list[Violation] = []
    for rule in rules:
        out.extend(rule.check(record.tree, ctx))
    return out


def _finalize(
    records: Sequence[ModuleRecord],
    raw: dict[str, list[Violation]],
    emit_stale: bool,
) -> AnalysisResult:
    """Apply suppressions over the union of findings, then account RB000."""
    result = AnalysisResult()
    for record in records:
        report = FileReport(path=record.relpath, error=record.error)
        used_lines: set[int] = set()
        for violation in raw.get(record.relpath, []):
            suppressed = record.suppressions.get(violation.line)
            if suppressed is not None and (
                suppressed is _ALL
                or "*" in suppressed
                or violation.rule in suppressed
            ):
                report.suppressed += 1
                used_lines.add(violation.line)
            else:
                report.violations.append(violation)
        if emit_stale and record.error == "":
            for line, ids in sorted(record.suppressions.items()):
                if line in used_lines or UNUSED_SUPPRESSION_RULE_ID in ids:
                    continue
                label = (
                    "suppresses " + "/".join(sorted(ids))
                    if ids is not _ALL and "*" not in ids
                    else "bare suppression"
                )
                report.violations.append(
                    Violation(
                        rule=UNUSED_SUPPRESSION_RULE_ID,
                        message=(
                            f"stale `# repro: noqa` ({label}): no finding "
                            "matches this line any more; delete the comment"
                        ),
                        path=record.relpath,
                        line=line,
                        col=0,
                    )
                )
        report.violations.sort(key=lambda v: (v.line, v.col, v.rule))
        result.reports.append(report)
    return result


def analyze_source(
    source: str,
    relpath: str,
    select: "Iterable[str] | None" = None,
) -> FileReport:
    """Lint one in-memory module; *relpath* drives package-scoped rules.

    Single-file mode runs the per-file rules only (the project passes
    need the whole tree); stale-suppression accounting (RB000) applies
    when the full rule set runs.
    """
    file_rules, _ = _select_rules(select)
    record = parse_module(source, relpath)
    raw = {relpath: _run_file_rules(record, file_rules)}
    result = _finalize([record], raw, emit_stale=select is None)
    return result.reports[0]


def _read_module(path: Path, relpath: str) -> ModuleRecord:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return ModuleRecord(relpath=relpath, error=f"unreadable: {exc}")
    except UnicodeDecodeError as exc:
        return ModuleRecord(
            relpath=relpath, error=f"not UTF-8 Python source: {exc.reason}"
        )
    return parse_module(source, relpath)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories to ``.py`` files, sorted for stable output.

    Directory walks skip ``__pycache__`` trees; an *explicit* file
    input that is not ``.py`` (or a path under ``__pycache__``) is a
    usage error — the caller named it, so silently ignoring it would
    hide a typo.
    """
    for path in paths:
        if path.is_dir():
            if path.name == "__pycache__":
                raise AnalysisUsageError(
                    f"refusing to lint bytecode cache directory: {path}"
                )
            try:
                candidates = sorted(
                    p
                    for p in path.rglob("*.py")
                    if p.is_file() and "__pycache__" not in p.parts
                )
            except OSError as exc:
                raise AnalysisUsageError(f"cannot walk {path}: {exc}") from exc
            yield from candidates
        else:
            if path.suffix != ".py" or "__pycache__" in path.parts:
                raise AnalysisUsageError(
                    f"not a Python source file: {path} "
                    "(inputs must be .py files or directories)"
                )
            yield path


def analyze_paths(
    paths: "Iterable[str | Path]",
    select: "Iterable[str] | None" = None,
) -> AnalysisResult:
    """Lint every ``.py`` file under *paths* and aggregate the findings.

    Runs both phases: per-file rules on each module, then the project
    passes (RB006 import layering) over the shared index, then one
    suppression filter and the stale-suppression (RB000) accounting.

    Raises :class:`FileNotFoundError` for a missing input path,
    :class:`AnalysisUsageError` for a non-Python input, and
    :class:`ValueError` for an unknown rule id in *select* — all map
    to exit code 2 in the CLI.
    """
    file_rules, project_rules = _select_rules(select)
    roots = [Path(p) for p in paths]
    for root in roots:
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {root}")

    records: list[ModuleRecord] = []
    raw: dict[str, list[Violation]] = {}
    seen: set[str] = set()
    for file_path in iter_python_files(roots):
        relpath = str(file_path)
        if relpath in seen:
            continue
        seen.add(relpath)
        record = _read_module(file_path, relpath)
        records.append(record)
        raw[relpath] = _run_file_rules(record, file_rules)

    if project_rules:
        graph = build_project_graph(records)
        for project_rule in project_rules:
            for violation in project_rule.check_project(graph):
                raw.setdefault(violation.path, []).append(violation)

    return _finalize(records, raw, emit_stale=select is None)

"""Determinism & contract static analysis for the RainBar tree.

The pipeline's headline invariants — bit-identical serial/parallel
decode results, deterministic seeded fault scenarios, wall-clock-free
telemetry merges, leak-free file handles, versioned wire formats —
are properties of *how* the code is written, not just of what the
tests observe.  This package enforces them at lint time with a
two-phase, project-wide analyzer: per-file AST rules, then passes
over a shared module index that no single file can see.

========  ==============================================================
RB000     Stale suppression: a ``# repro: noqa`` comment that no
          longer suppresses any finding (emitted by the engine after
          every other rule has run, so dead suppressions cannot
          accumulate).
RB001     Global nondeterminism: no ``random.*``, legacy
          ``np.random.<fn>`` module-level RNG, ``time.time()`` /
          ``datetime.now()`` or raw ``np.random.SeedSequence``
          construction inside ``core/``, ``channel/``, ``coding/``,
          ``faults/`` or ``link/``.  Randomness must flow through an
          injected :class:`numpy.random.Generator`, and seed derivation
          through :func:`repro.faults.plan.derive_seed` (the rule's
          single allowlisted construction site).
RB002     Seed plumbing: a function that accepts an ``rng`` or ``seed``
          parameter may not call ``default_rng()`` with no argument —
          doing so silently discards the caller's determinism.
RB003     uint8 overflow hazard: ``+`` / ``-`` / ``*`` arithmetic on an
          array read from a uint8 image source without an explicit
          dtype cast (``.astype(...)``) first.
RB004     Telemetry hygiene: nothing under ``telemetry/`` may read a
          clock, wall or monotonic; reports derive every timing from
          recorded data.
RB006     Import layering (project pass): eager imports must respect
          the declared layer DAG (:data:`LAYERS`) — no upward
          imports, no import cycles.
          Lazy (function-scoped / TYPE_CHECKING) imports are the
          sanctioned upward mechanism.
RB007     Resource lifecycle: ``open`` / ``NamedTemporaryFile``
          acquisitions must be released on all paths — context
          manager, ``finally`` release, or explicit ownership transfer
          to a caller/manager.
RB008     CLI exit-code contract: ``cli.py`` / ``__main__.py`` handler
          functions return ints through the 0/1/2 funnel; raw
          ``sys.exit(expr)`` is banned outside ``sys.exit(main())``.
RB010     Schema-version hygiene: writers of versioned artifacts stamp
          documents from a single ``*_SCHEMA_VERSION`` constant, never
          an inline literal.
========  ==============================================================

Run it with ``python -m repro.analysis src/repro`` or ``repro
analyze``; suppress a finding with a ``# repro: noqa RBxxx`` comment
on the offending line; ``--format json`` emits the versioned CI
report.  See :mod:`repro.analysis.engine` for the exit-code contract
and :mod:`repro.analysis.graph` for the layer DAG.
"""

from __future__ import annotations

from .engine import (
    ALL_RULE_IDS,
    AnalysisResult,
    AnalysisUsageError,
    FileReport,
    ModuleRecord,
    Violation,
    analyze_paths,
    analyze_source,
    iter_python_files,
    parse_suppressions,
)
from .graph import (
    LAYERS,
    PROJECT_RULES,
    ImportEdge,
    ProjectGraph,
    build_project_graph,
)
from .report import JSON_SCHEMA_VERSION, render_json, render_text
from .rules import RULES, UNUSED_SUPPRESSION_RULE_ID, Rule, RuleContext

__all__ = [
    "ALL_RULE_IDS",
    "AnalysisResult",
    "AnalysisUsageError",
    "FileReport",
    "ImportEdge",
    "JSON_SCHEMA_VERSION",
    "LAYERS",
    "ModuleRecord",
    "PROJECT_RULES",
    "ProjectGraph",
    "RULES",
    "Rule",
    "RuleContext",
    "UNUSED_SUPPRESSION_RULE_ID",
    "Violation",
    "analyze_paths",
    "analyze_source",
    "build_project_graph",
    "iter_python_files",
    "parse_suppressions",
    "render_json",
    "render_text",
]

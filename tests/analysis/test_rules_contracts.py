"""Seeded regressions for the contract rules (RB007, RB008, RB010) and RB000.

Each rule gets the failure mode it exists to catch — a file handle
closed only on the happy path, a raw ``sys.exit``, an inline schema literal, a
stale suppression — plus the clean idioms that must keep passing (the
ones ``src/repro`` actually uses).
"""

import textwrap

import pytest

from repro.analysis import analyze_source


def check(snippet, relpath="repro/core/fixture.py", select=None):
    report = analyze_source(textwrap.dedent(snippet), relpath, select=select)
    assert not report.error, report.error
    return report.violations


def rules_of(violations):
    return [v.rule for v in violations]


# -- RB007: resource lifecycle -------------------------------------------


def test_rb007_flags_unreleased_temporary_file():
    violations = check(
        """
        import tempfile

        def scratch(data):
            tmp = tempfile.NamedTemporaryFile()
            tmp.write(data)
        """
    )
    assert rules_of(violations) == ["RB007"]
    assert "no guaranteed release" in violations[0].message


def test_rb007_flags_unguarded_close():
    # An unguarded `.close()` still leaks on any exception in between.
    violations = check(
        """
        def slurp(path):
            f = open(path)
            data = f.read()
            f.close()
            return data
        """
    )
    assert rules_of(violations) == ["RB007"]


def test_rb007_accepts_with_statement():
    violations = check(
        """
        def slurp(path):
            with open(path) as f:
                return f.read()
        """
    )
    assert violations == []


def test_rb007_accepts_finally_release():
    violations = check(
        """
        def slurp(path):
            f = open(path)
            try:
                return f.read()
            finally:
                f.close()
        """
    )
    assert violations == []


def test_rb007_accepts_ownership_transfer():
    # Returning, storing on self, and passing to an adopter all move
    # ownership out of the local scope.
    violations = check(
        """
        import tempfile

        def create(path):
            return open(path)

        class Log:
            def __init__(self, path):
                self.fh = open(path, "a")

        def adopt(registry):
            registry.take(tempfile.NamedTemporaryFile())
        """,
    )
    assert violations == []


# -- RB008: CLI exit-code contract ---------------------------------------


def test_rb008_flags_raw_sys_exit():
    violations = check(
        """
        import sys

        def _cmd_go(args):
            if not args:
                sys.exit(3)
            return 0
        """,
        relpath="repro/cli.py",
    )
    assert rules_of(violations) == ["RB008"]
    assert "raw `sys.exit(...)`" in violations[0].message


def test_rb008_flags_fall_through_and_bad_literal():
    violations = check(
        """
        def _cmd_partial(args):
            if args:
                return 0

        def _cmd_loud(args):
            return 17
        """,
        relpath="repro/cli.py",
    )
    messages = " | ".join(v.message for v in violations)
    assert rules_of(violations) == ["RB008", "RB008"]
    assert "fall off the end" in messages
    assert "literal 17" in messages


def test_rb008_accepts_main_funnel_and_clean_handlers():
    violations = check(
        """
        import sys

        def _cmd_go(args):
            if args:
                return 0
            return 1

        def main(argv=None):
            return _cmd_go(argv)

        if __name__ == "__main__":
            sys.exit(main())
        """,
        relpath="repro/cli.py",
    )
    assert violations == []


def test_rb008_only_applies_to_cli_modules():
    violations = check(
        """
        import sys

        def _cmd_like(args):
            sys.exit(3)
        """,
        relpath="repro/core/worker.py",
    )
    assert violations == []


# -- RB010: schema-version hygiene ---------------------------------------


def test_rb010_flags_inline_literals():
    violations = check(
        """
        def header():
            return {"version": 1, "magic": "rb"}

        def patch(doc):
            doc["schema_version"] = "2.0"
        """,
        relpath="repro/io/fixture.py",
    )
    assert rules_of(violations) == ["RB010", "RB010"]
    assert 'under "version"' in violations[0].message
    assert 'under "schema_version"' in violations[1].message


def test_rb010_accepts_constant_reference():
    violations = check(
        """
        TRACE_SCHEMA_VERSION = 3

        def header():
            return {"version": TRACE_SCHEMA_VERSION, "magic": "rb"}
        """,
        relpath="repro/io/fixture.py",
    )
    assert violations == []


def test_rb010_exempts_code_outside_the_repro_tree():
    # Test fixtures deliberately build malformed/versioned documents.
    violations = check(
        'def fake():\n    return {"version": 999}\n',
        relpath="tests/io/fixture.py",
    )
    assert violations == []


# -- RB000: stale suppressions -------------------------------------------


def test_rb000_flags_suppression_that_matches_nothing():
    violations = check(
        """
        def f(rng):
            return rng.normal()  # repro: noqa RB001
        """
    )
    assert rules_of(violations) == ["RB000"]
    assert "stale" in violations[0].message
    assert "RB001" in violations[0].message


def test_rb000_flags_stale_bare_suppression():
    violations = check("x = 1  # repro: noqa\n")
    assert rules_of(violations) == ["RB000"]
    assert "bare suppression" in violations[0].message


def test_rb000_silent_when_suppression_is_used():
    report = analyze_source(
        textwrap.dedent(
            """
            import numpy as np

            def noise(shape):
                return np.random.rand(*shape)  # repro: noqa RB001
            """
        ),
        "repro/core/fixture.py",
    )
    assert report.violations == []
    assert report.suppressed == 1


def test_rb000_not_emitted_under_select():
    # --select runs a partial rule set; unmatched suppressions may
    # belong to rules that did not run, so RB000 stays quiet.
    violations = check(
        "x = 1  # repro: noqa RB001\n", select=["RB003"]
    )
    assert violations == []


def test_rb000_cannot_be_selected_directly():
    with pytest.raises(ValueError, match="RB000"):
        analyze_source("x = 1\n", "repro/core/fixture.py", select=["RB000"])

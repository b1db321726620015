"""Seeded regressions for the contract rule RB010 and for RB000.

Each rule gets the failure mode it exists to catch — an inline schema
literal, a stale suppression — plus the clean idioms that must keep
passing (the ones ``src/repro`` actually uses).
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

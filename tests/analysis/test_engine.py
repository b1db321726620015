"""Suppressions, discovery, reporters, CLI exit codes and the self-lint."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULE_IDS,
    JSON_SCHEMA_VERSION,
    analyze_paths,
    analyze_source,
    parse_suppressions,
    render_json,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"

RB001_SNIPPET = """
import numpy as np

def noise(shape):
    return np.random.rand(*shape)
"""


# -- suppressions --------------------------------------------------------


def test_parse_suppressions_ids_and_bare():
    source = textwrap.dedent(
        """
        a = 1  # repro: noqa RB001
        b = 2  # repro: noqa RB001, RB003
        c = 3  # repro: noqa
        d = "  # repro: noqa RB001"
        """
    )
    suppressions = parse_suppressions(source)
    assert suppressions[2] == frozenset({"RB001"})
    assert suppressions[3] == frozenset({"RB001", "RB003"})
    assert "*" in suppressions[4]
    # The string literal on line 5 is not a comment.
    assert 5 not in suppressions


def test_matching_suppression_silences_violation():
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


def test_non_matching_suppression_keeps_violation():
    report = analyze_source(
        textwrap.dedent(
            """
            import numpy as np

            def noise(shape):
                return np.random.rand(*shape)  # repro: noqa RB003
            """
        ),
        "repro/core/fixture.py",
    )
    # The RB003 suppression silences nothing, so it is itself stale (RB000).
    assert [v.rule for v in report.violations] == ["RB000", "RB001"]
    assert report.suppressed == 0


def test_bare_noqa_silences_all_rules():
    report = analyze_source(
        "import numpy as np\n\nx = np.random.rand(3)  # repro: noqa\n",
        "repro/core/fixture.py",
    )
    assert report.violations == []
    assert report.suppressed == 1


# -- discovery & aggregation --------------------------------------------


def test_analyze_paths_walks_directories(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(textwrap.dedent(RB001_SNIPPET))
    (package / "good.py").write_text("def f(rng):\n    return rng.normal()\n")
    result = analyze_paths([tmp_path])
    assert result.files_checked == 2
    assert result.by_rule() == {"RB001": 1}
    assert result.exit_code == 1


def test_analyze_paths_validates_inputs(tmp_path):
    with pytest.raises(FileNotFoundError):
        analyze_paths([tmp_path / "missing"])
    with pytest.raises(ValueError, match="RB999"):
        analyze_paths([tmp_path], select=["RB999"])


def test_syntax_error_is_reported_as_error(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = analyze_paths([bad])
    assert result.exit_code == 2
    assert "syntax error" in result.errors[0].error


# -- reporters -----------------------------------------------------------


def make_result(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(textwrap.dedent(RB001_SNIPPET))
    return analyze_paths([tmp_path])


def test_text_report_shape(tmp_path):
    text = render_text(make_result(tmp_path))
    assert "RB001" in text
    assert "bad.py:5:11" in text
    assert text.endswith("0 suppressed, 0 error(s)")


def test_json_report_schema(tmp_path):
    doc = json.loads(render_json(make_result(tmp_path)))
    assert doc["version"] == JSON_SCHEMA_VERSION
    assert doc["tool"] == "repro.analysis"
    assert set(doc) == {
        "version",
        "tool",
        "files_checked",
        "violation_count",
        "suppressed_count",
        "by_rule",
        "errors",
        "violations",
    }
    assert doc["violation_count"] == 1
    assert doc["by_rule"] == {"RB001": 1}
    (violation,) = doc["violations"]
    assert set(violation) == {"rule", "message", "path", "line", "col"}
    assert violation["rule"] == "RB001"
    assert violation["line"] == 5


# -- CLI contract --------------------------------------------------------


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_clean_tree_exits_zero():
    proc = run_cli(str(SRC_REPRO))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violation(s)" in proc.stdout


def test_cli_violation_exits_one_with_json(tmp_path):
    package = tmp_path / "repro" / "faults"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(textwrap.dedent(RB001_SNIPPET))
    proc = run_cli(str(tmp_path), "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["violation_count"] == 1
    assert doc["violations"][0]["rule"] == "RB001"


def test_cli_usage_error_exits_two(tmp_path):
    assert run_cli(str(tmp_path / "nope")).returncode == 2
    assert run_cli(str(SRC_REPRO), "--select", "RB999").returncode == 2


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ALL_RULE_IDS:
        assert rule_id in proc.stdout


def test_repro_analyze_subcommand_forwards():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", str(SRC_REPRO)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violation(s)" in proc.stdout


# -- the contract this PR exists for ------------------------------------


@pytest.mark.parametrize("tree", ["src/repro", "tests"])
def test_self_lint_src_repro_is_clean(tree):
    """`src/repro` and `tests` must stay free of RB000-RB010 violations."""
    result = analyze_paths([REPO_ROOT / tree])
    assert result.errors == []
    offending = [
        f"{v.path}:{v.line}: {v.rule} {v.message}" for v in result.violations
    ]
    assert offending == []
    assert result.files_checked > 60

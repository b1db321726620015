"""CLI path-handling conformance: bad inputs exit 2 with a typed message.

The analyzer's CLI must never traceback at a user: misnamed files,
bytecode caches, undecodable sources and malformed options all land on
``repro.analysis: error: <reason>`` on stderr and exit code 2.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import AnalysisUsageError, analyze_paths, iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def assert_typed_error(proc, fragment):
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "repro.analysis: error:" in proc.stderr
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr


# -- bad inputs ----------------------------------------------------------


def test_non_python_file_is_a_typed_usage_error(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("# not python\n")
    assert_typed_error(run_cli(str(readme)), "not a Python source file")


def test_pycache_directory_is_refused(tmp_path):
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.pyc").write_bytes(b"\x00")
    assert_typed_error(run_cli(str(cache)), "bytecode cache")


def test_pyc_file_under_pycache_is_refused(tmp_path):
    cache = tmp_path / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    stray = cache / "mod.py"
    stray.write_text("x = 1\n")
    assert_typed_error(run_cli(str(stray)), "not a Python source file")


def test_missing_path_is_a_typed_usage_error(tmp_path):
    assert_typed_error(run_cli(str(tmp_path / "nope")), "no such file or directory")


def test_undecodable_source_is_an_error_not_a_traceback(tmp_path):
    mojibake = tmp_path / "repro" / "core"
    mojibake.mkdir(parents=True)
    (mojibake / "latin.py").write_bytes(b"x = '\xff\xfe'\n")
    proc = run_cli(str(tmp_path))
    assert proc.returncode == 2
    assert "not UTF-8 Python source" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_directory_walk_skips_pycache(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "ok.py").write_text("x = 1\n")
    cache = package / "__pycache__"
    cache.mkdir()
    (cache / "ghost.py").write_text("import random\n")
    files = list(iter_python_files([tmp_path]))
    assert [p.name for p in files] == ["ok.py"]
    result = analyze_paths([tmp_path])
    assert result.files_checked == 1
    assert result.violations == []


def test_usage_error_type_is_raised_from_the_api(tmp_path):
    target = tmp_path / "data.txt"
    target.write_text("hi")
    with pytest.raises(AnalysisUsageError, match="not a Python source file"):
        analyze_paths([target])


# -- option handling -----------------------------------------------------


def test_select_rb000_is_a_typed_usage_error():
    assert_typed_error(
        run_cli(str(SRC_REPRO), "--select", "RB000"), "RB000"
    )


def test_duplicate_inputs_are_linted_once(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "ok.py").write_text("x = 1\n")
    result = analyze_paths([tmp_path, tmp_path, package / "ok.py"])
    assert result.files_checked == 1

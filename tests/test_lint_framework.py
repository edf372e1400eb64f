"""turblint framework tests: suppressions, scoping, CLI and exit codes."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import SourceFile, main, run_paths
from repro.lint.checkers import ALL_CHECKERS
from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    discover,
    module_name_for,
)
from repro.lint.diagnostics import LintSyntaxError

REPO_ROOT = Path(__file__).parent.parent


# -- SourceFile: suppressions ---------------------------------------------------


def test_line_suppression():
    source = SourceFile(
        "mem.py",
        "repro.cluster.mem",
        text="raise Exception('x')  # turblint: disable=ERR01\n",
    )
    assert source.suppressed("ERR01", 1)
    assert not source.suppressed("ERR01", 2)
    assert not source.suppressed("TXN01", 1)


def test_file_suppression_and_all():
    source = SourceFile(
        "mem.py",
        "repro.cluster.mem",
        text=(
            "# turblint: disable-file=LOCK02\n"
            "x = 1  # turblint: disable=all\n"
        ),
    )
    assert source.suppressed("LOCK02", 99)
    assert source.suppressed("ERR01", 2)  # disable=all on line 2
    assert not source.suppressed("ERR01", 1)


def test_multiple_codes_one_comment():
    source = SourceFile(
        "mem.py",
        "repro.storage.mem",
        text="x = 1  # turblint: disable=TXN01, err01\n",
    )
    assert source.suppressed("TXN01", 1)
    assert source.suppressed("ERR01", 1)  # codes are case-insensitive
    assert not source.suppressed("OBS01", 1)


def test_syntax_error_raises_lint_error():
    with pytest.raises(LintSyntaxError):
        SourceFile("mem.py", "repro.x", text="def broken(:\n")


# -- module naming and discovery ------------------------------------------------


def test_module_name_anchors_at_src(tmp_path):
    path = tmp_path / "src" / "repro" / "storage" / "mvcc.py"
    assert module_name_for(path) == "repro.storage.mvcc"
    init = tmp_path / "src" / "repro" / "lint" / "__init__.py"
    assert module_name_for(init) == "repro.lint"


def test_module_name_outside_roots_falls_back_to_stem(tmp_path):
    assert module_name_for(tmp_path / "scratch.py") == "scratch"


def test_discover_walks_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.txt").write_text("not python\n")
    (tmp_path / "c.py").write_text("y = 2\n")
    found = discover([tmp_path / "pkg", tmp_path / "c.py"])
    assert found == sorted(found)  # deterministic output order
    assert {p.name for p in found} == {"a.py", "c.py"}


# -- run_paths / CLI ------------------------------------------------------------


def _write_engine_file(tmp_path: Path, text: str) -> Path:
    """Place a file so it resolves to a ``repro.storage`` module."""
    target = tmp_path / "src" / "repro" / "storage"
    target.mkdir(parents=True)
    path = target / "fixture.py"
    path.write_text(text)
    return path


def test_run_paths_reports_scoped_violation(tmp_path):
    path = _write_engine_file(tmp_path, "raise Exception('boom')\n")
    diagnostics, file_count = run_paths([path])
    assert file_count == 1
    assert [d.code for d in diagnostics] == ["ERR01"]


def test_run_paths_select_restricts_checkers(tmp_path):
    path = _write_engine_file(
        tmp_path,
        "import time\n\n\ndef f(db):\n    db.begin()\n"
        "    if not db:\n        raise Exception('boom')\n"
        "    return time.time()\n",
    )
    all_codes = {d.code for d in run_paths([path])[0]}
    assert all_codes == {"ERR01", "TXN01", "OBS01"}
    only_txn = {d.code for d in run_paths([path], select=["txn01"])[0]}
    assert only_txn == {"TXN01"}


def test_run_paths_suppression_applies(tmp_path):
    path = _write_engine_file(
        tmp_path, "raise Exception('x')  # turblint: disable=ERR01\n"
    )
    assert run_paths([path])[0] == []


def test_run_paths_parse_error_is_reported(tmp_path):
    path = _write_engine_file(tmp_path, "def broken(:\n")
    diagnostics, _ = run_paths([path])
    assert [d.code for d in diagnostics] == ["PARSE"]


def test_main_exit_codes(tmp_path, capsys):
    bad = _write_engine_file(tmp_path, "raise Exception('boom')\n")
    assert main([str(bad)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "ERR01" in out and "1 issue(s) found" in out

    clean = bad.with_name("clean.py")
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == EXIT_CLEAN


def test_main_rejects_missing_path(tmp_path, capsys):
    # A typo'd path must not green-light CI with "0 files checked".
    assert main([str(tmp_path / "nope")]) == EXIT_USAGE
    assert "no such file" in capsys.readouterr().err


def test_main_rejects_unknown_checker(capsys):
    assert main(["--select", "NOPE99", "src"]) == EXIT_USAGE
    assert "unknown checker" in capsys.readouterr().err


def test_main_list_checkers(capsys):
    assert main(["--list-checkers"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for cls in ALL_CHECKERS:
        assert cls.code in out


def test_checker_codes_are_unique():
    codes = [cls.code for cls in ALL_CHECKERS]
    assert len(codes) == len(set(codes)) == 8


# -- the repo itself must be clean ----------------------------------------------


def test_repo_source_tree_is_clean():
    diagnostics, file_count = run_paths([REPO_ROOT / "src"])
    assert file_count > 50
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


def test_cli_subprocess_exits_clean_on_repo():
    env_src = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 issue(s) found" in result.stdout


# -- strict typing gate (runs only where mypy is installed) ---------------------


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_gate():
    result = subprocess.run(
        ["mypy"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr

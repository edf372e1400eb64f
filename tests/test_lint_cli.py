"""CLI surface added with turbscan: JSON output, SUP01, the witness flag.

The framework basics (exit codes, --select, --list-checkers) live in
``test_lint_framework.py``; these tests cover the CI-facing additions.
"""

import json

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_VIOLATIONS,
    main,
    run_paths,
)


def _violating_file(tmp_path):
    """A file inside a synthetic repro.storage module that trips OBS01."""
    root = tmp_path / "src" / "repro" / "storage"
    root.mkdir(parents=True)
    path = root / "noisy.py"
    path.write_text(
        '"""Fixture."""\n\n\ndef shout():\n    """Shout."""\n'
        '    print("hi")\n'
    )
    return path


def test_json_format_is_machine_readable(tmp_path, capsys):
    bad = _violating_file(tmp_path)
    assert main([str(bad), "--format", "json"]) == EXIT_VIOLATIONS
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 1
    assert payload["count"] == len(payload["diagnostics"]) >= 1
    diag = payload["diagnostics"][0]
    assert diag["code"] == "OBS01"
    assert diag["path"] == str(bad)
    assert isinstance(diag["line"], int)


def test_sup01_flags_stale_suppression(tmp_path):
    root = tmp_path / "src" / "repro" / "storage"
    root.mkdir(parents=True)
    path = root / "quiet.py"
    path.write_text(
        '"""Fixture."""\n\nVALUE = 1  # turblint: disable=OBS01\n'
    )
    diagnostics, _ = run_paths([path])
    assert [d.code for d in diagnostics] == ["SUP01"]
    assert "stale suppression" in diagnostics[0].message


def test_sup01_keeps_live_suppressions(tmp_path):
    root = tmp_path / "src" / "repro" / "storage"
    root.mkdir(parents=True)
    path = root / "quiet.py"
    path.write_text(
        '"""Fixture."""\n\n\ndef shout():\n    """Shout."""\n'
        '    print("hi")  # turblint: disable=OBS01\n'
    )
    diagnostics, _ = run_paths([path])
    assert diagnostics == []


def test_sup01_ignores_directives_quoted_in_docstrings(tmp_path):
    root = tmp_path / "src" / "repro" / "storage"
    root.mkdir(parents=True)
    path = root / "quiet.py"
    path.write_text(
        '"""Fixture.\n\nExample::\n\n'
        "    x = 1  # turblint: disable=OBS01\n"
        '"""\n'
    )
    diagnostics, _ = run_paths([path])
    assert diagnostics == []


def test_sup01_not_judged_for_unrun_checkers(tmp_path):
    root = tmp_path / "src" / "repro" / "storage"
    root.mkdir(parents=True)
    path = root / "quiet.py"
    path.write_text(
        '"""Fixture."""\n\nVALUE = 1  # turblint: disable=OBS01\n'
    )
    # OBS01 never ran, so its directive cannot be judged stale.
    diagnostics, _ = run_paths([path], select=["SUP01", "TXN01"])
    assert diagnostics == []


def test_witness_flag_feeds_lock02(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    witness.write_text('{"edges": []}')
    assert main(["src", "--witness", str(witness)]) == EXIT_CLEAN
    assert "0 issue(s) found" in capsys.readouterr().out

"""NET02 (zero-copy wire discipline) checker tests."""

import subprocess
import sys
from pathlib import Path

from repro.lint.checkers.net02 import NetZeroCopy

from tests.lint_helpers import load, run_checker

REPO_ROOT = Path(__file__).parent.parent


def test_clean_fixture_passes():
    source = load("net02_good.py", "repro.net.fixture_good")
    assert run_checker(NetZeroCopy(), source) == []


def test_bad_fixture_reports_each_violation():
    source = load("net02_bad.py", "repro.net.fixture_bad")
    diags = run_checker(NetZeroCopy(), source)
    assert len(diags) == 5
    messages = "\n".join(d.message for d in diags)
    assert "bytes .join()" in messages
    assert "concatenating payload with +" in messages
    assert "payload +=" in messages
    assert "materialising payload" in messages
    assert "materialising blob" in messages
    assert all(d.code == "NET02" for d in diags)


def test_scope_is_the_net_package():
    checker = NetZeroCopy()
    assert checker.applies("repro.net.frame")
    assert checker.applies("repro.net.codec")
    assert checker.applies("repro.net.server")
    assert checker.applies("repro.net.aio")
    assert not checker.applies("repro.cluster.mediator")
    assert not checker.applies("repro.core.pointset")


def test_arithmetic_on_lengths_is_legal():
    """Summing sizes is not payload concatenation."""
    source = load("net02_good.py", "repro.net.fixture_good")
    diags = run_checker(NetZeroCopy(), source)
    assert diags == []


def test_own_net_package_is_clean():
    """The shipped data plane must satisfy its own lint rule."""
    from repro.lint import SourceFile

    net_dir = REPO_ROOT / "src" / "repro" / "net"
    checker = NetZeroCopy()
    for path in sorted(net_dir.glob("*.py")):
        module = f"repro.net.{path.stem}"
        if not checker.applies(module):
            continue
        source = SourceFile(path, module)
        diags = [
            d
            for d in checker.check(source)
            if not source.suppressed(d.code, d.line)
        ]
        assert diags == [], f"{path.name}: {[d.message for d in diags]}"


def test_cli_selects_net02(tmp_path):
    """``python -m repro.lint --select NET02`` flags a dirty net module."""
    target = tmp_path / "src" / "repro" / "net"
    target.mkdir(parents=True)
    bad = target / "fixture.py"
    bad.write_text(
        (REPO_ROOT / "tests" / "fixtures" / "lint" / "net02_bad.py")
        .read_text()
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--select", "NET02", str(bad)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode != 0
    assert "NET02" in result.stdout
    assert "5 issue(s) found" in result.stdout

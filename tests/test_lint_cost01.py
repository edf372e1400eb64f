"""COST01 (cost accounting) checker tests."""

from repro.lint.checkers.cost01 import CostAccounting

from tests.lint_helpers import load, run_checker


def test_clean_fixture_passes():
    source = load("cost01_good.py", "repro.core.fixture_good")
    assert run_checker(CostAccounting(), source) == []


def test_bad_fixture_reports_each_violation():
    source = load("cost01_bad.py", "repro.core.fixture_bad")
    diags = run_checker(CostAccounting(), source)
    assert [d.line for d in diags] == [5, 6]
    assert "read_time() computed but discarded" in diags[0].message
    assert "transfer_time() computed but discarded" in diags[1].message


def test_harness_and_benchmarks_are_exempt():
    checker = CostAccounting()
    assert not checker.applies("repro.harness.bench")
    assert not checker.applies("repro.benchmarks.figure9")
    assert checker.applies("repro.core.threshold")
    assert checker.applies("repro.costmodel.devices")
    assert not checker.applies("numpy.random")

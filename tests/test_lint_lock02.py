"""LOCK02: lock-order cycles, locks held across I/O, self-deadlocks and
guarded fields mutated outside their lock."""

from repro.lint.checkers import LockOrderWholeProgram

from tests.lint_helpers import load, run_program_checker


def test_bad_fixture_reports_cycle_and_blocking():
    checker = LockOrderWholeProgram()
    diags = run_program_checker(
        checker, load("lock02_bad.py", "repro.net.fixture_lock02")
    )
    messages = [d.message for d in diags]
    assert any("lock-order cycle" in m for m in messages), messages
    cycle = next(m for m in messages if "lock-order cycle" in m)
    assert "Registry._lock" in cycle and "Journal._lock" in cycle
    assert any("held across blocking" in m for m in messages), messages
    blocking = next(m for m in messages if "held across blocking" in m)
    assert "Sender._lock" in blocking


def test_good_fixture_is_clean():
    checker = LockOrderWholeProgram()
    diags = run_program_checker(
        checker, load("lock02_good.py", "repro.net.fixture_lock02")
    )
    assert diags == []


def test_witness_annotates_cycle_edges(tmp_path):
    witness = tmp_path / "witness.json"
    witness.write_text(
        '{"edges": [{"from": "Registry._lock", "to": "Journal._lock"}]}'
    )
    checker = LockOrderWholeProgram()
    checker.load_witness(witness)
    diags = run_program_checker(
        checker, load("lock02_bad.py", "repro.net.fixture_lock02")
    )
    cycle = next(d.message for d in diags if "lock-order cycle" in d.message)
    assert "witnessed at runtime" in cycle
    assert "never witnessed" in cycle


def test_line_suppression_silences_blocking_report():
    from repro.lint import SourceFile

    text = (
        '"""F."""\n\n'
        "import threading\n\n\n"
        "def push(sock, data):\n"
        '    """Sink."""\n'
        "    sock.sendall(data)\n\n\n"
        "class Sender:\n"
        '    """S."""\n\n'
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n\n"
        "    def send(self, sock, data):\n"
        '        """Send."""\n'
        "        with self._lock:\n"
        "            push(sock, data)  # turblint: disable=LOCK02\n"
    )
    source = SourceFile(
        "/synthetic/suppressed.py", "repro.net.fixture_lock02", text=text
    )
    diags = run_program_checker(LockOrderWholeProgram(), source)
    assert diags == []


# -- same-class hygiene (the lock01_* fixtures) ----------------------------------


def test_clean_fixture_passes():
    source = load("lock01_good.py", "repro.storage.fixture_good")
    assert run_program_checker(LockOrderWholeProgram(), source) == []


def test_bad_fixture_reports_each_violation():
    source = load("lock01_bad.py", "repro.storage.fixture_bad")
    diags = run_program_checker(LockOrderWholeProgram(), source)
    messages = "\n".join(d.message for d in diags)
    assert len(diags) == 3
    assert "self-deadlock" in messages
    assert "without it in public method racy()" in messages
    assert "lock-order cycle" in messages
    cycle = next(d for d in diags if "cycle" in d.message)
    assert "OppositeOrders._a_lock" in cycle.message
    assert "OppositeOrders._b_lock" in cycle.message


def test_private_helpers_may_mutate_without_lock():
    # lock01_good.Guarded._bump_already_locked mutates self._count with
    # no lock held; the leading-underscore convention exempts it — in
    # any package, the rule is no longer scoped to storage and cluster.
    source = load("lock01_good.py", "repro.net.fixture_good")
    assert run_program_checker(LockOrderWholeProgram(), source) == []


def test_edges_accumulate_across_files_only_within_one_run():
    # The lock-order graph belongs to one check_program call: the cycle
    # from the bad fixture must not leak into a later run, even of the
    # same checker instance.
    checker = LockOrderWholeProgram()
    bad = load("lock01_bad.py", "repro.storage.fixture_bad")
    assert any(
        "cycle" in d.message for d in run_program_checker(checker, bad)
    )
    good = load("lock01_good.py", "repro.storage.fixture_good")
    assert run_program_checker(checker, good) == []


def test_same_lock_through_another_receiver_is_not_a_self_deadlock():
    from repro.lint import SourceFile

    text = (
        '"""F."""\n\n'
        "import threading\n\n\n"
        "class Account:\n"
        '    """A."""\n\n'
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._cond = threading.Condition(self._lock)\n\n"
        '    def merge(self, other: "Account"):\n'
        '        """Two instances: two lock objects."""\n'
        "        with self._lock:\n"
        "            with other._lock:\n"
        "                return 1\n\n"
        "    def wait(self):\n"
        '        """The condition wraps the lock already held."""\n'
        "        with self._lock:\n"
        "            with self._cond:\n"
        "                return 2\n"
    )
    source = SourceFile(
        "/synthetic/receivers.py", "repro.net.fixture_lock02", text=text
    )
    diags = run_program_checker(LockOrderWholeProgram(), source)
    assert [d.line for d in diags] == [22]  # ``with self._cond``
    assert "self-deadlock" in diags[0].message
    assert "Account._lock" in diags[0].message

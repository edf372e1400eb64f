"""The leak gate is armed: ``pyproject.toml`` turns Python's own leak
reports into test failures, and each of its three lines is load-bearing.

A scratch test file is run by a child pytest under the repository's
configuration.  The dropped socket needs ``error::ResourceWarning`` *and*
``error::pytest.PytestUnraisableExceptionWarning`` (the warning is raised
inside ``socket.__del__``, where an exception can only be reported, not
propagated); the thread that dies needs
``error::pytest.PytestUnhandledThreadExceptionWarning``.  Delete any line
and a leg passes that must fail.  The second test does the same for the
session-end audit of ``tests/conftest.py`` (live threads, ``/dev/shm``).
"""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

SCRATCH = '''\
import socket
import threading


def test_drops_a_socket():
    socket.socket()


def test_a_thread_dies():
    thread = threading.Thread(target=lambda: 1 / 0)
    thread.start()
    thread.join()


def test_closes_its_socket():
    socket.socket().close()
'''


AUDIT_SCRATCH = '''\
import threading
import time
from multiprocessing import shared_memory


def test_leaves_a_thread_and_a_segment():
    threading.Thread(
        target=time.sleep, args=(30,), daemon=True, name="straggler"
    ).start()
    shared_memory.SharedMemory(create=True, size=64).close()
'''


def _child_pytest(tmp_path, text, *options):
    scratch = tmp_path / "test_scratch.py"
    scratch.write_text(text)
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", *options,
            str(scratch),
        ],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": f"{REPO / 'src'}:{REPO / 'tests'}"},
    )


def test_a_leak_fails_the_test_that_made_it(tmp_path):
    run = _child_pytest(tmp_path, SCRATCH)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout, run.stdout
    assert "test_drops_a_socket" in run.stdout
    assert "test_a_thread_dies" in run.stdout


def test_the_session_audit_fails_a_run_whose_tests_all_passed(tmp_path):
    """``tests/conftest.py``'s closing audit, loaded as a plugin: no
    warning fires for a live thread or a segment nobody unlinked."""
    run = _child_pytest(tmp_path, AUDIT_SCRATCH, "-p", "conftest")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 passed" in run.stdout and "failed" not in run.stdout
    assert "leak audit: thread 'straggler' is still alive" in run.stdout
    assert "leak audit: shared-memory segment /dev/shm/psm_" in run.stdout

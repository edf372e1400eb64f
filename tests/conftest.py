"""Shared fixtures: a small MHD cluster reused across test modules.

Also hosts the opt-in lock-order sanitizer hooks: ``REPRO_SANITIZE=1``
installs :mod:`repro.sanitize` for the whole session, exports the
witnessed lock-order edge set (``REPRO_SANITIZE_WITNESS``, default
``lock-witness.json``) at session end, and fails the run if any lock
inversion was witnessed.

And the session-end half of the leak gate (the per-test half is the
``filterwarnings`` of ``pyproject.toml``): when the last test is done no
thread but main may be alive and ``/dev/shm`` may hold no ``psm_*``
segment that was not there at the start.  File descriptors are not
counted — an unclosed one is what ``ResourceWarning`` already reports.
"""

import glob
import os
import threading
import time

import pytest

from repro.cluster import build_cluster
from repro.simulation import mhd_dataset


def _sanitize_enabled() -> bool:
    from repro.sanitize import SANITIZE_ENV

    return os.environ.get(SANITIZE_ENV) == "1"


_SHM_AT_START = pytest.StashKey[set]()
_LEAKS = pytest.StashKey[list]()

#: Seconds the threads that are already shutting down get to finish.
THREAD_GRACE_S = 2.0


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _leaks(shm_at_start: set) -> list:
    """What the session left behind, one line per thread or segment."""
    found = []
    give_up = time.monotonic() + THREAD_GRACE_S
    for thread in threading.enumerate():
        if thread is threading.main_thread():
            continue
        thread.join(timeout=max(0.0, give_up - time.monotonic()))
        if thread.is_alive():
            found.append(f"thread {thread.name!r} is still alive")
    found.extend(
        f"shared-memory segment {path} was never unlinked"
        for path in sorted(_shm_segments() - shm_at_start)
    )
    return found


def pytest_sessionstart(session):
    """Note ``/dev/shm``; install the lock sanitizer before any test runs."""
    session.config.stash[_SHM_AT_START] = _shm_segments()
    if _sanitize_enabled():
        from repro import sanitize

        sanitize.install()


def pytest_sessionfinish(session, exitstatus):
    """Fail on leaked threads / segments and on witnessed inversions."""
    leaks = _leaks(session.config.stash[_SHM_AT_START])
    session.config.stash[_LEAKS] = leaks
    if leaks and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
    if not _sanitize_enabled():
        return
    from repro import sanitize
    from repro.sanitize import WITNESS_ENV

    path = os.environ.get(WITNESS_ENV, "lock-witness.json")
    payload = sanitize.export_witness(path)
    sanitize.uninstall()
    if payload["inversions"] and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    """The leak audit's findings, then one line of sanitizer accounting."""
    for leak in terminalreporter.config.stash.get(_LEAKS, []):
        terminalreporter.write_line(f"leak audit: {leak}")
    if not _sanitize_enabled():
        return
    from repro import sanitize

    reg = sanitize.registry()
    terminalreporter.write_line(
        f"repro.sanitize: {len(reg.edges)} lock-order edge(s) witnessed, "
        f"{len(reg.blocking)} held-across-I/O pattern(s), "
        f"{len(reg.inversions)} inversion(s)"
    )
    for message in reg.inversions:
        terminalreporter.write_line(f"repro.sanitize: {message}")


@pytest.fixture(scope="session")
def small_mhd():
    """A 32^3, 2-timestep MHD dataset (session-wide, read-only)."""
    return mhd_dataset(side=32, timesteps=2)


@pytest.fixture()
def mhd_cluster(small_mhd):
    """A fresh 4-node cluster loaded with the small MHD dataset."""
    return build_cluster(small_mhd, nodes=4)

"""Lockdep-style runtime lock-order sanitizer.

The static LOCK02 checker proves the *possible* lock acquisition graph
acyclic; this module records the *witnessed* one.  When installed (see
:func:`install`, normally gated behind ``REPRO_SANITIZE=1`` in the test
harness) the ``threading.Lock`` / ``RLock`` / ``Condition`` factories
are replaced with wrappers that, for locks created inside ``repro``
source files:

* keep a thread-local stack of held locks, keyed by the lock's
  *creation site* (so every ``ConnectionPool`` instance's ``_lock``
  is one logical lock, exactly as LOCK02 models it);
* record every ``held -> taken`` ordering edge into a global graph and
  raise :class:`LockOrderError` the moment two sites are witnessed in
  both orders — a real inversion, caught even when the interleaving
  never actually deadlocks;
* record every wire primitive (``send_frame`` / ``recv_frame``)
  entered while any lock is held, so deliberate held-across-I/O
  suppressions stay auditable.

:func:`export_witness` serialises the witnessed edges with their
``Class.attr`` labels (resolved from the creation site's AST), in the
JSON shape LOCK02's ``--witness`` flag consumes: cycle reports then
annotate each edge as runtime-confirmed or never witnessed.

The wrappers add two dict operations per acquisition; the concurrency
suites run well inside the 2x overhead budget.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import threading
from pathlib import Path

#: Environment variable that turns the sanitizer on in the test harness.
SANITIZE_ENV = "REPRO_SANITIZE"
#: Environment variable naming where the harness writes the witness.
WITNESS_ENV = "REPRO_SANITIZE_WITNESS"

#: Path fragments identifying first-party source (the creation-site
#: filter): only locks created inside ``repro`` modules are tracked.
_REPRO_MARKERS = (f"{os.sep}repro{os.sep}", "/repro/")

# The real primitives, captured before any patching.
_real_lock = threading.Lock
_real_rlock = threading.RLock
_real_condition = threading.Condition

#: Wire primitives wrapped to record held-across-blocking events:
#: module path -> function names rebound there.
_BLOCKING_FUNCTIONS = ("send_frame", "recv_frame")
_BLOCKING_REBIND_MODULES = (
    "repro.net.frame",
    "repro.net.client",
    "repro.net.server",
)


class LockOrderError(RuntimeError):
    """Two locks were witnessed being acquired in both orders."""


# Lock identity at runtime is the ``(filename, lineno)`` creation site.


class LockRegistry:
    """Witnessed lock-order edges, held stacks and blocking events.

    One registry lives for the whole sanitized run; every tracked lock
    reports into it.  All mutable state is guarded by a *real*
    (untracked) mutex that is only ever taken as a leaf, so the
    sanitizer can never contribute edges of its own.
    """

    def __init__(self) -> None:
        self._mutex = _real_lock()
        self._tls = threading.local()
        #: (held site, taken site) -> times witnessed.
        self.edges: dict[tuple[tuple, tuple], int] = {}
        #: (held sites, wire op) -> times a wire primitive ran under locks.
        self.blocking: dict[tuple[tuple, str], int] = {}
        #: Human-readable descriptions of witnessed inversions.
        self.inversions: list[str] = []

    # -- held-stack bookkeeping (called from lock wrappers) ----------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def before_acquire(self, site: tuple) -> None:
        """Record ordering edges for an acquisition about to happen.

        Runs *before* the underlying acquire so an inversion raises
        instead of deadlocking the suite.  Edges between two locks from
        the same creation site (two instances of one class attribute)
        are skipped: ordering between peers is instance-level and the
        site key cannot tell the instances apart.

        Raises:
            LockOrderError: the opposite ordering was already witnessed.
        """
        stack = self._stack()
        if not stack:
            return
        inversion: tuple | None = None
        with self._mutex:
            for held in stack:
                if held == site:
                    continue
                key = (held, site)
                self.edges[key] = self.edges.get(key, 0) + 1
                if inversion is None and (site, held) in self.edges:
                    inversion = held
        if inversion is not None:
            message = (
                f"lock-order inversion: acquiring {site_label(site)} "
                f"({_site_text(site)}) while holding "
                f"{site_label(inversion)} ({_site_text(inversion)}), but "
                "the opposite order was witnessed earlier in this run — "
                "two threads interleaving these paths can deadlock"
            )
            with self._mutex:
                self.inversions.append(message)
            raise LockOrderError(message)

    def did_acquire(self, site: tuple, count: int = 1) -> None:
        """Push a successful acquisition onto the thread's held stack."""
        self._stack().extend([site] * count)

    def did_release(self, site: tuple, count: int = 1) -> None:
        """Pop the most recent ``count`` holds of ``site``."""
        stack = self._stack()
        for _ in range(count):
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] == site:
                    del stack[i]
                    break

    def held(self) -> list:
        """The calling thread's held sites, acquisition order."""
        return list(self._stack())

    def note_blocking(self, op: str) -> None:
        """Record a wire primitive entered while locks are held."""
        stack = self._stack()
        if not stack:
            return
        key = (tuple(dict.fromkeys(stack)), op)
        with self._mutex:
            self.blocking[key] = self.blocking.get(key, 0) + 1


class TrackedLock:
    """A ``threading.Lock`` recording its orderings in the registry.

    Exposes the mutex protocol (``acquire``/``release``/context
    manager/``locked``) and deliberately *not* ``_release_save`` — a
    ``Condition`` wrapping it then falls back to plain
    ``release``/``acquire`` calls, which keep the held stack honest
    across ``wait()``.
    """

    __slots__ = ("_inner", "_site", "_registry")

    def __init__(self, inner, site: tuple, registry: LockRegistry) -> None:
        self._inner = inner
        self._site = site
        self._registry = registry

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire, recording ordering edges first (see the registry)."""
        self._registry.before_acquire(self._site)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._registry.did_acquire(self._site)
        return got

    def release(self) -> None:
        """Release and pop the held stack."""
        self._inner.release()
        self._registry.did_release(self._site)

    def locked(self) -> bool:
        """Whether the underlying lock is currently held by anyone."""
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<TrackedLock {_site_text(self._site)} {self._inner!r}>"


class TrackedRLock(TrackedLock):
    """A reentrant tracked lock, usable under a ``Condition``.

    Implements ``_release_save``/``_acquire_restore``/``_is_owned`` so
    ``Condition.wait`` releases the *full* recursion depth and the held
    stack mirrors it exactly.
    """

    __slots__ = ()

    def _release_save(self):
        state = self._inner._release_save()
        depth = state[0] if isinstance(state, tuple) else 1
        self._registry.did_release(self._site, count=depth)
        return state

    def _acquire_restore(self, state) -> None:
        self._inner._acquire_restore(state)
        depth = state[0] if isinstance(state, tuple) else 1
        self._registry.did_acquire(self._site, count=depth)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


class _State:
    """Module-level installation state (one sanitizer per process)."""

    def __init__(self) -> None:
        self.installed = False
        self.instrument_all = False
        self.registry = LockRegistry()
        self.saved_blocking: list[tuple[object, str, object]] = []


_state = _State()


def registry() -> LockRegistry:
    """The active (or most recent) run's registry."""
    return _state.registry


def _tracked_creation(depth: int = 2) -> "tuple | None":
    """The creation site when the caller's file should be instrumented.

    Only code inside ``repro`` source files gets tracked locks (unless
    :func:`install` was told ``instrument_all``); the rest of the
    process — pytest, stdlib, test helpers — keeps the real primitives.
    """
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename
    if not _state.instrument_all and not any(
        marker in filename for marker in _REPRO_MARKERS
    ):
        return None
    return (filename, frame.f_lineno)


def _lock_factory():
    """Replacement for ``threading.Lock`` while installed."""
    site = _tracked_creation()
    if site is None:
        return _real_lock()
    return TrackedLock(_real_lock(), site, _state.registry)


def _rlock_factory():
    """Replacement for ``threading.RLock`` while installed."""
    site = _tracked_creation()
    if site is None:
        return _real_rlock()
    return TrackedRLock(_real_rlock(), site, _state.registry)


def _condition_factory(lock=None):
    """Replacement for ``threading.Condition`` while installed.

    A condition constructed around a tracked lock simply uses it (its
    acquisitions already report to the registry under the *wrapped*
    lock's site — the same aliasing LOCK02 applies).  A bare
    ``Condition()`` gets a tracked reentrant lock created at the
    condition's own site.
    """
    if lock is None:
        site = _tracked_creation()
        if site is None:
            return _real_condition()
        lock = TrackedRLock(_real_rlock(), site, _state.registry)
    return _real_condition(lock)


def _wrap_blocking(name: str, real):
    """A wire primitive that reports held-across-blocking first."""

    def wrapped(*args, **kwargs):
        _state.registry.note_blocking(name)
        return real(*args, **kwargs)

    wrapped.__name__ = name
    wrapped.__doc__ = real.__doc__
    wrapped.__wrapped__ = real
    return wrapped


def _patch_blocking() -> None:
    """Rebind the wire primitives (and their importers) to wrappers.

    ``client``/``server`` import the functions by name, so patching
    ``repro.net.frame`` alone would miss their call sites; every module
    that re-bound a name gets the wrapper too, and :func:`uninstall`
    restores each binding.
    """
    import importlib

    frame_mod = importlib.import_module("repro.net.frame")
    wrappers = {
        name: _wrap_blocking(name, getattr(frame_mod, name))
        for name in _BLOCKING_FUNCTIONS
    }
    for module_name in _BLOCKING_REBIND_MODULES:
        module = importlib.import_module(module_name)
        for name, wrapper in wrappers.items():
            original = getattr(module, name, None)
            if original is None or original is wrapper:
                continue
            _state.saved_blocking.append((module, name, original))
            setattr(module, name, wrapper)


def install(instrument_all: bool = False) -> LockRegistry:
    """Turn the sanitizer on; returns the fresh run registry.

    Idempotent: a second call while installed returns the live
    registry.  ``instrument_all`` drops the creation-site filter so
    tests can track locks created in test files.
    """
    if _state.installed:
        return _state.registry
    _state.registry = LockRegistry()
    _state.instrument_all = instrument_all
    _state.saved_blocking = []
    threading.Lock = _lock_factory
    threading.RLock = _rlock_factory
    threading.Condition = _condition_factory
    _patch_blocking()
    _state.installed = True
    return _state.registry


def uninstall() -> None:
    """Restore the real primitives; the registry keeps its evidence."""
    if not _state.installed:
        return
    threading.Lock = _real_lock
    threading.RLock = _real_rlock
    threading.Condition = _real_condition
    for module, name, original in _state.saved_blocking:
        setattr(module, name, original)
    _state.saved_blocking = []
    _state.instrument_all = False
    _state.installed = False


# -- witness export ----------------------------------------------------------


def site_label(site: tuple) -> str:
    """``Class.attr`` label for a lock creation site.

    Resolved by parsing the creating file and finding the
    ``self.<attr> = <factory>(...)`` assignment spanning the creation
    line inside its innermost class; sites outside such an assignment
    (module-level or local locks) fall back to ``file.py:line``.
    """
    filename, lineno = site
    return _file_labels(filename).get(lineno, _site_text(site))


def _site_text(site: tuple) -> str:
    filename, lineno = site
    return f"{Path(filename).name}:{lineno}"


_label_cache: dict[str, dict[int, str]] = {}


def _file_labels(filename: str) -> dict[int, str]:
    """Line -> ``Class.attr`` map for one source file (cached)."""
    cached = _label_cache.get(filename)
    if cached is not None:
        return cached
    labels: dict[int, str] = {}
    try:
        tree = ast.parse(Path(filename).read_text(), filename=filename)
    except (OSError, SyntaxError):
        _label_cache[filename] = labels
        return labels
    # Outer classes first so nested classes overwrite (innermost wins).
    classes = sorted(
        (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)),
        key=lambda n: n.lineno,
    )
    for cls in classes:
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    span_end = node.value.end_lineno or node.value.lineno
                    for line in range(node.value.lineno, span_end + 1):
                        labels[line] = f"{cls.name}.{target.attr}"
    _label_cache[filename] = labels
    return labels


def export_witness(path: "str | Path") -> dict:
    """Write the witnessed edge set as LOCK02 ``--witness`` JSON.

    Edges are labelled ``Class.attr`` and merged across instances;
    pairs whose endpoints collapse to one label are dropped (LOCK02
    skips same-identity edges too).  Returns the payload.
    """
    reg = _state.registry
    with reg._mutex:
        raw_edges = dict(reg.edges)
        raw_blocking = dict(reg.blocking)
        inversions = list(reg.inversions)
    merged: dict[tuple[str, str], int] = {}
    for (held, taken), count in raw_edges.items():
        key = (site_label(held), site_label(taken))
        if key[0] == key[1]:
            continue
        merged[key] = merged.get(key, 0) + count
    payload = {
        "version": 1,
        "edges": [
            {"from": a, "to": b, "count": count}
            for (a, b), count in sorted(merged.items())
        ],
        "blocking": [
            {
                "locks": sorted(site_label(s) for s in held),
                "op": op,
                "count": count,
            }
            for (held, op), count in sorted(
                raw_blocking.items(),
                key=lambda item: (item[0][1], item[1]),
            )
        ],
        "inversions": inversions,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload

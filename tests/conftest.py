"""Shared fixtures + runtime hardening for the CDStore test suite.

Beyond the data fixtures, this conftest takes hypothesis's per-example
deadline (a 200 ms wall-clock assertion by default) off every property
test, and arms three safety nets for a deeply threaded codebase:

* ``faulthandler.enable()`` — a hard hang or native crash dumps every
  thread's stack instead of dying silently;
* a recording ``threading.excepthook`` — an exception escaping a
  background thread fails the test that owned it (via the autouse
  fixture below) instead of surfacing as a hang or a silent pass.
  pytest's own ``threadexception`` plugin is disabled in pyproject so
  this hook is authoritative;
* the opt-in lock-order witness — ``REPRO_LOCK_WITNESS=1`` wraps every
  ``threading.Lock``/``RLock`` allocated after this module imports and
  fails the session if any two lock allocation sites are ever taken in
  both orders (see :mod:`repro.analysis.witness`).
"""

from __future__ import annotations

import contextlib
import faulthandler
import os
import resource
import signal
import sys
import threading

import pytest
from hypothesis import settings

from repro.chunking.fixed import FixedChunker
from repro.crypto.drbg import DRBG
from repro.system.cdstore import CDStoreSystem

faulthandler.enable()

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

_WITNESS = None
if os.environ.get("REPRO_LOCK_WITNESS") == "1":
    from repro.analysis.witness import install as _install_witness

    # Installed for the whole session (never uninstalled): locks created
    # by module-level imports after this point are witnessed too.
    _WITNESS, _ = _install_witness()


_background_errors: list[tuple[str, BaseException]] = []
_background_errors_lock = threading.Lock()
_original_excepthook = threading.excepthook


def _recording_excepthook(args: threading.ExceptHookArgs) -> None:
    thread_name = args.thread.name if args.thread is not None else "<unknown>"
    with _background_errors_lock:
        _background_errors.append((thread_name, args.exc_value))
    _original_excepthook(args)  # still print the traceback to stderr


threading.excepthook = _recording_excepthook


@pytest.fixture(autouse=True)
def fail_on_background_thread_exception():
    """Fail the owning test if any background thread raised during it."""
    with _background_errors_lock:
        _background_errors.clear()
    yield
    with _background_errors_lock:
        errors = list(_background_errors)
        _background_errors.clear()
    if errors:
        detail = "; ".join(f"[{name}] {exc!r}" for name, exc in errors)
        pytest.fail(
            f"{len(errors)} background thread exception(s) during this "
            f"test: {detail}"
        )


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    if _WITNESS is None:
        return
    from repro.analysis.witness import LockOrderError

    try:
        _WITNESS.assert_no_cycles()
    except LockOrderError as exc:
        print(f"\nREPRO_LOCK_WITNESS: {exc}", file=sys.stderr)
        session.exitstatus = 1
    else:
        edges = sum(len(v) for v in _WITNESS.graph.edges.values())
        print(
            f"\nREPRO_LOCK_WITNESS: acquisition graph acyclic "
            f"({len(_WITNESS.graph.edges)} lock sites, {edges} edges)",
            file=sys.stderr,
        )


@pytest.fixture
def file_size_limit():
    """``file_size_limit(n)``: a context in which this process cannot grow
    any file past ``n`` bytes — a write across the limit is cut short and
    the next one fails with a real ``EFBIG`` (``RLIMIT_FSIZE``, with
    ``SIGXFSZ`` ignored so the process is not killed for it)."""

    @contextlib.contextmanager
    def limit(size: int):
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))
        try:
            yield
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)

    return limit


@pytest.fixture
def drbg() -> DRBG:
    """A deterministic RNG; each test gets the same stream."""
    return DRBG("test-fixture")


@pytest.fixture
def small_system() -> CDStoreSystem:
    """A (4, 3) in-memory CDStore deployment with fast fixed chunking."""
    return CDStoreSystem(n=4, k=3, salt=b"test-org")


@pytest.fixture
def fixed_chunker() -> FixedChunker:
    return FixedChunker(4096)


def make_data(size: int, seed: str = "data") -> bytes:
    """Deterministic pseudo-random payload for tests."""
    return DRBG(seed).random_bytes(size)

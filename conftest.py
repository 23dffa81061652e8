"""Repo-level pytest glue: golden-snapshot flag + timeout fallback.

``--update-golden`` regenerates the residual snapshots under
``tests/golden/snapshots/`` instead of asserting against them; it must
live in this rootdir conftest because pytest only honours
``pytest_addoption`` here.

The rest is a per-test timeout fallback.

``pyproject.toml`` declares ``timeout = 120`` for pytest-timeout (a dev
dependency).  When the plugin is not installed this conftest registers
the same ini option and enforces it with ``SIGALRM``, so a wedged
specializer loop still fails the test instead of hanging the run.  The
fallback is a no-op off the main thread or on platforms without
``SIGALRM`` (e.g. Windows), and it steps aside entirely — no duplicate
option registration — once pytest-timeout is available.  An expired
test raises :class:`PerTestTimeout`.
"""

from __future__ import annotations

import signal
from importlib.util import find_spec

import pytest

_HAVE_PYTEST_TIMEOUT = find_spec("pytest_timeout") is not None
_HAVE_SIGALRM = hasattr(signal, "SIGALRM")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/ snapshots instead of comparing")
    if _HAVE_PYTEST_TIMEOUT:
        return
    parser.addini(
        "timeout",
        "per-test timeout in seconds (fallback for pytest-timeout)",
        default="0")


def pytest_configure(config):
    if _HAVE_PYTEST_TIMEOUT:
        return
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test timeout (fallback for pytest-timeout)")


class PerTestTimeout(BaseException):
    """A test outlived its timeout.

    Deliberately not an ``Exception``: the engines' never-raise seams
    (``engine_guard``, the service's degradation catches) swallow any
    plain Exception, so a ``TimeoutError`` fired mid-specialization
    would turn into a graceful degradation and the test would keep
    running unprotected.  Nor is it pytest's ``Failed``,
    ``SystemExit`` or ``GeneratorExit``: hypothesis catches those as a
    failing draw and shrinks it with no timer armed, so a draw past
    the limit would hang instead of failing.  Hypothesis lets any
    other ``BaseException`` through, and pytest reports it as a
    failure."""


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        return 0.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = 0.0
    if not _HAVE_PYTEST_TIMEOUT and _HAVE_SIGALRM:
        seconds = _timeout_for(item)
    if seconds <= 0:
        yield
        return

    def _expired(signum, frame):
        raise PerTestTimeout(
            f"{item.nodeid} exceeded the {seconds:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

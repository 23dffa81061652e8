"""The root ``conftest.py`` timeout fallback stops a hypothesis test.

The fallback arms ``SIGALRM`` when ``pytest_timeout`` is not
installed.  What it raises on expiry must get through hypothesis: an
exception hypothesis counts as a failing draw is shrunk with no timer
armed, so a draw slower than the limit would hang the run instead of
failing it.  The throwaway test below sleeps far past its 1 s limit on
every draw; the run must fail well inside the time one draw takes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

SLOW_HYPOTHESIS_TEST = '''
import time

import pytest
from hypothesis import given, settings, strategies as st


@pytest.mark.timeout(1)
@settings(deadline=None, max_examples=5, database=None)
@given(st.integers())
def test_every_draw_outlives_the_timeout(n):
    time.sleep(30)
'''


@pytest.mark.skipif(find_spec("pytest_timeout") is not None,
                    reason="pytest-timeout replaces the fallback")
def test_timeout_fails_a_slow_hypothesis_draw(tmp_path):
    shutil.copy(ROOT / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_slow.py").write_text(SLOW_HYPOTHESIS_TEST)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p",
             "no:cacheprovider", "test_slow.py"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("the timed-out hypothesis test was still running "
                    "after 20 s")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "exceeded the 1s timeout" in run.stdout, run.stdout

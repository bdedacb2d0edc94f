"""Shared fixtures for the hardened-execution-layer (repro.guard) suite.

These tests double as the chaos suite: the CI chaos job re-runs them with
each fault forced through ``REPRO_FAULTS``.  Tests that assert *clean-path*
behaviour (exact event counts, successful validation) therefore declare the
env faults they tolerate and skip under any other — a forced fault must make
the degradation tests bite, not make unrelated assertions flake.
"""

from __future__ import annotations

import pytest

from repro.backend import native
from repro.guard import faults
from repro.interp import clear_exec_stats


@pytest.fixture(autouse=True)
def clean_guard_state():
    """Every test starts and ends with empty event/guard/retry counters."""
    clear_exec_stats()
    yield
    clear_exec_stats()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private, empty native-artifact cache with fresh counters."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native.clear_memo()
    clear_exec_stats()
    yield tmp_path
    native.clear_memo()
    clear_exec_stats()


@pytest.fixture
def tolerates():
    """``tolerates("cc-missing", ...)`` — skip when any *other* env fault is
    armed (chaos runs force faults this test's assertions can't absorb)."""

    def check(*names):
        extra = sorted(set(faults.env_faults()) - set(names))
        if extra:
            pytest.skip(f"armed env fault(s) {', '.join(extra)} conflict with this test")

    return check


@pytest.fixture
def fast_guard(monkeypatch):
    """A short watchdog so hang tests finish in well under a second."""
    monkeypatch.setenv("REPRO_GUARD_TIMEOUT", "0.4")

"""Shared fixtures of the test suite: the engine axis and leak policing.

Three things live here:

* the ``engine`` fixture — parametrizes a test over every registered
  execution backend (``threads``, ``processes``, plus any third-party
  registration), scoping ``REPRO_ENGINE`` so the whole call tree under test
  runs on that backend, and skipping cells gracefully where the platform
  cannot run one (see ``tests/engine_conformance.py``);
* the ``tier1`` hypothesis profile — ``derandomize=True`` makes every
  property test draw the same examples on every run, so a failure under
  ``-x`` stops on the same example every time (and ``deadline=None`` keeps a
  loaded host from turning a slow example into a flake);
* an autouse leak check — every test must leave the process clean: no live
  multiprocessing children and no orphaned ``reproshm-*`` shared-memory
  segments.  This holds ``ProcessEngine.run``/``shutdown`` to their
  teardown contract (workers joined, segments unlinked) at the granularity
  of every single test.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from engine_conformance import engine_params, set_engine

try:
    from hypothesis import settings
except ImportError:
    # CI's docs-lint job runs single test files without hypothesis
    # installed; no property test is collected there, so no profile is needed.
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")

_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "reproshm-"


@pytest.fixture(params=engine_params())
def engine(request):
    """Run the test once per registered engine (``REPRO_ENGINE`` scoped)."""
    with set_engine(request.param):
        yield request.param


def _stray_segments():
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(_SHM_PREFIX))


@pytest.fixture(autouse=True)
def no_engine_leaks():
    """Fail any test that leaves live worker processes or shm segments.

    Children are given a short grace period: a passing test's workers are
    already joined by ``ProcessEngine.run``, so anything still alive after
    the grace is a genuine leak, not a scheduling hiccup.
    """
    yield
    deadline = time.monotonic() + 2.0
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.02)
        children = multiprocessing.active_children()
    leaked_procs = [p.name for p in children]
    leaked_segments = _stray_segments()
    if leaked_segments:
        # sweep so one offender does not cascade into later tests
        for fname in leaked_segments:
            try:
                os.unlink(os.path.join(_SHM_DIR, fname))
            except OSError:
                pass
    assert not leaked_procs, (
        f"test leaked live worker processes: {leaked_procs} "
        "(engines must join their workers before run() returns)"
    )
    assert not leaked_segments, (
        f"test leaked shared-memory segments: {leaked_segments} "
        "(receivers unlink on decode; engines sweep their prefix)"
    )

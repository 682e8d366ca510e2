"""Shared fixtures of the test suite: the engine axis, the traced corpus and leak policing.

Four things live here:

* the ``engine`` fixture — parametrizes a test over every registered
  execution backend (``threads``, ``processes``, plus any third-party
  registration; not the conformance suite's test-only engines), scoping
  ``REPRO_ENGINE`` so the whole call tree under test runs on that backend,
  and skipping cells gracefully where the platform cannot run one (see
  ``tests/engine_conformance.py``);
* the ``tier1`` hypothesis profile — ``derandomize=True`` makes every
  property test draw the same examples on every run, so a failure under
  ``-x`` stops on the same example every time (and ``deadline=None`` keeps a
  loaded host from turning a slow example into a flake);
* the ``corpus_trace`` fixture — the conformance corpus sorted once per
  session with every rank thread traced, shared by
  ``tests/test_rank_branches.py`` (the lines of the rank programs) and
  ``tests/test_module_state.py`` (writes to module state);
* an autouse leak check — every test must leave the process clean: no live
  multiprocessing children and no orphaned ``reproshm-<pid>-*`` shared-memory
  segments of this process or a process it forked.  This holds
  ``ProcessEngine.run``/``shutdown`` to their teardown contract (workers
  joined, segments unlinked) at the granularity of every single test, and
  leaves alone the segments of any other process on the host (a second
  checkout's processes-engine run, say).
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from engine_conformance import (
    RANK_PROGRAM_PACKAGES,
    SRC,
    engine_params,
    set_engine,
    trace_runs,
)
from shm_segments import SHM_DIR, ForkLog

try:
    from hypothesis import settings
except ImportError:
    # CI's docs-lint job runs single test files without hypothesis
    # installed; no property test is collected there, so no profile is needed.
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")

@pytest.fixture(params=engine_params(test_engines=False))
def engine(request):
    """Run the test once per registered engine (``REPRO_ENGINE`` scoped)."""
    with set_engine(request.param):
        yield request.param


@pytest.fixture(scope="session")
def corpus_trace():
    """:func:`engine_conformance.trace_runs` over the whole corpus, watching
    every file of the rank-program packages."""
    return trace_runs(
        watched=[
            str(path)
            for package in RANK_PROGRAM_PACKAGES
            for path in sorted((SRC / package).glob("*.py"))
        ]
    )


@pytest.fixture(scope="session")
def fork_log():
    """The pids forked below this pytest process, from the first test on."""
    log = ForkLog()
    yield log
    log.close()


@pytest.fixture(autouse=True)
def no_engine_leaks(fork_log):
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
    leaked_segments = fork_log.own_segments()
    if leaked_segments:
        # sweep so one offender does not cascade into later tests
        for fname in leaked_segments:
            try:
                os.unlink(os.path.join(SHM_DIR, fname))
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

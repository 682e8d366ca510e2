"""The autouse leak check polices this run's segments and no one else's.

A processes engine names its shared-memory segments
``reproshm-<pid>-<engine>-...`` after the process that built it.  The leak
check of ``conftest.py`` reports and unlinks only the segments of the
pytest process and the processes it forked, so a processes-engine run of
another checkout on the same host neither fails this suite nor loses its
segments to it.

The module plants a segment named after the pid of pytest's parent (alive
and never forked by this run); the first test's teardown runs the leak
check with it in place, and the second test finds it untouched.
"""

from __future__ import annotations

import os

import pytest

from shm_segments import SHM_DIR

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason=f"no {SHM_DIR} on this platform"
)


@pytest.fixture(scope="module")
def foreign_segment():
    """A ``reproshm-*`` file of a process this run did not fork."""
    path = os.path.join(SHM_DIR, f"reproshm-{os.getppid()}-0-planted")
    with open(path, "wb") as segment:
        segment.write(b"another run's payload")
    yield path
    os.unlink(path)


def test_the_leak_check_runs_beside_a_foreign_segment(foreign_segment, fork_log):
    assert os.path.exists(foreign_segment)
    assert os.path.basename(foreign_segment) not in fork_log.own_segments()


def test_the_leak_check_left_the_foreign_segment(foreign_segment):
    with open(foreign_segment, "rb") as segment:
        assert segment.read() == b"another run's payload"


def test_an_own_segment_is_still_reported(fork_log):
    name = f"reproshm-{os.getpid()}-0-planted"
    path = os.path.join(SHM_DIR, name)
    open(path, "wb").close()
    try:
        assert name in fork_log.own_segments()
    finally:
        os.unlink(path)


def test_a_forked_childs_segment_is_still_reported(fork_log):
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child only names a segment
        try:
            open(os.path.join(SHM_DIR, f"reproshm-{os.getpid()}-0-planted"), "wb").close()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    name = f"reproshm-{pid}-0-planted"
    try:
        assert name in fork_log.own_segments()
    finally:
        os.unlink(os.path.join(SHM_DIR, name))

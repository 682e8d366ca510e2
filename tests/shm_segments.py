"""Which ``reproshm-*`` shared-memory segments belong to this test run.

A processes engine names its segments ``reproshm-<pid>-<engine>-...``
after the process that built it.  A :class:`ForkLog` records the pid of
every process forked below the one that opened it, so
:meth:`ForkLog.own_segments` can tell this run's segments (its own and its
forked descendants') from those of any other process on the host.
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import List

__all__ = ["SHM_DIR", "ForkLog"]

SHM_DIR = "/dev/shm"
_SEGMENT = re.compile(r"reproshm-(\d+)-")


class ForkLog:
    """A file every process forked from now on appends its pid to."""

    def __init__(self) -> None:
        fd, self.path = tempfile.mkstemp(prefix="repro-forks-")
        os.close(fd)
        # a fork hook cannot be unregistered: after close() it finds no file
        os.register_at_fork(after_in_child=self._append_pid)

    def _append_pid(self) -> None:
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        except OSError:
            return
        try:
            os.write(fd, b"%d\n" % os.getpid())
        finally:
            os.close(fd)

    def own_segments(self) -> List[str]:
        """The segments named after this process or a process it forked."""
        try:
            entries = os.listdir(SHM_DIR)
        except OSError:
            return []
        owners = {e: _SEGMENT.match(e) for e in entries}
        owners = {e: int(m.group(1)) for e, m in owners.items() if m}
        if not owners:
            return []
        with open(self.path, "rb") as log:
            ours = {os.getpid()} | {int(pid) for pid in log.read().split()}
        return sorted(e for e, pid in owners.items() if pid in ours)

    def close(self) -> None:
        """Remove the log; later forks record nothing."""
        os.unlink(self.path)

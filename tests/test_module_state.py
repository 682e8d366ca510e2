"""Rank programs share no module state.

Ranks of the paper's MPI programs share no memory: what one rank writes
into a module global, another rank on another PE never sees.  The threads
engine runs every rank in one interpreter, so such a write would pass
silently there and leak between ranks.  This gate reads the session's
``corpus_trace`` (``tests/conftest.py``: the six paper algorithms over
every exchange topology at p in {3, 4}, every rank thread traced) and
requires:

* no ``STORE_GLOBAL`` or ``DELETE_GLOBAL`` ran in a ``src/repro`` frame on a
  rank thread;
* no ``repro`` module's ``__dict__`` changed across the runs, which also
  catches a ``setattr`` on a module (a trace function cannot see the object
  a ``STORE_ATTR`` writes to).

Two seeded mutations show that each check fires.
"""

from __future__ import annotations

import repro.dist.api as api
from engine_conformance import trace_runs

#: the cell the mutations run in: MS at p = 4, direct delivery
ONE_CELL = dict(num_pes=(4,), topologies=("direct",), algorithms=("ms",))

#: a local sort that records the last rank to run it in a module global
GLOBAL_WRITING_LOCAL_SORT = """
def local_sort(comm, strings, *args, **kwargs):
    global last_sorting_rank
    last_sorting_rank = comm.rank
    return unmutated_local_sort(comm, strings, *args, **kwargs)
"""


def test_rank_threads_write_no_module_global(corpus_trace):
    assert corpus_trace.global_writes == []


def test_runs_leave_every_repro_module_unchanged(corpus_trace):
    assert corpus_trace.module_changes == []


def test_a_global_write_in_a_rank_program_is_caught(monkeypatch):
    # the mutant is compiled as code of api.py, in api's namespace, as an
    # edit of that file would be
    namespace = {}
    exec(compile(GLOBAL_WRITING_LOCAL_SORT, api.__file__, "exec"), vars(api), namespace)
    monkeypatch.setattr(api, "unmutated_local_sort", api.local_sort, raising=False)
    monkeypatch.setattr(api, "last_sorting_rank", None, raising=False)
    monkeypatch.setattr(api, "local_sort", namespace["local_sort"])
    trace = trace_runs(**ONE_CELL)
    assert len(trace.global_writes) == 4, trace.global_writes
    assert all(
        write == f"STORE_GLOBAL last_sorting_rank at {api.__file__}:4"
        for write in trace.global_writes
    )
    assert trace.module_changes == ["repro.dist.api.last_sorting_rank rebound"]


def test_an_attribute_set_on_a_repro_module_is_caught(monkeypatch):
    unmutated = api.local_sort

    def local_sort(comm, strings, *args, **kwargs):
        api.last_sorting_rank = comm.rank
        return unmutated(comm, strings, *args, **kwargs)

    monkeypatch.setattr(api, "local_sort", local_sort)
    try:
        trace = trace_runs(**ONE_CELL)
    finally:
        vars(api).pop("last_sorting_rank", None)
    assert trace.global_writes == []
    assert trace.module_changes == ["repro.dist.api.last_sorting_rank added"]

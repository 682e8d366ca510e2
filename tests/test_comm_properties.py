"""Engine-independent properties of the ``Communicator`` protocol.

Every backend registered with the engine registry must honour the same
point-to-point matching contract: messages between one (sender, receiver,
tag) channel are matched to receives **in posting order** — the i-th
``irecv`` posted for a channel completes with the i-th ``isend`` of that
channel, regardless of engine, payload shape, or how the completion waits
interleave.  The property is driven by hypothesis over random per-channel
message sequences and exercised on every available engine via the shared
``engine_params`` axis from :mod:`engine_conformance`.  The request
handles themselves (``isend``/``irecv``, ``waitany``/``waitall``, self-sends,
a blocking ``recv`` behind an open ``irecv``) are pinned on every engine too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_conformance import engine_params, set_engine
from repro.mpi import run_spmd
from repro.mpi.comm import waitall, waitany

# payloads that survive any transport: bytes of varying size so both the
# in-band pipe path and (on large examples) the shm path get exercised
payloads = st.lists(
    st.binary(min_size=0, max_size=64),
    min_size=1,
    max_size=6,
)

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module", params=engine_params(), autouse=True)
def comm_engine(request):
    """Run every property of this module on each registered engine.

    Module-scoped so the hypothesis tests can share it (function-scoped
    parametrized fixtures would trip hypothesis health checks); engines
    the platform cannot run are skipped with the platform's reason.
    """
    with set_engine(request.param):
        yield request.param


def _ring_program(messages):
    """Each rank isends ``messages`` to its successor, irecvs in order."""

    def prog(comm):
        dest = (comm.rank + 1) % comm.size
        source = (comm.rank - 1) % comm.size
        sends = [
            comm.isend((i, body), dest=dest, tag=7)
            for i, body in enumerate(messages)
        ]
        recvs = [comm.irecv(source=source, tag=7) for _ in messages]
        received = [r.wait() for r in recvs]
        for s in sends:
            s.wait()
        return received

    return prog


@settings(**_SETTINGS)
@given(messages=payloads, p=st.integers(min_value=2, max_value=3))
def test_isend_irecv_match_in_posting_order(messages, p):
    """The i-th posted irecv on a channel yields the i-th isend's payload."""
    results, _ = run_spmd(p, _ring_program(messages))
    expected = list(enumerate(messages))
    for received in results:
        assert received == expected


@settings(**_SETTINGS)
@given(
    first=st.binary(min_size=0, max_size=32),
    second=st.binary(min_size=0, max_size=32),
)
def test_tag_order_is_enforced_identically(first, second):
    """Receiving tags out of posting order is a typed error on any engine.

    The SPMD contract deliberately rejects cross-tag reordering on one
    (sender, receiver) link — a tag mismatch means the program's send and
    receive schedules disagree, and every backend must surface it as the
    same typed :class:`SpmdError`, never as silent misdelivery.
    """
    from repro.mpi import SpmdError

    def prog(comm):
        peer = 1 - comm.rank
        if comm.rank == 0:
            comm.send(first, dest=peer, tag=1)
            comm.send(second, dest=peer, tag=2)
            return None
        b = comm.recv(source=peer, tag=2)  # posted out of order: must fail
        a = comm.recv(source=peer, tag=1)
        return (a, b)

    with pytest.raises(SpmdError, match="tag mismatch"):
        run_spmd(2, prog)


def test_out_of_order_waits_preserve_matching():
    """Waiting on later receives first must not steal earlier messages."""

    def prog(comm):
        if comm.size == 1:
            return []
        dest = (comm.rank + 1) % comm.size
        source = (comm.rank - 1) % comm.size
        sends = [comm.isend(i, dest=dest, tag=3) for i in range(4)]
        recvs = [comm.irecv(source=source, tag=3) for _ in range(4)]
        # complete in reverse posting order
        received = [None] * 4
        for i in reversed(range(4)):
            received[i] = recvs[i].wait()
        for s in sends:
            s.wait()
        return received

    results, _ = run_spmd(3, prog)
    for received in results:
        assert received == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# request handles: isend/irecv, waitany/waitall
# ---------------------------------------------------------------------------


def test_isend_irecv_roundtrip():
    def program(comm):
        peer = (comm.rank + 1) % comm.size
        source = (comm.rank - 1) % comm.size
        send = comm.isend(f"hello from {comm.rank}", peer)
        recv = comm.irecv(source)
        assert send.wait() is None
        assert send.test()
        got = recv.wait()
        assert recv.done
        return got

    results, report = run_spmd(4, program)
    assert results == [f"hello from {(r - 1) % 4}" for r in range(4)]
    assert all(b > 0 for b in report.bytes_sent_per_pe)


def test_irecv_matches_in_posting_order():
    """Driving the *second* request first must not steal the first message."""

    def program(comm):
        if comm.rank == 0:
            comm.isend("first", 1, tag=7).wait()
            comm.isend("second", 1, tag=7).wait()
            return None
        if comm.rank == 1:
            a = comm.irecv(0, tag=7)
            b = comm.irecv(0, tag=7)
            got_b = b.wait()  # out-of-order drive
            got_a = a.wait()
            return (got_a, got_b)
        return None

    results, _ = run_spmd(2, program)
    assert results[1] == ("first", "second")


def test_waitany_reports_completions_and_waitall_orders_payloads():
    def program(comm):
        if comm.rank == 0:
            requests = [comm.irecv(src) for src in range(1, comm.size)]
            seen = []
            remaining = list(requests)
            while remaining:
                idx = waitany(remaining)
                seen.append(remaining.pop(idx).wait())
            # waitall on completed requests returns payloads in request order
            assert waitall(requests) == [f"r{src}" for src in range(1, comm.size)]
            return sorted(seen)
        comm.isend(f"r{comm.rank}", 0).wait()
        return None

    results, _ = run_spmd(3, program)
    assert results[0] == ["r1", "r2"]


def test_isend_to_self_is_free_and_delivered():
    def program(comm):
        comm.isend("mine", comm.rank).wait()
        return comm.irecv(comm.rank).wait()

    results, report = run_spmd(2, program)
    assert results == ["mine", "mine"]
    assert report.total_bytes_sent == 0  # self-messages cost nothing


def test_blocking_recv_interoperates_with_irecv():
    def program(comm):
        if comm.rank == 0:
            comm.send("a", 1, tag=1)
            comm.send("b", 1, tag=1)
            return None
        first = comm.irecv(0, tag=1)
        second = comm.recv(0, tag=1)  # blocking recv behind an open irecv
        return (first.wait(), second)

    results, _ = run_spmd(2, program)
    assert results[1] == ("a", "b")

"""Engine-independent properties of the ``Communicator`` channels.

Every backend registered with the engine registry must honour the same
point-to-point contract: messages on one (sender, receiver) channel are
received **in send order** — the i-th blocking ``recv`` on a channel
returns the i-th ``send`` of that channel, regardless of engine or payload
shape — and a ``recv`` whose tag is not the next message's is a typed
error, never a silent misdelivery.  The properties are driven by
hypothesis over random per-channel message sequences and exercised on
every available engine via the shared ``engine_params`` axis from
:mod:`engine_conformance`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_conformance import engine_params, set_engine
from repro.mpi import SpmdError, run_spmd

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
    """Run every property of this module on each engine of the conformance axis.

    Module-scoped so the hypothesis tests can share it (function-scoped
    parametrized fixtures would trip hypothesis health checks); engines
    the platform cannot run are skipped with the platform's reason.
    """
    with set_engine(request.param):
        yield request.param


def _ring_program(messages):
    """Each rank sends ``messages`` to its successor, then receives as many."""

    def prog(comm):
        dest = (comm.rank + 1) % comm.size
        source = (comm.rank - 1) % comm.size
        for i, body in enumerate(messages):
            comm.send((i, body), dest=dest, tag=7)
        return [comm.recv(source=source, tag=7) for _ in messages]

    return prog


@settings(**_SETTINGS)
@given(messages=payloads, p=st.integers(min_value=2, max_value=3))
def test_send_recv_channel_is_fifo(messages, p):
    """The i-th recv on a channel yields the i-th send's payload."""
    results, report = run_spmd(p, _ring_program(messages))
    expected = list(enumerate(messages))
    for received in results:
        assert received == expected
    assert all(b > 0 for b in report.bytes_sent_per_pe)


@settings(**_SETTINGS)
@given(
    first=st.binary(min_size=0, max_size=32),
    second=st.binary(min_size=0, max_size=32),
)
def test_tag_order_is_enforced_identically(first, second):
    """Receiving tags out of send order is a typed error on any engine.

    The SPMD contract deliberately rejects cross-tag reordering on one
    (sender, receiver) link — a tag mismatch means the program's send and
    receive schedules disagree, and every backend must surface it as the
    same typed :class:`SpmdError`, never as silent misdelivery.
    """

    def prog(comm):
        peer = 1 - comm.rank
        if comm.rank == 0:
            comm.send(first, dest=peer, tag=1)
            comm.send(second, dest=peer, tag=2)
            return None
        b = comm.recv(source=peer, tag=2)  # received out of order: must fail
        a = comm.recv(source=peer, tag=1)
        return (a, b)

    with pytest.raises(SpmdError, match="tag mismatch"):
        run_spmd(2, prog)


@settings(**_SETTINGS)
@given(
    data=st.data(),
    p=st.integers(min_value=3, max_value=4),
    count=st.integers(min_value=1, max_value=4),
)
def test_receives_across_channels_in_any_order(data, p, count):
    """Draining the channels in any order never steals another's message.

    Every rank but 0 sends ``count`` messages to rank 0, which drains the
    channels in a drawn order of sources; each channel still yields its
    own messages, in send order.
    """
    order = data.draw(st.permutations(range(1, p)))

    def program(comm):
        if comm.rank != 0:
            for i in range(count):
                comm.send((comm.rank, i), 0, tag=3)
            return None
        return {src: [comm.recv(src, tag=3) for _ in range(count)] for src in order}

    results, _ = run_spmd(p, program)
    assert results[0] == {
        src: [(src, i) for i in range(count)] for src in range(1, p)
    }


def test_interleaved_receives_keep_each_channel_apart():
    """Alternating between two senders' channels pairs each recv with its own."""

    def program(comm):
        if comm.rank != 0:
            for i in range(3):
                comm.send(f"r{comm.rank}-{i}", 0, tag=1)
            return None
        return [comm.recv(src, tag=1) for i in range(3) for src in (2, 1)]

    results, _ = run_spmd(3, program)
    assert results[0] == ["r2-0", "r1-0", "r2-1", "r1-1", "r2-2", "r1-2"]


@settings(**_SETTINGS)
@given(messages=payloads)
def test_sendrecv_pairs_exchange_in_order(messages):
    """Paired ``sendrecv`` calls swap each payload with the partner's."""

    def program(comm):
        peer = comm.rank ^ 1
        return [
            comm.sendrecv((comm.rank, body), peer, tag=5) for body in messages
        ]

    results, _ = run_spmd(2, program)
    assert results[0] == [(1, body) for body in messages]
    assert results[1] == [(0, body) for body in messages]

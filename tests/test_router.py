"""The routed multi-level all-to-all: path algebra, delivery, accounting.

Three layers are covered:

* **path algebra** (pure, property-based): for every ``(src, dst, p)`` the
  path starts at ``src``, ends at ``dst``, uses only round-peer edges
  (checked inside the ``oracles.routing.path`` simulation), and its hop
  count matches the hypercube's promise — the Hamming distance, bounded by
  ``d`` for a power-of-two ``p``, exactly 1 for the non-power-of-two
  fallback;
* **routed delivery on the simulated machine**: every payload arrives at
  exactly one destination exactly once, with origin bytes equal to direct
  delivery's total, forwarded bytes covering the inflation, and per-PE
  startup counts reduced from ``p - 1`` to ``log2 p``;
* **cost-model consistency**: the measured routed volume stays within the
  inflation the closed-form ``alltoall_hypercube`` formula assumes, and the
  recorded collective kind drives that formula.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dist.exchange import exchange_buckets
from repro.mpi.engine import SpmdError, run_spmd
from repro.mpi.serialization import wire_size
from repro.net import router
from repro.net.cost_model import MachineModel
from repro.net.router import TOPOLOGY_NAMES, batch_wire_bytes, routed_exchange
from repro.net.topology import hypercube_dimension, is_power_of_two

from oracles.routing import max_hops, path

# ---------------------------------------------------------------------------
# path algebra (pure property tests)
# ---------------------------------------------------------------------------


def _popcount(x: int) -> int:
    return bin(x).count("1")


@settings(max_examples=200, deadline=None)
@given(p=st.integers(min_value=1, max_value=33), data=st.data())
def test_every_pair_routes_to_exactly_one_delivery(p, data):
    """path(src, dst) is well formed for every pair, on or off a hypercube."""
    src = data.draw(st.integers(min_value=0, max_value=p - 1))
    dst = data.draw(st.integers(min_value=0, max_value=p - 1))
    hops = path(src, dst, p)
    assert hops[0] == src and hops[-1] == dst
    assert len(hops) - 1 <= max_hops(p)
    # no rank is visited twice (store-and-forward never cycles)
    assert len(set(hops)) == len(hops)
    if src == dst:
        assert hops == [src]


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_hypercube_hop_counts_are_hamming_distances(p):
    d = hypercube_dimension(p)
    assert router.num_rounds(p) == max_hops(p) == d
    for src in range(p):
        for dst in range(p):
            hops = path(src, dst, p)
            assert len(hops) - 1 == _popcount(src ^ dst)
            # every hop flips exactly one bit, in ascending dimension order
            for a, b in zip(hops, hops[1:]):
                assert _popcount(a ^ b) == 1


@pytest.mark.parametrize("p", [3, 5, 6, 7, 12, 24])
def test_hypercube_falls_back_to_direct_off_powers_of_two(p):
    """Non-power-of-two p has no hypercube: one direct round, 1-hop paths."""
    assert not is_power_of_two(p)
    assert router.num_rounds(p) == 1
    assert max_hops(p) == 1
    for src in range(p):
        assert router.round_peers(src, p, 0) == [r for r in range(p) if r != src]
        for dst in range(p):
            hops = path(src, dst, p)
            assert hops == ([src] if src == dst else [src, dst])


@settings(max_examples=60, deadline=None)
@given(p=st.integers(min_value=2, max_value=17))
def test_round_peer_relation_is_symmetric(p):
    """Asymmetric peer sets would deadlock the per-round batch exchange."""
    for k in range(router.num_rounds(p)):
        for rank in range(p):
            for peer in router.round_peers(rank, p, k):
                assert rank in router.round_peers(peer, p, k)
                assert peer != rank


# ---------------------------------------------------------------------------
# routed delivery on the simulated machine
# ---------------------------------------------------------------------------


def _exchange_program(comm):
    messages = [f"from {comm.rank} to {dst}" for dst in range(comm.size)]
    sizes = [wire_size(m) for m in messages]
    received = routed_exchange(comm, messages, sizes)
    return received


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
def test_routed_exchange_delivers_every_payload_once(p):
    results, report = run_spmd(p, _exchange_program)
    for rank, received in enumerate(results):
        assert received == [f"from {src} to {rank}" for src in range(p)]
    # each payload leaves its origin exactly once: origin volume matches
    # what direct delivery would charge
    direct_total = sum(
        wire_size(f"from {src} to {dst}")
        for src in range(p)
        for dst in range(p)
        if src != dst
    )
    assert report.origin_bytes_sent == direct_total
    assert report.forwarded_bytes == report.total_bytes_sent - direct_total
    # every byte this program moved went through a routed batch
    assert sum(report.route_bytes.values()) == report.total_bytes_sent


def _bucket_program(comm, name):
    buckets = [([f"from {comm.rank} to {dst}".encode()], [0]) for dst in range(comm.size)]
    return [list(strings) for strings, _ in exchange_buckets(comm, buckets, topology=name)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
def test_direct_exchange_delivers_every_payload_once(p):
    """Direct delivery is the plain all-to-all: ``p - 1`` startups per PE,
    nothing forwarded, and the origin volume a routed exchange also has."""
    results, report = run_spmd(p, _bucket_program, common_args=("direct",))
    for rank, received in enumerate(results):
        assert received == [[f"from {src} to {rank}".encode()] for src in range(p)]
    assert report.messages_per_pe == [p - 1] * p
    assert report.forwarded_bytes == 0 and sum(report.route_bytes.values()) == 0
    assert report.origin_bytes_sent == report.total_bytes_sent
    _, routed = run_spmd(p, _bucket_program, common_args=("hypercube",))
    assert routed.origin_bytes_sent == report.origin_bytes_sent


def test_hypercube_startup_count_is_log_p():
    p = 8
    _, report = run_spmd(p, _exchange_program)
    assert report.messages_per_pe == [hypercube_dimension(p)] * p


def test_route_bytes_cover_all_routed_traffic():
    p = 8
    _, report = run_spmd(p, _exchange_program)
    assert set(report.route_bytes) == {f"hypercube-dim{k}" for k in range(3)}
    assert sum(report.route_bytes.values()) == report.total_bytes_sent
    (event,) = report.collectives
    assert event.kind == "alltoall-hypercube"


@pytest.mark.parametrize("p", [3, 5, 6])
def test_fallback_routes_in_one_labelled_direct_round(p):
    """Off a power of two: p - 1 startups, one label, a plain alltoall event."""
    _, report = run_spmd(p, _exchange_program)
    assert report.messages_per_pe == [p - 1] * p
    assert set(report.route_bytes) == {"hypercube-fallback"}
    assert report.forwarded_bytes == report.total_bytes_sent - report.origin_bytes_sent
    (event,) = report.collectives
    assert event.kind == "alltoall"


# ---------------------------------------------------------------------------
# cost-model consistency (model vs measured)
# ---------------------------------------------------------------------------


def _payload_program(comm, payload_bytes):
    # uniform, headers-dwarfing payloads so the inflation ratio is crisp
    messages = [b"x" * payload_bytes for _ in range(comm.size)]
    sizes = [payload_bytes] * comm.size
    routed_exchange(comm, messages, sizes)
    return None


@pytest.mark.parametrize("p", [4, 8, 16])
def test_measured_hypercube_volume_within_modelled_inflation(p):
    """The log2(p) factor of alltoall_hypercube is an upper envelope."""
    payload = 2000
    _, report = run_spmd(p, _payload_program, common_args=(payload,))
    d = hypercube_dimension(p)
    h = payload * (p - 1)  # per-PE origin bottleneck
    assert max(report.bytes_sent_per_pe) <= h * d
    assert report.total_bytes_sent <= p * h * d
    # and routing genuinely inflates: some frame needs more than one hop
    assert report.total_bytes_sent > report.origin_bytes_sent == p * h
    # the recorded collective carries the *origin* bottleneck, so the model
    # formula (which applies its own log factor) stays an upper bound on
    # the measured routed bottleneck's bandwidth term
    machine = MachineModel(alpha=0.0, beta=1.0)
    (event,) = [e for e in report.collectives if e.kind == "alltoall-hypercube"]
    assert event.max_bytes_per_pe == h
    assert machine.alltoall_hypercube(event.max_bytes_per_pe, p) >= max(
        report.bytes_sent_per_pe
    )
    # while the latency term drops from p-1 startups to log2 p
    latency = MachineModel(alpha=1.0, beta=0.0)
    assert latency.alltoall_hypercube(h, p) == pytest.approx(d)
    assert latency.alltoall_direct(h, p) == pytest.approx(p)


# ---------------------------------------------------------------------------
# the topology argument of exchange_buckets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["torus", "grid"])
def test_exchange_buckets_rejects_an_unknown_topology(name):
    with pytest.raises(SpmdError) as raised:
        run_spmd(2, _bucket_program, common_args=(name,))
    cause = raised.value.__cause__
    assert isinstance(cause, ValueError)
    assert "unknown exchange topology" in str(cause)
    assert str(list(TOPOLOGY_NAMES)) in str(cause)


def _default_program(comm, explicit):
    buckets = [([b"x"], [0]) for _ in range(comm.size)]
    exchange_buckets(comm, buckets, topology=explicit)


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_none_takes_the_runs_topology(monkeypatch, name):
    monkeypatch.setenv("REPRO_EXCHANGE_TOPOLOGY", name)
    _, report = run_spmd(4, _default_program, common_args=(None,))
    assert bool(report.route_bytes) == (name == "hypercube")
    # an explicit argument (a spec's own topology) beats the run's
    _, report = run_spmd(4, _default_program, common_args=("direct",))
    assert not report.route_bytes


def test_batch_framing_overhead_is_explicit():
    from repro.net.router import RouteFrame, frame_wire_bytes

    frame = RouteFrame(origin=3, dest=200, payload=b"irrelevant", nbytes=1000)
    # varint(3)=1, varint(200)=2, varint(1000)=2, plus the payload itself
    assert frame_wire_bytes(frame) == 1 + 2 + 2 + 1000
    assert batch_wire_bytes([frame, frame]) == 1 + 2 * (1 + 2 + 2 + 1000)
    assert batch_wire_bytes([]) == 1

"""The routed multi-level all-to-all: path algebra, delivery, accounting.

Three layers are covered:

* **path algebra** (pure, property-based): for every ``(src, dst, topology,
  p)`` the path starts at ``src``, ends at ``dst``, uses only round-peer
  edges (checked inside :meth:`ExchangeTopology.path` itself), and its hop
  count matches the topology's promise — Hamming distance bounded by ``d``
  for a power-of-two hypercube, at most 2 for the grid, exactly 1 for
  direct delivery and the non-power-of-two hypercube fallback;
* **routed delivery on the simulated machine**: every payload arrives at
  exactly one destination exactly once, with origin bytes equal to direct
  delivery's total, forwarded bytes covering the inflation, and per-PE
  startup counts reduced from ``p - 1`` to the topology's round structure;
* **cost-model consistency**: the measured routed volume stays within the
  inflation the closed-form ``alltoall_hypercube`` / ``alltoall_grid``
  formulas assume, and the recorded collective kinds drive those formulas.
"""

from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import RunConfig
from repro.mpi.engine import run_spmd
from repro.mpi.serialization import wire_size
from repro.net.cost_model import MachineModel
from repro.net.router import (
    TOPOLOGIES,
    TOPOLOGY_NAMES,
    batch_wire_bytes,
    resolve_topology,
    routed_exchange,
)
from repro.net.topology import grid_dims, hypercube_dimension, is_power_of_two

# ---------------------------------------------------------------------------
# path algebra (pure property tests)
# ---------------------------------------------------------------------------


def _popcount(x: int) -> int:
    return bin(x).count("1")


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=33),
    name=st.sampled_from(sorted(TOPOLOGY_NAMES)),
    data=st.data(),
)
def test_every_pair_routes_to_exactly_one_delivery(p, name, data):
    """path(src, dst) is well formed for every pair on every topology."""
    topology = TOPOLOGIES[name]
    src = data.draw(st.integers(min_value=0, max_value=p - 1))
    dst = data.draw(st.integers(min_value=0, max_value=p - 1))
    path = topology.path(src, dst, p)
    assert path[0] == src and path[-1] == dst
    assert len(path) - 1 <= topology.max_hops(p)
    # no rank is visited twice (store-and-forward never cycles)
    assert len(set(path)) == len(path)
    if src == dst:
        assert path == [src]


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_hypercube_hop_counts_are_hamming_distances(p):
    d = hypercube_dimension(p)
    topology = TOPOLOGIES["hypercube"]
    assert topology.max_hops(p) == d
    for src in range(p):
        for dst in range(p):
            path = topology.path(src, dst, p)
            assert len(path) - 1 == _popcount(src ^ dst)
            # every hop flips exactly one bit, in ascending dimension order
            for a, b in zip(path, path[1:]):
                assert _popcount(a ^ b) == 1


@pytest.mark.parametrize("p", [3, 5, 6, 7, 12, 24])
def test_hypercube_falls_back_to_direct_off_powers_of_two(p):
    """Non-power-of-two p has no hypercube: one direct round, 1-hop paths."""
    topology = TOPOLOGIES["hypercube"]
    assert not is_power_of_two(p)
    assert topology.num_rounds(p) == 1
    assert topology.max_hops(p) == 1
    assert topology.collective_kind(p) == "alltoall"
    for src in range(p):
        for dst in range(p):
            path = topology.path(src, dst, p)
            assert path == ([src] if src == dst else [src, dst])


@pytest.mark.parametrize("p", [2, 3, 4, 6, 8, 9, 12, 16, 25, 30])
def test_grid_hop_counts_row_then_column(p):
    rows, cols = grid_dims(p)
    assert rows * cols == p and rows <= cols
    topology = TOPOLOGIES["grid"]
    for src in range(p):
        for dst in range(p):
            path = topology.path(src, dst, p)
            assert len(path) - 1 <= 2
            if src != dst:
                expected = 1 if (src % cols == dst % cols or src // cols == dst // cols) else 2
                assert len(path) - 1 == expected
            if len(path) == 3:
                mid = path[1]
                # row phase first (stay in src's row), then the column hop
                assert mid // cols == src // cols
                assert mid % cols == dst % cols


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_grid_degenerates_to_direct_for_prime_p(p):
    rows, cols = grid_dims(p)
    assert (rows, cols) == (1, p)
    topology = TOPOLOGIES["grid"]
    for src in range(p):
        for dst in range(p):
            assert len(topology.path(src, dst, p)) - 1 == (0 if src == dst else 1)
    # the column phase has no peers anywhere: no deadlock, no messages
    for rank in range(p):
        assert topology.round_peers(rank, p, 1) == []


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=17),
    name=st.sampled_from(sorted(TOPOLOGY_NAMES)),
    k_rank=st.data(),
)
def test_round_peer_relation_is_symmetric(p, name, k_rank):
    """Asymmetric peer sets would deadlock the per-round batch exchange."""
    topology = TOPOLOGIES[name]
    for k in range(topology.num_rounds(p)):
        for rank in range(p):
            for peer in topology.round_peers(rank, p, k):
                assert rank in topology.round_peers(peer, p, k)
                assert peer != rank


# ---------------------------------------------------------------------------
# routed delivery on the simulated machine
# ---------------------------------------------------------------------------


def _exchange_program(comm, name):
    messages = [f"from {comm.rank} to {dst}" for dst in range(comm.size)]
    sizes = [wire_size(m) for m in messages]
    received = routed_exchange(comm, TOPOLOGIES[name], messages, sizes)
    return received


@pytest.mark.parametrize("name", sorted(TOPOLOGY_NAMES))
@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
def test_routed_exchange_delivers_every_payload_once(name, p):
    results, report = run_spmd(p, _exchange_program, common_args=(name,))
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


def test_hypercube_startup_count_is_log_p():
    p = 8
    _, report = run_spmd(p, _exchange_program, common_args=("hypercube",))
    assert report.messages_per_pe == [hypercube_dimension(p)] * p
    _, direct = run_spmd(p, _exchange_program, common_args=("direct",))
    assert direct.messages_per_pe == [p - 1] * p


def test_grid_startup_count_is_rows_plus_cols():
    p = 8
    rows, cols = grid_dims(p)
    _, report = run_spmd(p, _exchange_program, common_args=("grid",))
    assert report.messages_per_pe == [(rows - 1) + (cols - 1)] * p


def test_route_bytes_cover_all_routed_traffic():
    p = 8
    _, report = run_spmd(p, _exchange_program, common_args=("hypercube",))
    assert set(report.route_bytes) == {f"hypercube-dim{k}" for k in range(3)}
    assert sum(report.route_bytes.values()) == report.total_bytes_sent


# ---------------------------------------------------------------------------
# cost-model consistency (model vs measured)
# ---------------------------------------------------------------------------


def _payload_program(comm, name, payload_bytes):
    # uniform, headers-dwarfing payloads so the inflation ratio is crisp
    messages = [b"x" * payload_bytes for _ in range(comm.size)]
    sizes = [payload_bytes] * comm.size
    routed_exchange(comm, TOPOLOGIES[name], messages, sizes)
    return None


@pytest.mark.parametrize("p", [4, 8, 16])
def test_measured_hypercube_volume_within_modelled_inflation(p):
    """The log2(p) factor of alltoall_hypercube is an upper envelope."""
    payload = 2000
    _, report = run_spmd(p, _payload_program, common_args=("hypercube", payload))
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


@pytest.mark.parametrize("p", [4, 6, 8, 9, 12])
def test_measured_grid_volume_within_modelled_inflation(p):
    payload = 2000
    _, report = run_spmd(p, _payload_program, common_args=("grid", payload))
    rows, cols = grid_dims(p)
    phases = (1 if rows > 1 else 0) + (1 if cols > 1 else 0)
    h = payload * (p - 1)
    assert max(report.bytes_sent_per_pe) <= h * phases
    machine = MachineModel(alpha=0.0, beta=1.0)
    (event,) = [e for e in report.collectives if e.kind == "alltoall-grid"]
    assert event.max_bytes_per_pe == h
    assert machine.alltoall_grid(event.max_bytes_per_pe, p) >= max(
        report.bytes_sent_per_pe
    )
    latency = MachineModel(alpha=1.0, beta=0.0)
    assert latency.alltoall_grid(h, p) == pytest.approx((rows - 1) + (cols - 1))


def test_modeled_comm_time_dispatches_grid_kind():
    from repro.net.metrics import TrafficMeter

    meter = TrafficMeter(6)
    meter.record_collective("alltoall-grid", 1000, 6)
    machine = MachineModel(alpha=1.0, beta=1.0)
    assert meter.report().modeled_comm_time(machine) == pytest.approx(
        machine.alltoall_grid(1000, 6)
    )


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------


def _comm_with(topology):
    return SimpleNamespace(config=RunConfig(exchange_topology=topology))


def test_resolve_topology_spellings():
    comm = _comm_with("direct")
    assert resolve_topology("grid", comm) is TOPOLOGIES["grid"]
    assert resolve_topology(TOPOLOGIES["hypercube"], comm) is TOPOLOGIES["hypercube"]
    assert resolve_topology(None, comm).name == "direct"
    with pytest.raises(ValueError, match="unknown exchange topology"):
        resolve_topology("torus", comm)


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_none_resolves_to_the_runs_topology(name):
    assert resolve_topology(None, _comm_with(name)) is TOPOLOGIES[name]
    # an explicit argument (a spec's own topology) beats the run's
    assert resolve_topology("direct", _comm_with(name)).is_direct


def test_batch_framing_overhead_is_explicit():
    from repro.net.router import RouteFrame, frame_wire_bytes

    frame = RouteFrame(origin=3, dest=200, payload=b"irrelevant", nbytes=1000)
    # varint(3)=1, varint(200)=2, varint(1000)=2, plus the payload itself
    assert frame_wire_bytes(frame) == 1 + 2 + 2 + 1000
    assert batch_wire_bytes([frame, frame]) == 1 + 2 * (1 + 2 + 2 + 1000)
    assert batch_wire_bytes([]) == 1

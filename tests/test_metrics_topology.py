"""Tests for traffic metering and the hypercube topology helpers."""

import sys
import threading

import pytest

from repro.net.cost_model import MachineModel
from repro.net.metrics import TrafficMeter
from repro.net.topology import (
    hypercube_dimension,
    hypercube_size,
    in_upper_half,
    partner,
    subcube_members,
    subcube_root,
)


class TestTrafficMeter:
    def test_record_send_updates_both_sides(self):
        meter = TrafficMeter(3)
        meter.record_send(0, 2, 100)
        rep = meter.report()
        assert rep.bytes_sent_per_pe == [100, 0, 0]
        assert rep.bytes_received_per_pe == [0, 0, 100]
        assert rep.messages_per_pe == [1, 0, 0]

    def test_self_messages_are_free(self):
        meter = TrafficMeter(2)
        meter.record_send(1, 1, 999)
        rep = meter.report()
        assert rep.total_bytes_sent == 0

    def test_phases_label_traffic(self):
        meter = TrafficMeter(2)
        meter.set_phase(0, "exchange")
        meter.record_send(0, 1, 10)
        meter.set_phase(0, "merge")
        meter.record_send(0, 1, 5)
        rep = meter.report()
        assert rep.phase_bytes == {"exchange": 10, "merge": 5}

    def test_local_work_accumulates(self):
        meter = TrafficMeter(2)
        meter.record_local_work(1, 100, 7)
        meter.record_local_work(1, 50, 3)
        rep = meter.report()
        assert rep.chars_inspected_per_pe == [0, 150]
        assert rep.items_processed_per_pe == [0, 10]

    def test_bytes_per_string_metric(self):
        meter = TrafficMeter(2)
        meter.record_send(0, 1, 500)
        rep = meter.report()
        assert rep.bytes_per_string(100) == pytest.approx(5.0)
        assert rep.bytes_per_string(0) == 0.0

    def test_modeled_comm_time_uses_collectives(self):
        meter = TrafficMeter(4)
        meter.record_collective("alltoall", 1000, 4)
        meter.record_collective("bcast", 10, 4)
        rep = meter.report()
        machine = MachineModel(alpha=1.0, beta=1.0)
        expected = machine.alltoall_direct(1000, 4) + machine.broadcast(10, 4)
        assert rep.modeled_comm_time(machine) == pytest.approx(expected)

    def test_modeled_local_time_is_bottleneck(self):
        meter = TrafficMeter(2)
        meter.record_local_work(0, 10)
        meter.record_local_work(1, 1000)
        machine = MachineModel(char_time=1.0, item_time=0.0)
        rep = meter.report()
        assert rep.modeled_local_time(machine) == pytest.approx(1000)
        assert rep.modeled_total_time(machine) == pytest.approx(1000)

    def test_unknown_collective_kind_still_counts(self):
        meter = TrafficMeter(2)
        meter.record_collective("exotic", 100, 2)
        assert meter.report().modeled_comm_time(MachineModel(alpha=1, beta=1)) > 0

    def test_report_is_a_snapshot(self):
        meter = TrafficMeter(2)
        meter.record_send(0, 1, 10)
        rep = meter.report()
        meter.record_send(0, 1, 10)
        assert rep.total_bytes_sent == 10

    def test_count_charges_one_named_counter(self):
        meter = TrafficMeter(2)
        meter.count("faults_injected_per_pe", 1)
        meter.count("transported_bytes_per_pe", 0, 64)
        rep = meter.report()
        assert rep.faults_injected_per_pe == [0, 1]
        assert rep.transported_bytes == 64
        with pytest.raises(KeyError, match="unknown counter"):
            meter.count("faults_injectd_per_pe", 0)

    def test_concurrent_recording_loses_no_update(self):
        meter = TrafficMeter(4)
        sends = 2000

        def rank(r):
            meter.set_phase(r, "exchange")
            for _ in range(sends):
                meter.record_send(r, (r + 1) % 4, 3)
                meter.count("retries_per_pe", r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rank, args=(r % 4,)) for r in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        rep = meter.report()
        assert rep.bytes_sent_per_pe == [2 * 3 * sends] * 4
        assert rep.phase_bytes == {"exchange": 8 * 3 * sends}
        assert rep.retries_per_pe == [2 * sends] * 4


class TestTopology:
    def test_dimension(self):
        assert hypercube_dimension(1) == 0
        assert hypercube_dimension(2) == 1
        assert hypercube_dimension(3) == 1
        assert hypercube_dimension(4) == 2
        assert hypercube_dimension(1280) == 10

    def test_dimension_invalid(self):
        with pytest.raises(ValueError):
            hypercube_dimension(0)

    def test_size_is_power_of_two_leq_p(self):
        for p in range(1, 70):
            s = hypercube_size(p)
            assert s <= p < 2 * s
            assert s & (s - 1) == 0

    def test_partner_is_involution(self):
        for rank in range(16):
            for dim in range(4):
                assert partner(partner(rank, dim), dim) == rank
                assert partner(rank, dim) != rank

    def test_upper_half(self):
        assert not in_upper_half(0, 2)
        assert in_upper_half(4, 2)
        assert in_upper_half(5, 0)

    def test_subcube_members(self):
        assert subcube_members(5, 0) == [5]
        assert subcube_members(5, 1) == [4, 5]
        assert subcube_members(5, 2) == [4, 5, 6, 7]
        assert subcube_members(5, 3) == list(range(8))

    def test_subcube_root(self):
        assert subcube_root(7, 2) == 4
        assert subcube_root(7, 0) == 7
        assert subcube_root(9, 3) == 8

    def test_partner_stays_in_subcube(self):
        for rank in range(8):
            for dim in range(3):
                assert partner(rank, dim) in subcube_members(rank, dim + 1)

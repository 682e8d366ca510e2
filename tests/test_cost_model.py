"""Tests for the alpha-beta machine model (Section II collective costs)."""

import math

import pytest

from repro.net.cost_model import DEFAULT_MACHINE, MachineModel


class TestCollectives:
    def test_single_pe_collectives_are_free(self):
        m = DEFAULT_MACHINE
        assert m.broadcast(100, 1) == 0.0
        assert m.reduction(100, 1) == 0.0
        assert m.allgather(100, 1) == 0.0
        assert m.alltoall_direct(100, 1) == 0.0

    def test_broadcast_log_latency(self):
        m = MachineModel(alpha=1.0, beta=0.0)
        assert m.broadcast(0, 8) == pytest.approx(3.0)
        assert m.broadcast(0, 1024) == pytest.approx(10.0)

    def test_alltoall_direct_linear_latency(self):
        m = MachineModel(alpha=1.0, beta=0.0)
        assert m.alltoall_direct(0, 64) == pytest.approx(64.0)

    def test_alltoall_hypercube_tradeoff(self):
        """Hypercube routing: lower latency, log p higher volume cost."""
        m = MachineModel(alpha=1.0, beta=1.0)
        p = 256
        h = 10_000
        direct = m.alltoall_direct(h, p)
        hyper = m.alltoall_hypercube(h, p)
        # latency part smaller, bandwidth part larger
        assert math.log2(p) < p
        assert hyper == pytest.approx(math.log2(p) * (1 + h))
        assert direct == pytest.approx(p + h)

    def test_gather_volume_scales_with_p(self):
        m = MachineModel(alpha=0.0, beta=1.0)
        assert m.gather(10, 4) == pytest.approx(40)

    def test_allgather_volume(self):
        m = MachineModel(alpha=0.0, beta=1.0)
        assert m.allgather(10, 4) == pytest.approx(40)


class TestLocalWork:
    def test_local_work_terms(self):
        m = MachineModel(char_time=2.0, item_time=3.0)
        assert m.local_work(10, 5) == pytest.approx(20 + 15)

    def test_default_char_time_positive(self):
        assert DEFAULT_MACHINE.char_time > 0


class TestDataScale:
    def test_scaling_multiplies_bandwidth_and_work(self):
        m = MachineModel(alpha=1e-6, beta=1e-10, char_time=1e-9, item_time=1e-8)
        scaled = m.with_data_scale(100)
        assert scaled.alpha == m.alpha
        assert scaled.beta == pytest.approx(m.beta * 100)
        assert scaled.char_time == pytest.approx(m.char_time * 100)
        assert scaled.item_time == pytest.approx(m.item_time * 100)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            DEFAULT_MACHINE.with_data_scale(0)

    def test_model_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_MACHINE.alpha = 1.0

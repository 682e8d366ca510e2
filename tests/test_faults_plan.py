"""Fault plans, the deterministic injector, and the checksum primitives."""

import numpy as np
import pytest

from repro.faults import (
    CHECKSUM_WIRE_BYTES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    payload_checksum,
)
from repro.config import RunConfig
from repro.strings.packed import PackedStringArray

from oracles.faults import injected_counts


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="gremlin")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=-0.1)

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="drop", after=-1)

    def test_max_hits_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="drop", max_hits=0)
        FaultRule(kind="drop", max_hits=None)  # unbounded is fine

    def test_message_vs_phase_rules(self):
        assert FaultRule(kind="drop").is_message_rule
        assert FaultRule(kind="corrupt").is_message_rule
        assert not FaultRule(kind="crash").is_message_rule
        assert not FaultRule(kind="straggle").is_message_rule

    def test_channel_matching(self):
        rule = FaultRule(kind="drop", src=1, dst=2, phase="exchange")
        assert rule.matches_channel(1, 2, "exchange")
        assert not rule.matches_channel(0, 2, "exchange")
        assert not rule.matches_channel(1, 3, "exchange")
        assert not rule.matches_channel(1, 2, "local-sort")
        wild = FaultRule(kind="drop")
        assert wild.matches_channel(0, 1, "anything")
        # a message rule never matches phase events, and vice versa
        assert not rule.matches_phase(1, "exchange")
        assert not FaultRule(kind="crash", rank=1).matches_channel(1, 2, "x")

    def test_phase_matching(self):
        rule = FaultRule(kind="crash", rank=1, phase="exchange")
        assert rule.matches_phase(1, "exchange")
        assert not rule.matches_phase(0, "exchange")
        assert not rule.matches_phase(1, "local-sort")


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            rules=(
                FaultRule(kind="drop", src=0, dst=1, probability=0.5),
                FaultRule(kind="crash", rank=2, phase="exchange", after=1),
            ),
            max_retransmits=7,
            retry_delay=0.5,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "turbo": True})

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(max_retransmits=-1)
        with pytest.raises(ValueError):
            FaultPlan(retry_delay=0.0)

    def test_wants_checksums(self):
        assert FaultPlan(rules=(FaultRule(kind="corrupt"),)).wants_checksums
        assert not FaultPlan(rules=(FaultRule(kind="drop"),)).wants_checksums


class TestFaultInjector:
    def test_same_plan_replays_identically(self):
        plan = FaultPlan(
            seed=9,
            rules=(FaultRule(kind="drop", probability=0.3, max_hits=None),),
        )
        def schedule():
            inj = FaultInjector(plan)
            return [
                inj.on_send(s, d, "exchange") is not None
                for s in range(3)
                for d in range(3)
                if s != d
                for _ in range(20)
            ]
        assert schedule() == schedule()

    def test_seed_changes_schedule(self):
        def fires(seed):
            inj = FaultInjector(
                FaultPlan(seed=seed, rules=(
                    FaultRule(kind="drop", probability=0.5, max_hits=None),
                ))
            )
            return [inj.on_send(0, 1, "x") is not None for _ in range(64)]
        assert fires(1) != fires(2)

    def test_after_window(self):
        inj = FaultInjector(
            FaultPlan(rules=(FaultRule(kind="drop", after=2, max_hits=None),))
        )
        decisions = [inj.on_send(0, 1, "x") is not None for _ in range(5)]
        assert decisions == [False, False, True, True, True]

    def test_max_hits_budget(self):
        inj = FaultInjector(
            FaultPlan(rules=(FaultRule(kind="drop", max_hits=2),))
        )
        decisions = [inj.on_send(0, 1, "x") is not None for _ in range(5)]
        assert decisions == [True, True, False, False, False]
        assert injected_counts(inj) == {"drop": 2}

    def test_hit_budget_is_per_channel(self):
        # max_hits budgets each channel independently, so the schedule can
        # never depend on which rank thread happens to send first
        inj = FaultInjector(FaultPlan(rules=(FaultRule(kind="drop", max_hits=1),)))
        assert inj.on_send(0, 1, "x") is not None
        assert inj.on_send(2, 3, "x") is not None  # fresh channel, fresh budget
        assert inj.on_send(0, 1, "x") is None  # same channel: budget spent
        assert inj.on_send(2, 3, "x") is None

    def test_first_fired_rule_wins_and_losers_keep_their_budget(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="drop", after=0, max_hits=1),
            FaultRule(kind="corrupt", after=0, max_hits=1),
        ))
        inj = FaultInjector(plan)
        first = inj.on_send(0, 1, "x")
        assert first is not None and first.kind == "drop"
        # faults never stack on one message: corrupt lost event one, but a
        # losing rule keeps its budget and fires on the next event
        second = inj.on_send(0, 1, "x")
        assert second is not None and second.kind == "corrupt"
        assert inj.on_send(0, 1, "x") is None
        assert injected_counts(inj) == {"drop": 1, "corrupt": 1}

    def test_retransmits_only_struck_by_corrupt(self):
        plan = FaultPlan(rules=(FaultRule(kind="drop", max_hits=None),))
        inj = FaultInjector(plan)
        assert inj.on_retransmit(0, 1, "x") is None
        plan2 = FaultPlan(rules=(FaultRule(kind="corrupt", max_hits=None),))
        inj2 = FaultInjector(plan2)
        action = inj2.on_retransmit(0, 1, "x")
        assert action is not None and action.kind == "corrupt"
        assert action.mask != 0

    def test_phase_rules(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", rank=1, phase="exchange", max_hits=1),
        ))
        inj = FaultInjector(plan)
        assert inj.on_phase(0, "exchange") is None
        assert inj.on_phase(1, "local-sort") is None
        action = inj.on_phase(1, "exchange")
        assert action is not None and action.kind == "crash"
        # single-shot: consumed
        assert inj.on_phase(1, "exchange") is None


class TestPayloadChecksum:
    def test_deterministic_and_type_tagged(self):
        assert payload_checksum(b"abc") == payload_checksum(b"abc")
        assert payload_checksum(b"abc") != payload_checksum("abc")
        assert payload_checksum(1) != payload_checksum("1")
        assert payload_checksum(None) != payload_checksum(0)
        assert payload_checksum(True) != payload_checksum(1)

    def test_structures(self):
        obj = {"k": [1, 2.5, b"x", None], "t": (True, "s")}
        assert payload_checksum(obj) == payload_checksum(
            {"k": [1, 2.5, b"x", None], "t": (True, "s")}
        )
        assert payload_checksum([1, 2]) != payload_checksum([2, 1])
        # list vs tuple is a Python-side distinction, not a wire one: both
        # serialise as a sequence, so they share a checksum
        assert payload_checksum([1, 2]) == payload_checksum((1, 2))

    def test_numpy_arrays(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        assert payload_checksum(a) == payload_checksum(a.copy())
        assert payload_checksum(a) != payload_checksum(a.astype(np.int32))
        # non-contiguous views checksum by content, not layout
        big = np.arange(10, dtype=np.int64)
        assert payload_checksum(big[::2]) == payload_checksum(
            np.ascontiguousarray(big[::2])
        )

    def test_packed_string_array(self):
        p = PackedStringArray.from_strings([b"ab", b"c", b""])
        q = PackedStringArray.from_strings([b"ab", b"c", b""])
        assert payload_checksum(p) == payload_checksum(q)
        r = PackedStringArray.from_strings([b"ab", b"d", b""])
        assert payload_checksum(p) != payload_checksum(r)

    def test_unsupported_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="content_crc"):
            payload_checksum(Opaque())

    def test_content_crc_hook(self):
        class Sealed:
            def content_crc(self):
                return 0xDEADBEEF

        assert payload_checksum(Sealed()) == payload_checksum(Sealed())


class TestChecksumSetting:
    def test_default_off(self):
        assert RunConfig().wire_checksums is False

    def test_environment_opts_in(self):
        assert RunConfig.from_env({"REPRO_WIRE_CHECKSUMS": "1"}).wire_checksums

    def test_checksum_wire_bytes_constant(self):
        assert CHECKSUM_WIRE_BYTES == 4

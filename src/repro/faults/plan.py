"""Seeded, replayable fault plans: which faults strike, where, and when.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries plus a seed and
the recovery budget.  Installed into a :class:`repro.mpi.engine.ThreadEngine`
(via its ``fault_plan=`` seam or ``Cluster(fault_plan=...)``), the plan is
compiled into a :class:`repro.faults.inject.FaultInjector` whose decisions
are a pure function of ``(seed, rule index, channel, event count)`` — the
same plan against the same program replays the exact same chaos schedule,
which is what lets the chaos suite assert bit-identical recovery.

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`), the format the CLI's ``--fault-plan @plan.json``
flag loads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FaultRule", "FaultPlan", "FAULT_KINDS"]

#: the fault taxonomy (see docs/FAULTS.md)
FAULT_KINDS: Tuple[str, ...] = (
    "drop",
    "duplicate",
    "delay",
    "corrupt",
    "crash",
    "straggle",
)

#: rule kinds that strike point-to-point messages (vs. rank lifecycle events)
MESSAGE_KINDS: Tuple[str, ...] = ("drop", "duplicate", "delay", "corrupt")


@dataclass(frozen=True)
class FaultRule:
    """One kind of fault plus its targeting and firing schedule.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.  ``drop``/``duplicate``/``delay``/
        ``corrupt`` strike point-to-point messages; ``crash``/``straggle``
        strike a rank when it enters an accounting phase.
    src / dst:
        Restrict a message rule to a sender / receiver rank (``None`` = any).
    rank:
        Restrict a phase rule (``crash``/``straggle``) to one rank
        (``None`` = any).
    phase:
        Restrict the rule to events labelled with this accounting phase
        (``None`` = any phase).
    probability:
        Chance an eligible event fires the rule, drawn from the rule's own
        seeded stream (1.0 = every eligible event).
    after:
        Number of eligible events to let pass untouched before the rule may
        fire (0 = from the first event).
    max_hits:
        Number of times this rule may fire **per channel** — per matching
        ``(src, dst)`` pair for message rules, per matching rank for phase
        rules (``None`` = unbounded).  The budget is per channel rather
        than global so the schedule never depends on which rank thread
        happens to send first; a plan therefore replays identically on
        every run.  Defaults to 1: a single-shot rule pinned to one channel
        injects exactly one fault.
    delay_messages:
        For ``delay``: how many subsequent messages on the channel overtake
        the held one before it is released.
    seconds:
        For ``straggle``: how long the struck rank sleeps.
    """

    kind: str
    src: Optional[int] = None
    dst: Optional[int] = None
    rank: Optional[int] = None
    phase: Optional[str] = None
    probability: float = 1.0
    after: int = 0
    max_hits: Optional[int] = 1
    delay_messages: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {list(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.max_hits is not None and self.max_hits < 1:
            raise ValueError(f"max_hits must be >= 1 or None, got {self.max_hits}")
        if self.delay_messages < 1:
            raise ValueError(
                f"delay_messages must be >= 1, got {self.delay_messages}"
            )
        if self.seconds < 0.0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    @property
    def is_message_rule(self) -> bool:
        """Whether this rule strikes point-to-point messages (vs. phases)."""
        return self.kind in MESSAGE_KINDS

    def matches_channel(self, src: int, dst: int, phase: str) -> bool:
        """Whether a message ``src -> dst`` sent under ``phase`` is eligible."""
        if not self.is_message_rule:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return self.phase is None or self.phase == phase

    def matches_phase(self, rank: int, phase: str) -> bool:
        """Whether ``rank`` entering ``phase`` is eligible (crash/straggle)."""
        if self.is_message_rule:
            return False
        if self.rank is not None and self.rank != rank:
            return False
        return self.phase is None or self.phase == phase


@dataclass(frozen=True)
class FaultPlan:
    """A replayable chaos schedule: seeded rules plus the recovery budget.

    Parameters
    ----------
    seed:
        Seeds every rule's per-channel random stream; two runs of the same
        plan against the same program inject identically.
    rules:
        The :class:`FaultRule` entries; every matching rule's schedule
        advances per event, and the first rule that *fires* wins (faults
        never stack on one message).
    max_retransmits:
        Per-message retransmit budget of the recovery layer; exhausting it
        raises :class:`~repro.faults.errors.LostMessageError` /
        :class:`~repro.faults.errors.CorruptFrameError`.
    retry_delay:
        Base of the processes engine's exponential backoff (seconds) before
        a receiver pulls a retransmit of a withheld message that no
        successor reveals (the threads engine pulls it once no rank can run).
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)
    max_retransmits: int = 4
    retry_delay: float = 0.02

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.max_retransmits < 0:
            raise ValueError(
                f"max_retransmits must be >= 0, got {self.max_retransmits}"
            )
        if self.retry_delay <= 0.0:
            raise ValueError(f"retry_delay must be > 0, got {self.retry_delay}")

    @property
    def wants_checksums(self) -> bool:
        """Whether the plan injects corruption (any ``corrupt`` rule).

        The envelope CRC already detects injected corruption on its own;
        this flag is for callers who want the belt-and-braces content
        seals too: ``Cluster(wire_checksums=plan.wants_checksums)``.
        """
        return any(rule.kind == "corrupt" for rule in self.rules)

    # ------------------------------------------------------------------ (de)serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-compatible; inverse of :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "max_retransmits": self.max_retransmits,
            "retry_delay": self.retry_delay,
            "rules": [asdict(rule) for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from :meth:`to_dict` output (unknown keys rejected)."""
        known = {"seed", "max_retransmits", "retry_delay", "rules"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        rules: List[FaultRule] = [FaultRule(**r) for r in raw.get("rules", [])]
        return cls(
            seed=int(raw.get("seed", 0)),
            rules=tuple(rules),
            max_retransmits=int(raw.get("max_retransmits", 4)),
            retry_delay=float(raw.get("retry_delay", 0.02)),
        )

    def to_json(self) -> str:
        """The plan as a JSON document (what ``--fault-plan`` files hold)."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from its JSON form (inverse of :meth:`to_json`)."""
        return cls.from_dict(json.loads(text))

"""The deterministic fault injector compiled from a :class:`FaultPlan`.

One :class:`FaultInjector` is owned by the engine that a plan is installed
into and consulted from three hook points:

* :meth:`FaultInjector.on_send` — every point-to-point message, deciding
  drop / duplicate / delay / corrupt;
* :meth:`FaultInjector.on_retransmit` — every recovery retransmit (only
  ``corrupt`` rules re-strike retransmits, so a lossy channel cannot drop
  the very retransmission that repairs it into a livelock);
* :meth:`FaultInjector.on_phase` — every phase entry, deciding crash /
  straggle.

Determinism: each rule keeps an independent random stream, event counter
and hit budget **per channel** (per ``(src, dst)`` pair, or per rank for
phase rules), seeded from ``(plan.seed, rule index, channel)`` with
integer-only material — no ``hash()`` of strings, so decisions replay
across processes.  Message order per channel is deterministic in an SPMD
program (each channel has a single sender thread) and no state is shared
*between* channels, hence the full injection schedule replays identically
no matter how the rank threads interleave.  ``max_hits`` is consequently a
**per-channel** budget: a wildcard drop rule with ``max_hits=1`` drops the
first message on every channel it matches, not a races-decide single one.

The injector outlives individual engine runs on purpose: a ``crash`` rule
with ``max_hits=1`` consumes its hit on the first attempt, so a session-level
retry (``Cluster.sort(..., max_retries=N)``) deterministically succeeds.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .plan import FaultPlan, FaultRule

__all__ = ["FaultAction", "FaultInjector"]


@dataclass(frozen=True)
class FaultAction:
    """What the injector decided for one event (one fired rule)."""

    kind: str
    rule_index: int
    #: corrupt: non-zero XOR mask applied to the envelope's CRC32
    mask: int = 0
    #: straggle: seconds the struck rank sleeps
    seconds: float = 0.0
    #: delay: messages that overtake the held one before release
    delay_messages: int = 1


class FaultInjector:
    """Replays a :class:`FaultPlan` as deterministic per-event decisions.

    Thread-safe: rank threads consult it concurrently; one lock serialises
    the tiny decision bookkeeping.  Every applied fault burns one hit of
    its rule's per-channel budget, so the hit ledger counts exactly the
    faults fired.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        # per (rule index, channel key): eligible-event count, rng stream and
        # hit budget.  Keeping ALL schedule state per channel is what makes
        # the injection schedule independent of thread interleaving; the
        # state persists across engine runs — that is what makes
        # crash-once-then-retry deterministic.
        self._counts: Dict[Tuple[int, ...], int] = {}
        self._streams: Dict[Tuple[int, ...], random.Random] = {}
        self._hits: Dict[Tuple[int, ...], int] = {}

    # ------------------------------------------------------------------ bookkeeping
    def _stream(self, idx: int, key: Tuple[int, ...]) -> random.Random:
        stream = self._streams.get((idx,) + key)
        if stream is None:
            # fold the integer-only material into one seed (no str hashing,
            # so decisions replay across processes and PYTHONHASHSEED values)
            material = 0
            for part in (self.plan.seed, idx) + key:
                material = (material * 1000003 + part + 1) & 0xFFFFFFFFFFFFFFFF
            stream = random.Random(material)
            self._streams[(idx,) + key] = stream
        return stream

    def _advance(self, idx: int, rule: FaultRule, key: Tuple[int, ...]) -> bool:
        """Advance the rule's per-channel schedule; True when it would fire.

        Advancing never consumes the hit budget — a rule that would fire but
        loses to an earlier rule on the same event (faults never stack on
        one message) keeps its budget and tries again on the next event.
        Only :meth:`_commit` — called for the single winning rule — burns a
        hit and counts an injection, so the injected counters equal exactly
        the faults the engine actually applied.
        """
        count_key = (idx,) + key
        count = self._counts.get(count_key, 0)
        self._counts[count_key] = count + 1
        if count < rule.after:
            return False
        if rule.max_hits is not None and self._hits.get(count_key, 0) >= rule.max_hits:
            return False
        if rule.probability < 1.0:
            if self._stream(idx, key).random() >= rule.probability:
                return False
        return True

    def _commit(self, idx: int, rule: FaultRule, key: Tuple[int, ...]) -> None:
        """Burn one hit of the winning rule's per-channel budget."""
        count_key = (idx,) + key
        self._hits[count_key] = self._hits.get(count_key, 0) + 1

    def _action(self, idx: int, rule: FaultRule, key: Tuple[int, ...]) -> FaultAction:
        mask = 0
        if rule.kind == "corrupt":
            # non-zero mask: the tampered CRC always differs from the clean one
            mask = self._stream(idx, key).randrange(1, 1 << 32)
        return FaultAction(
            kind=rule.kind,
            rule_index=idx,
            mask=mask,
            seconds=rule.seconds,
            delay_messages=rule.delay_messages,
        )

    # ------------------------------------------------------------------ hook points
    def on_send(self, src: int, dst: int, phase: str) -> Optional[FaultAction]:
        """Decide the fate of one fresh message ``src -> dst`` under ``phase``.

        Every matching rule's schedule advances; the first rule that would
        fire wins and burns a hit (faults never stack on one message, and a
        losing rule keeps its budget for the next message).  ``None`` =
        deliver clean.
        """
        key = (0, src, dst)
        with self._lock:
            fired: Optional[FaultAction] = None
            for idx, rule in enumerate(self.plan.rules):
                if not rule.matches_channel(src, dst, phase):
                    continue
                if self._advance(idx, rule, key) and fired is None:
                    self._commit(idx, rule, key)
                    fired = self._action(idx, rule, key)
            return fired

    def on_retransmit(self, src: int, dst: int, phase: str) -> Optional[FaultAction]:
        """Decide whether a recovery retransmit ``src -> dst`` is re-corrupted.

        Only ``corrupt`` rules participate: retransmits travel the recovery
        path, which drop/duplicate/delay rules by design cannot reach (the
        repair of a lossy channel must not itself be droppable, or a single
        rule could livelock recovery).
        """
        key = (0, src, dst)
        with self._lock:
            fired: Optional[FaultAction] = None
            for idx, rule in enumerate(self.plan.rules):
                if rule.kind != "corrupt":
                    continue
                if not rule.matches_channel(src, dst, phase):
                    continue
                if self._advance(idx, rule, key) and fired is None:
                    self._commit(idx, rule, key)
                    fired = self._action(idx, rule, key)
            return fired

    def on_phase(self, rank: int, phase: str) -> Optional[FaultAction]:
        """Decide crash/straggle when ``rank`` enters accounting ``phase``."""
        key = (1, rank)
        with self._lock:
            fired: Optional[FaultAction] = None
            for idx, rule in enumerate(self.plan.rules):
                if not rule.matches_phase(rank, phase):
                    continue
                if self._advance(idx, rule, key) and fired is None:
                    self._commit(idx, rule, key)
                    fired = self._action(idx, rule, key)
            return fired

    # ------------------------------------------------------------------ cross-process state
    def export_state(self) -> Dict[str, Any]:
        """Snapshot the whole schedule state for cross-process transport.

        Everything is plain picklable data: per-channel event counts, hit
        budgets and ``random.Random`` states keyed by ``(rule index,
        channel)``.  The processes engine forks workers that inherit a copy
        of the injector; each worker only ever advances the channels it
        *owns* (message channels are decided at the receiving rank, phase
        channels at the struck rank), exports its state on exit, and the
        parent folds the copies back with :meth:`merge_state`.
        """
        with self._lock:
            return {
                "counts": dict(self._counts),
                "hits": dict(self._hits),
                "streams": {k: s.getstate() for k, s in self._streams.items()},
            }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold one worker's :meth:`export_state` snapshot into this injector.

        Per-channel schedule state is monotonic (counts and hits only grow)
        and every channel is advanced by exactly one worker, so the merge
        rule is simple and exact: a channel whose exported event count is
        ahead of ours replaces our copy wholesale (count, hits, rng state).
        """
        with self._lock:
            for key, count in state["counts"].items():
                if count <= self._counts.get(key, 0):
                    continue
                self._counts[key] = count
                hits = state["hits"].get(key)
                if hits is not None:
                    self._hits[key] = hits
                stream_state = state["streams"].get(key)
                if stream_state is not None:
                    stream = self._streams.get(key)
                    if stream is None:
                        stream = random.Random()
                        self._streams[key] = stream
                    stream.setstate(stream_state)

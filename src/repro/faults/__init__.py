"""Deterministic fault injection, detection and recovery (``repro.faults``).

The validation harness the real-process engine backends will be run
against: seeded :class:`FaultPlan` schedules inject drops, duplicates,
delays, corruption, rank crashes and stragglers into the simulated machine
(:mod:`repro.mpi.engine` hosts the hooks); CRC32 seals and sequence numbers
detect what was injected; a bounded retransmit protocol and session-level
retries (:meth:`repro.session.Cluster.sort` ``max_retries``) recover.  See
``docs/FAULTS.md`` for the taxonomy, the frame layouts, the retry state
machine and the recovery guarantees table.
"""

from ..mpi.serialization import CHECKSUM_WIRE_BYTES, block_checksum, payload_checksum
from .errors import CorruptFrameError, FaultError, LostMessageError, RankCrashError
from .inject import FaultAction, FaultInjector
from .plan import FAULT_KINDS, FaultPlan, FaultRule
from .wire import Envelope, envelope_overhead

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "FaultAction",
    "FaultInjector",
    "FaultError",
    "CorruptFrameError",
    "LostMessageError",
    "RankCrashError",
    "Envelope",
    "envelope_overhead",
    "CHECKSUM_WIRE_BYTES",
    "block_checksum",
    "payload_checksum",
]

"""The fault-mode point-to-point framing: sequence numbers plus a CRC32.

When a fault plan is installed, every point-to-point message travels inside
an :class:`Envelope` carrying a per-channel sequence number and a CRC32 of
the payload.  The receiver uses the sequence number to detect drops, swallow
duplicates and re-order delayed deliveries, and the CRC to detect injected
corruption; both checks feed the recovery protocol in
:mod:`repro.mpi.engine` (see ``docs/FAULTS.md`` for the state machine).

Without a fault plan no envelope exists and the wire accounting is exactly
the baseline's; with one, every message is charged
``varint(seq) + 4`` extra bytes — uniformly, so an empty plan is the
byte-exact baseline of any chaos run under the same plan settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..mpi.serialization import CHECKSUM_WIRE_BYTES, varint_size

__all__ = ["Envelope", "envelope_overhead"]


@dataclass
class Envelope:
    """One framed point-to-point message of a fault-mode run.

    ``seq`` numbers the channel's messages from 0 in send order; ``crc`` is
    the :func:`repro.mpi.serialization.payload_checksum` of ``payload`` as
    computed by the *sender* (the field an injected corruption tampers
    with, since the simulated machine moves payloads by shared reference).
    """

    seq: int
    tag: int
    crc: int
    payload: Any


def envelope_overhead(seq: int) -> int:
    """Extra wire bytes of framing a message as sequence number ``seq``."""
    return varint_size(seq) + CHECKSUM_WIRE_BYTES

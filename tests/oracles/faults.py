"""Faults an injector fired, read off its hit ledger.

Every fault the engine applies burns exactly one hit of its rule's
per-channel budget (``FaultInjector._commit``), so summing the hits per
rule kind counts the injections.  The chaos suite reconciles these counts
with the ``TrafficReport`` fault counters.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["injected_counts"]


def injected_counts(injector) -> Dict[str, int]:
    """Faults fired so far, per kind."""
    counts: Dict[str, int] = {}
    for key, hits in injector._hits.items():
        kind = injector.plan.rules[key[0]].kind
        counts[kind] = counts.get(kind, 0) + hits
    return counts

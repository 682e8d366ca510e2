"""Labeled metric families and their Prometheus / JSON exposition.

Three metric kinds, all with labeled series (a metric is a *family*; each
distinct label combination is one series):

* **counter** — monotonically increasing totals (bytes sent, faults
  injected);
* **gauge** — point-in-time readings (strings/sec, peak RSS);
* **histogram** — bucketed distributions (span durations).

A :class:`MetricsSnapshot` holds the families of one traced report.  It is
never stored: :attr:`repro.net.metrics.TrafficReport.metrics` builds it on
demand with :func:`repro.obs.derive.run_metrics` from the report's counter
table and timeline, so a folded report renders from its folded counts.
Snapshots render to Prometheus text exposition
(:meth:`MetricsSnapshot.render_prometheus`) and plain-JSON documents
(:meth:`MetricsSnapshot.to_json`), the two formats the ``repro metrics``
CLI emits.

Label names follow a fixed vocabulary (``algorithm``, ``engine``,
``topology``, ``pe``, ``stage``); see ``docs/OBSERVABILITY.md`` for the
metric naming scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MetricsSnapshot"]


@dataclass
class MetricsSnapshot:
    """The metric families of one traced report (``TrafficReport.metrics``).

    ``families`` maps the metric name to ``{"kind", "help", "samples"}``
    with ``samples`` a list of ``(labels, value)`` pairs sorted by label
    set — plain dicts, lists and scalars throughout, so a snapshot
    serialises to JSON verbatim.
    """

    families: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------ queries
    def names(self) -> List[str]:
        """The metric family names in this snapshot, sorted."""
        return sorted(self.families)

    def value(self, name: str, **labels: Any) -> Optional[Any]:
        """The value of the first series matching ``labels`` (``None`` if absent).

        Matching is by label *subset*, like a Prometheus instant-vector
        selector: the requested labels must all be present and equal, and
        labels not asked about (e.g. the stamped ``algorithm`` / ``engine``
        / ``topology`` run labels) are ignored.
        """
        family = self.families.get(name)
        if family is None:
            return None
        want = {k: str(v) for k, v in labels.items()}
        for sample_labels, value in family["samples"]:
            if all(sample_labels.get(k) == v for k, v in want.items()):
                return value
        return None

    def series(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """All ``(labels, value)`` samples of family ``name`` ([] when absent)."""
        family = self.families.get(name)
        return list(family["samples"]) if family else []

    # ------------------------------------------------------------------ exposition
    def render_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        lines: List[str] = []
        for name in self.names():
            family = self.families[name]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for labels, value in family["samples"]:
                if family["kind"] == "histogram":
                    for le, count in value["buckets"].items():
                        lines.append(
                            f"{name}_bucket{_render_labels({**labels, 'le': le})} {count}"
                        )
                    lines.append(f"{name}_sum{_render_labels(labels)} {value['sum']}")
                    lines.append(f"{name}_count{_render_labels(labels)} {value['count']}")
                else:
                    lines.append(f"{name}{_render_labels(labels)} {_render_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON document: ``{"metrics": {name: family}}``."""
        return {
            "metrics": {
                name: {
                    "kind": family["kind"],
                    "help": family["help"],
                    "samples": [
                        {"labels": labels, "value": value}
                        for labels, value in family["samples"]
                    ],
                }
                for name, family in sorted(self.families.items())
            }
        }


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_value(value: float) -> str:
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))

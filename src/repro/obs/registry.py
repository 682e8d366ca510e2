"""A typed time-series metrics registry with Prometheus-style exposition.

Three metric kinds, all with labeled series (a metric is a *family*; each
distinct label combination is one series):

* **counter** — monotonically increasing totals (bytes sent, faults
  injected); merge adds.
* **gauge** — point-in-time readings (strings/sec, peak RSS); merge keeps
  the later value.
* **histogram** — bucketed distributions (span durations); merge adds
  bucket counts.

A :class:`MetricsRegistry` is the mutable collector; a
:class:`MetricsSnapshot` is the immutable, picklable view that attaches to
:class:`repro.net.metrics.TrafficReport` and obeys its fold contract
(:meth:`MetricsSnapshot.merged`: counters/histograms additive, gauges
last-write-wins — pinned by ``tests/test_sort_batches.py``).  Snapshots
render to Prometheus text exposition (:meth:`MetricsSnapshot.render_prometheus`)
and plain-JSON documents (:meth:`MetricsSnapshot.to_json`), the two formats
the ``repro metrics`` CLI emits.

Label names follow a fixed vocabulary (``algorithm``, ``engine``,
``topology``, ``pe``, ``stage``); see ``docs/OBSERVABILITY.md`` for the
metric naming scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Metric",
    "MetricsRegistry",
    "MetricsSnapshot",
]

#: default histogram buckets, in seconds (span durations / waits)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, float("inf")
)

_KINDS = ("counter", "gauge", "histogram")

#: a label set in canonical form: sorted ``(name, value)`` pairs
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonicalise a label dict (values stringified, keys sorted)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """One metric family: a name, a kind, and its labeled series."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; expected one of {_KINDS}")
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets)
        # counter/gauge: key -> float; histogram: key -> [counts..., sum, count]
        self._series: Dict[LabelKey, Any] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to a counter series (counters only, value >= 0)."""
        if self.kind != "counter":
            raise TypeError(f"{self.name} is a {self.kind}, not a counter")
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def set(self, value: float, **labels: Any) -> None:
        """Set a gauge series to ``value`` (gauges only)."""
        if self.kind != "gauge":
            raise TypeError(f"{self.name} is a {self.kind}, not a gauge")
        self._series[_label_key(labels)] = float(value)

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into a histogram series (histograms only)."""
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = [0] * len(self.buckets) + [0.0, 0]
        for i, le in enumerate(self.buckets):
            if value <= le:
                state[i] += 1
        state[-2] += value
        state[-1] += 1

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        """All series as ``(labels, value)`` pairs (histograms: state dict)."""
        out: List[Tuple[Dict[str, str], Any]] = []
        for key, value in sorted(self._series.items()):
            labels = dict(key)
            if self.kind == "histogram":
                out.append(
                    (
                        labels,
                        {
                            "buckets": {
                                str(le): value[i] for i, le in enumerate(self.buckets)
                            },
                            "sum": value[-2],
                            "count": value[-1],
                        },
                    )
                )
            else:
                out.append((labels, value))
        return out


class MetricsRegistry:
    """Mutable collector of metric families; snapshot for the immutable view."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: str, help: str, **kwargs: Any) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Metric(name, kind, help, **kwargs)
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {metric.kind}, "
                f"not a {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Metric:
        """Get or create the counter family ``name``."""
        return self._get(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Metric:
        """Get or create the gauge family ``name``."""
        return self._get(name, "gauge", help)

    def histogram(
        self, name: str, help: str = "", buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Metric:
        """Get or create the histogram family ``name``."""
        return self._get(name, "histogram", help, buckets=buckets)

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze the current state into an immutable, picklable snapshot."""
        families: Dict[str, Dict[str, Any]] = {}
        for name, metric in sorted(self._metrics.items()):
            families[name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": metric.samples(),
            }
        return MetricsSnapshot(families=families)


@dataclass
class MetricsSnapshot:
    """Immutable view of a registry: the ``TrafficReport.metrics`` attachment.

    ``families`` maps the metric name to ``{"kind", "help", "samples"}``
    with ``samples`` a list of ``(labels, value)`` pairs — plain dicts,
    lists and scalars throughout, so a snapshot pickles across the
    processes engine's pipes and serialises to JSON verbatim.
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

    # ------------------------------------------------------------------ algebra
    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into a new snapshot (inputs unmutated).

        The fold contract of :meth:`repro.net.metrics.TrafficReport.fold`
        for the metrics attachment: counter and histogram series add
        element-wise (exact sums, so batch/retry folds stay additive),
        gauge series take the *later* snapshot's reading.
        """
        families = _copy_families(self.families)
        for name, family in other.families.items():
            mine = families.get(name)
            if mine is None:
                families[name] = _copy_family(family)
                continue
            if mine["kind"] != family["kind"]:
                raise ValueError(
                    f"cannot merge metric {name!r}: kind "
                    f"{mine['kind']} vs {family['kind']}"
                )
            _fold_samples(mine, family)
        return MetricsSnapshot(families=families)

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


def _copy_family(family: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "kind": family["kind"],
        "help": family["help"],
        "samples": [
            (dict(labels), _copy_value(value)) for labels, value in family["samples"]
        ],
    }


def _copy_families(families: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {name: _copy_family(family) for name, family in families.items()}


def _copy_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            "buckets": dict(value["buckets"]),
            "sum": value["sum"],
            "count": value["count"],
        }
    return value


def _fold_samples(mine: Dict[str, Any], theirs: Dict[str, Any]) -> None:
    """Fold ``theirs['samples']`` into ``mine['samples']`` per-kind, in place."""
    gauge = mine["kind"] == "gauge"
    index = {_label_key(labels): i for i, (labels, _) in enumerate(mine["samples"])}
    for labels, value in theirs["samples"]:
        key = _label_key(labels)
        i = index.get(key)
        if i is None:
            mine["samples"].append((dict(labels), _copy_value(value)))
            index[key] = len(mine["samples"]) - 1
        elif gauge:
            mine["samples"][i] = (dict(labels), _copy_value(value))
        else:
            mine["samples"][i] = (dict(labels), _add(mine["samples"][i][1], value))


def _add(a: Any, b: Any) -> Any:
    if isinstance(a, dict):
        return {
            "buckets": {
                le: a["buckets"].get(le, 0) + b["buckets"].get(le, 0)
                for le in {*a["buckets"], *b["buckets"]}
            },
            "sum": a["sum"] + b["sum"],
            "count": a["count"] + b["count"],
        }
    return a + b

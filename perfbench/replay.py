"""Outside-in replay: the spec's rank program with a span around each layer call.

The rank programs below make the same call sequence as ``ms_sort`` and
``pdms_sort`` in ``repro.dist.api`` (packed path, blocking exchange — the
defaults once ``REPRO_*`` is cleared), so a replay must return the same
outputs and the same ``total_bytes_sent`` as ``Cluster.sort``; ``layers.py``
checks that on every replayed op.  Spans are ``perf_counter`` for wall and
``thread_time`` for CPU: under the threads engine a wall span includes the
wait for the GIL, so only CPU adds up (README finding (b)).

Layer entry points are looked up by name.  One that a later change renames
ends the replay at that stage on every rank alike; the stages before it keep
their numbers and the rest are reported as ``null`` with the reason.
"""

from __future__ import annotations

import heapq
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: stage -> (module, attribute) of the layer function the span is around
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "strings.pack": ("repro.strings", "PackedStringArray.from_strings"),
    "strings.unpack": ("repro.strings", "PackedStringArray.to_list"),
    "sequential.local_sort": ("repro.sequential", "sort_strings_with_lcp"),
    "sequential.merge": ("repro.sequential.lcp_losertree", "lcp_multiway_merge_packed"),
    "dist.prefix_doubling": ("repro.dist", "approximate_dist_prefixes"),
    "dist.splitters": ("repro.dist.splitters", "determine_splitters"),
    "dist.partition": ("repro.dist.partition", "split_into_buckets"),
    "dist.exchange": ("repro.dist", "exchange_buckets"),
}
#: MS-simple merges without LCPs
PLAIN_MERGE = ("repro.sequential", "multiway_merge")

#: the stages of each spec's rank program, in call order
_MS_STAGES = (
    "strings.pack",
    "sequential.local_sort",
    "dist.splitters",
    "dist.partition",
    "dist.exchange",
    "sequential.merge",
)
STAGES: Dict[str, Tuple[str, ...]] = {
    "MSSpec": _MS_STAGES + ("strings.unpack",),
    "MSSimpleSpec": _MS_STAGES,
    "PDMSGolombSpec": _MS_STAGES[:2]
    + ("strings.unpack", "dist.prefix_doubling")
    + _MS_STAGES[2:],
}


class _MissingEntryPoint(Exception):
    """Raised on every rank at the same stage, so no rank is left waiting."""


def resolve(spec_name: str) -> Tuple[Dict[str, Callable], Dict[str, str]]:
    """The layer functions of a spec's stages, and why any is missing."""
    found: Dict[str, Callable] = {}
    missing: Dict[str, str] = {}
    for stage in STAGES[spec_name]:
        module, attr = ENTRY_POINTS[stage]
        if stage == "sequential.merge":
            if spec_name == "MSSimpleSpec":
                module, attr = PLAIN_MERGE
            elif spec_name == "PDMSGolombSpec":
                # PDMS merges origin-labelled prefixes inline with heapq
                continue
        try:
            obj: Any = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            missing[stage] = f"{module}.{attr} not found ({exc})"
        else:
            found[stage] = obj
    return found, missing


class Spans:
    """One rank's spans of one op: ``(stage, start, end, cpu seconds)``."""

    def __init__(self, entry_points: Dict[str, Callable]):
        self._entry_points = entry_points
        self.rows: List[Tuple[str, float, float, float]] = []

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            self.rows.append(
                (stage, start, time.perf_counter(), time.thread_time() - cpu)
            )

    def call(self, stage: str, *args: Any, **kwargs: Any) -> Any:
        fn = self._entry_points.get(stage)
        if fn is None:
            raise _MissingEntryPoint(stage)
        with self.span(stage):
            return fn(*args, **kwargs)


def _local_sort(comm: Any, strings: Any, spec: Any, spans: Spans) -> Tuple[Any, Any]:
    from repro.sequential import CharStats

    packed = spans.call("strings.pack", strings)
    with comm.phase("local-sort"):
        stats = CharStats()
        out, lcps = spans.call("sequential.local_sort", packed, spec.local_sorter, stats)
        comm.record_local_work(stats.chars_inspected, len(out))
    return out, lcps


def _ms(comm: Any, strings: Any, spec: Any, topology: Optional[str], spans: Spans):
    import numpy as np
    from repro.sequential import CharStats
    from repro.strings import lcp_array

    lcp = type(spec).__name__ == "MSSpec"
    local, lcps = _local_sort(comm, strings, spec, spans)
    lcps = np.asarray(lcps, dtype=np.int64)
    splitters = spans.call(
        "dist.splitters",
        comm,
        local,
        scheme=spec.sampling,
        sample_sort=spec.sample_sort,
        oversampling=spec.oversampling,
    )
    buckets = spans.call("dist.partition", local, lcps, splitters)
    received = spans.call(
        "dist.exchange",
        comm,
        buckets,
        lcp_compression=lcp,
        ship_lcps=lcp,
        topology=spec.exchange_topology or topology,
    )
    with comm.phase("merge"):
        stats = CharStats()
        runs = [run for run, _ in received]
        if lcp:
            merged, merged_lcps = spans.call(
                "sequential.merge", runs, [h for _, h in received], stats
            )
            out = spans.call("strings.unpack", merged)
            merged_lcps.tolist()
        else:
            out = spans.call("sequential.merge", runs, stats)
            lcp_array(out)
        comm.record_local_work(stats.chars_inspected, len(out))
    return out, None, sum(1 for run in runs if len(run))


def _pdms(comm: Any, strings: Any, spec: Any, topology: Optional[str], spans: Spans):
    from repro.strings import PackedStringArray, lcp_array, packed_lcp_array, truncate

    local, _ = _local_sort(comm, strings, spec, spans)
    local = spans.call("strings.unpack", local)
    doubling = spans.call(
        "dist.prefix_doubling",
        comm,
        local,
        initial_length=spec.initial_length,
        epsilon=spec.epsilon,
        golomb=True,
    )
    prefixes = truncate(PackedStringArray.from_strings(local), doubling.lengths)
    prefix_lcps = packed_lcp_array(prefixes)
    splitters = spans.call(
        "dist.splitters",
        comm,
        prefixes,
        scheme=spec.sampling,
        sample_sort=spec.sample_sort,
        oversampling=spec.oversampling,
        weights=doubling.lengths if spec.sampling == "character" else None,
    )
    buckets = spans.call("dist.partition", prefixes, prefix_lcps, splitters)
    starts, start = [], 0
    for bucket, _ in buckets:
        starts.append(start)
        start += len(bucket)
    received = spans.call(
        "dist.exchange",
        comm,
        buckets,
        lcp_compression=True,
        payloads=starts,
        topology=spec.exchange_topology or topology,
    )
    with comm.phase("merge"):
        with spans.span("sequential.merge"):
            decorated = [
                [(s, (src, first + i)) for i, s in enumerate(run)]
                for src, (run, _, first) in enumerate(received)
            ]
            merged = list(heapq.merge(*decorated, key=lambda item: item[0]))
        out = [s for s, _ in merged]
        origins = [origin for _, origin in merged]
        lcp_array(out)
        comm.record_local_work(sum(len(s) for s in out), len(out))
    # the two statistics reductions of pdms_sort: part of its wire bytes
    comm.allreduce(sum(doubling.lengths))
    comm.allreduce(doubling.fingerprints_sent)
    return out, origins, sum(1 for run in decorated if run)


def rank_program(
    comm: Any,
    strings: Any,
    spec: Any,
    topology: Optional[str],
    entry_points: Dict[str, Callable],
) -> Dict[str, Any]:
    """Replay one rank; returns its output, spans and the time it finished."""
    spans = Spans(entry_points)
    body = _pdms if type(spec).__name__ == "PDMSGolombSpec" else _ms
    try:
        strings_out, origins, runs = body(comm, strings, spec, topology, spans)
    except _MissingEntryPoint:
        strings_out = origins = runs = None
    return {
        "strings": strings_out,
        "origins": origins,
        "merge_runs": runs,
        "spans": spans.rows,
        "end": time.perf_counter(),
    }


def replay(
    data: Any,
    spec: Any,
    num_pes: int,
    engine: str,
    topology: Optional[str],
    entry_points: Dict[str, Callable],
) -> Tuple[Tuple[float, float], List[Dict[str, Any]], Any]:
    """One replayed op.

    Returns ``((distribute wall, distribute CPU), per-rank results, report)``.
    """
    from repro import distribute_strings, run_spmd

    start, cpu = time.perf_counter(), time.thread_time()
    blocks = distribute_strings(data, num_pes, by=spec.distribute_by)
    distribute = (time.perf_counter() - start, time.thread_time() - cpu)
    results, report = run_spmd(
        num_pes,
        rank_program,
        args_per_rank=[(block,) for block in blocks],
        common_args=(spec, topology, entry_points),
        engine=engine,
    )
    return distribute, results, report

"""Streaming batch ingest: lazy per-chunk sorting with cumulative accounting.

:class:`BatchStream` is what :meth:`repro.session.Cluster.sort_batches`
returns: an iterator that pulls one chunk at a time from the source
iterable, sorts it on the owning cluster, and yields that chunk's
:class:`repro.dist.api.SortResult`.  Only the cumulative counters and the
merged :class:`repro.net.metrics.TrafficReport` are retained between
batches — per-batch inputs and outputs are handed to the caller and
forgotten, keeping memory bounded by a single chunk regardless of corpus
size.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, TYPE_CHECKING

from ..dist.api import SortResult
from ..net.metrics import TrafficReport
from .specs import SortSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cluster import Cluster

__all__ = ["BatchStream"]

#: sentinel: no chunk is pending resumption (``None`` could be a real chunk)
_NO_CHUNK = object()


class BatchStream:
    """Lazy iterator of per-batch sort results with a running merged report.

    Completed batches are checkpointed: if a batch's sort raises (a rank
    program failed), the pulled chunk is retained and the *next* ``next()``
    call re-sorts that same chunk instead of pulling a fresh one — a
    mid-stream failure never skips or re-sorts data, it resumes exactly at
    the failed batch.

    Attributes
    ----------
    spec:
        The :class:`~repro.session.specs.SortSpec` every batch runs under.
    batches_done:
        Number of batches sorted so far.
    num_strings / num_chars:
        Cumulative input totals over the sorted batches.
    """

    def __init__(
        self,
        cluster: "Cluster",
        batches: Iterable[Sequence],
        spec: SortSpec,
        *,
        check: bool = False,
    ):
        self._cluster = cluster
        self._source: Iterator[Sequence] = iter(batches)
        self.spec = spec
        self._check = check
        # the checkpoint: a chunk whose sort failed, awaiting resumption
        self._pending: object = _NO_CHUNK
        self.batches_done = 0
        self.num_strings = 0
        self.num_chars = 0
        self._merged = TrafficReport(cluster.num_pes)

    # ------------------------------------------------------------------ iteration
    def __iter__(self) -> "BatchStream":
        """The stream is its own (single-pass) iterator."""
        return self

    def __next__(self) -> SortResult:
        """Pull, sort and account the next chunk; ``StopIteration`` at the end.

        A failed sort leaves the chunk checkpointed: the next call retries
        it rather than pulling (and silently dropping) a fresh chunk.
        """
        if self._pending is _NO_CHUNK:
            # StopIteration propagates: stream drained
            self._pending = next(self._source)
        result = self._cluster.sort(self._pending, self.spec, check=self._check)
        self._pending = _NO_CHUNK
        self.batches_done += 1
        self.num_strings += result.num_strings
        self.num_chars += result.num_chars
        # fold in place: re-merging the cumulative report every batch would
        # copy the accumulated collective events again (quadratic over a
        # long ingest)
        self._merged.fold(result.report)
        return result

    def run(self) -> "BatchStream":
        """Drain the stream (discarding per-batch results); returns ``self``.

        Use when only the cumulative accounting matters — e.g. measuring the
        total communication volume of a chunked corpus ingest.
        """
        for _ in self:
            pass
        return self

    # ------------------------------------------------------------------ accounting
    @property
    def merged_report(self) -> TrafficReport:
        """Cumulative traffic over the batches sorted so far.

        Exact element-wise sums of the per-batch reports (bytes, messages,
        local work, per-phase bytes, barrier waits) with all collective
        events retained, so ``merged_report.total_bytes_sent`` equals the
        sum of the individual batches' totals.
        """
        return self._merged

    def bytes_per_string(self) -> float:
        """Cumulative headline metric: total bytes sent / strings ingested."""
        return self._merged.bytes_per_string(self.num_strings)

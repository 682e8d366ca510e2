"""Experiment driver for reproducing the paper's tables and figures.

The harness runs one distributed-sort configuration per *cell* of a figure
(algorithm x number of PEs x input) and collects, for each cell,

* the exact communication volume (total bytes sent, bytes sent per string —
  the lower panels of Figures 4 and 5),
* the modelled running time under the alpha-beta machine model plus modelled
  local work (the upper panels; absolute values are not comparable to the
  paper's cluster but the relative ordering and crossovers are),
* the measured wall-clock time of the simulation (reported for transparency,
  dominated by Python-level local work),
* auxiliary data (splitter imbalance, prefix-doubling rounds, D/N of the
  input) used by the ablation benchmarks.

Results render as aligned text tables whose rows mirror the series of the
paper's plots, and can be dumped as JSON for archival in EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..dist.api import SortResult
from ..net.cost_model import DEFAULT_MACHINE, MachineModel
from ..session import Cluster, SortSpec, default_registry
from ..strings.lcp import dn_ratio, merge_lcp_statistics
from ..strings.stringset import StringSet

__all__ = [
    "CellResult",
    "ExperimentResult",
    "ExperimentRunner",
    "format_table",
    "peak_rss_bytes",
]


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is kilobytes on Linux (bytes on macOS, where the value is
    simply 1024x too large — a stable unit within any one trajectory file,
    which is all the benchmark comparisons need).  A high-water mark, not a
    per-cell delta: the kernel never lowers it, so successive cells report
    monotonically non-decreasing values.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class CellResult:
    """One (algorithm, num_pes, input) measurement."""

    experiment: str
    algorithm: str
    num_pes: int
    input_name: str
    num_strings: int
    num_chars: int
    total_bytes_sent: int
    bytes_per_string: float
    modeled_time: float
    modeled_comm_time: float
    modeled_local_time: float
    wall_time: float
    imbalance: float
    #: stable key of the exact configuration that produced this cell
    #: (:meth:`repro.session.SortSpec.config_hash`); part of the cell's
    #: checkpoint key when a sweep resumes (:meth:`ExperimentRunner.sweep`)
    config_hash: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The cell as a flat JSON-ready dict (dataclass fields + extra)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellResult":
        """Rebuild a cell from :meth:`as_dict` output (checkpoint loading).

        Unknown keys are ignored so old checkpoint files survive new
        fields; missing keys fall back to the field defaults where one
        exists and raise otherwise (a corrupt checkpoint should fail
        loudly, not resume silently wrong).
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ExperimentResult:
    """All cells of one experiment (one figure / table)."""

    name: str
    description: str
    cells: List[CellResult] = field(default_factory=list)

    def add(self, cell: CellResult) -> None:
        """Append one measured cell to the experiment."""
        self.cells.append(cell)

    def filter(self, **criteria) -> List[CellResult]:
        """Cells whose attributes equal every given keyword (e.g. ``algorithm``)."""
        out = []
        for c in self.cells:
            if all(getattr(c, k) == v for k, v in criteria.items()):
                out.append(c)
        return out

    def algorithms(self) -> List[str]:
        """Algorithm names in first-seen order (the row order of the tables)."""
        seen: List[str] = []
        for c in self.cells:
            if c.algorithm not in seen:
                seen.append(c.algorithm)
        return seen

    def input_names(self) -> List[str]:
        """Input names in first-seen order (one rendered table per input)."""
        seen: List[str] = []
        for c in self.cells:
            if c.input_name not in seen:
                seen.append(c.input_name)
        return seen

    # -- rendering -------------------------------------------------------------------
    def to_json(self) -> str:
        """The full experiment (name, description, cells) as indented JSON."""
        return json.dumps(
            {
                "name": self.name,
                "description": self.description,
                "cells": [c.as_dict() for c in self.cells],
            },
            indent=2,
        )

    def render(self, metric: str = "bytes_per_string") -> str:
        """Render one metric as a table: rows = algorithms, columns = PE counts.

        One table per input, mirroring the panels of the paper's figures.
        """
        blocks: List[str] = []
        for input_name in self.input_names():
            header = [f"{self.name} [{input_name}] — {metric}"]
            pes = sorted({c.num_pes for c in self.cells if c.input_name == input_name})
            rows = []
            for alg in self.algorithms():
                row: List[str] = [alg]
                for p in pes:
                    cells = self.filter(
                        algorithm=alg, num_pes=p, input_name=input_name
                    )
                    if cells:
                        value = getattr(cells[0], metric)
                        row.append(_fmt_value(value))
                    else:
                        row.append("-")
                rows.append(row)
            table = format_table(["algorithm"] + [f"p={p}" for p in pes], rows)
            blocks.append("\n".join(header) + "\n" + table)
        return "\n\n".join(blocks)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-2 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain-text aligned table (no external dependencies)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    for row in rows:
        lines.append(fmt.format(*[str(c) for c in row]))
    return "\n".join(lines)


def _imbalance(result: SortResult) -> float:
    """Max/avg ratio of the output character counts over PEs (load balance)."""
    sizes = [r.strings.num_chars for r in result.rank_outputs]
    avg = sum(sizes) / len(sizes) if sizes else 0
    if avg == 0:
        return 1.0
    return max(sizes) / avg


class ExperimentRunner:
    """Runs spec x scale sweeps over named inputs.

    Sweeps are driven by :class:`repro.session.SortSpec` lists — algorithm
    names are accepted anywhere a spec is and mean that algorithm's default
    spec with ``seed=self.seed``.  Every cell is keyed by the
    spec's stable :meth:`~repro.session.SortSpec.config_hash`.  One
    :class:`repro.session.Cluster` per PE count is built lazily and reused
    across all cells of that size, so a whole sweep shares its simulated
    machines.

    With ``cache_dir`` set, every finished cell is **checkpointed** as one
    JSON file keyed by ``(experiment, config_hash, num_pes, input_name)``
    plus a digest of the runner's own context (its input-generation
    ``seed`` and ``machine`` model); a later run with ``resume=True``
    (:meth:`run_cell` / :meth:`sweep`) loads those cells instead of
    recomputing them, so a large sweep that died halfway — or grew new
    configurations — only pays for the missing cells.  The spec's
    ``config_hash`` covers every algorithm knob and the context digest
    covers what the harness itself feeds the run, so a changed
    configuration, input seed or machine model never aliases a stale
    checkpoint.
    """

    def __init__(
        self,
        machine: MachineModel = DEFAULT_MACHINE,
        check: bool = False,
        seed: int = 0,
        cache_dir: Union[str, Path, None] = None,
    ):
        self.machine = machine
        self.check = check
        self.seed = seed
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: cells served from the checkpoint cache instead of being recomputed
        self.cells_resumed = 0
        self._clusters: Dict[int, Cluster] = {}

    # ------------------------------------------------------------------ checkpoints
    def _cell_cache_path(
        self, experiment: str, config_hash: str, num_pes: int, input_name: str
    ) -> Optional[Path]:
        """The checkpoint file of one cell (None without a cache dir).

        The sanitized ``experiment--input_name`` prefix is readability only;
        the identity lives in the digest, which covers the *exact*
        (experiment, input_name) pair — sanitizing/joining cannot alias two
        distinct keys — together with everything that shapes a cell without
        appearing in the spec's ``config_hash``: the runner context
        (input-generation ``seed``, ``machine`` model) and the
        :class:`~repro.config.RunConfig` of the cluster that sorts the cell.
        The whole config is hashed — a spec that pins its own
        ``exchange_topology`` is invalidated with the cluster's too — which
        errs towards recomputing, never towards serving a cell measured
        under different settings.
        """
        if self.cache_dir is None:
            return None
        identity = json.dumps(
            {
                "experiment": experiment,
                "input_name": input_name,
                "seed": self.seed,
                "machine": asdict(self.machine),
                "context": asdict(self.cluster_for(num_pes).config),
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:10]
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", f"{experiment}--{input_name}")
        return self.cache_dir / f"{safe}--{config_hash}--p{num_pes}--{digest}.json"

    def _load_cached_cell(self, path: Optional[Path]) -> Optional[CellResult]:
        """A checkpointed cell, or None when absent/unreadable (recompute)."""
        if path is None or not path.is_file():
            return None
        try:
            return CellResult.from_dict(json.loads(path.read_text()))
        except (ValueError, TypeError, json.JSONDecodeError):
            return None  # corrupt checkpoint: recompute and overwrite

    def _store_cached_cell(self, path: Optional[Path], cell: CellResult) -> None:
        """Persist one finished cell (no-op without a cache dir)."""
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cell.as_dict(), indent=2) + "\n")

    def cluster_for(self, num_pes: int) -> Cluster:
        """The reusable cluster simulating ``num_pes`` PEs (built lazily)."""
        if num_pes not in self._clusters:
            self._clusters[num_pes] = Cluster(num_pes=num_pes, machine=self.machine)
        return self._clusters[num_pes]

    def _resolve_spec(self, algorithm: Union[str, SortSpec]) -> SortSpec:
        if isinstance(algorithm, SortSpec):
            return algorithm
        return default_registry().spec_class(algorithm)(seed=self.seed)

    def run_cell(
        self,
        experiment: str,
        algorithm: Union[str, SortSpec],
        num_pes: int,
        input_name: str,
        blocks: Sequence[Sequence[bytes]],
        resume: bool = False,
    ) -> CellResult:
        """Run one configuration on one pre-distributed input.

        ``algorithm`` is a :class:`~repro.session.SortSpec` or an algorithm
        name (that algorithm's default spec with the runner's ``seed``).
        With ``resume=True`` and a configured ``cache_dir``, a cell already
        checkpointed under the same ``(experiment, config_hash, num_pes,
        input_name)`` key is loaded and returned without running the sort.
        """
        spec = self._resolve_spec(algorithm)
        cache_path = self._cell_cache_path(
            experiment, spec.config_hash(), num_pes, input_name
        )
        if resume:
            cached = self._load_cached_cell(cache_path)
            if cached is not None:
                self.cells_resumed += 1
                return cached
        cluster = self.cluster_for(num_pes)  # built outside the timed window
        t0 = time.perf_counter()
        result = cluster.sort(
            blocks, spec, check=self.check, pre_distributed=True
        )
        wall = time.perf_counter() - t0
        report = result.report
        num_strings = result.num_strings
        cell = CellResult(
            experiment=experiment,
            algorithm=result.algorithm,
            num_pes=num_pes,
            input_name=input_name,
            num_strings=num_strings,
            num_chars=result.num_chars,
            total_bytes_sent=report.total_bytes_sent,
            bytes_per_string=report.bytes_per_string(num_strings),
            modeled_time=report.modeled_total_time(self.machine),
            modeled_comm_time=report.modeled_comm_time(self.machine),
            modeled_local_time=report.modeled_local_time(self.machine),
            wall_time=wall,
            imbalance=_imbalance(result),
            config_hash=spec.config_hash(),
            extra=dict(result.extra),
        )
        cell.extra["spec"] = spec.to_dict()
        cell.extra["phase_bytes"] = dict(report.phase_bytes)
        # memory high-water mark at the time the cell finished (bytes); the
        # packed-path PRs track this next to strings/sec in the BENCH_* files
        cell.extra["peak_rss_bytes"] = peak_rss_bytes()
        if report.forwarded_bytes > 0:
            # multi-level routed delivery: expose the measured inflation
            cell.extra["forwarded_bytes"] = report.forwarded_bytes
            cell.extra["origin_bytes_sent"] = report.origin_bytes_sent
        if report.barrier_wait_seconds:
            # barrier waits metered separately so stage timings stay
            # straggler-free (see docs/OBSERVABILITY.md)
            cell.extra["barrier_wait_seconds"] = {
                stage: round(secs, 6)
                for stage, secs in sorted(report.barrier_wait_seconds.items())
            }
        if report.metrics is not None:
            # traced runs (trace=True) carry their whole metrics snapshot —
            # per-stage seconds, strings/sec and peak RSS included
            cell.extra["metrics"] = report.metrics.to_json()
        self._store_cached_cell(cache_path, cell)
        return cell

    def sweep(
        self,
        experiment: str,
        description: str,
        algorithms: Sequence[Union[str, SortSpec]],
        pe_counts: Sequence[int],
        input_factory: Callable[[int, int], Sequence[Sequence[bytes]]],
        input_name: str = "input",
        input_stats: bool = False,
        resume: bool = False,
    ) -> ExperimentResult:
        """Run ``specs x pe_counts``; the input may depend on ``num_pes``.

        ``algorithms`` is a list of :class:`~repro.session.SortSpec` objects
        and/or algorithm names.  ``input_factory(num_pes, seed)`` returns the
        per-PE blocks (so weak scaling can grow the input with the machine
        while strong scaling returns slices of a fixed corpus).

        With ``resume=True`` (and a runner ``cache_dir``) already
        checkpointed cells are loaded instead of recomputed, so an
        interrupted or extended sweep resumes incrementally; when *every*
        cell of a PE count is cached, its input is not even generated.
        """
        out = ExperimentResult(name=experiment, description=description)
        specs = [self._resolve_spec(a) for a in algorithms]
        for p in pe_counts:
            # probe the checkpoint cache once per cell; the probed cells are
            # reused below, never re-read
            cached = [
                self._load_cached_cell(
                    self._cell_cache_path(experiment, s.config_hash(), p, input_name)
                )
                if resume
                else None
                for s in specs
            ]
            if resume and not input_stats and all(c is not None for c in cached):
                # every cell of this PE count is checkpointed: skip even the
                # input generation
                self.cells_resumed += len(cached)
                for cell in cached:
                    out.add(cell)
                continue
            blocks = input_factory(p, self.seed)
            stats_extra: Dict[str, object] = {}
            if input_stats:
                # StringSet caches one sorted packed copy of the corpus, so
                # D/N and the LCP statistics share a single sort instead of
                # each re-sorting the full input
                corpus = StringSet([s for b in blocks for s in b])
                stats_extra["dn_ratio"] = round(dn_ratio(corpus), 4)
                mean_lcp, lcp_frac = merge_lcp_statistics(corpus)
                stats_extra["mean_lcp"] = round(mean_lcp, 2)
                stats_extra["lcp_fraction"] = round(lcp_frac, 4)
            for spec, cell in zip(specs, cached):
                if cell is not None:
                    self.cells_resumed += 1
                else:
                    cell = self.run_cell(experiment, spec, p, input_name, blocks)
                cell.extra.update(stats_extra)
                out.add(cell)
        return out

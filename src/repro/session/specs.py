"""Typed, frozen, serializable sorting configurations (:class:`SortSpec`).

One dataclass per algorithm holds that algorithm's knobs, and the rank
programs in :mod:`repro.dist.api` read them straight off the spec.  A spec is
validated at construction time, hashable, immutable, and travels losslessly
through ``to_dict`` / :meth:`SortSpec.from_dict`.  The stable
:meth:`SortSpec.config_hash` keys benchmark cells, so it must not depend on
process state — it is a SHA-256 over the canonical JSON form, identical
across processes, Python versions and field declaration order.

The hierarchy mirrors the paper's algorithm families:

=================== =======================================================
:class:`HQuickSpec`      hypercube quicksort (Section IV)
:class:`FKMergeSpec`     Fischer-Kurpicz merge sort baseline
:class:`MSSimpleSpec`    distributed merge sort without LCP optimisations
:class:`MSSpec`          merge sort with LCP compression + LCP-aware merge
:class:`PDMSSpec`        prefix-doubling merge sort (Section VI)
:class:`PDMSGolombSpec`  PDMS with Golomb-coded fingerprints
:class:`AutoSpec`        run-time D/N estimate picks ms vs pdms-golomb
=================== =======================================================

The spec class is the algorithm: :meth:`SortSpec.run` is its SPMD rank
program, and :data:`SPECS` maps each algorithm name to its class.  A
third-party algorithm is a subclass that overrides :meth:`SortSpec.run`.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence, Type

from ..dist.api import RankOutput, merge_sort
from ..dist.dn_estimator import estimate_dn_ratio, recommend_algorithm
from ..dist.hquick import hquick_sort
from ..mpi.comm import Communicator

__all__ = [
    "SPECS",
    "spec_class",
    "SortSpec",
    "HQuickSpec",
    "FKMergeSpec",
    "SampledSpec",
    "MSSpec",
    "MSSimpleSpec",
    "PDMSSpec",
    "PDMSGolombSpec",
    "AutoSpec",
]

_DISTRIBUTE_BY = ("strings", "chars")
_SAMPLING = ("string", "character")
_SAMPLE_SORT = ("central", "hquick")


def _suggest(name: str, candidates) -> str:
    """``", did you mean 'x'?"`` when ``name`` is close to a candidate."""
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f", did you mean {close[0]!r}?" if close else ""


@dataclass(frozen=True)
class SortSpec:
    """Common base of all algorithm configurations.

    A spec bundles everything that defines *what* a sort computes and how
    its knobs are set; everything about *where* it runs (number of PEs,
    machine model, run configuration) lives on the
    :class:`repro.session.Cluster` instead.

    Attributes
    ----------
    local_sorter:
        The per-PE sequential sorter, one of
        :data:`repro.sequential.SEQUENTIAL_SORTERS`.
    distribute_by:
        Input distribution criterion: ``"strings"`` balances string counts,
        ``"chars"`` balances character mass (the right notion for
        length-skewed workloads, Section VII-E).
    seed:
        Randomisation seed (hQuick pivots, D/N estimation); never affects
        the sorted output.
    exchange_topology:
        Delivery strategy of the bucket all-to-all (Section II):
        ``"direct"`` (one message per destination), ``"hypercube"`` or
        ``"grid"`` (multi-level store-and-forward routing through
        :mod:`repro.net.router`), or ``None`` (default) to inherit the
        cluster's setting (``Cluster(exchange_topology=...)`` /
        ``REPRO_EXCHANGE_TOPOLOGY``).  Changes startup counts and
        measured routing volume, never the sorted output or the origin
        wire bytes.
    """

    #: the name of the algorithm this spec configures and runs
    algorithm: ClassVar[str] = ""

    local_sorter: str = "msd_radix"
    distribute_by: str = "strings"
    seed: int = 0
    exchange_topology: Optional[str] = None

    def __post_init__(self) -> None:
        """Validate field values (all specs are checked at construction)."""
        from ..net.router import TOPOLOGY_NAMES
        from ..sequential import SEQUENTIAL_SORTERS

        if self.local_sorter not in SEQUENTIAL_SORTERS:
            raise ValueError(
                f"unknown local_sorter {self.local_sorter!r}"
                f"{_suggest(self.local_sorter, SEQUENTIAL_SORTERS)}; "
                f"available: {sorted(SEQUENTIAL_SORTERS)}"
            )
        if self.distribute_by not in _DISTRIBUTE_BY:
            raise ValueError(
                f"unknown distribute_by {self.distribute_by!r}; "
                f"use one of {list(_DISTRIBUTE_BY)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if (
            self.exchange_topology is not None
            and self.exchange_topology not in TOPOLOGY_NAMES
        ):
            raise ValueError(
                f"unknown exchange_topology {self.exchange_topology!r}"
                f"{_suggest(self.exchange_topology, TOPOLOGY_NAMES)}; "
                f"use one of {list(TOPOLOGY_NAMES)} or None to inherit"
            )

    def run(self, comm: Communicator, local: Sequence) -> RankOutput:
        """This algorithm's SPMD rank program: sort ``local`` on ``comm``.

        :meth:`repro.session.Cluster.sort` hands it to the engine, so every
        rank calls it with its own block.  Each algorithm class overrides
        it; a third-party algorithm is a subclass that does the same and
        returns a :class:`repro.dist.api.RankOutput`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """The spec as a flat JSON-ready dict (``algorithm`` + all fields)."""
        out: Dict[str, Any] = {"algorithm": type(self).algorithm}
        out.update(asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SortSpec":
        """Rebuild a spec from :meth:`to_dict` output (inverse, key-order free).

        ``data`` must carry an ``"algorithm"`` key.  ``SortSpec.from_dict``
        looks its class up in :data:`SPECS`; a subclass rebuilds itself and
        refuses a dict that names another algorithm.  The remaining keys
        must be fields of that class.  Unknown algorithm names and unknown
        keys raise :class:`ValueError` with a nearest-match suggestion.
        """
        payload = dict(data)
        try:
            name = payload.pop("algorithm")
        except KeyError:
            raise ValueError("spec dict is missing the 'algorithm' key") from None
        if cls is SortSpec:
            spec_cls = spec_class(name)
        elif name == cls.algorithm:
            spec_cls = cls
        else:
            raise ValueError(
                f"{cls.__name__} configures {cls.algorithm!r}, not {name!r}"
            )
        known = {f.name for f in fields(spec_cls)}
        unknown = set(payload) - known
        if unknown:
            worst = sorted(unknown)[0]
            raise ValueError(
                f"unknown key(s) {sorted(unknown)} for {name!r} spec"
                f"{_suggest(worst, known)}; known keys: {sorted(known)}"
            )
        return spec_cls(**payload)

    def config_hash(self) -> str:
        """Stable 16-hex-digit digest of the configuration.

        Computed as SHA-256 over the canonical (sorted-key, compact) JSON
        form of :meth:`to_dict`, so it is identical across processes and
        insensitive to field order — the key the benchmark harness uses for
        its cells.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class HQuickSpec(SortSpec):
    """Hypercube quicksort (Section IV): strings as atoms, no extra knobs."""

    algorithm: ClassVar[str] = "hquick"

    def run(self, comm: Communicator, local: Sequence) -> RankOutput:
        """Hypercube quicksort (:func:`repro.dist.hquick.hquick_sort`)."""
        return RankOutput(
            *hquick_sort(comm, local, seed=self.seed, local_sorter=self.local_sorter)
        )


@dataclass(frozen=True)
class _MergeSortSpec(SortSpec):
    """Common base of the merge sorts, all run by :func:`repro.dist.api.merge_sort`.

    ``oversampling`` is the per-PE sample multiplier of the splitter
    determination (``None`` = the implementation default).  The stage
    switches are class-level, so ``to_dict`` and the hash never see them.
    """

    lcp: ClassVar[bool] = False
    prefix_doubling: ClassVar[bool] = False
    golomb: ClassVar[bool] = False
    returns_lcps: ClassVar[bool] = True

    oversampling: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate common fields plus the oversampling factor."""
        super().__post_init__()
        if self.oversampling is not None and self.oversampling < 1:
            raise ValueError(
                f"oversampling must be >= 1 or None, got {self.oversampling!r}"
            )

    def run(self, comm: Communicator, local: Sequence) -> RankOutput:
        """The one merge-sort rank program, with this class's stages."""
        return merge_sort(comm, local, self)


@dataclass(frozen=True)
class FKMergeSpec(_MergeSortSpec):
    """FKmerge baseline (Sections II-C and VII): MS-simple with central
    string sampling pinned and no LCP array returned."""

    algorithm: ClassVar[str] = "fkmerge"
    returns_lcps: ClassVar[bool] = False
    sampling: ClassVar[str] = "string"
    sample_sort: ClassVar[str] = "central"


@dataclass(frozen=True)
class SampledSpec(_MergeSortSpec):
    """Shared knobs of the sampling-based merge sorts (MS / PDMS families).

    ``sampling`` selects string- or character-based regular sampling
    (Theorems 2/3); ``sample_sort`` sorts the sample centrally on PE 0 or
    with a distributed hypercube quicksort.
    """

    sampling: str = "string"
    sample_sort: str = "central"

    def __post_init__(self) -> None:
        """Validate the sampling scheme and sample-sort backend names."""
        super().__post_init__()
        if self.sampling not in _SAMPLING:
            raise ValueError(
                f"unknown sampling {self.sampling!r}; use one of {list(_SAMPLING)}"
            )
        if self.sample_sort not in _SAMPLE_SORT:
            raise ValueError(
                f"unknown sample_sort {self.sample_sort!r}; "
                f"use one of {list(_SAMPLE_SORT)}"
            )


@dataclass(frozen=True)
class MSSpec(SampledSpec):
    """Distributed merge sort with the LCP machinery on (Section V)."""

    algorithm: ClassVar[str] = "ms"
    lcp: ClassVar[bool] = True


@dataclass(frozen=True)
class MSSimpleSpec(SampledSpec):
    """Distributed merge sort without LCP compression or LCP-aware merging."""

    algorithm: ClassVar[str] = "ms-simple"


@dataclass(frozen=True)
class PDMSSpec(SampledSpec):
    """Prefix-doubling merge sort (Section VI).

    ``epsilon`` is the prefix growth factor (candidate lengths grow by
    ``1 + epsilon`` per round); ``initial_length`` the first candidate
    prefix length.
    """

    algorithm: ClassVar[str] = "pdms"
    lcp: ClassVar[bool] = True
    prefix_doubling: ClassVar[bool] = True

    epsilon: float = 1.0
    initial_length: int = 16

    def __post_init__(self) -> None:
        """Validate the prefix-doubling growth parameters."""
        super().__post_init__()
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon!r}")
        if self.initial_length < 1:
            raise ValueError(
                f"initial_length must be >= 1, got {self.initial_length!r}"
            )


@dataclass(frozen=True)
class PDMSGolombSpec(PDMSSpec):
    """PDMS with Golomb-coded fingerprint messages (Section VI-B)."""

    algorithm: ClassVar[str] = "pdms-golomb"
    golomb: ClassVar[bool] = True


@dataclass(frozen=True)
class AutoSpec(PDMSSpec):
    """Run-time algorithm selection via the sampled D/N estimate.

    Carries the union of the MS and PDMS knobs; whichever algorithm the
    estimate picks (``ms`` or ``pdms-golomb``) uses its subset.
    """

    algorithm: ClassVar[str] = "auto"

    def run(self, comm: Communicator, local: Sequence) -> RankOutput:
        """Estimate D/N, then run the chosen algorithm with this spec's knobs."""
        # the D/N estimate is a collective, so every rank agrees on the choice;
        # Cluster.sort's extras merge still asserts that agreement explicitly
        estimate = estimate_dn_ratio(comm, local, seed=self.seed)
        chosen = recommend_algorithm(estimate)
        spec_cls = SPECS[chosen]
        chosen_spec = spec_cls(**{f.name: getattr(self, f.name) for f in fields(spec_cls)})
        output = merge_sort(comm, local, chosen_spec)
        output.extra["chosen_algorithm"] = chosen
        output.extra["estimated_dn"] = estimate.dn_ratio
        return output


#: algorithm name -> the spec class that configures and runs it
SPECS: Dict[str, Type[SortSpec]] = {
    spec_cls.algorithm: spec_cls
    for spec_cls in (
        HQuickSpec,
        FKMergeSpec,
        MSSimpleSpec,
        MSSpec,
        PDMSSpec,
        PDMSGolombSpec,
        AutoSpec,
    )
}


def spec_class(name: str) -> Type[SortSpec]:
    """The spec class of algorithm ``name`` (ValueError with a suggestion)."""
    try:
        return SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}{_suggest(name, SPECS)}; "
            f"available: {sorted(SPECS)}"
        ) from None

"""The pluggable algorithm registry behind :class:`repro.session.Cluster`.

Every sortable algorithm is one :class:`AlgorithmEntry`: a name, a rank
*runner* (the SPMD per-rank program, ``runner(comm, local_strings, spec)``
returning a :class:`repro.dist.api.RankOutput`) and the :class:`SortSpec`
subclass that configures it.  The six paper algorithms plus ``"auto"`` are
pre-registered in the process-wide default registry; third-party rank
programs plug in through :func:`register_algorithm` without touching
``repro.dist.api``::

    from dataclasses import dataclass
    from repro.session import MSSpec, register_algorithm
    from repro.dist.api import RankOutput

    @dataclass(frozen=True)
    class MySpec(MSSpec):
        algorithm = "my-sorter"

    def my_runner(comm, local, spec):
        ...  # any SPMD program over comm
        return RankOutput(sorted_strings, lcps)

    register_algorithm("my-sorter", my_runner, MySpec)

A :class:`Cluster` can also be given its own registry instance, so
experimental algorithms stay scoped instead of mutating process state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterator, List, Optional, Type

from ..mpi.comm import Communicator
from ..dist.api import RankOutput, hquick_sort, merge_sort
from ..dist.dn_estimator import estimate_dn_ratio, recommend_algorithm
from .specs import (
    AutoSpec,
    FKMergeSpec,
    HQuickSpec,
    MSSimpleSpec,
    MSSpec,
    PDMSGolombSpec,
    PDMSSpec,
    SortSpec,
    _suggest,
)

__all__ = [
    "SpecRunner",
    "AlgorithmEntry",
    "AlgorithmRegistry",
    "default_registry",
    "register_algorithm",
]

#: the SPMD rank-program signature the registry stores
SpecRunner = Callable[[Communicator, list, SortSpec], RankOutput]


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered algorithm: its name, rank runner and spec class."""

    name: str
    runner: SpecRunner
    spec_cls: Type[SortSpec]


class AlgorithmRegistry:
    """Name -> :class:`AlgorithmEntry` mapping with helpful lookup errors.

    Registries are cheap value objects: :meth:`copy` an existing one to
    extend it locally, or mutate the process-wide default through
    :func:`register_algorithm`.
    """

    def __init__(self, entries: Optional[Dict[str, AlgorithmEntry]] = None):
        self._entries: Dict[str, AlgorithmEntry] = dict(entries or {})

    # ------------------------------------------------------------------ mutation
    def register(
        self,
        name: str,
        runner: SpecRunner,
        spec_cls: Type[SortSpec],
        *,
        overwrite: bool = False,
    ) -> AlgorithmEntry:
        """Add an algorithm; refuses to shadow an existing name by default."""
        if not name:
            raise ValueError("algorithm name must be a non-empty string")
        if name in self._entries and not overwrite:
            raise ValueError(
                f"algorithm {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        if not callable(runner):
            raise TypeError(f"runner for {name!r} must be callable")
        if not (isinstance(spec_cls, type) and issubclass(spec_cls, SortSpec)):
            raise TypeError(f"spec_cls for {name!r} must be a SortSpec subclass")
        entry = AlgorithmEntry(name=name, runner=runner, spec_cls=spec_cls)
        self._entries[name] = entry
        return entry

    # ------------------------------------------------------------------ lookup
    def get(self, name: str) -> AlgorithmEntry:
        """The entry registered under ``name`` (ValueError with suggestion)."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {name!r}"
                f"{_suggest(name, self._entries)}; "
                f"available: {sorted(self._entries)}"
            ) from None

    def spec_class(self, name: str) -> Type[SortSpec]:
        """The :class:`SortSpec` subclass configuring algorithm ``name``."""
        return self.get(name).spec_cls

    def names(self) -> List[str]:
        """All registered algorithm names, sorted."""
        return sorted(self._entries)

    def copy(self) -> "AlgorithmRegistry":
        """An independent registry with the same entries (for local tweaks)."""
        return AlgorithmRegistry(self._entries)

    def __contains__(self, name: object) -> bool:
        """Whether ``name`` is registered."""
        return name in self._entries

    def __iter__(self) -> Iterator[AlgorithmEntry]:
        """Iterate entries in sorted-name order."""
        return iter(self._entries[n] for n in self.names())

    def __len__(self) -> int:
        """Number of registered algorithms."""
        return len(self._entries)


# ---------------------------------------------------------------------------
# built-in runners: the merge sorts are presets of one rank program
# ---------------------------------------------------------------------------

def _run_hquick(comm: Communicator, local, spec: HQuickSpec) -> RankOutput:
    return RankOutput(
        *hquick_sort(comm, local, seed=spec.seed, local_sorter=spec.local_sorter)
    )


def _run_auto(comm: Communicator, local, spec: AutoSpec) -> RankOutput:
    # the D/N estimate is a collective, so every rank agrees on the choice;
    # the per-cluster extras merge still asserts that agreement explicitly
    estimate = estimate_dn_ratio(comm, local, seed=spec.seed)
    chosen = recommend_algorithm(estimate)
    spec_cls = MSSpec if chosen == "ms" else PDMSGolombSpec
    chosen_spec = spec_cls(**{f.name: getattr(spec, f.name) for f in fields(spec_cls)})
    output = merge_sort(comm, local, chosen_spec)
    output.extra["chosen_algorithm"] = chosen
    output.extra["estimated_dn"] = estimate.dn_ratio
    return output


_BUILTINS = [
    AlgorithmEntry("hquick", _run_hquick, HQuickSpec),
    AlgorithmEntry("fkmerge", merge_sort, FKMergeSpec),
    AlgorithmEntry("ms-simple", merge_sort, MSSimpleSpec),
    AlgorithmEntry("ms", merge_sort, MSSpec),
    AlgorithmEntry("pdms", merge_sort, PDMSSpec),
    AlgorithmEntry("pdms-golomb", merge_sort, PDMSGolombSpec),
    AlgorithmEntry("auto", _run_auto, AutoSpec),
]

_DEFAULT = AlgorithmRegistry({e.name: e for e in _BUILTINS})


def default_registry() -> AlgorithmRegistry:
    """The process-wide registry (the paper's six algorithms + ``auto``)."""
    return _DEFAULT


def register_algorithm(
    name: str,
    runner: SpecRunner,
    spec_cls: Type[SortSpec],
    *,
    registry: Optional[AlgorithmRegistry] = None,
    overwrite: bool = False,
) -> AlgorithmEntry:
    """Register a rank program so ``Cluster.sort`` can run it.

    ``runner(comm, local_strings, spec)`` must be a valid SPMD program over
    the :class:`repro.mpi.comm.Communicator` interface and return a
    :class:`repro.dist.api.RankOutput`.  By default the process-wide
    registry is mutated; pass ``registry=`` to extend a scoped copy instead.
    """
    target = registry if registry is not None else _DEFAULT
    return target.register(name, runner, spec_cls, overwrite=overwrite)

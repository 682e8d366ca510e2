"""The run configuration: how a cluster executes its sorts.

A :class:`RunConfig` holds the four execution settings of one
:class:`repro.session.Cluster` (or one :func:`repro.mpi.run_spmd` call).  It
is resolved once, when the cluster is built: the ``REPRO_*`` environment
first (:meth:`RunConfig.from_env`, the only place the package reads those
variables), then every ``Cluster`` keyword that is not ``None``.  The engine
hands it to every rank's communicator as ``comm.config``, and the rank
programs read it from there, so two clusters with different settings can
sort at the same time in one process.  A spec's own ``exchange_topology``
still overrides the cluster's for that sort.

None of the settings changes sorted outputs, LCP arrays or origin wire
bytes: ``exchange_topology`` adds forwarded routing bytes, and ``timeout``,
``engine`` and ``trace`` govern the engine.  ``docs/API.md`` lists each
field with its variable, keyword, CLI flag and accepted values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

__all__ = ["RunConfig"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _setting(default: Any, env: str) -> Any:
    return field(default=default, metadata={"env": env})


@dataclass(frozen=True)
class RunConfig:
    """The execution settings of one cluster, frozen once resolved.

    Attributes
    ----------
    exchange_topology:
        Delivery strategy of the bucket all-to-all: ``"direct"`` or
        ``"hypercube"`` (:mod:`repro.net.router`).
    timeout:
        Deadlock-detection timeout per blocking operation, in seconds, of
        the processes engine; the threads engine detects deadlock exactly
        and ignores it.
    engine:
        Execution backend name (see :data:`repro.mpi.engine.ENGINES`).
    trace:
        Record per-rank timelines (:mod:`repro.obs`).
    """

    exchange_topology: str = _setting("direct", "REPRO_EXCHANGE_TOPOLOGY")
    timeout: float = _setting(600.0, "REPRO_SPMD_TIMEOUT")
    engine: str = _setting("threads", "REPRO_ENGINE")
    trace: bool = _setting(False, "REPRO_TRACE")

    def __post_init__(self) -> None:
        """Reject values no run can use, naming the setting and its variable."""
        from .mpi.engine import ENGINES
        from .net.router import TOPOLOGY_NAMES

        for f in fields(self):
            if f.type == "bool" and not isinstance(getattr(self, f.name), bool):
                self._reject(f.name, "a bool")
        if self.exchange_topology not in TOPOLOGY_NAMES:
            self._reject("exchange_topology", f"one of {list(TOPOLOGY_NAMES)}")
        if isinstance(self.timeout, bool) or not (
            isinstance(self.timeout, (int, float)) and self.timeout > 0
        ):
            self._reject("timeout", "a positive number of seconds")
        if self.engine not in ENGINES:
            self._reject("engine", f"a registered engine, one of {sorted(ENGINES)}")

    def _reject(self, name: str, expected: str) -> None:
        env = next(f.metadata["env"] for f in fields(self) if f.name == name)
        raise ValueError(
            f"{name} ({env}) must be {expected}, got {getattr(self, name)!r}"
        )

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RunConfig":
        """The configuration the ``REPRO_*`` environment asks for.

        An unset or empty variable means the field's default.  Booleans
        accept ``0/1/true/false/yes/no/on/off`` in any case; anything else,
        an unknown topology or engine, or a timeout that is not a positive
        number raises :class:`ValueError` naming the variable.
        """
        env = os.environ if environ is None else environ
        values = {}
        for f in fields(cls):
            raw = env.get(f.metadata["env"], "").strip()
            if raw:
                values[f.name] = _parse(f.type, f.metadata["env"], raw)
        return cls(**values)

    def override(self, **settings: Any) -> "RunConfig":
        """A copy with every keyword that is not ``None`` applied."""
        return replace(
            self, **{k: v for k, v in settings.items() if v is not None}
        )


def _parse(kind: str, env: str, raw: str) -> Any:
    """One environment value as the field type ``kind`` names."""
    if kind == "bool":
        lowered = raw.lower()
        if lowered in _TRUE or lowered in _FALSE:
            return lowered in _TRUE
        expected = "a boolean (0/1/true/false/yes/no/on/off)"
    elif kind == "float":
        try:
            return float(raw)
        except ValueError:
            expected = "a number of seconds"
    else:
        return raw
    raise ValueError(f"{env} must be {expected}, got {raw!r}")

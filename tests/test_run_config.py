"""The run configuration: one frozen table, read from the environment once.

:class:`repro.config.RunConfig` is the only reader of the ``REPRO_*``
variables.  Pinned here: the accepted spellings, the precedence (environment,
then ``Cluster`` / ``run_spmd`` keywords), and that a malformed variable fails
when the cluster is built, naming the variable, instead of inside a rank or
not at all.
"""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro import Cluster, RunConfig
from repro.mpi import run_spmd

#: one malformed value per variable
MALFORMED = {
    "REPRO_PACKED": "nope",
    "REPRO_EXCHANGE_TOPOLOGY": "bogus",
    "REPRO_WIRE_CHECKSUMS": "sealed",
    "REPRO_SPMD_TIMEOUT": "nan",
    "REPRO_ENGINE": "mpi4py",
    "REPRO_TRACE": "verbose",
}


def test_every_field_has_one_variable():
    names = [f.metadata["env"] for f in fields(RunConfig)]
    assert sorted(names) == sorted(MALFORMED)


@pytest.mark.parametrize(
    "variable, value",
    # a number that is not 0/1 is not a boolean either
    sorted(MALFORMED.items()) + [("REPRO_WIRE_CHECKSUMS", "2")],
)
def test_malformed_variable_fails_fast(monkeypatch, variable, value):
    monkeypatch.setenv(variable, value)
    with pytest.raises(ValueError, match=variable):
        Cluster(num_pes=2)
    with pytest.raises(ValueError, match=variable):
        run_spmd(2, lambda comm: comm.rank)


@pytest.mark.parametrize(
    "raw, expected",
    [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
     ("0", False), ("false", False), ("NO", False), ("Off", False)],
)
def test_boolean_spellings(raw, expected):
    config = RunConfig.from_env({"REPRO_PACKED": raw, "REPRO_TRACE": raw})
    assert config.packed is expected and config.trace is expected


def test_unset_or_empty_means_the_default():
    assert RunConfig.from_env({}) == RunConfig()
    blank = {f.metadata["env"]: "  " for f in fields(RunConfig)}
    assert RunConfig.from_env(blank) == RunConfig()


def test_every_value_is_read():
    config = RunConfig.from_env(
        {
            "REPRO_PACKED": "0",
            "REPRO_EXCHANGE_TOPOLOGY": "grid",
            "REPRO_WIRE_CHECKSUMS": "1",
            "REPRO_SPMD_TIMEOUT": "42.5",
            "REPRO_ENGINE": "processes",
            "REPRO_TRACE": "1",
        }
    )
    assert config == RunConfig(
        packed=False,
        exchange_topology="grid",
        wire_checksums=True,
        timeout=42.5,
        engine="processes",
        trace=True,
    )


def test_keywords_beat_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_EXCHANGE_TOPOLOGY", "grid")
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "42.5")
    cluster = Cluster(num_pes=2, exchange_topology="hypercube")
    assert cluster.config.exchange_topology == "hypercube"
    assert cluster.config.timeout == 42.5
    results, _ = run_spmd(2, lambda comm: comm.config.timeout, timeout=7.0)
    assert results == [7.0, 7.0]


def test_override_ignores_none():
    base = RunConfig(trace=True)
    assert base.override(trace=None, packed=None) == base
    assert base.override(trace=False) == RunConfig()


def test_config_is_frozen():
    with pytest.raises(FrozenInstanceError):
        RunConfig().packed = False

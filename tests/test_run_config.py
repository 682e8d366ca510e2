"""The run configuration: one frozen table, read from the environment once.

:class:`repro.config.RunConfig` is the only reader of the ``REPRO_*``
variables.  Pinned here: the accepted spellings, the precedence (environment,
then ``Cluster`` / ``run_spmd`` keywords), and that a malformed variable fails
when the cluster is built, naming the variable, instead of inside a rank or
not at all.  Two source tests pin the table's reach: every field has a
``Cluster`` keyword and a row in docs/API.md, and only ``repro/config.py``
reads the environment.
"""

import inspect
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from repro import Cluster, RunConfig
from repro.mpi import run_spmd

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: one malformed value per variable
MALFORMED = {
    "REPRO_EXCHANGE_TOPOLOGY": "bogus",
    "REPRO_SPMD_TIMEOUT": "nan",
    "REPRO_ENGINE": "mpi4py",
    "REPRO_TRACE": "verbose",
}


def test_every_field_has_one_variable():
    names = [f.metadata["env"] for f in fields(RunConfig)]
    assert sorted(names) == sorted(MALFORMED)


def test_cluster_keywords_are_the_fields():
    params = inspect.signature(Cluster).parameters.values()
    keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
    settings = {f.name for f in fields(RunConfig)}
    # every other keyword, a retired setting included, is a TypeError
    assert keywords == settings | {"machine"}


def test_retired_packed_setting_is_rejected():
    # the packed path is the only path: neither the keyword nor the field exists
    with pytest.raises(TypeError, match="packed"):
        Cluster(num_pes=2, packed=False)
    with pytest.raises(TypeError, match="packed"):
        RunConfig(packed=True)


@pytest.mark.parametrize(
    "variable, value",
    # a number that is not 0/1 is not a boolean either, and the retired
    # grid route is no topology
    sorted(MALFORMED.items())
    + [("REPRO_TRACE", "2"), ("REPRO_EXCHANGE_TOPOLOGY", "grid")],
)
def test_malformed_variable_fails_fast(monkeypatch, variable, value):
    monkeypatch.setenv(variable, value)
    with pytest.raises(ValueError, match=variable) as raised:
        Cluster(num_pes=2)
    if variable == "REPRO_EXCHANGE_TOPOLOGY":
        assert "['direct', 'hypercube']" in str(raised.value)
    with pytest.raises(ValueError, match=variable):
        run_spmd(2, lambda comm: comm.rank)


@pytest.mark.parametrize(
    "raw, expected",
    [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
     ("0", False), ("false", False), ("NO", False), ("Off", False)],
)
def test_boolean_spellings(raw, expected):
    assert RunConfig.from_env({"REPRO_TRACE": raw}).trace is expected


@pytest.mark.parametrize("value", ["0", "false", 1])
def test_boolean_fields_take_only_bools(value):
    # "0" and "false" are truthy strings: stored as given they would arm the
    # setting they mean to disarm
    with pytest.raises(ValueError, match=r"trace \(REPRO_TRACE\) must be a bool"):
        RunConfig(trace=value)
    with pytest.raises(ValueError, match="REPRO_TRACE"):
        Cluster(num_pes=2, trace=value)


def test_unset_or_empty_means_the_default():
    assert RunConfig.from_env({}) == RunConfig()
    blank = {f.metadata["env"]: "  " for f in fields(RunConfig)}
    assert RunConfig.from_env(blank) == RunConfig()


def test_every_value_is_read():
    config = RunConfig.from_env(
        {
            "REPRO_EXCHANGE_TOPOLOGY": "hypercube",
            "REPRO_SPMD_TIMEOUT": "42.5",
            "REPRO_ENGINE": "processes",
            "REPRO_TRACE": "1",
        }
    )
    assert config == RunConfig(
        exchange_topology="hypercube",
        timeout=42.5,
        engine="processes",
        trace=True,
    )


def test_keywords_beat_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_EXCHANGE_TOPOLOGY", "hypercube")
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "42.5")
    cluster = Cluster(num_pes=2, exchange_topology="direct")
    assert cluster.config.exchange_topology == "direct"
    assert cluster.config.timeout == 42.5
    results, _ = run_spmd(2, lambda comm: comm.config.timeout, timeout=7.0)
    assert results == [7.0, 7.0]


def test_override_ignores_none():
    base = RunConfig(trace=True)
    assert base.override(trace=None, timeout=None) == base
    assert base.override(trace=False) == RunConfig()


def test_config_is_frozen():
    with pytest.raises(FrozenInstanceError):
        RunConfig().trace = True


def test_every_setting_has_knob_and_docs_row():
    docs = (SRC_ROOT.parent.parent / "docs" / "API.md").read_text()
    knobs = set(inspect.signature(Cluster.__init__).parameters)
    for setting in fields(RunConfig):
        env = setting.metadata["env"]
        assert env in docs, f"{env} missing from docs/API.md"
        assert setting.name in knobs, f"{env}: no Cluster knob {setting.name!r}"


def test_only_the_settings_table_reads_the_environment():
    # every REPRO_* setting is a RunConfig field read by RunConfig.from_env,
    # so no other module has a reason to touch the environment
    readers = [
        str(path.relative_to(SRC_ROOT))
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if path != SRC_ROOT / "config.py"
        and re.search(r"\b(environ|getenv)\b", path.read_text(encoding="utf-8"))
    ]
    assert readers == [], f"environment read outside repro/config.py: {readers}"

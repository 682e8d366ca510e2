"""The cross-engine conformance matrix: every backend vs the thread engine.

Drives ``tests/engine_conformance.py`` over the full contract surface —
all six algorithms x three exchange topologies — and asserts each cell's fingerprint (sorted outputs, LCP arrays, PDMS origins,
config hash, origin/total/per-PE wire bytes, decoded local work) is
bit-identical between the candidate engine and the ``threads`` reference.
Cells for engines the platform cannot run are skipped with the platform's
reason, never errored.

Reference fingerprints are computed once per (algorithm, topology) cell and cached for the whole module, so adding a backend to the axis costs
only that backend's runs.
"""

from __future__ import annotations

import pytest

from engine_conformance import (
    PAPER_ALGORITHMS,
    REFERENCE_ENGINE,
    TOPOLOGIES,
    all_engines,
    assert_engines_agree,
    engine_available,
    engine_params,
    sort_fingerprint,
)

_reference_cache = {}


def _reference(algorithm, topology):
    key = (algorithm, topology)
    if key not in _reference_cache:
        _reference_cache[key] = sort_fingerprint(REFERENCE_ENGINE, algorithm, topology)
    return _reference_cache[key]


@pytest.fixture(params=engine_params())
def candidate_engine(request):
    """Every registered engine, including the reference (self-conformance)."""
    return request.param


class TestConformanceMatrix:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_cell_matches_reference(self, candidate_engine, algorithm, topology):
        """One matrix cell: candidate fingerprint == reference fingerprint."""
        reference = _reference(algorithm, topology)
        # on the reference engine this is self-conformance: a second run
        # must reproduce the first
        fp = sort_fingerprint(candidate_engine, algorithm, topology)
        assert_engines_agree(
            fp, reference, label=f"{candidate_engine}/{algorithm}/{topology}"
        )
        assert fp["engine_tag"] == candidate_engine


class TestEngineAxis:
    def test_reference_engine_is_registered(self):
        assert REFERENCE_ENGINE in all_engines()

    def test_processes_engine_is_registered(self):
        assert "processes" in all_engines()

    def test_engine_availability_reports_reasons(self):
        for name in all_engines():
            ok, reason = engine_available(name)
            assert ok or reason

    def test_unregistered_engine_is_unavailable(self):
        ok, reason = engine_available("definitely-not-an-engine")
        assert not ok and "not registered" in reason


class TestRealTransport:
    def test_processes_engine_reports_transported_bytes(self):
        ok, reason = engine_available("processes")
        if not ok:
            pytest.skip(reason)
        fp = sort_fingerprint("processes", "ms")
        # real pipe frames + shm payloads: at least the simulated volume
        # actually had to move between address spaces
        assert fp["transported_bytes"] > 0

    def test_thread_engine_moves_no_real_bytes(self):
        fp = sort_fingerprint(REFERENCE_ENGINE, "ms")
        assert fp["transported_bytes"] == 0

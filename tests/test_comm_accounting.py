"""Communication accounting sanity: the headline metric is always meaningful.

``bytes_per_string`` / ``modeled_time`` feed every figure of the paper, so
they must be finite, positive, and internally consistent (phase bytes sum to
the total) for every algorithm — and the paper's core volume claims must
hold on the calibrated corpora.
"""

import math

import pytest

from engine_conformance import PAPER_ALGORITHMS
from repro.session import Cluster, MSSpec, PDMSGolombSpec, PDMSSpec, spec_class
from repro.strings.generators import commoncrawl_like, dna_reads

_DATA = commoncrawl_like(500, seed=201)


@pytest.mark.parametrize("algorithm", sorted(PAPER_ALGORITHMS) + ["auto"])
def test_metrics_finite_and_positive(algorithm):
    res = Cluster(4).sort(_DATA, spec_class(algorithm)(seed=1))
    bps = res.bytes_per_string()
    assert math.isfinite(bps) and bps > 0
    time = res.modeled_time()
    assert math.isfinite(time) and time > 0
    assert res.report.total_bytes_sent == sum(res.report.bytes_sent_per_pe)


@pytest.mark.parametrize("algorithm", sorted(PAPER_ALGORITHMS))
def test_phase_bytes_sum_to_total(algorithm):
    res = Cluster(4).sort(_DATA, spec_class(algorithm)(seed=2))
    assert sum(res.report.phase_bytes.values()) == res.report.total_bytes_sent


def test_send_receive_volumes_balance():
    res = Cluster(4).sort(_DATA, MSSpec(seed=3))
    assert sum(res.report.bytes_sent_per_pe) == sum(res.report.bytes_received_per_pe)


def test_single_pe_runs_send_nothing():
    res = Cluster(1).sort(_DATA, MSSpec(seed=4))
    assert res.report.total_bytes_sent == 0
    assert res.bytes_per_string() == 0.0


def test_pdms_golomb_beats_ms_on_high_duplicate_input():
    """The paper's core claim: on duplicate-heavy real-world-like inputs the
    Golomb-coded prefix-doubling sorter communicates fewer bytes than MS."""
    reads = dna_reads(800, seed=202)
    with Cluster(4) as cluster:
        ms = cluster.sort(reads, MSSpec())
        golomb = cluster.sort(reads, PDMSGolombSpec())
        plain = cluster.sort(reads, PDMSSpec())
    assert golomb.report.total_bytes_sent < ms.report.total_bytes_sent
    # and the Golomb wire format never costs more than the plain one
    assert golomb.report.total_bytes_sent <= plain.report.total_bytes_sent

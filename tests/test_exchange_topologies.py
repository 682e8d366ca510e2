"""Determinism contract of the exchange topology knob, across all algorithms.

The delivery strategy of the bucket all-to-all (``direct`` / ``hypercube`` /
``grid``, see :mod:`repro.net.router`) changes *how* buckets travel — the
startup counts, the measured total volume, the per-route attribution —
never *what* is computed.  This suite pins, for every algorithm, on
adversarial inputs (tiny alphabets, duplicates, empty strings, empty ranks,
non-power-of-two machines):

* bit-identical sorted outputs, LCP arrays and PDMS origin labels;
* bit-identical **origin** wire bytes (``TrafficReport.origin_bytes_sent``),
  the paper's communication-volume metric — each bucket leaves its origin
  exactly once no matter how it is routed;
* identical decoded local work (the receivers decode the very same blocks);
* forwarded bytes only ever appear under a multi-level topology, and the
  measured total never exceeds the ``max_hops`` inflation bound.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from engine_conformance import PAPER_ALGORITHMS, engine_params, set_engine
from repro.session import Cluster, MSSpec, spec_class
from repro.strings.generators import dn_instance

from oracles.routing import max_hops

ROUTED = ("hypercube", "grid")


@pytest.fixture(scope="module", params=engine_params(), autouse=True)
def spmd_engine(request):
    """Run every test of this module on each engine of the conformance axis.

    Module-scoped so the hypothesis tests can share it (function-scoped
    parametrized fixtures would reset per example and trip health checks);
    engines the platform cannot run are skipped with the platform's reason.
    """
    with set_engine(request.param):
        yield request.param

# tiny alphabet -> many shared prefixes and exact duplicates; empty strings
# and more PEs than strings are reachable through the size bounds
adversarial_strings = st.lists(
    st.binary(max_size=10).map(lambda b: bytes(97 + (c % 3) for c in b)),
    max_size=60,
)

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _sort(strings, algorithm, p, topology, seed=3):
    spec = spec_class(algorithm)(seed=seed)
    cluster = Cluster(num_pes=p, exchange_topology=topology)
    return cluster.sort(strings, spec)


def _assert_equivalent(strings, algorithm, p, topology, seed=3):
    direct = _sort(strings, algorithm, p, "direct", seed=seed)
    routed = _sort(strings, algorithm, p, topology, seed=seed)
    assert routed.sorted_strings == direct.sorted_strings
    assert routed.outputs_per_pe == direct.outputs_per_pe
    assert routed.lcps_per_pe == direct.lcps_per_pe
    assert routed.origins_per_pe == direct.origins_per_pe
    # the paper's volume metric is delivery-invariant ...
    assert direct.report.forwarded_bytes == 0
    assert routed.report.origin_bytes_sent == direct.report.total_bytes_sent
    # ... and so is the decoded local work
    assert (
        routed.report.chars_inspected_per_pe
        == direct.report.chars_inspected_per_pe
    )
    # routing inflation stays within the hop bound the topologies promise
    hops = max(1, max_hops(topology, p))
    exchange_bytes = direct.report.phase_bytes.get("exchange", 0)
    inflation = routed.report.forwarded_bytes
    # forwarded = relayed payloads (< (hops - 1) x exchange volume)
    # + frame/batch headers (a few bytes per frame and round)
    header_allowance = 16 * p * p * hops
    assert inflation <= (hops - 1) * exchange_bytes + header_allowance


@settings(**_SETTINGS)
@given(
    strings=adversarial_strings,
    algorithm=st.sampled_from(sorted(PAPER_ALGORITHMS)),
    p=st.integers(min_value=1, max_value=5),
    topology=st.sampled_from(ROUTED),
)
def test_routed_topologies_are_deterministic(strings, algorithm, p, topology):
    _assert_equivalent(strings, algorithm, p, topology)


@pytest.mark.parametrize("topology", ROUTED)
@pytest.mark.parametrize("algorithm", sorted(PAPER_ALGORITHMS))
def test_routed_topologies_fixed_corpus(algorithm, topology):
    """Non-random twin of the hypothesis test on a skew-heavy instance."""
    corpus = dn_instance(num_strings=300, dn=0.8, length=32, seed=17)
    corpus += [b"", b"a" * 31, corpus[0], corpus[0]]  # empties + duplicates
    _assert_equivalent(corpus, algorithm, 4, topology, seed=9)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8])
def test_non_power_of_two_machines(p):
    """Fallback routing (hypercube off 2^d, grid off squares) stays identical."""
    corpus = dn_instance(num_strings=150, dn=0.5, length=20, seed=5)
    for topology in ROUTED:
        _assert_equivalent(corpus, "ms", p, topology, seed=2)


def test_spec_field_overrides_cluster_setting():
    """A spec's explicit exchange_topology wins over the cluster default."""
    corpus = dn_instance(num_strings=120, dn=0.5, length=20, seed=3)
    cluster = Cluster(num_pes=4, exchange_topology="hypercube")
    spec = spec_class("ms")(exchange_topology="direct")
    res = cluster.sort(corpus, spec)
    assert res.report.forwarded_bytes == 0
    inherited = cluster.sort(corpus, "ms")
    assert inherited.report.forwarded_bytes > 0


def test_spec_exchange_topology_reaches_the_rank_program():
    """The spec's exchange_topology is read like every other knob."""
    corpus = dn_instance(num_strings=100, dn=0.5, length=20, seed=4)
    with Cluster(4) as cluster:
        routed = cluster.sort(corpus, MSSpec(exchange_topology="grid"))
        direct = cluster.sort(corpus, MSSpec(exchange_topology="direct"))
    assert routed.sorted_strings == direct.sorted_strings
    assert routed.report.forwarded_bytes > 0
    assert direct.report.forwarded_bytes == 0
    assert routed.report.origin_bytes_sent == direct.report.total_bytes_sent

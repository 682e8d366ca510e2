"""Sanity checks of the paper's theoretical claims on the simulated machine.

These tests do not prove the theorems; they verify that the *measured*
communication volumes of the implementations stay within (generous constant
factors of) the asymptotic bounds of Theorems 1, 4, 5 and 6, and that the key
qualitative claims (what dominates what) hold on representative inputs.
"""

import math

import pytest

from repro.session import Cluster, HQuickSpec, MSSimpleSpec, MSSpec, PDMSSpec
from repro.strings.generators import dn_instance, random_strings, suffix_instance
from repro.strings.lcp import distinguishing_prefix_size


def _bits(nbytes: int) -> int:
    return 8 * nbytes


class TestTheorem4MSVolume:
    """MS: bottleneck communication volume O((N_hat + p * l_hat * log p) log sigma)."""

    def test_ms_volume_within_bound(self):
        p = 4
        data = dn_instance(1200, 0.5, length=60, seed=1)
        res = Cluster(p).sort(data, MSSimpleSpec())
        n_hat = max(len(b) for b in res.inputs_per_pe)
        chars_hat = max(sum(len(s) for s in b) for b in res.inputs_per_pe)
        l_hat = max(len(s) for s in data)
        log_sigma_bits = 8  # byte characters
        bound_bits = (chars_hat + p * l_hat * math.log2(p)) * log_sigma_bits
        measured_bits = _bits(max(res.report.bytes_sent_per_pe))
        # generous constant: headers, LCP values, sample traffic
        assert measured_bits <= 8 * bound_bits + 64 * n_hat

    def test_ms_volume_scales_with_input_not_with_p_squared(self):
        data = dn_instance(1600, 0.5, length=40, seed=2)
        res4 = Cluster(4).sort(data, MSSpec())
        res8 = Cluster(8).sort(data, MSSpec())
        # total communicated volume grows only mildly with p (more splitter
        # traffic), nowhere near quadratically
        assert res8.report.total_bytes_sent < 2.5 * res4.report.total_bytes_sent


class TestTheorem5PDMSVolume:
    """PDMS: (1+eps) D log sigma + O(n log p + p d_hat log sigma log p) bits."""

    @pytest.mark.parametrize("dn", [0.1, 0.5])
    def test_pdms_character_payload_close_to_d(self, dn):
        p = 4
        data = dn_instance(1000, dn, length=80, seed=3)
        d_total = distinguishing_prefix_size(data)
        res = Cluster(p).sort(data, PDMSSpec())
        # exchanged prefix characters are bounded by (1+eps)*D plus the start
        # guess per string; measure via the per-PE approximation totals
        approx_total = res.extra["approx_dist_total"]
        assert approx_total >= d_total  # never underestimates (safety)
        assert approx_total <= 2.2 * d_total + 16 * len(data)

    def test_pdms_beats_ms_when_d_much_smaller_than_n(self):
        data = suffix_instance(text_len=1500, alphabet_size=4, max_suffix_len=400, seed=4)
        with Cluster(4) as cluster:
            ms = cluster.sort(data, MSSpec())
            pdms = cluster.sort(data, PDMSSpec())
        assert pdms.report.total_bytes_sent < 0.35 * ms.report.total_bytes_sent

    def test_pdms_overhead_bounded_when_d_equals_n(self):
        """For D/N = 1 prefix doubling cannot help (Section VII-D): its only
        effect is the fingerprint traffic, a bounded number of bytes per
        string and round, on top of whatever MS sends."""
        data = dn_instance(800, 1.0, length=60, seed=5)
        with Cluster(4) as cluster:
            ms = cluster.sort(data, MSSpec())
            pdms = cluster.sort(data, PDMSSpec())
        overhead = pdms.report.total_bytes_sent - ms.report.total_bytes_sent
        rounds = max(1, pdms.extra["doubling_rounds"])
        # <= ~12 bytes per string per doubling round (fingerprint + verdict + headers)
        assert overhead <= 12 * len(data) * rounds
        # and the exchange itself does not regress: PDMS ships prefixes, never
        # more than the full strings MS ships
        assert (
            pdms.report.phase_bytes.get("exchange", 0)
            <= ms.report.phase_bytes.get("exchange", 0) * 1.1
        )


class TestTheorem6DuplicateDetection:
    """Prefix approximation: O(n_hat log p) bits of fingerprint traffic per round set."""

    def test_fingerprint_traffic_linear_in_strings(self):
        p = 4
        data = random_strings(2000, 20, 40, alphabet_size=4, seed=6)
        res = Cluster(p).sort(data, PDMSSpec())
        doubling_bytes = res.report.phase_bytes.get("prefix-doubling", 0)
        rounds = res.extra["doubling_rounds"]
        # per round and string: a fingerprint (<= 8 bytes) + a verdict bit +
        # headers; the bound below is ~17 bytes per string-round
        assert doubling_bytes <= 17 * len(data) * max(rounds, 1)

    def test_round_count_logarithmic_in_dist_length(self):
        data = dn_instance(600, 0.9, length=120, seed=7)
        res = Cluster(4).sort(data, PDMSSpec())
        # distinguishing prefixes ~ 110 chars; doubling from a small guess
        # needs O(log d_hat) rounds
        assert res.extra["doubling_rounds"] <= math.ceil(math.log2(130)) + 3


class TestTheorem1HQuick:
    """hQuick moves all data Theta(log p) times — far more than one-pass MS."""

    def test_hquick_volume_grows_with_log_p(self):
        data = random_strings(1200, 10, 20, seed=8)
        res2 = Cluster(2).sort(data, HQuickSpec())
        res8 = Cluster(8).sort(data, HQuickSpec())
        assert res8.report.total_bytes_sent > 1.5 * res2.report.total_bytes_sent

    def test_hquick_latency_polylogarithmic(self):
        """The modelled latency term of hQuick stays polylog while MS pays alpha*p."""
        from repro.net.cost_model import MachineModel

        latency_only = MachineModel(alpha=1.0, beta=0.0, char_time=0.0, item_time=0.0)
        data = random_strings(600, 5, 10, seed=9)
        hq = Cluster(8).sort(data, HQuickSpec())
        t = hq.report.modeled_comm_time(latency_only)
        p = 8
        # a handful of alltoalls/sendrecvs per dimension: well below alpha * p^2
        assert t < p * p

"""Pinned digests of every registered algorithm's full result, per spec knob.

Each case sorts a small D/N and a small DNA input and reduces the result —
outputs, LCP arrays, PDMS origins, ``extra``, total wire bytes and characters
inspected per PE — to one SHA-256.  The digests were recorded before the rank
programs started reading their knobs off the :class:`~repro.session.SortSpec`,
so a knob that stops reaching its rank program, or reaches the wrong one,
changes a digest here.  Both engines must reproduce the same digests.
Where the fingerprint hash moves PDMS's wire bytes, a second digest without
them holds everything else to the values recorded before the hash changed.

Every algorithm runs with its default spec on 1 and 4 PEs; every knob below
runs on 4 PEs for each algorithm whose spec has the fields.  The cluster pins
direct delivery, so no ``REPRO_*`` variable can move a digest.

A second axis runs the six algorithms under the run configurations that
used to be separate CI legs — hypercube routing — and under traced ranks,
and holds outputs, LCP arrays, origins and origin wire bytes to the
default configuration's.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import fields

import numpy as np
import pytest

from engine_conformance import PAPER_ALGORITHMS
from repro import Cluster, RunConfig
from repro.session import spec_class
from repro.strings import dn_instance, dna_reads

_INPUTS = {
    "dn": lambda: dn_instance(96, 0.5, length=40, seed=11),
    "dna": lambda: dna_reads(96, read_len=40, seed=12),
}

_KNOBS = {
    "sampling=character": {"sampling": "character"},
    "sample_sort=hquick": {"sample_sort": "hquick"},
    "oversampling=3": {"oversampling": 3},
    "epsilon=0.5,initial_length=2": {"epsilon": 0.5, "initial_length": 2},
    "exchange_topology=hypercube": {"exchange_topology": "hypercube"},
}


def _cases():
    """``(case id, algorithm, knobs, PE counts)`` of every pinned case."""
    for name in PAPER_ALGORITHMS:
        yield name, name, {}, (1, 4)
        known = {f.name for f in fields(spec_class(name))}
        for label, knobs in _KNOBS.items():
            if set(knobs) <= known:
                yield f"{name}[{label}]", name, knobs, (4,)


def _plain(value):
    """``value`` with numpy containers and scalars turned into Python ones."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return sorted((k, _plain(v)) for k, v in value.items())
    if isinstance(value, np.generic):
        return value.item()
    return value


def result_digest(result, wire_bytes: bool = True) -> str:
    """SHA-256 over everything a knob could change in a sort's result;
    ``wire_bytes=False`` leaves out the total bytes sent."""
    payload = [
        result.outputs_per_pe,
        result.lcps_per_pe,
        result.origins_per_pe,
        result.extra,
        result.report.chars_inspected_per_pe,
    ]
    if wire_bytes:
        payload.insert(4, result.report.total_bytes_sent)
    return hashlib.sha256(repr(_plain(payload)).encode()).hexdigest()


def case_digests(algorithm, knobs, pes, engine):
    """``{"<input>/p<p>": digest}`` of one case on ``engine``, and the same
    for the digests without wire bytes."""
    spec = spec_class(algorithm)(**knobs)
    digests, bytes_free = {}, {}
    for p in pes:
        with Cluster(p, engine=engine, exchange_topology="direct") as cluster:
            for input_name, make in _INPUTS.items():
                result = cluster.sort(make(), spec)
                digests[f"{input_name}/p{p}"] = result_digest(result)
                bytes_free[f"{input_name}/p{p}"] = result_digest(result, wire_bytes=False)[:16]
    return digests, bytes_free


#: case id -> ``{"<input>/p<p>": result digest}``; the ``ms-simple`` and
#: ``fkmerge`` digests were re-recorded when their merge moved onto the word
#: radix, which moved only the characters inspected per PE, and the ``pdms``
#: and ``pdms-golomb`` ones when duplicate detection began sending each
#: fingerprint value once per PE, which moved only the total bytes sent
EXPECTED = {
    "ms": {
        "dn/p1": "827dd32b31ee1ae078fa996d4a58ce6917ff70ab76c88228c540c920cc9d9dce",
        "dna/p1": "8a8bf91912122cbad9c03e7bae9ae53870164dab450f1ef78df6bf32d021af49",
        "dn/p4": "53c8a26c85f8e342267ad0546c0d40b1340e8e447d30b14e4cc5492c72a97d93",
        "dna/p4": "15b3c11be4b708e8a32adb2177c25c4391ac9cf40691b8cc0f7c7fea60150965",
    },
    "ms[sampling=character]": {
        "dn/p4": "0b56500d8fe81c9932b74fa2b55cadb2230041affe09625dbadd9b4bad84c010",
        "dna/p4": "43665b6f10becf7088bd5f299115f7ebf599e8371edc369349a8dc4c98c8b4e6",
    },
    "ms[sample_sort=hquick]": {
        "dn/p4": "542ebb9e742dfe7580949898e71bb151f0b00e3507559cd1f45f71c3cf7aefc2",
        "dna/p4": "511e5cb6d200c14258b27f0b7ce6cd1c58907bc62982fb37701081d0665e3e9e",
    },
    "ms[oversampling=3]": {
        "dn/p4": "24ed94b1f6bda5b6c0799f1ddea3cb00c5160a7e54a354d7521e12ed86bed8d2",
        "dna/p4": "18ad7a611cb3d681d9298417bb4f3a031436ec954233b49ad1f4a5f42906f5c4",
    },
    "ms[exchange_topology=hypercube]": {
        "dn/p4": "32fac056714adecc1f923ed822075adb802e58569239cb9bca742d0a5ac31728",
        "dna/p4": "151dae4e79df0dfe6bb264f40f0d794ff848f51fdfb86bfbb9220764cc6c7388",
    },
    "ms-simple": {
        "dn/p1": "6b2d317bacd3023c13bf3b3c1dd1fbadb87f08fba38f7b8aeb6ae8e57a083770",
        "dna/p1": "2345ef64ca9cafec2db90a3c5cc56d008495c10d05231ba7cb00dfa45cff1102",
        "dn/p4": "1369e12aeebf8c3177acce9a4d59b847010c932bb0cb3ba7c8df2c811176d320",
        "dna/p4": "dfda296f3895c1bc493fe78dd6b18cc7506c372ae1479b2e4c9f3aaf4e90f7d3",
    },
    "ms-simple[sampling=character]": {
        "dn/p4": "637a078c5ac45ca25c321be14e9fcaba38c7444faf3dbb0d67698d75960289bf",
        "dna/p4": "30388ea0700a2539dd4c8afb7c302911b56fc40b4d3afbf8ca13ade217d067c8",
    },
    "ms-simple[sample_sort=hquick]": {
        "dn/p4": "8bcfd4db8ad961d6bd237e57f8a888eb0246853e7c57e8cb97908f46888478e7",
        "dna/p4": "c4d7662e2341ee499f9738b9670911c4260430d89b1b64bf08693d347b03edcd",
    },
    "ms-simple[oversampling=3]": {
        "dn/p4": "ffd49549803f6ed3c35425ee0d0fedfd61964383c9be95de4988c4dd705a0eab",
        "dna/p4": "e3da6d845b4b7522c1b574cdbf3807d21bf980cb95c3370d586658bfd4651579",
    },
    "ms-simple[exchange_topology=hypercube]": {
        "dn/p4": "10a67dbca7980a89682795f813faea447e580ebaceb427a854b054bf752aae5b",
        "dna/p4": "0328e5fc074482376e709d86a550faae33fd6ae3e209b6109712adee264c06f1",
    },
    "pdms": {
        "dn/p1": "c2939a7664cfa844eb60881a5e4fdea5925661ccf7c75f913497a0d3976c4c48",
        "dna/p1": "8f174dee2eaf8236491f55bf7ebe304b990658e164b5dcb476f5cd9ddd97a131",
        "dn/p4": "84425c0c4f175b49e850c17def1ef0f1e46f6cf905930fc4bcd4e77c30114b43",
        "dna/p4": "4b4827aef5bba4f5fd2b23882f1faa49a4d02cc9346b4a565166290d56f77a3c",
    },
    "pdms[sampling=character]": {
        "dn/p4": "ef9d04249a942f57007f8ecbfc2200320a56e261e9568349c4da006e5073398d",
        "dna/p4": "ffbc393cc3dfb45215353ec1d7a84f97010bba41500da60720f7f0331d5d0e56",
    },
    "pdms[sample_sort=hquick]": {
        "dn/p4": "4aefe71ea04b86b2e46b74d1d487db18656cc17d9e37bfe59163bdddd9904b5b",
        "dna/p4": "fa71b7e9f2a906a1ea1e0c0c028c70a8b1b448f74c0fd0255c9d35cdd161620b",
    },
    "pdms[oversampling=3]": {
        "dn/p4": "d187ab6949be9def47030bbcca3f0b128891b2b79153dfeaa436dce8dfd34dd9",
        "dna/p4": "db137818ba7be09ea6358bb280a275279e2d43adf3c6f74bb03436545adac679",
    },
    "pdms[epsilon=0.5,initial_length=2]": {
        "dn/p4": "6d2bacff95d08a1af95661b96ad0adcc2dc00b9cb15aa905f1162f222c74a953",
        "dna/p4": "ffb30671226efe9aa31f554348187d6cae4346fff5ee04f86b505923c6e3303b",
    },
    "pdms[exchange_topology=hypercube]": {
        "dn/p4": "906f2e5664aebf05dce7ced911cb1e8dc0463743dd9b4bd228c75770f4ea5ddb",
        "dna/p4": "4f8df2cbb15a76adbcd5e536723cc2f2ed3c9ef3494d53e62e27f1501e8f6059",
    },
    "pdms-golomb": {
        "dn/p1": "c2939a7664cfa844eb60881a5e4fdea5925661ccf7c75f913497a0d3976c4c48",
        "dna/p1": "8f174dee2eaf8236491f55bf7ebe304b990658e164b5dcb476f5cd9ddd97a131",
        "dn/p4": "84425c0c4f175b49e850c17def1ef0f1e46f6cf905930fc4bcd4e77c30114b43",
        "dna/p4": "4b4827aef5bba4f5fd2b23882f1faa49a4d02cc9346b4a565166290d56f77a3c",
    },
    "pdms-golomb[sampling=character]": {
        "dn/p4": "ef9d04249a942f57007f8ecbfc2200320a56e261e9568349c4da006e5073398d",
        "dna/p4": "ffbc393cc3dfb45215353ec1d7a84f97010bba41500da60720f7f0331d5d0e56",
    },
    "pdms-golomb[sample_sort=hquick]": {
        "dn/p4": "4aefe71ea04b86b2e46b74d1d487db18656cc17d9e37bfe59163bdddd9904b5b",
        "dna/p4": "fa71b7e9f2a906a1ea1e0c0c028c70a8b1b448f74c0fd0255c9d35cdd161620b",
    },
    "pdms-golomb[oversampling=3]": {
        "dn/p4": "d187ab6949be9def47030bbcca3f0b128891b2b79153dfeaa436dce8dfd34dd9",
        "dna/p4": "db137818ba7be09ea6358bb280a275279e2d43adf3c6f74bb03436545adac679",
    },
    "pdms-golomb[epsilon=0.5,initial_length=2]": {
        "dn/p4": "6d2bacff95d08a1af95661b96ad0adcc2dc00b9cb15aa905f1162f222c74a953",
        "dna/p4": "ffb30671226efe9aa31f554348187d6cae4346fff5ee04f86b505923c6e3303b",
    },
    "pdms-golomb[exchange_topology=hypercube]": {
        "dn/p4": "906f2e5664aebf05dce7ced911cb1e8dc0463743dd9b4bd228c75770f4ea5ddb",
        "dna/p4": "4f8df2cbb15a76adbcd5e536723cc2f2ed3c9ef3494d53e62e27f1501e8f6059",
    },
    "hquick": {
        "dn/p1": "de55b2414eb3095c082307169b482e69af2cbc16a3cbfa39290665a821836694",
        "dna/p1": "8325cec2f0f6ffd36baec74478a422216bd319ac6523ced8cfb61a6ad9640de5",
        "dn/p4": "33f5527b09a7cdd0d5bd1b8176758e381e4585dc898f4fc1c5964e4dd7368dc9",
        "dna/p4": "2293a6ade33a0160d36371078a2ae212314dc636bbf2b529f94a1c42ffee86c1",
    },
    "hquick[exchange_topology=hypercube]": {
        "dn/p4": "33f5527b09a7cdd0d5bd1b8176758e381e4585dc898f4fc1c5964e4dd7368dc9",
        "dna/p4": "2293a6ade33a0160d36371078a2ae212314dc636bbf2b529f94a1c42ffee86c1",
    },
    "fkmerge": {
        "dn/p1": "68cb6e2047847dc61fd95e05e7c985705db7c3e76d313d283464b3a4e5f13cd5",
        "dna/p1": "7c156ba35f23ac38311c81bebefb203ff7fef498b1775bb5e4de92468a90c9f1",
        "dn/p4": "842d319f7d158c293838fec1b945f6f5fac0836818eba83c2696600a9c274371",
        "dna/p4": "9a8123804c9153c3a4a554570106b078088cd3a963b521d6843c46598ae22ece",
    },
    "fkmerge[oversampling=3]": {
        "dn/p4": "b1f333a18319f0229c4f33c85c5a8713822c10e7f7a4b702d30d6558f7f799f0",
        "dna/p4": "db5c0fbbd3a600bd383b736ad025bb8d26a623aab98d13b41daa9ab9c676d0b5",
    },
    "fkmerge[exchange_topology=hypercube]": {
        "dn/p4": "170b4378bfda2924df2b6ef896720df6708954e6e50f4e7a1e875a6831980318",
        "dna/p4": "af6b18142bee2dd6853bca4a2093fe6df1dabda2ed2df47540d8c31b94c88c16",
    },
}

#: cases whose wire bytes follow the fingerprint hash -> ``{"<input>/p<p>":
#: digest without wire bytes}``, recorded with the blake2b fingerprints the
#: double Karp–Rabin hash replaced: outputs, LCP arrays, origins, ``extra``
#: (doubling rounds and lengths) and characters inspected must not move;
#: the ``[sample_sort=hquick]`` entries were re-pinned when hQuick's local sort
#: moved to the packed kernel, which moves characters inspected only
BYTES_FREE = {
    "pdms": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
    "pdms[sampling=character]": {"dn/p4": "046aa3fe08e2a854", "dna/p4": "d02106674126aab6"},
    "pdms[sample_sort=hquick]": {"dn/p4": "7a2939f3c9e59931", "dna/p4": "a40e886732a5bf3f"},
    "pdms[oversampling=3]": {"dn/p4": "87e07b198bab561f", "dna/p4": "d8ffebb73afc0cb9"},
    "pdms[epsilon=0.5,initial_length=2]": {"dn/p4": "9caf748127d87613", "dna/p4": "28e3881ebeea8aae"},
    "pdms[exchange_topology=hypercube]": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
    "pdms-golomb": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
    "pdms-golomb[sampling=character]": {"dn/p4": "046aa3fe08e2a854", "dna/p4": "d02106674126aab6"},
    "pdms-golomb[sample_sort=hquick]": {"dn/p4": "7a2939f3c9e59931", "dna/p4": "a40e886732a5bf3f"},
    "pdms-golomb[oversampling=3]": {"dn/p4": "87e07b198bab561f", "dna/p4": "d8ffebb73afc0cb9"},
    "pdms-golomb[epsilon=0.5,initial_length=2]": {"dn/p4": "9caf748127d87613", "dna/p4": "28e3881ebeea8aae"},
    "pdms-golomb[exchange_topology=hypercube]": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
}

_CASES = list(_cases())


@pytest.mark.parametrize(
    "case, algorithm, knobs, pes", _CASES, ids=[c[0] for c in _CASES]
)
def test_result_digest_is_pinned(engine, case, algorithm, knobs, pes):
    digests, bytes_free = case_digests(algorithm, knobs, pes, engine)
    assert digests == EXPECTED[case]
    for key, want in BYTES_FREE.get(case, {}).items():
        assert bytes_free[key] == want, key


#: every run setting at its default, except the engine (the test's axis)
_DEFAULT_RUN = {f.name: f.default for f in fields(RunConfig) if f.name != "engine"}

#: the run configuration that was once a CI leg of its own, and the
#: boolean setting
_CONFIG_AXIS = {
    "hypercube": {"exchange_topology": "hypercube"},
    "traced": {"trace": True},
}


@functools.lru_cache(maxsize=None)
def _observables(algorithm, engine, leg=None):
    """What no run setting may change: outputs, LCPs, origins, origin bytes."""
    settings = {**_DEFAULT_RUN, **_CONFIG_AXIS.get(leg, {})}
    spec = spec_class(algorithm)(seed=3)
    with Cluster(4, engine=engine, **settings) as cluster:
        result = cluster.sort(_INPUTS["dn"](), spec)
    return (
        repr(_plain(result.outputs_per_pe)),
        repr(_plain(result.lcps_per_pe)),
        repr(_plain(result.origins_per_pe)),
        result.report.origin_bytes_sent,
    )


@pytest.mark.parametrize("leg", sorted(_CONFIG_AXIS))
@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
def test_run_config_leaves_results_unchanged(engine, algorithm, leg):
    assert _observables(algorithm, engine, leg) == _observables(algorithm, engine)

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
direct delivery and unsealed blocks, so no ``REPRO_*`` variable can move a
digest.

A second axis runs the six algorithms under the run configurations that
used to be separate CI legs — hypercube and grid routing — and under sealed
blocks and traced ranks, and holds outputs, LCP arrays, origins and origin
wire bytes to the default configuration's.  Sealing alone moves the origin
bytes, by one CRC32 per sealed exchange block.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import fields

import numpy as np
import pytest

from engine_conformance import PAPER_ALGORITHMS
from repro import Cluster, RunConfig
from repro.faults import CHECKSUM_WIRE_BYTES
from repro.session import default_registry
from repro.strings import dn_instance, dna_reads

_INPUTS = {
    "dn": lambda: dn_instance(96, 0.5, length=40, seed=11),
    "dna": lambda: dna_reads(96, read_len=40, seed=12),
}

_KNOBS = {
    "sampling=character": {"sampling": "character"},
    "sample_sort=hquick": {"sample_sort": "hquick"},
    "oversampling=3": {"oversampling": 3},
    "local_sorter=multikey_quicksort": {"local_sorter": "multikey_quicksort"},
    "epsilon=0.5,initial_length=2": {"epsilon": 0.5, "initial_length": 2},
    "exchange_topology=hypercube": {"exchange_topology": "hypercube"},
}


def _cases():
    """``(case id, algorithm, knobs, PE counts)`` of every pinned case."""
    for name in PAPER_ALGORITHMS + ("auto",):
        yield name, name, {}, (1, 4)
        known = {f.name for f in fields(default_registry().spec_class(name))}
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
    spec = default_registry().spec_class(algorithm)(**knobs)
    digests, bytes_free = {}, {}
    for p in pes:
        with Cluster(
            p,
            engine=engine,
            exchange_topology="direct",
            wire_checksums=False,
        ) as cluster:
            for input_name, make in _INPUTS.items():
                result = cluster.sort(make(), spec)
                digests[f"{input_name}/p{p}"] = result_digest(result)
                bytes_free[f"{input_name}/p{p}"] = result_digest(result, wire_bytes=False)[:16]
    return digests, bytes_free


#: case id -> ``{"<input>/p<p>": result digest}``
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
        "dn/p4": "4282d5e66a3bd585c8ef328ebd29d98180a49be7466b6245d8db402fb4560c17",
        "dna/p4": "4abe5175e740bdb84241551bcaa1df750baa38343315347c07efb2a29b66df72",
    },
    "ms[oversampling=3]": {
        "dn/p4": "24ed94b1f6bda5b6c0799f1ddea3cb00c5160a7e54a354d7521e12ed86bed8d2",
        "dna/p4": "18ad7a611cb3d681d9298417bb4f3a031436ec954233b49ad1f4a5f42906f5c4",
    },
    "ms[local_sorter=multikey_quicksort]": {
        "dn/p4": "156275631c7077a9539378ee96bfb181507ce3d329eecaee23102c623311b29f",
        "dna/p4": "8f50903e01a154c7b1d6403966e4c5241fe5689b6c956af59997a01c16dbe85d",
    },
    "ms[exchange_topology=hypercube]": {
        "dn/p4": "32fac056714adecc1f923ed822075adb802e58569239cb9bca742d0a5ac31728",
        "dna/p4": "151dae4e79df0dfe6bb264f40f0d794ff848f51fdfb86bfbb9220764cc6c7388",
    },
    "ms-simple": {
        "dn/p1": "827dd32b31ee1ae078fa996d4a58ce6917ff70ab76c88228c540c920cc9d9dce",
        "dna/p1": "8a8bf91912122cbad9c03e7bae9ae53870164dab450f1ef78df6bf32d021af49",
        "dn/p4": "18c7c495a6d928a52cdf6e643966d154e1462b2d903d4623b3621492abd41878",
        "dna/p4": "3cd4621bda5af36ad8d29004da731bb11c431d8c8926427fc9cab02938409cf7",
    },
    "ms-simple[sampling=character]": {
        "dn/p4": "1c77ae0926a5ae4585bcf3ceebdbf1cb9c45a957618c72bca4f0b89e952becb9",
        "dna/p4": "0f1bcef2d13eb7292efb125e45584c0d33dda66adb84cfbafbe5a46223a59483",
    },
    "ms-simple[sample_sort=hquick]": {
        "dn/p4": "b76f7a20c83cba724f40cbe5bbb46c143f41d5fac495c225b9b869922e9da700",
        "dna/p4": "e0f88125e2cf64531d968cf55d8aee06a75969d5486561305decee718e56f038",
    },
    "ms-simple[oversampling=3]": {
        "dn/p4": "f33e39a12bc4641f0235b73ada1bb4e40602bd94995e112bee90fa83222e0af3",
        "dna/p4": "f10df73f7b20242bd8c7e866d271644f28858d0c83cbaa09156208da80e166e0",
    },
    "ms-simple[local_sorter=multikey_quicksort]": {
        "dn/p4": "396c7dacb0187d4032dfa96fd6bbb414c952d6e75c88a18f8cf1c12a695b78d5",
        "dna/p4": "c785963307158d3f01a32c1214b45590d53102351d3220bb222188406646acaf",
    },
    "ms-simple[exchange_topology=hypercube]": {
        "dn/p4": "a0161a50e5ae09b48409e4e648c23571ccac0e67d209b615cfa58b983be04321",
        "dna/p4": "cc1d29039f567039ae2bed0953c5fc57967c32a7930dd36abb0852fd3c04687a",
    },
    "pdms": {
        "dn/p1": "c2939a7664cfa844eb60881a5e4fdea5925661ccf7c75f913497a0d3976c4c48",
        "dna/p1": "8f174dee2eaf8236491f55bf7ebe304b990658e164b5dcb476f5cd9ddd97a131",
        "dn/p4": "eb91c89b40c82992810a41c81cfba3bf8e13f2c51b04a8b087ad53e1cb261484",
        "dna/p4": "6781322de3133051e91f50af6872ab10d8a37d9ceafa5b0385ab0475c3fc3450",
    },
    "pdms[sampling=character]": {
        "dn/p4": "7f594404b4cca45dfe82b7f3052e9cafd656523dae6d7602a690d36443fc432d",
        "dna/p4": "0def625ca25b58d20adfeb249735726be4f8c490da770759e2b0b2f257249ef4",
    },
    "pdms[sample_sort=hquick]": {
        "dn/p4": "39c5272c31db471b72c98f9314aa85102c30af6497cbfeab1d4b9e8b820414fc",
        "dna/p4": "637dd81b21fa89b85862c7a410027e19b93e304f11a68ffb591886bfea862a8b",
    },
    "pdms[oversampling=3]": {
        "dn/p4": "efec47ec282f0b2b2ed02dd843724fddf3c2b399bb884317a6761f2c97de6d8f",
        "dna/p4": "74b2f91e376c1e9376cd4a6f94f7d6ddf0824c5fbe6e6c337e07bb6849ace42f",
    },
    "pdms[local_sorter=multikey_quicksort]": {
        "dn/p4": "3fc1caf8155535f7106a4be58291b1d5f3b473274c3bf30e812307c637b97f10",
        "dna/p4": "51cc0c08cb995ea38e6d8e390aa59631f3fe2e7bd0267152b47a8f9b26f76002",
    },
    "pdms[epsilon=0.5,initial_length=2]": {
        "dn/p4": "348393e8f8f045e98b7b842ee10f3336ed224887822da895430cdacafe25ca00",
        "dna/p4": "41e7f68971575f098e52694c8d2afa7ae51f3ab301fcfcd12f5bb922273d673b",
    },
    "pdms[exchange_topology=hypercube]": {
        "dn/p4": "dfe042d424068f44bf84ef370aa60590dd050982c997759feca383fa51104c32",
        "dna/p4": "64e6dd8ea96f3f728bdd385763d366d2a1bfc5c5ed87569ad8427e3742f5d194",
    },
    "pdms-golomb": {
        "dn/p1": "c2939a7664cfa844eb60881a5e4fdea5925661ccf7c75f913497a0d3976c4c48",
        "dna/p1": "8f174dee2eaf8236491f55bf7ebe304b990658e164b5dcb476f5cd9ddd97a131",
        "dn/p4": "7a8b0ec929757998a45cc0dd42a0552b518b07777127853c16602a59f20d8a4a",
        "dna/p4": "6781322de3133051e91f50af6872ab10d8a37d9ceafa5b0385ab0475c3fc3450",
    },
    "pdms-golomb[sampling=character]": {
        "dn/p4": "bca86b9175bea1e6c4ee38e9ba246f95510b0fef9e8a926aeea2ec554bf182d9",
        "dna/p4": "0def625ca25b58d20adfeb249735726be4f8c490da770759e2b0b2f257249ef4",
    },
    "pdms-golomb[sample_sort=hquick]": {
        "dn/p4": "fc7213d6f31f2d234fa0e87c2fe4bc41156a0f1f7135c6c0db3a8891bc1e47bd",
        "dna/p4": "637dd81b21fa89b85862c7a410027e19b93e304f11a68ffb591886bfea862a8b",
    },
    "pdms-golomb[oversampling=3]": {
        "dn/p4": "b5c30eb0deeb030c441b02690c4875d444d2b49a8ce3b2d2db6b359faad1a554",
        "dna/p4": "74b2f91e376c1e9376cd4a6f94f7d6ddf0824c5fbe6e6c337e07bb6849ace42f",
    },
    "pdms-golomb[local_sorter=multikey_quicksort]": {
        "dn/p4": "120d433f513087eb7de297c5d9a5e57c2fbdbfe7627f0fd02c15ff6ac6d79307",
        "dna/p4": "51cc0c08cb995ea38e6d8e390aa59631f3fe2e7bd0267152b47a8f9b26f76002",
    },
    "pdms-golomb[epsilon=0.5,initial_length=2]": {
        "dn/p4": "558b2af24f6ab315e2c7e2504cc3fdf039845e7ddaa767ef8717df2875c69cff",
        "dna/p4": "2221d2131f05b91b21971e4ed29868186cbc0e19f38adbceb5ac5d471092bd0c",
    },
    "pdms-golomb[exchange_topology=hypercube]": {
        "dn/p4": "7ef299dc8ec394f3a28ff7b006bfd132127e8d9bce490d246a543cd1be679e87",
        "dna/p4": "64e6dd8ea96f3f728bdd385763d366d2a1bfc5c5ed87569ad8427e3742f5d194",
    },
    "hquick": {
        "dn/p1": "3bf51c9b49205ed640099a3806d9030363c99d4058d287435a1200f660e34100",
        "dna/p1": "07401902314b340968dd63e06d1fa23683952853e1d581164d2bb75c5570a5f0",
        "dn/p4": "d28ef29fee6dc13eb4437cf988162383f63d2c1a07b2d583bc8c0dab4c32dbaa",
        "dna/p4": "1de0bfc88b3537e0286dbbb871eb908b0eb0fe7d73740e16ebe55b3a4dd4282e",
    },
    "hquick[local_sorter=multikey_quicksort]": {
        "dn/p4": "d28ef29fee6dc13eb4437cf988162383f63d2c1a07b2d583bc8c0dab4c32dbaa",
        "dna/p4": "1de0bfc88b3537e0286dbbb871eb908b0eb0fe7d73740e16ebe55b3a4dd4282e",
    },
    "hquick[exchange_topology=hypercube]": {
        "dn/p4": "d28ef29fee6dc13eb4437cf988162383f63d2c1a07b2d583bc8c0dab4c32dbaa",
        "dna/p4": "1de0bfc88b3537e0286dbbb871eb908b0eb0fe7d73740e16ebe55b3a4dd4282e",
    },
    "fkmerge": {
        "dn/p1": "ae2797a589688170eefe229750002d1c0dee753f1c98ea6b879623123528fffe",
        "dna/p1": "75d819baec63a146542facdb25a6d6853c4ffa38d838e771ac974393191019aa",
        "dn/p4": "1be03a5656b7a61ec0d2ad45252aac6e37306f7f0125be4811af9075a32f27f8",
        "dna/p4": "e5d8cd3e5f28568b580725bd103c26567849fbde06a9b6dfa0ef71ed6ee8380c",
    },
    "fkmerge[oversampling=3]": {
        "dn/p4": "725f51c34d7bf939847e39872a5b25621d4596fd5aca92351ba469e7e55f22a8",
        "dna/p4": "31bad93b4634ef6434bc61345a3ca2e274b0e5dde4b1b83348447f0526899fab",
    },
    "fkmerge[local_sorter=multikey_quicksort]": {
        "dn/p4": "4426c0ec2f989d68860135c1d635913e9d0ac5141c9c8f6f6036a35a28fd341f",
        "dna/p4": "b13418f1f071806bf491e86c4a5494d3b9f2454924f6a67349d810a8bbee659d",
    },
    "fkmerge[exchange_topology=hypercube]": {
        "dn/p4": "b81459a52d327e542ae209e5be47d12999ef1be745450dece8e77089af1e720e",
        "dna/p4": "22d09ae2863a08e7679a139ff40a3cea2d815fc2e362bc0c529862cb3c487117",
    },
    "auto": {
        "dn/p1": "f52a5033718253fbf28bdca6cb0721245edc43d632ef86b8dd3df4fdd02e5254",
        "dna/p1": "084f8644a0271fa393a868a3d7f56fe575796c4727ad834f392399beaf8f1d25",
        "dn/p4": "06ca08452dcb1e226f829994cc0297a99866332f23be642c5d0d8d25c58e1d76",
        "dna/p4": "ea662d8528dd21f49d9462b676dd0c227741f59c9b0f03ef6c968adf87fca491",
    },
    "auto[sampling=character]": {
        "dn/p4": "2c02a95658069b63600ec8802177eb0489697ee48b7f88edcb565643ef5ac6d8",
        "dna/p4": "0786b74b33c3a7e62d7f9b0a26a0c5d710451f96520d76fae83780fadfe4f2e2",
    },
    "auto[sample_sort=hquick]": {
        "dn/p4": "f30ddb51214053938a1ca9482319b04766e62584d1f8debdf805c17fc98f7a4e",
        "dna/p4": "48e96711584cac3f77f7113a908e332fd97f158de8191a880c2ae59a955a33d0",
    },
    "auto[oversampling=3]": {
        "dn/p4": "c76bd3aa3f6d21dd9dbb44045e18550acd3a931cbf8ed557c5e301f654154692",
        "dna/p4": "d8180aa545b34dfe2c88645e54458f96d4c7a1cc3e4e9597141e07eb2604f57e",
    },
    "auto[local_sorter=multikey_quicksort]": {
        "dn/p4": "394359b629448b318133bda18c2f9a3c1730a1c40dade0a0ec087fd52066af98",
        "dna/p4": "54418a874c3817af700134ad2c6faf6b64596adb2de392ed4d0971e4099224b4",
    },
    "auto[epsilon=0.5,initial_length=2]": {
        "dn/p4": "06ca08452dcb1e226f829994cc0297a99866332f23be642c5d0d8d25c58e1d76",
        "dna/p4": "e0f46f87b99010b6e7bb7a45a124b5cc3d344c954e61c63df3b9c6e445b63311",
    },
    "auto[exchange_topology=hypercube]": {
        "dn/p4": "97aa9721eaaedbfb3c8d48aa201ef334e20f2d69d273897671c1782d69a8972f",
        "dna/p4": "3f4fcc5ff9b47e4f4f155f0a4177ccaa81678b04cfabcaada75b8bf336372be8",
    },
}

#: cases whose wire bytes follow the fingerprint hash -> ``{"<input>/p<p>":
#: digest without wire bytes}``, recorded with the blake2b fingerprints the
#: double Karp–Rabin hash replaced: outputs, LCP arrays, origins, ``extra``
#: (doubling rounds and lengths) and characters inspected must not move
BYTES_FREE = {
    "pdms": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
    "pdms[sampling=character]": {"dn/p4": "046aa3fe08e2a854", "dna/p4": "d02106674126aab6"},
    "pdms[sample_sort=hquick]": {"dn/p4": "1bdc8a4e1abaaddc", "dna/p4": "e4d166222541ba60"},
    "pdms[oversampling=3]": {"dn/p4": "87e07b198bab561f", "dna/p4": "d8ffebb73afc0cb9"},
    "pdms[local_sorter=multikey_quicksort]": {"dn/p4": "3ddb26fab7f09551", "dna/p4": "41f0c647e46b2b9e"},
    "pdms[epsilon=0.5,initial_length=2]": {"dn/p4": "9caf748127d87613", "dna/p4": "28e3881ebeea8aae"},
    "pdms[exchange_topology=hypercube]": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
    "pdms-golomb": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
    "pdms-golomb[sampling=character]": {"dn/p4": "046aa3fe08e2a854", "dna/p4": "d02106674126aab6"},
    "pdms-golomb[sample_sort=hquick]": {"dn/p4": "1bdc8a4e1abaaddc", "dna/p4": "e4d166222541ba60"},
    "pdms-golomb[oversampling=3]": {"dn/p4": "87e07b198bab561f", "dna/p4": "d8ffebb73afc0cb9"},
    "pdms-golomb[local_sorter=multikey_quicksort]": {"dn/p4": "3ddb26fab7f09551", "dna/p4": "41f0c647e46b2b9e"},
    "pdms-golomb[epsilon=0.5,initial_length=2]": {"dn/p4": "9caf748127d87613", "dna/p4": "28e3881ebeea8aae"},
    "pdms-golomb[exchange_topology=hypercube]": {"dn/p4": "49c6c8b2efba349d", "dna/p4": "3698c4c42f8e925b"},
    "auto": {"dna/p4": "756c044ae28bc756"},
    "auto[sampling=character]": {"dna/p4": "a9f85ad89f43f96b"},
    "auto[sample_sort=hquick]": {"dna/p4": "8886a3ac6e1c5e30"},
    "auto[oversampling=3]": {"dna/p4": "1217194e5d39e5ac"},
    "auto[local_sorter=multikey_quicksort]": {"dna/p4": "e0a3079b6b459b82"},
    "auto[epsilon=0.5,initial_length=2]": {"dna/p4": "410a78fb08be506d"},
    "auto[exchange_topology=hypercube]": {"dna/p4": "756c044ae28bc756"},
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

#: the run configurations that were once CI legs of their own, and the two
#: boolean settings
_CONFIG_AXIS = {
    "hypercube": {"exchange_topology": "hypercube"},
    "grid": {"exchange_topology": "grid"},
    "sealed": {"wire_checksums": True},
    "traced": {"trace": True},
}


@functools.lru_cache(maxsize=None)
def _observables(algorithm, engine, leg=None):
    """What no run setting may change: outputs, LCPs, origins, origin bytes."""
    settings = {**_DEFAULT_RUN, **_CONFIG_AXIS.get(leg, {})}
    spec = default_registry().spec_class(algorithm)(seed=3)
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
    *results, origin_bytes = _observables(algorithm, engine, leg)
    *expected, expected_bytes = _observables(algorithm, engine)
    assert results == expected
    seal_bytes = origin_bytes - expected_bytes
    if leg == "sealed":
        # one CRC32 per sealed block; hypercube quicksort ships no blocks
        assert seal_bytes % CHECKSUM_WIRE_BYTES == 0
        assert (seal_bytes > 0) == (algorithm != "hquick")
    else:
        assert seal_bytes == 0

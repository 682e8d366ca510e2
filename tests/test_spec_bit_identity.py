"""Pinned digests of every registered algorithm's full result, per spec knob.

Each case sorts a small D/N and a small DNA input and reduces the result —
outputs, LCP arrays, PDMS origins, ``extra``, total wire bytes and characters
inspected per PE — to one SHA-256.  The digests were recorded before the rank
programs started reading their knobs off the :class:`~repro.session.SortSpec`,
so a knob that stops reaching its rank program, or reaches the wrong one,
changes a digest here.  Both engines must reproduce the same digests.

Every algorithm runs with its default spec on 1 and 4 PEs; every knob below
runs on 4 PEs for each algorithm whose spec has the fields.  The cluster pins
the packed path (the scalar sorters count inspected characters differently),
direct delivery and unsealed blocks, so no ``REPRO_*`` variable can move a
digest.

A second axis runs the six algorithms under the run configurations that
used to be separate CI legs — the scalar path, the split-phase exchange,
and hypercube and grid routing — and holds outputs, LCP arrays, origins and
origin wire bytes to the default configuration's.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import fields

import numpy as np
import pytest

from engine_conformance import PAPER_ALGORITHMS
from repro import Cluster, RunConfig
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


def result_digest(result) -> str:
    """SHA-256 over everything a knob could change in a sort's result."""
    payload = (
        result.outputs_per_pe,
        result.lcps_per_pe,
        result.origins_per_pe,
        result.extra,
        result.report.total_bytes_sent,
        result.report.chars_inspected_per_pe,
    )
    return hashlib.sha256(repr(_plain(payload)).encode()).hexdigest()


def case_digests(algorithm, knobs, pes, engine):
    """``{"<input>/p<p>": digest}`` of one case on ``engine``."""
    spec = default_registry().spec_class(algorithm)(**knobs)
    digests = {}
    for p in pes:
        with Cluster(
            p,
            engine=engine,
            packed=True,
            exchange_topology="direct",
            wire_checksums=False,
        ) as cluster:
            for input_name, make in _INPUTS.items():
                result = cluster.sort(make(), spec)
                digests[f"{input_name}/p{p}"] = result_digest(result)
    return digests


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
        "dn/p4": "81de4df5a23987c36103f71b5d63888517ed888882c1d6e4312a0e6bfbcacbcf",
        "dna/p4": "ef3deb53210215855ed0c696c74e8deacab082c9f79c33ad1050e4beb74791a0",
    },
    "pdms[sampling=character]": {
        "dn/p4": "19efdc0594ad145d30c544775089b7386dda948b75ad35d61fea3e71a29158c7",
        "dna/p4": "6e73ee3c44ec55f2ec8f2866b3998dc0926b069cf0a2e321a33d4308af948c33",
    },
    "pdms[sample_sort=hquick]": {
        "dn/p4": "4da7abbdc9f3c59dbe0ea5105fb23b5205c47cd47148c5d6a468e1a9e5d5a512",
        "dna/p4": "e84afc13782fc5d93973e5c666641a508e7b79df4b6eb4ebe28e7586ab504fb4",
    },
    "pdms[oversampling=3]": {
        "dn/p4": "cbc48910657ee2f3244330458ccd017a916009da539cb5418cb19ce03cdea8b7",
        "dna/p4": "d5df8aeb97d458186d906af0e0923a2ce9cc94918dd1f9879501dc35ada074cf",
    },
    "pdms[local_sorter=multikey_quicksort]": {
        "dn/p4": "133c7a097e751b61a1839a43ee7b8d47aed2b0b4c284f5706dfcc092947bdf79",
        "dna/p4": "165f66347af14ce2199e391eb69b567e0493f44786c1dd1f55e4fece645629ef",
    },
    "pdms[epsilon=0.5,initial_length=2]": {
        "dn/p4": "ab1c8f3f1270ed44e7f64821fe766f296ba43f21ef82af8154981dcb216f7517",
        "dna/p4": "a011e6ccbb65b88510c02e710a3c46da9812ee3e3b00f27ceed2b03281389410",
    },
    "pdms[exchange_topology=hypercube]": {
        "dn/p4": "694787d08e2fe6ab27e6ae230383ad992bf14f015c8de5fd6f181cbfaff943cf",
        "dna/p4": "0daf49beca12f2ad29af8e4b343838003f527775e0c2dd0fe0ef0fb91cd9e1ed",
    },
    "pdms-golomb": {
        "dn/p1": "c2939a7664cfa844eb60881a5e4fdea5925661ccf7c75f913497a0d3976c4c48",
        "dna/p1": "8f174dee2eaf8236491f55bf7ebe304b990658e164b5dcb476f5cd9ddd97a131",
        "dn/p4": "f55f6e5151410c3dd8379a7dea2cdc7f24055e91078100351e8a5a8797d7ed82",
        "dna/p4": "ef3deb53210215855ed0c696c74e8deacab082c9f79c33ad1050e4beb74791a0",
    },
    "pdms-golomb[sampling=character]": {
        "dn/p4": "b7d87769b260151d539c9b4fedc16b1078e1613e810c4bd07304078a4cb9b56a",
        "dna/p4": "6e73ee3c44ec55f2ec8f2866b3998dc0926b069cf0a2e321a33d4308af948c33",
    },
    "pdms-golomb[sample_sort=hquick]": {
        "dn/p4": "ea43bd7acd3d4f920c407a38244f66f2873198bd96af45aa9f87fff410860f1a",
        "dna/p4": "e84afc13782fc5d93973e5c666641a508e7b79df4b6eb4ebe28e7586ab504fb4",
    },
    "pdms-golomb[oversampling=3]": {
        "dn/p4": "c51041b11f26a2d79a12e338ebe6db0df2681a586eeeca369c3bb3898e37a073",
        "dna/p4": "d5df8aeb97d458186d906af0e0923a2ce9cc94918dd1f9879501dc35ada074cf",
    },
    "pdms-golomb[local_sorter=multikey_quicksort]": {
        "dn/p4": "9c2ebbdac17ac70151253ab0b55d1056c750e8e745b489e02fec9601b15eb484",
        "dna/p4": "165f66347af14ce2199e391eb69b567e0493f44786c1dd1f55e4fece645629ef",
    },
    "pdms-golomb[epsilon=0.5,initial_length=2]": {
        "dn/p4": "5a519cd58de3a578263b1ea2938d2fce33b283499e913d0b4e16b3e33875b385",
        "dna/p4": "a011e6ccbb65b88510c02e710a3c46da9812ee3e3b00f27ceed2b03281389410",
    },
    "pdms-golomb[exchange_topology=hypercube]": {
        "dn/p4": "a1340d3def5aff94835dedcecb671a7bed451bda50f9c36755146a35bd06d83a",
        "dna/p4": "0daf49beca12f2ad29af8e4b343838003f527775e0c2dd0fe0ef0fb91cd9e1ed",
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
        "dna/p4": "6d60716f0b9795edae7f56cbb6430fcedf9975088ff47ae0b14d9c1c8e2d5236",
    },
    "auto[sampling=character]": {
        "dn/p4": "2c02a95658069b63600ec8802177eb0489697ee48b7f88edcb565643ef5ac6d8",
        "dna/p4": "2af283c10514c924ceab05b2a89ec4f8fee4853f8b1b61de1152e62518263fc8",
    },
    "auto[sample_sort=hquick]": {
        "dn/p4": "f30ddb51214053938a1ca9482319b04766e62584d1f8debdf805c17fc98f7a4e",
        "dna/p4": "98732e3697d2adc7d1aa6e1680b354ce9290e77bd0adac7369f45f471dbe9f68",
    },
    "auto[oversampling=3]": {
        "dn/p4": "c76bd3aa3f6d21dd9dbb44045e18550acd3a931cbf8ed557c5e301f654154692",
        "dna/p4": "c220fa6c417f042a49d411c7b41a8f037f3cdbbe3f7e259d9021ae23e85d153f",
    },
    "auto[local_sorter=multikey_quicksort]": {
        "dn/p4": "394359b629448b318133bda18c2f9a3c1730a1c40dade0a0ec087fd52066af98",
        "dna/p4": "81951c1a8fd56ba64afb791a25376b28b1a0f323664dbc55adcdf06f5befc2be",
    },
    "auto[epsilon=0.5,initial_length=2]": {
        "dn/p4": "06ca08452dcb1e226f829994cc0297a99866332f23be642c5d0d8d25c58e1d76",
        "dna/p4": "48fb7e79369527a715fd47369740c99486045ba1e57463c1cc7a1950ce2e893a",
    },
    "auto[exchange_topology=hypercube]": {
        "dn/p4": "97aa9721eaaedbfb3c8d48aa201ef334e20f2d69d273897671c1782d69a8972f",
        "dna/p4": "4b9f6128cbe94b08e041f2014cb622f7250d586f38cf41d9487a390e3cd9449a",
    },
}

_CASES = list(_cases())


@pytest.mark.parametrize(
    "case, algorithm, knobs, pes", _CASES, ids=[c[0] for c in _CASES]
)
def test_result_digest_is_pinned(engine, case, algorithm, knobs, pes):
    assert case_digests(algorithm, knobs, pes, engine) == EXPECTED[case]


#: every run setting at its default, except the engine (the test's axis)
_DEFAULT_RUN = {f.name: f.default for f in fields(RunConfig) if f.name != "engine"}

#: the run configurations that were once CI legs of their own
_CONFIG_AXIS = {
    "packed-off": {"packed": False},
    "async-on": {"async_exchange": True},
    "hypercube": {"exchange_topology": "hypercube"},
    "grid": {"exchange_topology": "grid"},
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
    assert _observables(algorithm, engine, leg) == _observables(algorithm, engine)

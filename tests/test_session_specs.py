"""Spec serialization contract: round-trips, stable hashes, helpful errors."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.session import (
    SPECS,
    AutoSpec,
    FKMergeSpec,
    HQuickSpec,
    MSSimpleSpec,
    MSSpec,
    PDMSGolombSpec,
    PDMSSpec,
    SortSpec,
    spec_class,
)

ALL_SPEC_CLASSES = [
    HQuickSpec,
    FKMergeSpec,
    MSSpec,
    MSSimpleSpec,
    PDMSSpec,
    PDMSGolombSpec,
    AutoSpec,
]

NON_DEFAULT = {
    HQuickSpec: dict(local_sorter="timsort", seed=3),
    FKMergeSpec: dict(oversampling=4, distribute_by="chars"),
    MSSpec: dict(sampling="character", sample_sort="hquick"),
    MSSimpleSpec: dict(oversampling=2, local_sorter="multikey_quicksort"),
    PDMSSpec: dict(epsilon=0.5, initial_length=8),
    PDMSGolombSpec: dict(epsilon=3.0, sampling="character"),
    AutoSpec: dict(seed=11, initial_length=4),
}


class TestRoundTrip:
    @pytest.mark.parametrize("spec_cls", ALL_SPEC_CLASSES)
    def test_default_round_trips(self, spec_cls):
        spec = spec_cls()
        assert SortSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec_cls", ALL_SPEC_CLASSES)
    def test_non_default_round_trips(self, spec_cls):
        spec = spec_cls(**NON_DEFAULT[spec_cls])
        clone = SortSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.config_hash() == spec.config_hash()

    def test_to_dict_is_json_ready(self):
        payload = json.dumps(PDMSGolombSpec(epsilon=0.25).to_dict())
        assert SortSpec.from_dict(json.loads(payload)) == PDMSGolombSpec(epsilon=0.25)

    def test_specs_table_agrees_with_algorithm_attribute(self):
        for spec_cls in ALL_SPEC_CLASSES:
            assert spec_class(spec_cls.algorithm) is spec_cls


class TestConfigHash:
    def test_pinned_value(self):
        """The hash must be stable across processes and releases.

        This pin is the cross-process guarantee: a checkpoint written by one
        run must be found by the next.  If it ever changes, existing keyed
        artifacts (benchmark cells, checkpoints) silently orphan — only
        change it knowingly.  Changed knowingly in PR 5: every spec gained
        the ``exchange_topology`` field, which participates in the hash so
        routed-delivery cells never alias direct-delivery checkpoints.
        """
        assert MSSpec().config_hash() == "de27335cc4bf64f4"
        assert PDMSGolombSpec(epsilon=0.5).config_hash() == "2728ca969e3b82d1"

    def test_stable_in_a_fresh_process(self):
        code = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.session import MSSpec;"
            "print(MSSpec().config_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == MSSpec().config_hash()

    def test_insensitive_to_dict_key_order(self):
        d = PDMSSpec(epsilon=0.5).to_dict()
        shuffled = dict(reversed(list(d.items())))
        assert SortSpec.from_dict(shuffled).config_hash() == PDMSSpec(
            epsilon=0.5
        ).config_hash()

    def test_distinguishes_configurations(self):
        hashes = {cls().config_hash() for cls in ALL_SPEC_CLASSES}
        assert len(hashes) == len(ALL_SPEC_CLASSES)
        assert MSSpec().config_hash() != MSSpec(sampling="character").config_hash()

    def test_exchange_topology_participates_in_hash(self):
        """Routed-delivery cells must never alias direct-delivery cells."""
        inherit = MSSpec()
        assert (
            inherit.config_hash()
            != MSSpec(exchange_topology="hypercube").config_hash()
        )
        assert (
            MSSpec(exchange_topology="hypercube").config_hash()
            != MSSpec(exchange_topology="grid").config_hash()
        )
        roundtrip = MSSpec.from_dict(MSSpec(exchange_topology="grid").to_dict())
        assert roundtrip.exchange_topology == "grid"


@dataclasses.dataclass(frozen=True)
class MineSpec(MSSpec):
    """A subclass that keeps its parent's algorithm name."""


class TestFromDict:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_sort_spec_looks_the_name_up_in_specs(self, name):
        assert type(SortSpec.from_dict({"algorithm": name})) is SPECS[name]

    def test_a_subclass_rebuilds_itself(self):
        spec = MineSpec(sampling="character", seed=5)
        clone = MineSpec.from_dict(spec.to_dict())
        assert type(clone) is MineSpec
        assert clone == spec

    def test_a_subclass_refuses_another_algorithm(self):
        with pytest.raises(ValueError, match="MSSpec configures 'ms', not 'pdms'"):
            MSSpec.from_dict(PDMSSpec().to_dict())
        with pytest.raises(ValueError, match="not 'ms-simple'"):
            MineSpec.from_dict(MSSimpleSpec().to_dict())

    def test_an_unknown_name_gets_the_nearest_match(self):
        with pytest.raises(ValueError, match="did you mean 'ms-simple'"):
            SortSpec.from_dict({"algorithm": "ms-simpel"})


class TestValidation:
    def test_unknown_key_suggests_nearest_match(self):
        with pytest.raises(ValueError, match="sampling"):
            SortSpec.from_dict({"algorithm": "ms", "sampilng": "character"})

    def test_unknown_algorithm_suggests_nearest_match(self):
        with pytest.raises(ValueError, match="pdms"):
            SortSpec.from_dict({"algorithm": "pdsm"})

    def test_missing_algorithm_key(self):
        with pytest.raises(ValueError, match="algorithm"):
            SortSpec.from_dict({"sampling": "character"})

    def test_bad_field_values_rejected_at_construction(self):
        with pytest.raises(ValueError, match="sampling"):
            MSSpec(sampling="chars")
        with pytest.raises(ValueError, match="distribute_by"):
            MSSpec(distribute_by="characters")
        with pytest.raises(ValueError, match="epsilon"):
            PDMSSpec(epsilon=0.0)
        with pytest.raises(ValueError, match="initial_length"):
            PDMSSpec(initial_length=0)
        with pytest.raises(ValueError, match="local_sorter"):
            HQuickSpec(local_sorter="quicksort")
        with pytest.raises(ValueError, match="oversampling"):
            FKMergeSpec(oversampling=0)
        with pytest.raises(ValueError, match="exchange_topology"):
            MSSpec(exchange_topology="hypercubes")

    def test_specs_are_frozen(self):
        spec = MSSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sampling = "character"

    def test_replace_returns_validated_copy(self):
        spec = PDMSSpec()
        other = dataclasses.replace(spec, epsilon=2.0)
        assert other.epsilon == 2.0 and spec.epsilon == 1.0
        assert other.config_hash() != spec.config_hash()
        with pytest.raises(ValueError):
            dataclasses.replace(spec, epsilon=-1.0)


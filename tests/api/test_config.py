"""MappingConfig validation, round-trips, and the canonical fingerprint."""

import pytest

from repro.api import (IndexFingerprint, Mapper, MappingConfig,
                       MappingConfigError)
from repro.core import GenPairConfig
from repro.index import build_index, save_index


class TestValidation:
    def test_defaults_are_valid(self):
        config = MappingConfig()
        assert config.validate() is config

    @pytest.mark.parametrize("field,value", [
        ("seed_length", 0), ("seed_length", "50"),
        ("delta", 0), ("batch_size", -1), ("batch_size", 0),
        ("filter_threshold", 0),
        ("engine", 7), ("output_format", None),
        ("full_fallback", "false"), ("full_fallback", 0),
        ("verify_index", 1), ("verify_index", None),
    ])
    def test_bad_values_rejected_by_name(self, field, value):
        with pytest.raises(MappingConfigError) as excinfo:
            MappingConfig(**{field: value})
        assert field in str(excinfo.value)

    def test_batch_size_zero_says_the_engine_is_gone(self):
        # 0 used to select the pair-by-pair engine: the rejection says
        # what replaced it, on construction and on the wire path.
        for build in (lambda: MappingConfig(batch_size=0),
                      lambda: MappingConfig.from_dict({"batch_size": 0})):
            with pytest.raises(MappingConfigError) as excinfo:
                build()
            message = str(excinfo.value)
            assert "batch_size" in message and "pair-by-pair" in message
            assert "1 gives the same output" in message

    def test_string_flag_from_the_wire_rejected(self):
        # "false" is truthy: accepted, it would leave the fallback on.
        with pytest.raises(MappingConfigError) as excinfo:
            MappingConfig.from_dict({"full_fallback": "false"})
        assert str(excinfo.value) == ("invalid MappingConfig: "
                                      "full_fallback must be a bool, "
                                      "got 'false'")

    def test_inflight_is_not_a_field(self):
        with pytest.raises(MappingConfigError, match="inflight"):
            MappingConfig.from_dict({"inflight": 4})

    def test_multiple_problems_all_reported(self):
        with pytest.raises(MappingConfigError) as excinfo:
            MappingConfig(batch_size=0, delta=-5)
        message = str(excinfo.value)
        assert "batch_size" in message and "delta" in message

    def test_filter_threshold_none_is_valid(self):
        assert MappingConfig(filter_threshold=None).filter_threshold \
            is None

    def test_replace_revalidates(self):
        config = MappingConfig()
        with pytest.raises(MappingConfigError):
            config.replace(batch_size=-1)
        assert config.replace(batch_size=3).batch_size == 3


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        config = MappingConfig(delta=321, batch_size=64,
                               output_format="paf",
                               filter_threshold=None)
        assert MappingConfig.from_dict(config.to_dict()) == config

    def test_default_wire_form_has_8_keys(self):
        payload = MappingConfig().to_dict()
        assert list(payload) == [
            "seed_length", "filter_threshold", "delta", "engine",
            "output_format", "batch_size", "full_fallback",
            "verify_index"]
        assert MappingConfig.from_dict(payload) == MappingConfig()

    @pytest.mark.parametrize("stale", ["filter_chain", "aligner",
                                       "workers", "step"])
    def test_removed_stage_knobs_rejected_by_name(self, stale):
        payload = MappingConfig().to_dict()
        payload[stale] = "none"
        with pytest.raises(MappingConfigError) as excinfo:
            MappingConfig.from_dict(payload)
        assert str(excinfo.value) \
            == f"unknown MappingConfig field(s): {stale}"

    def test_from_dict_rejects_unknown_fields(self):
        payload = MappingConfig().to_dict()
        payload["turbo"] = True
        with pytest.raises(MappingConfigError) as excinfo:
            MappingConfig.from_dict(payload)
        assert "turbo" in str(excinfo.value)

    def test_genpair_projection_carries_every_shared_field(self):
        config = MappingConfig(seed_length=32, filter_threshold=None,
                               delta=77)
        assert config.genpair() == GenPairConfig(
            seed_length=32, filter_threshold=None, delta=77)
        # The facade and the core agree on the defaults of what it sets.
        assert MappingConfig().genpair() == GenPairConfig()


class TestFingerprint:
    def test_config_and_index_agree(self, plain_reference):
        config = MappingConfig(seed_length=32, filter_threshold=None)
        index = build_index(plain_reference,
                            seed_length=config.seed_length,
                            filter_threshold=config.filter_threshold)
        assert index.fingerprint == config.fingerprint()

    def test_conflicts_name_each_field(self):
        fingerprint = IndexFingerprint(seed_length=50,
                                       filter_threshold=500)
        assert fingerprint.conflicts(IndexFingerprint(32, None)) == [
            "seed_length 50, expected 32",
            "filter_threshold 500, expected None"]
        assert fingerprint.conflicts(IndexFingerprint(50, 500)) == []

    def test_unfiltered_none_is_a_meaningful_expectation(self):
        fingerprint = IndexFingerprint(seed_length=50,
                                       filter_threshold=None)
        assert fingerprint.conflicts(IndexFingerprint(50, None)) == []
        assert fingerprint.conflicts(IndexFingerprint(50, 500)) != []


class TestIndexRoundTrip:
    """config -> fingerprint -> index build -> Mapper.from_index."""

    @pytest.fixture(scope="class")
    def index_path(self, tmp_path_factory, plain_index):
        path = tmp_path_factory.mktemp("cfg") / "roundtrip.rpix"
        save_index(path, plain_index)
        return path

    def test_from_index_adopts_the_fingerprint(self, index_path,
                                               plain_index):
        with Mapper.from_index(index_path, full_fallback=False) \
                as mapper:
            assert mapper.config.fingerprint() == plain_index.fingerprint
            assert mapper.index.path == str(index_path)
            assert mapper.index.fingerprint \
                == mapper.config.fingerprint()

    def test_mismatched_config_rejected_loudly(self, index_path):
        stale = MappingConfig(seed_length=32, full_fallback=False)
        with pytest.raises(MappingConfigError) as excinfo:
            Mapper.from_index(index_path, config=stale)
        message = str(excinfo.value)
        assert "seed_length 50, expected 32" in message
        assert str(index_path) in message

    def test_mismatched_override_expectation_rejected(self, index_path):
        with pytest.raises(MappingConfigError) as excinfo:
            Mapper.from_index(index_path, filter_threshold=123,
                              full_fallback=False)
        assert "filter_threshold 500, expected 123" \
            in str(excinfo.value)

    def test_matching_override_expectation_accepted(self, index_path,
                                                    plain_seedmap):
        with Mapper.from_index(
                index_path,
                filter_threshold=plain_seedmap.filter_threshold,
                full_fallback=False) as mapper:
            assert mapper.config.filter_threshold \
                == plain_seedmap.filter_threshold

    @pytest.mark.parametrize("build", ["config", "from_reference",
                                       "from_index"])
    def test_workers_is_not_an_option(self, build, index_path,
                                      small_reference):
        # Mapping runs in one process: no construction path sizes a pool.
        with pytest.raises(TypeError, match="workers"):
            if build == "config":
                MappingConfig(workers=2)
            elif build == "from_reference":
                Mapper.from_reference(small_reference, workers=2)
            else:
                Mapper.from_index(index_path, workers=2)

    def test_config_and_overrides_are_exclusive(self, index_path):
        with pytest.raises(MappingConfigError):
            Mapper.from_index(index_path, config=MappingConfig(),
                              batch_size=64)

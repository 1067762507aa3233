"""The two selectable tables: names, errors, and the entry contracts."""

import dataclasses
import importlib

import pytest

import repro.api
from repro.api import (ENGINES, OUTPUT_FORMATS, Engine, Mapper,
                       MappingConfig, RegistryError, output_format)
from repro.api.registry import engine_class
from repro.genome import ResultLineWriter


class TestLookup:
    @pytest.mark.parametrize("lookup,table,kind", [
        (engine_class, ENGINES, "engine"),
        (output_format, OUTPUT_FORMATS, "output format")])
    def test_unknown_name_error_lists_every_entry(self, lookup, table,
                                                  kind):
        with pytest.raises(RegistryError) as excinfo:
            lookup("does-not-exist")
        assert str(excinfo.value) == (
            f"unknown {kind} 'does-not-exist'; available: "
            f"{', '.join(sorted(table))}")

    def test_engine_keys_are_the_class_names(self):
        assert {name: cls.name for name, cls in ENGINES.items()} \
            == {name: name for name in ENGINES}

    @pytest.mark.parametrize("overrides,listed", [
        ({"engine": "bowtie"}, "genpair, longread, mm2"),
        ({"output_format": "bam"}, "jsonl, paf, sam")])
    def test_mapper_rejects_unknown_names_before_building(
            self, small_reference, overrides, listed):
        with pytest.raises(RegistryError, match=listed):
            Mapper.from_reference(small_reference, full_fallback=False,
                                  **overrides)


class TestEntryContracts:
    """What the deleted RPL301/RPL302 lint checks guaranteed."""

    @pytest.fixture(scope="class")
    def facade(self, small_reference, seedmap):
        with Mapper(small_reference, seedmap,
                    config=MappingConfig(full_fallback=False)) as mapper:
            yield mapper

    @pytest.mark.parametrize("name", sorted(ENGINES))
    @pytest.mark.parametrize("method", ["begin_run", "map_stream",
                                        "run_stats", "fresh_stats"])
    def test_engines_override_the_abstract_protocol(self, name, method,
                                                    facade):
        """No engine leaves a protocol method unanswered.  The four
        have one definition, on :class:`Engine`, over what a subclass
        declares — its ``stats_type``, its ``core`` and its chunk call
        — so each is run on a real engine, overridden or not."""
        cls = ENGINES[name]
        assert issubclass(cls, Engine)
        engine = facade.engine(name)
        zeroed = cls.stats_type()
        if method == "map_stream":
            assert list(engine.map_stream([])) == []
        elif method == "fresh_stats":
            assert engine.fresh_stats() == zeroed
            assert engine.fresh_stats() is not engine.fresh_stats()
        else:
            engine.core.stats = None
            engine.begin_run()
            assert engine.run_stats() == zeroed
            assert engine.run_stats() is engine.core.stats

    @pytest.mark.parametrize("name", sorted(OUTPUT_FORMATS))
    def test_formats_carry_header_records_and_writer(self, name,
                                                     tmp_path):
        fmt = OUTPUT_FORMATS[name]
        assert fmt.name == name and fmt.suffix == f".{name}"
        assert isinstance(fmt.header_lines(None), list)
        assert list(fmt.record_lines((), None)) == []
        path = tmp_path / f"empty{fmt.suffix}"
        with fmt.open(path, None) as writer:
            assert isinstance(writer, ResultLineWriter)
            assert writer.drain(()) == 0
        # One definition: the file is the wire lines joined by newlines.
        assert path.read_text() == "".join(
            line + "\n" for line in fmt.lines((), None))

    def test_every_options_field_names_an_engine(self):
        # None is left: no config field is a per-engine sub-config, so
        # no value can be set for an engine that will not read it.
        fields = dataclasses.fields(MappingConfig)
        assert not {spec.name for spec in fields} & set(ENGINES)
        assert not [spec.name for spec in fields
                    if "Options" in str(spec.type)]


class TestPluginSystemIsGone:
    @pytest.mark.parametrize("module", ["repro.filters.stages",
                                        "repro.align.stages",
                                        "repro.lint.registry_contract"])
    def test_adapter_modules_cannot_be_imported(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize("name", ["FILTER_CHAINS", "ALIGNERS",
                                      "StageRegistry"])
    def test_names_left_the_public_api(self, name):
        assert name not in repro.api.__all__
        with pytest.raises(ImportError):
            exec(f"from repro.api import {name}")

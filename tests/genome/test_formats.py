"""Output-format substrate: MappingResult, PAF and JSONL writers."""

import json

import numpy as np
import pytest

from repro.genome import (AlignmentRecord, Cigar, JsonlWriter,
                          MappingResult, PafWriter, encode,
                          jsonl_record_lines, paf_line,
                          paf_record_lines, result_records,
                          sam_record_lines)
from repro.genome.paf import paf_header_lines


def make_record(name="r1", position=100, strand="+", mapped=True,
                cigar="10=", seq="ACGTACGTAC", mate=0):
    return AlignmentRecord(query_name=name, chromosome="chr1",
                           position=position, strand=strand, mapq=60,
                           cigar=Cigar.parse(cigar), score=20,
                           read_codes=encode(seq), mate=mate,
                           mapped=mapped)


class TestMappingResult:
    def test_records_accessors(self):
        record1, record2 = make_record(mate=1), make_record(mate=2)
        result = MappingResult(name="p", records=(record1, record2),
                               engine="mm2", stage="proper_pair")
        assert result.record1 is record1
        assert result.record2 is record2
        assert result.mapped

    def test_single_record_result(self):
        record = make_record()
        result = MappingResult(name="r", records=(record,),
                               engine="longread", stage="mapped")
        assert result.record2 is None
        assert result_records(result) == (record,)

    def test_unmapped_when_all_records_unmapped(self):
        result = MappingResult(
            name="p", records=(make_record(mapped=False),
                               make_record(mapped=False)))
        assert not result.mapped

    def test_result_records_accepts_bare_record(self):
        record = make_record()
        assert result_records(record) == (record,)

    def test_result_records_rejects_garbage(self):
        with pytest.raises(TypeError):
            result_records("not a result")

    def test_sam_record_lines_accept_any_shape(self):
        record = make_record()
        paired = MappingResult(name="p", records=(record, record))
        single = MappingResult(name="s", records=(record,))
        lines = list(sam_record_lines([paired, single, record]))
        assert len(lines) == 4
        assert all(line == record.to_sam_line() for line in lines)


class TestPaf:
    def test_mapped_record_columns(self, small_reference):
        record = make_record(position=1000, cigar="10=")
        line = paf_line(record, small_reference)
        fields = line.split("\t")
        assert fields[0] == "r1"
        assert fields[1] == "10"           # query length
        assert (fields[2], fields[3]) == ("0", "10")
        assert fields[4] == "+"
        assert fields[5] == "chr1"
        assert int(fields[6]) == small_reference.length("chr1")
        assert (fields[7], fields[8]) == ("1000", "1010")
        assert fields[9] == "10"           # residue matches
        assert fields[10] == "10"          # alignment block length
        assert fields[11] == "60"
        assert "cg:Z:10=" in fields

    def test_matches_exclude_mismatch_ops(self):
        # 4= + 5= are matches; 1X is block-only.
        record = make_record(cigar="4=1X5=")
        fields = paf_line(record).split("\t")
        assert fields[9] == "9"

    def test_clips_shift_query_interval(self):
        record = make_record(cigar="2S6=2S")
        fields = paf_line(record).split("\t")
        assert (fields[2], fields[3]) == ("2", "8")

    def test_minus_strand_mirrors_clips_onto_original_read(self):
        # The CIGAR is in RC-read orientation for '-' placements; PAF
        # query coordinates are on the original strand, so a leading
        # 3bp clip in RC orientation is a trailing clip originally.
        record = make_record(strand="-", cigar="3S7=")
        fields = paf_line(record).split("\t")
        assert (fields[2], fields[3]) == ("0", "7")
        record = make_record(strand="-", cigar="7=3S")
        fields = paf_line(record).split("\t")
        assert (fields[2], fields[3]) == ("3", "10")

    def test_unmapped_record_renders_nothing(self):
        assert paf_line(make_record(mapped=False)) is None
        result = MappingResult(name="p",
                               records=(make_record(mapped=False),))
        assert list(paf_record_lines([result])) == []

    def test_no_header(self):
        assert paf_header_lines() == []

    def test_writer_output_is_rendered_lines(self, tmp_path,
                                             small_reference):
        results = [MappingResult(name="p",
                                 records=(make_record(mate=1),
                                          make_record(mapped=False,
                                                      mate=2)))]
        path = tmp_path / "out.paf"
        with PafWriter(path, reference=small_reference) as writer:
            writer.drain(results)
            assert writer.count == 1  # unmapped mate skipped
        expected = "".join(
            line + "\n"
            for line in paf_record_lines(results, small_reference))
        assert path.read_text() == expected


class TestJsonl:
    def test_round_trips_through_json(self):
        result = MappingResult(name="p",
                               records=(make_record(mate=1),),
                               engine="genpair", stage="light")
        (line,) = jsonl_record_lines([result])
        payload = json.loads(line)
        assert payload["name"] == "r1"
        assert payload["engine"] == "genpair"
        assert payload["stage"] == "light"
        assert payload["chrom"] == "chr1"
        assert payload["pos"] == 100

    def test_unmapped_records_emitted_with_null_placement(self):
        result = MappingResult(name="p",
                               records=(make_record(mapped=False),))
        (line,) = jsonl_record_lines([result])
        payload = json.loads(line)
        assert payload["mapped"] is False
        assert payload["chrom"] is None
        assert payload["pos"] is None
        assert payload["cigar"] is None

    def test_writer_output_is_rendered_lines(self, tmp_path):
        results = [MappingResult(name="p",
                                 records=(make_record(mate=1),
                                          make_record(mate=2)))]
        path = tmp_path / "out.jsonl"
        with JsonlWriter(path) as writer:
            writer.drain(results)
            assert writer.count == 2
        expected = "".join(line + "\n"
                           for line in jsonl_record_lines(results))
        assert path.read_text() == expected

    def test_deterministic_rendering(self):
        result = MappingResult(name="p", records=(make_record(),))
        assert list(jsonl_record_lines([result])) \
            == list(jsonl_record_lines([result]))


class TestThreeEnginesThreeFormats:
    """Every mapping core returns :class:`MappingResult`; every format
    reads it through ``.records`` and nothing else.  File output, wire
    lines and a by-hand walk over ``result.records`` are the same
    bytes, for each engine in each format."""

    @pytest.fixture(scope="class")
    def results(self, small_reference, seedmap, sample_pairs, simulator):
        from repro.core import GenPairPipeline, LongReadMapper
        from repro.genome import random_sequence
        from repro.mapper import Mm2LikeMapper

        rng = np.random.default_rng(5)
        pairs = [(pair.read1.codes, pair.read2.codes, pair.name)
                 for pair in sample_pairs[:40]]
        pairs.append((random_sequence(rng, 150), random_sequence(rng, 150),
                      "junk"))
        mm2 = Mm2LikeMapper(small_reference)
        genpair = GenPairPipeline(
            small_reference, seedmap=seedmap,
            fallback=Mm2LikeMapper(small_reference, index=mm2.index))
        reads = [(read.codes, read.name)
                 for read in simulator.simulate_long_reads(
                     3, length_mean=1200, length_sd=150)]
        reads.append((random_sequence(rng, 900), "junk"))
        by_engine = {
            "genpair": genpair.map_pairs(pairs),
            "mm2": mm2.map_pairs(pairs),
            "longread": LongReadMapper(small_reference,
                                       seedmap=seedmap).map_reads(reads)}
        assert {result.stage for result in by_engine["genpair"]} \
            >= {"light", "full_dp", "unmapped"}
        for engine, results in by_engine.items():
            assert all(type(result) is MappingResult
                       and result.engine == engine for result in results)
            assert any(result.mapped for result in results)
            assert not results[-1].mapped
        return by_engine

    @pytest.mark.parametrize("engine", ["genpair", "mm2", "longread"])
    def test_file_wire_and_records_walk_agree(self, results, engine,
                                              small_reference, tmp_path):
        from repro.genome import SamWriter
        from repro.genome.jsonl import record_payload

        mapped = results[engine]
        walks = {
            "sam": [record.to_sam_line() for result in mapped
                    for record in result.records],
            "paf": [paf_line(record, small_reference) for result in mapped
                    for record in result.records if record.mapped],
            "jsonl": [json.dumps(record_payload(record, result),
                                 separators=(",", ":"))
                      for result in mapped for record in result.records]}
        formats = {"sam": (SamWriter, sam_record_lines),
                   "paf": (PafWriter, paf_record_lines),
                   "jsonl": (JsonlWriter, jsonl_record_lines)}
        for name, (writer_type, record_lines) in formats.items():
            wire = list(record_lines(mapped, small_reference))
            assert wire == walks[name]
            path = tmp_path / f"{engine}.{name}"
            with writer_type(path, small_reference) as writer:
                header = writer.header_lines()
                assert writer.drain(mapped) == len(mapped)
                assert writer.count == len(wire)
            assert path.read_text() == "".join(line + "\n"
                                               for line in header + wire)

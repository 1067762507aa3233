"""Tests for the persistent memory-mapped SeedMap index."""

import hashlib

import numpy as np
import pytest

from repro.core import GenPairPipeline, SeedMap
from repro.genome import generate_reference
from repro.genome.reference import RepeatProfile
from repro.index import (FORMAT_VERSION, MAGIC, IndexFormatError,
                         MappingIndex, inspect_index, open_index,
                         save_index)
from repro.index.format import PREAMBLE_BYTES


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_reference, seedmap):
    path = tmp_path_factory.mktemp("index") / "small.rpix"
    save_index(path, seedmap, small_reference)
    return path


class TestRoundTrip:
    def test_tables_and_reference_identical(self, index_path,
                                            small_reference, seedmap):
        index = open_index(index_path)
        assert index.seed_length == seedmap.seed_length
        assert index.filter_threshold == seedmap.filter_threshold
        assert index.step == seedmap.step
        assert index.stats == seedmap.stats
        for name, array in seedmap.table_arrays().items():
            assert np.array_equal(index.seedmap.table_arrays()[name],
                                  array), name
        assert index.reference.names == small_reference.names
        for name in small_reference.names:
            assert np.array_equal(
                index.reference.chromosomes[name],
                small_reference.chromosomes[name])

    def test_load_is_memory_mapped(self, index_path):
        index = open_index(index_path)
        assert isinstance(index.seedmap.location_table, np.memmap)
        # Chromosome views cut from the mapped linear codes share the
        # single underlying buffer — no per-open copy of the reference.
        base = index.reference.chromosomes[index.reference.names[0]]
        while not isinstance(base, np.memmap) and base.base is not None:
            base = base.base
        assert isinstance(base, np.memmap)

    def test_in_memory_mode(self, index_path, seedmap):
        index = open_index(index_path, mmap=False)
        assert not isinstance(index.seedmap.location_table, np.memmap)
        assert np.array_equal(index.seedmap.location_table,
                              seedmap.location_table)

    def test_map_pairs_bit_identical(self, index_path, small_reference,
                                     seedmap, sample_pairs,
                                     result_signature):
        index = open_index(index_path)
        built = GenPairPipeline(small_reference, seedmap=seedmap)
        loaded = GenPairPipeline(index.reference, seedmap=index.seedmap)
        expected = built.map_pairs(sample_pairs)
        actual = loaded.map_pairs(sample_pairs)
        assert ([result_signature(r) for r in expected]
                == [result_signature(r) for r in actual])
        assert built.stats == loaded.stats

    def test_query_through_mmap(self, index_path, seedmap):
        index = open_index(index_path)
        for seed_hash, start, end in list(seedmap.iter_ranges())[:50]:
            assert np.array_equal(index.seedmap.query(seed_hash),
                                  seedmap.query(seed_hash))
            assert index.seedmap.location_count(seed_hash) == end - start

    def test_mapping_index_open_classmethod(self, index_path):
        index = MappingIndex.open(index_path, verify=False)
        assert index.format_version == FORMAT_VERSION

    def test_save_returns_file_size(self, tmp_path, small_reference,
                                    seedmap):
        path = tmp_path / "sized.rpix"
        written = save_index(path, seedmap, small_reference)
        assert written == path.stat().st_size


class TestEdgeConfigurations:
    def test_unfiltered_round_trip(self, tmp_path):
        genome = generate_reference(np.random.default_rng(3), (2_000,))
        seedmap = SeedMap.build(genome, filter_threshold=None)
        path = tmp_path / "nofilter.rpix"
        save_index(path, seedmap, genome)
        index = open_index(path, expect_filter_threshold=None)
        assert index.filter_threshold is None
        assert index.stats == seedmap.stats

    def test_tiny_genome_with_empty_tables(self, tmp_path):
        genome = generate_reference(np.random.default_rng(4), (20,),
                                    repeats=None)
        seedmap = SeedMap.build(genome)  # shorter than one seed
        path = tmp_path / "tiny.rpix"
        save_index(path, seedmap, genome)
        index = open_index(path)
        assert index.seedmap.location_table.size == 0
        assert index.reference.total_length == 20
        assert index.seedmap.query(123).size == 0

    def test_step_recorded(self, tmp_path):
        genome = generate_reference(np.random.default_rng(5), (3_000,),
                                    repeats=None)
        seedmap = SeedMap.build(genome, step=5)
        path = tmp_path / "step.rpix"
        save_index(path, seedmap, genome)
        assert open_index(path).step == 5


class TestFileBytesPinned:
    """The format is version 1 byte for byte: sizes and digests of the
    files the commit before ``PositionTable`` wrote (PR 23) for the
    reference of ``perf.inputs.giab_dataset`` — rebuilt here from its
    seed, so ``tests/`` does not import the benchmark."""

    @pytest.fixture(scope="class")
    def giab_reference(self):
        return generate_reference(np.random.default_rng(101),
                                  (160_000, 80_000),
                                  repeats=RepeatProfile.human_like())

    @pytest.mark.parametrize("filter_threshold, size, digest", [
        (500, 6_396_288, "df7ffaffa6471a7d"),
        (3, 5_917_888, "b830bcd24a77cc9c"),
        (None, 6_396_288, "b6d5ce21a0dcaf90"),
    ])
    def test_save_index_bytes(self, tmp_path, giab_reference,
                              filter_threshold, size, digest):
        path = tmp_path / "giab.rpix"
        built = SeedMap.build(giab_reference,
                              filter_threshold=filter_threshold)
        assert save_index(path, built, giab_reference) == size
        assert FORMAT_VERSION == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


class TestRejection:
    def _copy_with_flip(self, index_path, tmp_path, offset):
        raw = bytearray(index_path.read_bytes())
        raw[offset] ^= 0xFF
        bad = tmp_path / "bad.rpix"
        bad.write_bytes(bytes(raw))
        return bad

    def test_bad_magic(self, index_path, tmp_path):
        bad = self._copy_with_flip(index_path, tmp_path, 0)
        with pytest.raises(IndexFormatError, match="magic"):
            open_index(bad)

    def test_corrupted_header(self, index_path, tmp_path):
        bad = self._copy_with_flip(index_path, tmp_path,
                                   PREAMBLE_BYTES + 10)
        with pytest.raises(IndexFormatError, match="header checksum"):
            open_index(bad)

    def test_corrupted_header_length_field(self, index_path, tmp_path):
        # A bit-flipped uint64 length must not turn into a huge read.
        import struct
        raw = bytearray(index_path.read_bytes())
        struct.pack_into("<Q", raw, 8, 2 ** 62)
        bad = tmp_path / "len.rpix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="length"):
            open_index(bad)

    def test_corrupted_array(self, index_path, tmp_path):
        size = index_path.stat().st_size
        bad = self._copy_with_flip(index_path, tmp_path, size - 100)
        with pytest.raises(IndexFormatError, match="checksum mismatch"):
            open_index(bad)

    def test_corrupted_array_accepted_without_verify(self, index_path,
                                                     tmp_path):
        size = index_path.stat().st_size
        bad = self._copy_with_flip(index_path, tmp_path, size - 100)
        open_index(bad, verify=False)  # trusts the file, no raise

    def test_truncated_file(self, index_path, tmp_path):
        raw = index_path.read_bytes()
        bad = tmp_path / "trunc.rpix"
        bad.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(IndexFormatError, match="truncated"):
            open_index(bad)

    def test_not_an_index(self, tmp_path):
        bad = tmp_path / "ref.fa"
        bad.write_text(">chr1\nACGTACGT\n")
        with pytest.raises(IndexFormatError):
            open_index(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexFormatError, match="cannot open"):
            open_index(tmp_path / "nope.rpix")

    def test_unsupported_version(self, index_path, tmp_path):
        raw = bytearray(index_path.read_bytes())
        # Version lives inside the JSON header; bump it and re-pack so
        # the header crc stays valid.
        import json
        import struct
        import zlib
        length = struct.unpack_from("<Q", raw, 8)[0]
        meta = json.loads(raw[PREAMBLE_BYTES:PREAMBLE_BYTES + length])
        meta["format_version"] = FORMAT_VERSION + 1
        payload = json.dumps(meta, sort_keys=True,
                             separators=(",", ":")).encode()
        # Same-length payloads keep array offsets intact; pad a key if
        # needed by rewriting the whole preamble + header region.
        blob = bytearray(MAGIC)
        blob += struct.pack("<QI4x", len(payload),
                            zlib.crc32(payload) & 0xFFFFFFFF)
        blob += payload
        bad = tmp_path / "version.rpix"
        bad.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="version"):
            open_index(bad)

    def test_stale_seed_length_fingerprint(self, index_path):
        with pytest.raises(IndexFormatError, match="fingerprint"):
            open_index(index_path, expect_seed_length=32)

    def test_stale_filter_threshold_fingerprint(self, index_path):
        with pytest.raises(IndexFormatError, match="fingerprint"):
            open_index(index_path, expect_filter_threshold=None)

    def test_matching_fingerprint_accepted(self, index_path, seedmap):
        index = open_index(index_path,
                           expect_seed_length=seedmap.seed_length,
                           expect_filter_threshold=500)
        assert index.seed_length == seedmap.seed_length


class TestInspect:
    def test_report_contents(self, index_path, seedmap,
                             small_reference):
        report = inspect_index(index_path)
        assert report["checksums_ok"] is True
        meta = report["meta"]
        assert meta["seed_length"] == seedmap.seed_length
        assert meta["reference"]["total_length"] \
            == small_reference.total_length
        names = [row["name"] for row in report["arrays"]]
        assert names == ["ref_codes", "hash_keys", "range_starts",
                         "range_ends", "locations"]
        counts = {row["name"]: row["count"] for row in report["arrays"]}
        assert counts["locations"] == seedmap.stats.stored_locations
        assert counts["ref_codes"] == small_reference.total_length

    def test_missing_manifest_entry_rejected_without_verify(
            self, index_path, tmp_path):
        import json
        import struct
        import zlib
        raw = index_path.read_bytes()
        length = struct.unpack_from("<Q", raw, 8)[0]
        meta = json.loads(raw[PREAMBLE_BYTES:PREAMBLE_BYTES + length])
        del meta["arrays"]["locations"]
        payload = json.dumps(meta, sort_keys=True,
                             separators=(",", ":")).encode()
        blob = MAGIC + struct.pack("<QI4x", len(payload),
                                   zlib.crc32(payload) & 0xFFFFFFFF) \
            + payload
        bad = tmp_path / "missing.rpix"
        bad.write_bytes(blob)
        with pytest.raises(IndexFormatError, match="missing array"):
            inspect_index(bad, verify=False)

    def test_inspect_detects_corruption(self, index_path, tmp_path):
        raw = bytearray(index_path.read_bytes())
        raw[-50] ^= 0xFF
        bad = tmp_path / "bad.rpix"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError):
            inspect_index(bad)
        assert inspect_index(bad, verify=False)["checksums_ok"] is None

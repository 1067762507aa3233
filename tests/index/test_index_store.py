"""Tests for the persistent memory-mapped index."""

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.core import GenPairPipeline
from repro.genome import generate_reference
from repro.genome.reference import RepeatProfile
from repro.index import (FORMAT_VERSION, IndexFormatError, MappingIndex,
                         build_index, inspect_index, open_index, save_index)
from repro.index.format import (PREAMBLE_BYTES, TABLE_COLUMNS, pack_header,
                                read_header)
from repro.mapper import K, MAX_OCCURRENCES, W, MinimizerIndex

#: Every section a table is written as, in file order.
TABLE_SECTIONS = [f"{table}.{column}" for table in ("seedmap", "minimizers")
                  for column, _ in TABLE_COLUMNS]


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_index):
    path = tmp_path_factory.mktemp("index") / "small.rpix"
    save_index(path, small_index)
    return path


def assert_same_table(mapped, built):
    for column, _ in TABLE_COLUMNS:
        assert np.array_equal(getattr(mapped, column),
                              getattr(built, column)), column


def section_bytes(index_path, section):
    """``[start, end)`` of one data section in the file."""
    report = inspect_index(index_path, verify=False)
    size = next(row["bytes"] for row in report["arrays"]
                if row["name"] == section)
    start = report["data_start"] + report["meta"]["arrays"][section]["offset"]
    return start, start + size


def rewrite_header(index_path, out, edit):
    """A copy of the index whose JSON header ``edit`` changed; the data
    section is kept byte for byte."""
    with open(index_path, "rb") as handle:
        meta, data_start = read_header(handle)
    edit(meta)
    out.write_bytes(pack_header(meta) + index_path.read_bytes()[data_start:])
    return out


class TestRoundTrip:
    def test_tables_and_reference_identical(self, index_path,
                                            small_reference, seedmap):
        index = open_index(index_path)
        assert index.fingerprint.describe() == "seed length 50, filter " \
            "threshold 500"
        assert index.seedmap.stats == seedmap.stats
        assert_same_table(index.seedmap.table, seedmap.table)
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

    def test_format_version_recorded(self, index_path):
        index = open_index(index_path, verify=False)
        assert isinstance(index, MappingIndex)
        assert index.path == str(index_path)
        meta = inspect_index(index_path, verify=False)["meta"]
        assert (meta["format_version"], meta["step"]) == (FORMAT_VERSION, 1)

    def test_built_index_is_in_memory(self, small_index):
        assert small_index.path is None
        assert small_index.fingerprint.describe() \
            == "seed length 50, filter threshold 500"

    def test_save_returns_file_size(self, tmp_path, small_index):
        path = tmp_path / "sized.rpix"
        written = save_index(path, small_index)
        assert written == path.stat().st_size


class TestMinimizerTable:
    """The file's minimizer table is the one ``MinimizerIndex.build``
    makes from the reference, mapped back."""

    @pytest.mark.parametrize("max_occurrences", [2, None],
                             ids=["filtered", "unfiltered"])
    def test_mapped_table_equals_build(self, tmp_path, small_reference,
                                       seedmap, max_occurrences):
        built = MinimizerIndex.build(small_reference,
                                     max_occurrences=max_occurrences)
        assert (built.stats.masked_hashes > 0) == (max_occurrences == 2)
        path = tmp_path / "minimizers.rpix"
        save_index(path, MappingIndex(None, small_reference, seedmap,
                                      built))
        mapped = open_index(path).minimizers
        assert_same_table(mapped.table, built.table)
        assert mapped.stats == built.stats
        assert (mapped.k, mapped.w, mapped.max_occurrences) \
            == (built.k, built.w, max_occurrences)
        assert isinstance(mapped.table.positions, np.memmap)

    def test_default_table_is_the_mappers(self, index_path,
                                          small_reference):
        mapped = open_index(index_path).minimizers
        assert (mapped.k, mapped.w, mapped.max_occurrences) \
            == (K, W, MAX_OCCURRENCES) == (15, 10, 500)
        assert_same_table(mapped.table,
                          MinimizerIndex.build(small_reference).table)


class TestEdgeConfigurations:
    def test_unfiltered_round_trip(self, tmp_path):
        genome = generate_reference(np.random.default_rng(3), (2_000,))
        built = build_index(genome, filter_threshold=None)
        path = tmp_path / "nofilter.rpix"
        save_index(path, built)
        index = open_index(path)
        assert index.fingerprint == built.fingerprint
        assert index.seedmap.filter_threshold is None
        assert index.seedmap.stats == built.seedmap.stats

    def test_tiny_genome_with_empty_tables(self, tmp_path):
        genome = generate_reference(np.random.default_rng(4), (20,),
                                    repeats=None)
        path = tmp_path / "tiny.rpix"
        save_index(path, build_index(genome))  # shorter than one seed
        index = open_index(path)
        assert index.seedmap.location_table.size == 0
        assert index.reference.total_length == 20
        assert index.seedmap.query(123).size == 0
        assert len(index.minimizers) == 1  # 20 bases: one window
        assert index.minimizers.lookup(123).size == 0


class TestFileBytesPinned:
    """The format is version 2 byte for byte: sizes and digests of the
    files written for the reference of ``perf.inputs.giab_dataset`` —
    rebuilt here from its seed, so ``tests/`` does not import the
    benchmark.  Version 1 wrote 6,396,288 bytes at filter threshold 500:
    one ``offsets`` section per table instead of the SeedMap's
    ``range_starts`` / ``range_ends`` pays for the minimizer table."""

    @pytest.fixture(scope="class")
    def giab_reference(self):
        return generate_reference(np.random.default_rng(101),
                                  (160_000, 80_000),
                                  repeats=RepeatProfile.human_like())

    @pytest.mark.parametrize("filter_threshold, size, digest", [
        (500, 5_804_864, "bdfabeb2f8472973"),
        (3, 5_339_200, "d4745feed3249396"),
        (None, 5_804_864, "bde29e875b4fbf7e"),
    ])
    def test_save_index_bytes(self, tmp_path, giab_reference,
                              filter_threshold, size, digest):
        path = tmp_path / "giab.rpix"
        built = build_index(giab_reference,
                            filter_threshold=filter_threshold)
        assert save_index(path, built) == size
        assert FORMAT_VERSION == 2
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

    @pytest.mark.parametrize("version", [1, FORMAT_VERSION + 1])
    def test_unsupported_version(self, index_path, tmp_path, version):
        bad = rewrite_header(
            index_path, tmp_path / "version.rpix",
            lambda meta: meta.update(format_version=version))
        with pytest.raises(IndexFormatError,
                           match=f"version {version} .*`repro index "
                                 "build`"):
            open_index(bad, verify=False)

    def test_map_refuses_a_version_1_file(self, index_path, tmp_path,
                                          capsys):
        old = rewrite_header(index_path, tmp_path / "old.rpix",
                             lambda meta: meta.update(format_version=1))
        assert main(["map", "--index", str(old),
                     "--reads1", str(tmp_path / "r1.fq"),
                     "--reads2", str(tmp_path / "r2.fq"),
                     "--out", str(tmp_path / "out.sam")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: unsupported index format version 1")
        assert "`repro index build`" in err

    @pytest.mark.parametrize("section", TABLE_SECTIONS)
    def test_truncated_in_section(self, index_path, tmp_path, section):
        start, end = section_bytes(index_path, section)
        bad = tmp_path / "trunc.rpix"
        bad.write_bytes(index_path.read_bytes()[:(start + end) // 2])
        with pytest.raises(IndexFormatError, match="truncated"):
            open_index(bad, verify=False)

    @pytest.mark.parametrize("section", TABLE_SECTIONS)
    def test_bit_flip_in_section(self, index_path, tmp_path, section):
        start, end = section_bytes(index_path, section)
        bad = self._copy_with_flip(index_path, tmp_path, (start + end) // 2)
        with pytest.raises(IndexFormatError,
                           match=f"{section}.*checksum mismatch"):
            open_index(bad)

    @pytest.mark.parametrize("table", ["seedmap", "minimizers"])
    def test_last_offset_checked_without_verify(self, index_path,
                                                tmp_path, table):
        _, end = section_bytes(index_path, f"{table}.offsets")
        # The last offset's low byte.
        bad = self._copy_with_flip(index_path, tmp_path, end - 8)
        with pytest.raises(IndexFormatError, match=f"{table}.*inconsistent"):
            open_index(bad, verify=False)

    @pytest.mark.parametrize("table", ["seedmap", "minimizers"])
    def test_offsets_count_checked_without_verify(self, index_path,
                                                  tmp_path, table):
        def drop_a_key(meta):
            meta["arrays"][f"{table}.keys"]["count"] -= 1

        bad = rewrite_header(index_path, tmp_path / "count.rpix",
                             drop_a_key)
        with pytest.raises(IndexFormatError, match=f"{table}.*inconsistent"):
            open_index(bad, verify=False)

    @pytest.mark.parametrize("step", [5, None])
    def test_a_stride_other_than_1_is_refused(self, index_path, tmp_path,
                                              step):
        def stride(meta):
            meta["step"] = step
            if step is None:
                del meta["step"]

        bad = rewrite_header(index_path, tmp_path / "step.rpix", stride)
        with pytest.raises(IndexFormatError) as excinfo:
            open_index(bad, verify=False)
        message = str(excinfo.value)
        assert "\n" not in message
        assert f"step {step}," in message
        assert "`repro index build`" in message


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
        assert names == ["ref_codes"] + TABLE_SECTIONS
        counts = {row["name"]: row["count"] for row in report["arrays"]}
        assert counts["seedmap.positions"] \
            == seedmap.stats.stored_locations
        assert counts["seedmap.offsets"] == seedmap.stats.distinct_seeds + 1
        assert counts["ref_codes"] == small_reference.total_length
        minimizers = meta["minimizers"]
        assert (minimizers["k"], minimizers["w"]) == (15, 10)
        assert counts["minimizers.keys"] \
            == minimizers["stats"]["distinct_hashes"]

    def test_missing_manifest_entry_rejected_without_verify(
            self, index_path, tmp_path):
        bad = rewrite_header(
            index_path, tmp_path / "missing.rpix",
            lambda meta: meta["arrays"].pop("minimizers.positions"))
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


class TestResourceLifetime:
    """An opened index holds its file only through the arrays it hands
    out: once the index and whatever was mapped through it are dropped,
    every fd is released — verified or rejected."""

    def test_dropped_index_returns_every_fd(self, index_path, simulator,
                                            fds_returned):
        pairs = simulator.simulate_pairs(8)
        with fds_returned():
            index = open_index(index_path)
            pipeline = GenPairPipeline(index.reference,
                                       seedmap=index.seedmap)
            results = pipeline.map_pairs(pairs)
            assert any(result.mapped for result in results)
            del index, pipeline, results

    def test_rejected_index_returns_every_fd(self, index_path, tmp_path,
                                             fds_returned):
        """A checksum failure raises after earlier arrays were mapped;
        those maps must not outlive the error."""
        raw = bytearray(index_path.read_bytes())
        raw[-100] ^= 0xFF
        bad = tmp_path / "bad.rpix"
        bad.write_bytes(bytes(raw))
        with fds_returned():
            with pytest.raises(IndexFormatError, match="checksum"):
                open_index(bad)

    def test_inspect_returns_every_fd(self, index_path, fds_returned):
        with fds_returned():
            assert inspect_index(index_path)["checksums_ok"] is True

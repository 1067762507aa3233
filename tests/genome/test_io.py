"""Unit tests for FASTA/FASTQ I/O and the streaming paired reader."""

import numpy as np
import pytest

from repro.genome import (decode, encode, generate_reference, iter_pairs,
                          iter_pairs_chunked, read_ahead, read_fasta,
                          read_fastq, write_fasta, write_fastq)
from repro.genome.io_fasta import FastaError


class TestFasta:
    def test_round_trip(self, tmp_path):
        genome = generate_reference(np.random.default_rng(0), (500, 300),
                                    repeats=None)
        path = tmp_path / "ref.fa"
        write_fasta(path, genome, line_width=60)
        loaded = read_fasta(path)
        assert loaded.names == genome.names
        for name in genome.names:
            assert np.array_equal(
                loaded.fetch(name, 0, loaded.length(name)),
                genome.fetch(name, 0, genome.length(name)))

    def test_header_truncated_at_whitespace(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">chr1 description here\nACGT\n")
        genome = read_fasta(path)
        assert genome.names == ("chr1",)

    def test_multiline_sequences_joined(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">s\nACGT\nACGT\n")
        assert read_fasta(path).sequence("s") == "ACGTACGT"

    def test_data_before_header_rejected(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text("ACGT\n>s\nACGT\n")
        with pytest.raises(FastaError):
            read_fasta(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">s\nAC\n>s\nGT\n")
        with pytest.raises(FastaError):
            read_fasta(path)

    def test_n_preserved(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">s\nACNNGT\n")
        assert read_fasta(path).sequence("s") == "ACNNGT"


class TestFastq:
    def test_round_trip(self, tmp_path):
        records = [("r1", encode("ACGTACGT")), ("r2", encode("TTTTAAAA"))]
        path = tmp_path / "reads.fq"
        assert write_fastq(path, records) == 2
        loaded = list(read_fastq(path))
        assert [name for name, _ in loaded] == ["r1", "r2"]
        assert decode(loaded[0][1]) == "ACGTACGT"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "reads.fq"
        path.write_text("r1\nACGT\n+\nIIII\n")
        with pytest.raises(FastaError):
            list(read_fastq(path))

    def test_quality_length_checked(self, tmp_path):
        path = tmp_path / "reads.fq"
        path.write_text("@r1\nACGT\n+\nII\n")
        with pytest.raises(FastaError):
            list(read_fastq(path))


def _write_pair_files(tmp_path, count, drop_from_2=0, rename_at=None):
    path1 = tmp_path / "r_1.fq"
    path2 = tmp_path / "r_2.fq"
    records1, records2 = [], []
    for i in range(count):
        records1.append((f"pair{i}/1", encode("ACGTACGT")))
        name2 = f"pair{i}/2" if rename_at != i else f"other{i}/2"
        records2.append((name2, encode("TTTTAAAA")))
    write_fastq(path1, records1)
    write_fastq(path2, records2[:count - drop_from_2])
    return path1, path2


class TestPairedStreaming:
    def test_chunking_covers_all_pairs(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 10)
        chunks = list(iter_pairs_chunked(path1, path2, chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        names = [name for chunk in chunks for _, _, name in chunk]
        assert names == [f"pair{i}" for i in range(10)]
        codes1, codes2, _ = chunks[0][0]
        assert decode(codes1) == "ACGTACGT"
        assert decode(codes2) == "TTTTAAAA"

    def test_flat_iterator_matches_chunks(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 7)
        flat = list(iter_pairs(path1, path2, chunk_size=3))
        eager = list(iter_pairs(path1, path2))
        assert len(flat) == len(eager) == 7
        assert [name for _, _, name in flat] \
            == [name for _, _, name in eager]

    def test_unequal_counts_rejected(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 6, drop_from_2=2)
        with pytest.raises(FastaError, match="unequal read counts"):
            list(iter_pairs(path1, path2))
        # Symmetric: the shorter file may be reads1 as well.
        with pytest.raises(FastaError, match="unequal read counts"):
            list(iter_pairs(path2, path1))

    def test_error_names_the_short_file(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 5, drop_from_2=1)
        with pytest.raises(FastaError, match="r_2.fq ended after 4"):
            list(iter_pairs(path1, path2))

    def test_name_disagreement_rejected(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 5, rename_at=3)
        with pytest.raises(FastaError, match="record 4"):
            list(iter_pairs(path1, path2))

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 3)
        for path, blanks in ((path1, "\n"), (path2, "\n\n\n\n\n")):
            with open(path, "a") as handle:
                handle.write(blanks)
        assert [name for _, _, name in list(iter_pairs(path1, path2))] \
            == ["pair0", "pair1", "pair2"]

    def test_truncated_mate_names_file_and_record(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 3)
        lines = path2.read_text().splitlines(True)
        path2.write_text("".join(lines[:10]))  # record 3 loses +/qual
        with pytest.raises(FastaError) as excinfo:
            list(iter_pairs(path1, path2))
        message = str(excinfo.value)
        assert "record 3" in message and "r_2.fq" in message
        assert "after 2 of its 4 lines" in message

    def test_names_without_mate_suffix_accepted(self, tmp_path):
        path1 = tmp_path / "a.fq"
        path2 = tmp_path / "b.fq"
        write_fastq(path1, [("frag9", encode("ACGT"))])
        write_fastq(path2, [("frag9", encode("TTTT"))])
        (_, _, name), = list(iter_pairs(path1, path2))
        assert name == "frag9"

    def test_streaming_is_lazy(self, tmp_path):
        # A name mismatch in the second chunk must not prevent the
        # first chunk from being served.
        path1, path2 = _write_pair_files(tmp_path, 8, rename_at=6)
        stream = iter_pairs_chunked(path1, path2, chunk_size=4)
        assert len(next(stream)) == 4
        with pytest.raises(FastaError):
            next(stream)

    def test_bad_chunk_size_rejected(self, tmp_path):
        path1, path2 = _write_pair_files(tmp_path, 2)
        with pytest.raises(ValueError):
            list(iter_pairs_chunked(path1, path2, chunk_size=0))


class TestReadAhead:
    def test_preserves_order_and_content(self):
        assert list(read_ahead(range(100), depth=3)) == list(range(100))

    def test_empty_source(self):
        assert list(read_ahead([], depth=2)) == []

    def test_source_exception_propagates(self):
        def broken():
            yield 1
            yield 2
            raise RuntimeError("parse failed")

        stream = read_ahead(broken(), depth=2)
        assert next(stream) == 1
        assert next(stream) == 2
        with pytest.raises(RuntimeError, match="parse failed"):
            next(stream)

    def test_early_close_stops_the_thread(self):
        import itertools
        import threading

        stream = read_ahead(itertools.count(), depth=2)
        assert next(stream) == 0
        stream.close()  # joins the producer thread; must not hang
        names = [thread.name for thread in threading.enumerate()]
        assert "repro-read-ahead" not in names

    def test_close_before_first_next_is_safe(self):
        stream = read_ahead(range(10), depth=2)
        stream.close()

    def test_close_does_not_hang_on_a_blocked_source(self):
        # Regression: close() used to join without a timeout, so a
        # producer parked in the source's own blocking I/O (stalled
        # pipe, network mount) wedged teardown — e.g. Ctrl-C during a
        # streaming map.  The blocked daemon thread is abandoned.
        import threading
        import time

        release = threading.Event()

        def blocked_source():
            yield 1
            release.wait()  # simulates a read that never returns
            yield 2

        stream = read_ahead(blocked_source(), depth=2)
        assert next(stream) == 1
        start = time.perf_counter()
        stream.close()
        assert time.perf_counter() - start < 5.0
        release.set()  # let the abandoned thread exit

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            list(read_ahead(range(3), depth=0))

    def test_prefetches_while_consumer_idles(self, tmp_path):
        # The producer thread reads chunks ahead of the consumer: after
        # one next(), more than one chunk may already be parsed, but
        # never more than depth + 2 (buffer + in-hand + consumed one).
        path1, path2 = _write_pair_files(tmp_path, 20)
        pulled = []

        def spy():
            for chunk in iter_pairs_chunked(path1, path2, chunk_size=2):
                pulled.append(len(chunk))
                yield chunk

        stream = read_ahead(spy(), depth=2)
        first = next(stream)
        assert len(first) == 2
        assert len(pulled) <= 4
        assert sum(len(chunk) for chunk in stream) == 18


def _write_reads(path, count=6, length=20, name=None):
    rng = np.random.default_rng(5)
    names = []
    with open(path, "w") as handle:
        for index in range(count):
            read_name = name or f"long{index}"
            names.append(read_name)
            seq = "".join("ACGT"[code]
                          for code in rng.integers(0, 4, size=length))
            handle.write(f"@{read_name}\n{seq}\n+\n{'I' * length}\n")
    return names


class TestSingleReadStreaming:
    def test_chunks_preserve_order_and_names(self, tmp_path):
        from repro.genome import iter_reads, iter_reads_chunked

        path = tmp_path / "long.fq"
        names = _write_reads(path, count=7)
        chunks = list(iter_reads_chunked(path, chunk_size=3))
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]
        flat = list(iter_reads(path, chunk_size=3))
        assert [name for _, name in flat] == names
        assert all(codes.dtype.kind in "iu" and len(codes) == 20
                   for codes, _ in flat)

    def test_truncated_record_raises_loudly(self, tmp_path):
        from repro.genome import iter_reads

        path = tmp_path / "trunc.fq"
        _write_reads(path, count=2)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-2]) + "\n")  # drop +/qual
        with pytest.raises(FastaError, match="truncated.*2 of its 4"):
            list(iter_reads(path))

    def test_file_ending_mid_sequence_raises(self, tmp_path):
        from repro.genome import iter_reads

        path = tmp_path / "trunc.fq"
        path.write_text("@only\n")  # header line alone
        with pytest.raises(FastaError, match="truncated"):
            list(iter_reads(path))

    def test_mismatched_plus_separator_raises(self, tmp_path):
        from repro.genome import iter_reads

        path = tmp_path / "bad.fq"
        path.write_text("@readA\nACGT\n+readB\nIIII\n")
        with pytest.raises(FastaError, match="separator.*readB"):
            list(iter_reads(path))

    def test_plus_separator_repeating_name_accepted(self, tmp_path):
        from repro.genome import iter_reads

        path = tmp_path / "ok.fq"
        path.write_text("@readA extra stuff\nACGT\n+readA\nIIII\n")
        ((codes, name),) = list(iter_reads(path))
        assert name == "readA"

    def test_missing_plus_line_raises(self, tmp_path):
        from repro.genome import iter_reads

        path = tmp_path / "noplus.fq"
        path.write_text("@r\nACGT\nIIII\n@r2\nACGT\n+\nIIII\n")
        with pytest.raises(FastaError, match="'\\+' separator"):
            list(iter_reads(path))

    def test_quality_length_mismatch_raises(self, tmp_path):
        from repro.genome import iter_reads

        path = tmp_path / "qual.fq"
        path.write_text("@r\nACGT\n+\nII\n")
        with pytest.raises(FastaError, match="quality length 2"):
            list(iter_reads(path))

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        from repro.genome import iter_reads

        path = tmp_path / "blank.fq"
        _write_reads(path, count=2)
        with open(path, "a") as handle:
            handle.write("\n")
        assert len(list(iter_reads(path))) == 2

    def test_empty_file_yields_nothing(self, tmp_path):
        from repro.genome import iter_reads_chunked

        path = tmp_path / "empty.fq"
        path.write_text("")
        assert list(iter_reads_chunked(path)) == []

    def test_bad_chunk_size_rejected(self, tmp_path):
        from repro.genome import iter_reads_chunked

        path = tmp_path / "x.fq"
        _write_reads(path, count=1)
        with pytest.raises(ValueError):
            list(iter_reads_chunked(path, chunk_size=0))

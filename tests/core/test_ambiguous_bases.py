"""Reads holding ``N`` map instead of killing the run.

The FASTQ reader encodes ``N`` as code 4; a seed window (genpair,
longread) or k-mer (mm2) spanning one cannot be an exact 2-bit match
and is dropped before hashing — the read keeps its other seeds.  Every
test here failed at the parent commit with ``ValueError: seed windows
must be concrete bases`` / ``reference windows must be concrete bases``.
(The long-read case rides in ``test_longread.py``'s oracle set.)
"""

import numpy as np
import pytest

from repro.api import Mapper
from repro.cli import main
from repro.core import GenPairPipeline
from repro.genome import decode, write_fastq
from repro.genome.sequence import N_CODE
from repro.mapper import Mm2LikeMapper, extract_minimizers


def with_n(codes, position):
    out = codes.copy()
    out[position] = N_CODE
    return out


@pytest.mark.parametrize("position", [10, 75, 140],
                         ids=["first_seed", "middle_seed", "last_seed"])
class TestOneNInOneSeed:
    def test_genpair_light_aligns_it(self, plain_reference, plain_seedmap,
                                     clean_pairs, position):
        pair = clean_pairs[0]
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        result = pipeline.map_pair(with_n(pair.read1.codes, position),
                                   pair.read2.codes, "n")
        assert result.stage == "light"
        assert result.record1.position == pair.read1.ref_start
        assert "1X" in str(result.record1.cigar)
        sequence = result.record1.to_sam_line().split("\t")[9]
        assert sequence.count("N") == 1
        assert str(result.record2.cigar) == "150="

    def test_mm2_maps_it(self, plain_reference, clean_pairs, position):
        pair = clean_pairs[0]
        mapper = Mm2LikeMapper(plain_reference)
        result = mapper.map_pair(
            with_n(pair.read1.codes, position), pair.read2.codes, "n")
        record1, record2 = result.records
        assert result.stage == "proper_pair"
        assert record1.mapped and record2.mapped
        assert "1X" in str(record1.cigar)


class TestMinimizersSkipN:
    def test_no_minimizer_spans_the_n(self, plain_reference):
        codes = plain_reference.fetch("chr1", 3000, 3150)
        clean = list(zip(*map(np.ndarray.tolist,
                              extract_minimizers(codes, k=15, w=10))))
        masked = list(zip(*map(np.ndarray.tolist, extract_minimizers(
            with_n(codes, 70), k=15, w=10))))
        assert masked
        assert not any(position <= 70 < position + 15
                       for position, _hash in masked)
        # Away from the N the selection is the N-free one.
        far = [(position, hash_value) for position, hash_value in clean
               if position + 15 + 10 <= 70 or position >= 71 + 10]
        assert far and set(far) <= set(masked)

    def test_all_n_read_has_none(self):
        positions, hashes = extract_minimizers(
            np.full(60, N_CODE, dtype=np.uint8), k=15, w=10)
        assert positions.size == 0 and hashes.size == 0


def test_one_n_read_leaves_the_rest_of_the_chunk_alone(
        plain_reference, plain_seedmap, clean_simulator,
        result_signature):
    pairs = clean_simulator.simulate_pairs(256)
    items = [(p.read1.codes, p.read2.codes, p.name) for p in pairs]
    clean = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
    want = list(map(result_signature, clean.map_pairs(items)))
    read1, read2, name = items[100]
    items[100] = (read1, with_n(read2, 20), name)
    dirty = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
    got = list(map(result_signature, dirty.map_pairs(items)))
    assert got[:100] == want[:100] and got[101:] == want[101:]
    assert got[100] != want[100]
    assert got[100][1] == "light"


@pytest.mark.parametrize("engine", ["genpair", "mm2"])
def test_cli_map_survives_n_in_fastq(tmp_path, plain_reference,
                                     clean_pairs, engine):
    from repro.genome import write_fasta

    reference = tmp_path / "ref.fa"
    write_fasta(reference, plain_reference)
    pairs = clean_pairs[:6]
    fq1, fq2 = tmp_path / "n_1.fq", tmp_path / "n_2.fq"
    write_fastq(fq1, ((p.read1.name, with_n(p.read1.codes, 75)
                       if index == 2 else p.read1.codes)
                      for index, p in enumerate(pairs)))
    write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))
    assert "N" in fq1.read_text().splitlines()[9]
    out = tmp_path / "out.sam"
    assert main(["map", "--reference", str(reference),
                 "--reads1", str(fq1), "--reads2", str(fq2),
                 "--out", str(out), "--engine", engine]) == 0
    body = [line.split("\t") for line in out.read_text().splitlines()
            if not line.startswith("@")]
    assert len(body) == 12
    assert all(fields[2] == "chr1" for fields in body)
    assert sum("N" in fields[9] for fields in body) == 1


def test_facade_longread_survives_n(plain_reference):
    codes = with_n(plain_reference.fetch("chr1", 4000, 6000), 170)
    with Mapper.from_reference(plain_reference, engine="longread") \
            as mapper:
        result, = mapper.map([(codes, "long_n")])
    assert result.records[0].mapped
    assert decode(result.records[0].read_codes).count("N") == 1

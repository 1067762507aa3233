"""Variant calls against truth, through the one calling path.

``repro map`` writes SAM and ``repro call`` piles that SAM up and calls
variants from it.  The set is ``repro simulate --pairs 2000
--chromosomes 60000,40000 --seed 5`` (121 donor variants), mapped by
both paired engines with the CLI's defaults:

* SEQ is stored the way SAM stores it: a FLAG-16 record's SEQ is the
  reverse complement of the read as sequenced, every other SEQ the read
  itself;
* the VCF ``repro call`` writes from the SAM is byte for byte the one
  ``call_variants`` writes from a :class:`~repro.variants.Pileup` of
  the same results in memory;
* scored against the simulated truth, that VCF holds no false positive
  and the pinned number of true positives.
"""

from __future__ import annotations

import pytest

from repro.api import Mapper
from repro.cli import main
from repro.genome import decode, read_fasta, read_fastq, reverse_complement
from repro.variants import (Pileup, call_variants, compare_calls, read_vcf,
                            write_vcf)

ENGINES = ("genpair", "mm2")
#: True positives of each engine's calls against the 121-variant truth.
TRUE_POSITIVES = {"genpair": 53, "mm2": 53}


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("truth") / "s5")
    assert main(["simulate", "--out", prefix, "--pairs", "2000",
                 "--chromosomes", "60000,40000", "--seed", "5"]) == 0
    return prefix


@pytest.fixture(scope="module", params=ENGINES)
def mapped(request, sample):
    """``(engine, SAM path, VCF path)`` of one engine's map and call."""
    engine = request.param
    sam, vcf = f"{sample}_{engine}.sam", f"{sample}_{engine}.vcf"
    assert main(["map", "--engine", engine, "--reference",
                 sample + "_ref.fa", "--reads1", sample + "_1.fq",
                 "--reads2", sample + "_2.fq", "--out", sam]) == 0
    assert main(["call", "--reference", sample + "_ref.fa", "--sam", sam,
                 "--out", vcf]) == 0
    return engine, sam, vcf


def test_seq_is_stored_as_sam_stores_it(sample, mapped):
    _engine, sam, _vcf = mapped
    reads = {name: codes for mate in ("_1.fq", "_2.fq")
             for name, codes in read_fastq(sample + mate)}
    reverse = 0
    for line in open(sam):
        if line.startswith("@"):
            continue
        fields = line.split("\t")
        codes = reads[fields[0]]
        if int(fields[1]) & 16:
            reverse += 1
            codes = reverse_complement(codes)
        assert fields[9] == decode(codes), fields[0]
    # Every pair of the set maps as a proper pair: one read on each
    # strand.
    assert reverse == len(reads) // 2


def test_calls_from_sam_equal_calls_from_memory(sample, mapped, tmp_path):
    engine, _sam, vcf = mapped
    reference = read_fasta(sample + "_ref.fa")
    pileup = Pileup(reference)
    with Mapper.from_reference(reference) as mapper:
        pileup.add_records(
            record for result in mapper.map_file(
                sample + "_1.fq", sample + "_2.fq", engine=engine)
            for record in result.records)
    memory = tmp_path / "memory.vcf"
    write_vcf(memory, call_variants(pileup), reference=reference)
    assert memory.read_bytes() == open(vcf, "rb").read()


def test_calls_against_truth(sample, mapped):
    engine, _sam, vcf = mapped
    report = compare_calls(read_vcf(vcf), read_vcf(sample + "_truth.vcf"))
    assert report.false_positives == 0
    assert report.true_positives == TRUE_POSITIVES[engine]

"""Genomics substrate: sequences, references, simulation, CIGAR, SAM.

This package provides everything below the mapping algorithms: sequence
encoding, reference genomes (synthetic generation included), germline
variant planting, Mason-like read simulation, CIGAR algebra, SAM-like
alignment records, the chunked FASTQ parser and the batch renderers of
the three output formats.
"""

from .cigar import Cigar, CigarError
from .io_fasta import (DEFAULT_PAIR_CHUNK, DEFAULT_READ_CHUNK,
                       FastaError, iter_pairs, iter_pairs_chunked,
                       iter_reads, iter_reads_chunked, read_fasta,
                       read_fastq, write_fasta, write_fastq)
from .jsonl import jsonl_lines
from .paf import paf_lines
from .reference import (ReferenceError, ReferenceGenome, RepeatProfile,
                        generate_reference)
from .results import (MappingResult, OutputFormat, ResultLineWriter,
                      line_batches, result_records)
from .sam import (METHOD_DP, METHOD_EXACT, METHOD_LIGHT, AlignmentRecord,
                  SamWriter, sam_lines, write_sam)
from .sequence import (ALPHABET_SIZE, SequenceError, decode, encode,
                       kmers, pack_2bit, random_sequence,
                       reverse_complement, unpack_2bit)
from .simulate import (ErrorModel, PairedEndProfile, ReadSimulator,
                       SimulatedPair, SimulatedRead, SimulationError)
from .variants import DiploidDonor, Haplotype, Variant, plant_variants

__all__ = [
    "ALPHABET_SIZE", "AlignmentRecord", "Cigar", "CigarError",
    "DEFAULT_PAIR_CHUNK", "DEFAULT_READ_CHUNK", "DiploidDonor",
    "ErrorModel", "FastaError", "Haplotype", "METHOD_DP",
    "METHOD_EXACT", "METHOD_LIGHT", "MappingResult", "OutputFormat",
    "PairedEndProfile", "ReadSimulator", "ReferenceError",
    "ReferenceGenome", "RepeatProfile", "ResultLineWriter", "SamWriter",
    "SequenceError", "SimulatedPair", "SimulatedRead", "SimulationError",
    "Variant", "decode", "encode", "generate_reference",
    "iter_pairs", "iter_pairs_chunked", "iter_reads", "iter_reads_chunked",
    "jsonl_lines", "kmers", "line_batches", "pack_2bit", "paf_lines",
    "plant_variants", "random_sequence", "read_fasta",
    "read_fastq", "result_records", "reverse_complement",
    "sam_lines", "unpack_2bit",
    "write_fasta", "write_fastq", "write_sam",
]

"""Genomics substrate: sequences, references, simulation, CIGAR, SAM.

This package provides everything below the mapping algorithms: sequence
encoding, reference genomes (synthetic generation included), germline
variant planting, Mason-like read simulation, CIGAR algebra, and SAM-like
alignment records.
"""

from .cigar import Cigar, CigarError
from .io_fasta import (DEFAULT_PAIR_CHUNK, DEFAULT_READ_CHUNK,
                       FastaError, iter_pairs, iter_pairs_chunked,
                       iter_reads, iter_reads_chunked, read_ahead,
                       read_fasta, read_fastq, write_fasta, write_fastq)
from .jsonl import JsonlWriter, jsonl_header_lines, jsonl_record_lines
from .paf import PafWriter, paf_header_lines, paf_line, paf_record_lines
from .reference import (ReferenceError, ReferenceGenome, RepeatProfile,
                        generate_reference)
from .results import MappingResult, ResultLineWriter, result_records
from .sam import (METHOD_DP, METHOD_EXACT, METHOD_LIGHT, AlignmentRecord,
                  SamWriter, sam_header_lines, sam_record_lines,
                  write_sam)
from .sequence import (ALPHABET_SIZE, SequenceError, decode, encode,
                       hamming_distance, kmer_to_int, kmers, pack_2bit,
                       random_sequence, reverse_complement,
                       reverse_complement_str, unpack_2bit)
from .simulate import (ErrorModel, PairedEndProfile, ReadSimulator,
                       SimulatedPair, SimulatedRead, SimulationError)
from .variants import DiploidDonor, Haplotype, Variant, plant_variants

__all__ = [
    "ALPHABET_SIZE", "AlignmentRecord", "Cigar", "CigarError",
    "DEFAULT_PAIR_CHUNK", "DEFAULT_READ_CHUNK", "DiploidDonor",
    "ErrorModel", "FastaError", "Haplotype", "JsonlWriter", "METHOD_DP",
    "METHOD_EXACT", "METHOD_LIGHT", "MappingResult", "PafWriter",
    "PairedEndProfile", "ReadSimulator", "ReferenceError",
    "ReferenceGenome", "RepeatProfile", "ResultLineWriter", "SamWriter",
    "SequenceError", "SimulatedPair", "SimulatedRead", "SimulationError",
    "Variant", "decode", "encode", "generate_reference",
    "hamming_distance", "iter_pairs", "iter_pairs_chunked", "iter_reads",
    "iter_reads_chunked", "jsonl_header_lines", "jsonl_record_lines",
    "kmer_to_int", "kmers", "pack_2bit", "paf_header_lines", "paf_line",
    "paf_record_lines", "plant_variants", "random_sequence", "read_ahead",
    "read_fasta", "read_fastq", "result_records",
    "reverse_complement", "reverse_complement_str", "sam_header_lines",
    "sam_record_lines", "unpack_2bit", "write_fasta", "write_fastq",
    "write_sam",
]

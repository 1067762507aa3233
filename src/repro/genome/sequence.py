"""DNA sequence primitives: 2-bit encoding, complements, k-mer helpers.

Every higher layer of the reproduction (SeedMap, light alignment, the
baseline mapper, the read simulator) works on sequences encoded as
``numpy.uint8`` arrays holding one base code per element.  The codes follow
the conventional 2-bit alphabet used by the paper's hardware (GenPairX
encodes a read-pair with 2 bits per base, §7.4):

====  =====
base  code
====  =====
A     0
C     1
G     2
T     3
====  =====

Ambiguous bases (``N``) are carried as code 4 at the string boundary and are
never produced by the synthetic reference generator; the encoder can either
reject them or map them to an arbitrary concrete base, mirroring how real
mappers treat ``N`` in reads.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

#: Number of distinct concrete bases in the DNA alphabet.
ALPHABET_SIZE = 4

#: Code used for an ambiguous base at the string boundary.
N_CODE = 4

_BASES = "ACGT"
_BASE_TO_CODE = {"A": 0, "C": 1, "G": 2, "T": 3, "N": N_CODE,
                 "a": 0, "c": 1, "g": 2, "t": 3, "n": N_CODE}

# Translate table from ASCII byte to code (255 = invalid).
_ASCII_TO_CODE = bytes(_BASE_TO_CODE.get(chr(byte), 255)
                       for byte in range(256))

_CODE_TO_ASCII = b"ACGTN".ljust(256, b"?")  # translate table, "?": no base

SequenceLike = Union[str, bytes, np.ndarray, Sequence[int]]


class SequenceError(ValueError):
    """Raised for malformed sequence input (invalid characters or codes)."""


def encode(seq: SequenceLike, allow_n: bool = False) -> np.ndarray:
    """Encode a DNA sequence into a ``uint8`` code array.

    Parameters
    ----------
    seq:
        A string/bytes of ``ACGTN`` (case-insensitive), or an existing code
        array which is validated and passed through.
    allow_n:
        When false (the default) an ``N`` raises :class:`SequenceError`;
        when true it is encoded as :data:`N_CODE`.

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array of base codes; for text, a fresh writable
        array made by one ``translate`` through a byte-to-code table.  Any character outside ``ACGTN``, a non-ASCII one
        included, raises :class:`SequenceError` naming it.
    """
    if isinstance(seq, (str, bytes)):
        # "replace" makes each non-ASCII character one invalid "?", so
        # a byte's position is its character's position in ``seq``.
        raw = seq.encode("ascii", "replace") if isinstance(seq, str) \
            else seq
        text = bytearray(raw).translate(_ASCII_TO_CODE)
        if 255 in text:
            bad = text.index(255)
            char = seq[bad] if isinstance(seq, str) else chr(seq[bad])
            raise SequenceError(f"invalid DNA character: {char!r}")
        if not allow_n and N_CODE in text:
            raise SequenceError("sequence contains codes outside the "
                                "alphabet")
        return np.frombuffer(text, dtype=np.uint8)
    if isinstance(seq, np.ndarray):
        codes = seq.astype(np.uint8, copy=False)
    else:
        codes = np.asarray(list(seq), dtype=np.uint8)
    limit = N_CODE if allow_n else ALPHABET_SIZE - 1
    if codes.size and codes.max(initial=0) > limit:
        raise SequenceError("sequence contains codes outside the alphabet")
    return codes


def encode_many(seqs: Sequence[Union[str, bytes]],
                allow_n: bool = False) -> List[np.ndarray]:
    """:func:`encode` of every sequence, from one ``encode`` of them all
    joined: per-sequence views of one code array (rows of a
    ``reshape`` when every length agrees, slices otherwise).  ``seqs``
    are all ``str`` or all ``bytes``; any bad character raises as
    :func:`encode` does, naming the character but not its sequence.
    """
    if not seqs:
        return []
    codes = encode(seqs[0][:0].join(seqs), allow_n)
    lengths = list(map(len, seqs))
    if min(lengths) == max(lengths):
        return list(codes.reshape(len(seqs), lengths[0]))
    ends = np.cumsum(lengths).tolist()
    return [codes[end - length:end] for end, length in zip(ends, lengths)]


def decode(codes: np.ndarray) -> str:
    """Decode a ``uint8`` code array back into an ``ACGTN`` string."""
    text = np.asarray(codes, np.uint8).tobytes().translate(_CODE_TO_ASCII)
    if b"?" in text:
        raise SequenceError("code array contains values outside the alphabet")
    return text.decode("ascii")


def decode_many(arrays: Sequence[Optional[np.ndarray]]) -> List[str]:
    """:func:`decode` of every array, with one ``translate`` of them all
    laid end to end; ``None`` decodes to ``""`` like an empty array."""
    present = [codes for codes in arrays if codes is not None]
    text = decode(np.concatenate(present)) if present else ""
    lengths = [0 if codes is None else len(codes) for codes in arrays]
    ends = list(itertools.accumulate(lengths))
    return [text[end - length:end] for end, length in zip(ends, lengths)]


def window_view(codes: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-long window of a contiguous 1-D array, as the
    rows of a read-only 2-D view: row ``i`` is ``codes[i:i + width]``.
    What ``sliding_window_view`` returns, built directly (it costs a
    few microseconds of argument checks per call)."""
    view = np.ndarray((codes.size - width + 1, width), codes.dtype, codes,
                      0, codes.strides * 2)
    view.flags.writeable = False
    return view


def complement(codes: np.ndarray) -> np.ndarray:
    """Return the base-wise complement (A<->T, C<->G); ``N`` maps to itself."""
    codes = np.asarray(codes, dtype=np.uint8)
    out = 3 - codes  # uint8, like codes
    out[codes == N_CODE] = N_CODE
    return out


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Return the reverse complement of a code array."""
    return complement(codes)[::-1]


def reverse_complements(sequences: Sequence[np.ndarray]
                        ) -> List[np.ndarray]:
    """The reverse complement of each sequence, from one
    :func:`reverse_complement`: that of all of them laid end to end holds
    each one's own, in reverse order (each result is a view of it)."""
    if not sequences:
        return []
    flipped = reverse_complement(np.concatenate(sequences))
    result, end = [], len(flipped)
    for codes in sequences:
        start = end - len(codes)
        result.append(flipped[start:end])
        end = start
    return result


def random_sequence(rng: np.random.Generator, length: int) -> np.ndarray:
    """Draw a uniform random sequence of ``length`` concrete bases."""
    if length < 0:
        raise SequenceError("length must be non-negative")
    return rng.integers(0, ALPHABET_SIZE, size=length, dtype=np.uint8)


def pack_2bit(codes: np.ndarray) -> bytes:
    """Pack concrete base codes into 2 bits per base (4 bases per byte).

    This mirrors the 2-bit wire encoding the paper uses for host transfers
    (75 bytes per 150bp read-pair end, §7.4).  Ambiguous bases are not
    representable and raise :class:`SequenceError`.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max(initial=0) >= ALPHABET_SIZE:
        raise SequenceError("cannot 2-bit pack ambiguous bases")
    padded = np.zeros((codes.size + 3) // 4 * 4, dtype=np.uint8)
    padded[: codes.size] = codes
    quads = padded.reshape(-1, 4)
    packed = (quads[:, 0] | (quads[:, 1] << 2)
              | (quads[:, 2] << 4) | (quads[:, 3] << 6))
    return packed.astype(np.uint8).tobytes()


def unpack_2bit(data: bytes, length: int) -> np.ndarray:
    """Inverse of :func:`pack_2bit`; ``length`` is the base count."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size * 4 < length:
        raise SequenceError("packed buffer shorter than requested length")
    quads = np.empty((raw.size, 4), dtype=np.uint8)
    quads[:, 0] = raw & 3
    quads[:, 1] = (raw >> 2) & 3
    quads[:, 2] = (raw >> 4) & 3
    quads[:, 3] = (raw >> 6) & 3
    return quads.reshape(-1)[:length]


def kmers(codes: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Yield every overlapping ``k``-mer window of ``codes`` (views)."""
    if k <= 0:
        raise SequenceError("k must be positive")
    for start in range(0, len(codes) - k + 1):
        yield codes[start:start + k]

"""(w, k) minimizer extraction, as used by the Minimap2 baseline.

A minimizer is the smallest-hashed k-mer in every window of ``w``
consecutive k-mers; indexing only minimizers shrinks the index ~2/(w+1)-
fold while guaranteeing that any exact match of length ``w + k - 1``
shares one.  The baseline mapper ("MM2" in the paper's evaluation) builds
on these, in contrast to GenPair's fixed-offset 50bp partitioned seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List

import numpy as np

from ..genome.sequence import ALPHABET_SIZE
from ..hashing import hash_reference_windows

#: Stand-in hash of a k-mer spanning an ambiguous base: above every
#: 32-bit hash, so a window's minimum only lands on it when the whole
#: window is ambiguous — and then nothing is emitted.
_AMBIGUOUS = 1 << 32


@dataclass(frozen=True)
class Minimizer:
    """One selected minimizer: k-mer hash and its start position."""

    position: int
    hash_value: int


def extract_minimizers(codes: np.ndarray, k: int = 15,
                       w: int = 10) -> List[Minimizer]:
    """Extract (w, k) minimizers from a code array.

    Uses the standard monotone-deque sliding-window minimum; consecutive
    windows sharing the same minimizer emit it once.  A k-mer spanning
    an ambiguous base (``N``) is never a minimizer, as in minimap2.
    """
    if k <= 0 or w <= 0:
        raise ValueError("k and w must be positive")
    if len(codes) < k:
        return []
    try:
        hashes = hash_reference_windows(codes, k).tolist()
    except ValueError:
        # The hash's own scan found an N (an N-free read pays no extra
        # pass): hash with a placeholder base, then mask those k-mers.
        ambiguous = codes >= ALPHABET_SIZE
        hashes = hash_reference_windows(np.where(ambiguous, 0, codes)
                                        .astype(codes.dtype), k)
        hashes[np.lib.stride_tricks.sliding_window_view(
            ambiguous, k).any(axis=1)] = _AMBIGUOUS
        hashes = hashes.tolist()
    count = len(hashes)
    window = min(w, count)
    result: List[Minimizer] = []
    queue: deque = deque()  # indices, increasing hash order
    last_emitted = -1
    for index in range(count):
        while queue and hashes[queue[-1]] >= hashes[index]:
            queue.pop()
        queue.append(index)
        if queue[0] <= index - window:
            queue.popleft()
        if index >= window - 1:
            best = queue[0]
            if best != last_emitted and hashes[best] != _AMBIGUOUS:
                result.append(Minimizer(position=best,
                                        hash_value=hashes[best]))
                last_emitted = best
    return result

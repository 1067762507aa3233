"""Scalar reference for :meth:`repro.genome.ReferenceGenome.window`:
one base at a time over the chromosomes, no ``bisect``, no slicing
arithmetic shared with the method under test."""

from __future__ import annotations


def window_oracle(reference, start, read_length, before, after,
                  min_length=0):
    """``(bases, chromosome, window_start, offset)`` or ``None``: the
    chromosome is the one whose linear region holds the middle of
    ``[start, start + read_length)``; the window is every base of it
    from ``before`` ahead of the span through ``after`` past it."""
    middle = start + read_length // 2
    cursor = 0
    for name in reference.names:
        codes = reference.chromosomes[name]
        if cursor <= middle < cursor + len(codes):
            local = start - cursor
            kept = [position for position in range(len(codes))
                    if local - before <= position
                    < local + read_length + after]
            if len(kept) < min_length:
                return None
            # An empty window still has a place: where the span would
            # have started, cut to the chromosome.
            window_start = kept[0] if kept else max(0, local - before)
            return ([int(codes[position]) for position in kept], name,
                    window_start, local - window_start)
        cursor += len(codes)
    return None

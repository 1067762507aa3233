"""Shared fixtures: a small reference, donor, simulator, and index.

Session-scoped so the (relatively) expensive builds happen once; tests
must treat these as read-only.
"""

from __future__ import annotations

import gc
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants)
from repro.genome.reference import RepeatProfile
from repro.genome.sequence import N_CODE
from repro.index import build_index

# ``pytest --hypothesis-profile ci``: property tests that leave
# ``max_examples`` to the profile (the DP kernel against its scalar
# oracle) search ten times deeper in CI than at the desk.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_reference():
    """~70kb two-chromosome reference with default repeat structure."""
    return generate_reference(np.random.default_rng(7), (40_000, 30_000))


@pytest.fixture(scope="session")
def plain_reference():
    """Repeat-free 30kb reference (every seed hits ~1 location)."""
    return generate_reference(np.random.default_rng(11), (30_000,),
                              repeats=None)


@pytest.fixture(scope="session")
def donor(small_reference):
    return plant_variants(np.random.default_rng(13), small_reference)


@pytest.fixture(scope="session")
def simulator(small_reference, donor):
    return ReadSimulator(small_reference, donor=donor,
                         error_model=ErrorModel.giab_like(), seed=17)


@pytest.fixture(scope="session")
def clean_simulator(plain_reference):
    """Error-free reads straight from the plain reference."""
    return ReadSimulator(plain_reference,
                         error_model=ErrorModel.perfect(), seed=19)


@pytest.fixture(scope="session")
def small_index(small_reference):
    """The :class:`~repro.index.MappingIndex` of ``small_reference``."""
    return build_index(small_reference)


@pytest.fixture(scope="session")
def seedmap(small_index):
    return small_index.seedmap


@pytest.fixture(scope="session")
def plain_index(plain_reference):
    return build_index(plain_reference)


@pytest.fixture(scope="session")
def plain_seedmap(plain_index):
    return plain_index.seedmap


@pytest.fixture(scope="session")
def sample_pairs(simulator):
    return simulator.simulate_pairs(120)


def _record_fields(record):
    """Every observable field of an AlignmentRecord, as a tuple."""
    return (record.query_name, record.chromosome, record.position,
            record.strand, record.mapq, str(record.cigar), record.score,
            record.mate, record.mapped, record.method,
            record.mate_chromosome, record.mate_position,
            record.mate_strand, record.template_length,
            record.proper_pair)


@pytest.fixture(scope="session")
def result_signature():
    """Full-field signature of a MappingResult, for bit-identity asserts.

    Shared by every suite that claims two engines/loads are
    "bit-identical", so the claim always means the same field set.
    """
    def signature(result):
        return (result.name, result.stage, result.orientation,
                result.joint_score, _record_fields(result.record1),
                _record_fields(result.record2))
    return signature


@pytest.fixture(scope="session")
def record_signature():
    """Full-field signature of one AlignmentRecord (single-read
    engines), the per-record half of :func:`result_signature`."""
    return _record_fields


@pytest.fixture(scope="session")
def map_alone():
    """``map_alone(mapper, codes, name)``: read 1's record from an
    ``Mm2LikeMapper.map_pairs`` pair whose mate cannot be placed (all
    ``N``: no minimizer, and no alignment clears the score floor)."""
    mate = np.full(150, N_CODE, dtype=np.uint8)

    def mapped(mapper, codes, name):
        result, = mapper.map_pairs([(codes, mate, name)])
        assert not result.record2.mapped
        return result.record1
    return mapped


@pytest.fixture()
def banded_calls(monkeypatch):
    """``((n, m, diagonal, bandwidth), stack size)`` of every
    ``align_banded`` call the two mappers make in the test, all of them
    from :func:`~repro.align.banded.align_problems`; the stack size of a
    1-D call (one problem, unstacked) is ``None``."""
    import repro.align.banded as banded

    real = banded.align_banded
    calls = []

    def counting(read, ref, **options):
        read = np.asarray(read)
        calls.append(((read.shape[-1], np.shape(ref)[-1],
                       options["diagonal"], options["bandwidth"]),
                      read.shape[0] if read.ndim == 2 else None))
        return real(read, ref, **options)

    monkeypatch.setattr(banded, "align_banded", counting)
    return calls


@pytest.fixture()
def seedmap_probes(monkeypatch):
    """Reads per SeedMap probe: the ``group_count`` of every
    ``query_hash_groups`` call ``resolve_reads`` makes in the test."""
    import repro.core.query as query

    real = query.query_hash_groups
    calls = []

    def counting(seedmap, hashes, offsets, groups, group_count,
                 group_sizes):
        calls.append(group_count)
        return real(seedmap, hashes, offsets, groups, group_count,
                    group_sizes)

    monkeypatch.setattr(query, "query_hash_groups", counting)
    return calls


@pytest.fixture(scope="session")
def counter_deltas():
    """Counter changes between two metrics-registry snapshots whose
    names start with ``prefixes`` (the registry is process-wide, so
    tests compare before/after instead of absolute values)."""
    def deltas(before, after, prefixes):
        changed = {}
        for name, value in after["counters"].items():
            if name.startswith(prefixes):
                delta = value - before["counters"].get(name, 0)
                if delta:
                    changed[name] = delta
        return changed
    return deltas


@pytest.fixture(scope="session")
def clean_pairs(clean_simulator):
    return clean_simulator.simulate_pairs(60)


@pytest.fixture()
def fds_returned(monkeypatch):
    """A context manager for resource-lifetime checks: once its body
    has run and ``gc.collect()`` has dropped what the body let go of,
    exactly as many fds are open as when it entered, and no
    ``ResourceWarning`` was raised on the way or left to a finalizer.
    Skips where ``/proc/self/fd`` does not exist."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counts open fds through /proc/self/fd")
    # A warning raised inside a finalizer cannot propagate; it lands
    # here instead.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

    @contextmanager
    def check():
        # Garbage from earlier tests may still hold fds; count from a
        # collected heap so only the body's own fds are compared.
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before
        assert unraisable == []

    return check

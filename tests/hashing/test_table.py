"""PositionTable against a dict-of-lists oracle."""

import numpy as np
from hypothesis import example, given, strategies as st

from repro.hashing import PositionTable, ragged_ranges

TOP = 2**64 - 1
#: A small pool so hashes repeat; both ends of the uint64 range are keys.
pool = st.sampled_from([0, 1, 2, 5, 2**32, 2**63, TOP - 1, TOP])
entries = st.lists(st.tuples(pool, st.integers(-50, 50)), max_size=40)
probes = st.lists(st.one_of(pool, st.sampled_from([3, 4, 2**40, TOP - 2])),
                  max_size=12)


def oracle(pairs, max_count):
    """``(kept hash -> sorted positions, left-out sizes in hash order)``."""
    groups = {}
    for hash_value, position in pairs:
        groups.setdefault(hash_value, []).append(position)
    kept = {hash_value: sorted(found)
            for hash_value, found in groups.items()
            if max_count is None or len(found) <= max_count}
    return kept, [len(groups[hash_value]) for hash_value in sorted(groups)
                  if hash_value not in kept]


def build(pairs, max_count):
    return PositionTable.build(
        np.array([pair[0] for pair in pairs], dtype=np.uint64),
        np.array([pair[1] for pair in pairs], dtype=np.int64), max_count)


class TestAgainstOracle:
    @given(entries, st.sampled_from([None, 1, 3]), probes)
    @example([], None, [0, TOP])                       # empty input
    @example([(5, 1), (5, 0), (TOP, 2), (TOP, 2)], 1, [5, TOP, 0])  # all masked
    @example([(0, 3), (TOP, -1), (0, -3)], None, [TOP, 7, 0, 0])
    def test_build_spans_gather_lookup(self, pairs, max_count, wanted):
        table, dropped = build(pairs, max_count)
        kept, left_out = oracle(pairs, max_count)
        assert table.keys.tolist() == sorted(kept)
        assert dropped.tolist() == left_out
        assert len(table) == len(kept)
        assert table.positions.size == sum(map(len, kept.values()))
        for hash_value, found in kept.items():
            assert table.lookup(hash_value).tolist() == found

        hashes = np.array(wanted, dtype=np.uint64)
        starts, ends = table.spans(hashes)
        assert (ends - starts).tolist() \
            == [len(kept.get(hash_value, ())) for hash_value in wanted]
        which, positions = table.gather(hashes)
        assert which.tolist() == [number
                                  for number, hash_value in enumerate(wanted)
                                  for _ in kept.get(hash_value, ())]
        assert positions.tolist() == [position for hash_value in wanted
                                      for position in kept.get(hash_value,
                                                               ())]

    def test_out_of_range_key_is_absent(self):
        table, _dropped = build([(0, 4), (TOP, 9)], None)
        assert table.lookup(0).tolist() == [4]
        assert table.lookup(TOP).tolist() == [9]
        for key in (-1, 2**64, 2**70):
            found = table.lookup(key)
            assert found.size == 0 and found.dtype == np.int64

    def test_lookup_is_a_read_only_view(self):
        table, _dropped = build([(1, 4), (1, 2)], None)
        found = table.lookup(1)
        assert found.base is not None and not found.flags.writeable


def test_ragged_ranges():
    owner, within = ragged_ranges(np.array([2, 0, 3]))
    assert owner.tolist() == [0, 0, 2, 2, 2]
    assert within.tolist() == [0, 1, 0, 1, 2]
    owner, within = ragged_ranges(np.zeros(0, dtype=np.int64))
    assert owner.size == 0 and within.size == 0

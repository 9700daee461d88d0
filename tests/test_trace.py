"""Trace int columns: ``engine.Column`` against a plain-list oracle,
filled by ``extend`` calls of several sizes, on small values and on the
limits of each block type, and the block layout of a real run."""

from array import array
from bisect import bisect_left
from itertools import accumulate, cycle
from operator import is_

import pytest

from saloha.config import load_scenario
from saloha.engine import Column, Engine
from saloha.timebase import NS_PER_SEC

from oracles import narrowest_typecode

INT_COLUMNS = ("node_id", "true_start", "local_start", "slot_index", "channel",
               "duration")
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
#: Rows per ``extend`` call, and so per block (the engine's windows
#: average 768 uplinks).
BLOCKS = (1, 3, 4096)

#: Both sides of the limits of ``b``, ``h`` and ``i``, and the int64
#: extremes.
LIMITS = sorted(
    {s * (1 << k) + d for k in (7, 15, 31) for s in (-1, 1) for d in (-1, 0)}
    | {INT64_MIN, INT64_MAX}
)


def sample(n):
    """n sorted int64 values, the outermost the int64 extremes; values
    repeat once n passes 1009."""
    values = sorted((i * 7919) % 1009 - 504 for i in range(n))
    if n >= 2:
        values[0], values[-1] = INT64_MIN, INT64_MAX
    return values


def limits(n):
    """n values that cycle through ``LIMITS`` out of order, so that a
    block of a few rows mixes types."""
    return [LIMITS[i * 5 % len(LIMITS)] for i in range(n)]


def cases():
    for make, prefix in ((sample, ""), (limits, "limits-")):
        for block in BLOCKS:
            for n in sorted({0, block - 1, block, block + 1, 2 * block + 1}):
                if n or make is sample:  # one empty column is enough
                    yield pytest.param(block, n, make, id=f"{prefix}B={block}-n={n}")


CASES = list(cases())


def pieces(n, block):
    """The sizes of the ``extend`` calls that ``make_column`` makes."""
    return [min(block, n - start) for start in range(0, n, block)]


def make_column(block, values):
    """A column extended with ``values``, ``block`` rows a call."""
    col = Column()
    for start in range(0, len(values), block):
        col.extend(values[start : start + block])
    return col


def assert_layout(col, sizes):
    """One block per non-empty ``extend`` of the ``sizes`` given, each
    an array of the narrowest signed type that holds its rows, and
    ``ends`` the row count up to the end of each block."""
    sizes = [k for k in sizes if k]
    assert [len(b) for b in col.blocks] == sizes
    assert col.ends == list(accumulate(sizes))
    for b in col.blocks:
        assert isinstance(b, array) and b.typecode == narrowest_typecode(b)


@pytest.mark.parametrize("block,n,make", CASES)
class TestColumnAgainstList:
    def test_iteration_len_and_layout(self, block, n, make):
        values = make(n)
        col = make_column(block, values)
        assert list(col) == values
        assert len(col) == n
        assert_layout(col, pieces(n, block))

    def test_indexing_follows_list_semantics(self, block, n, make):
        values = make(n)
        col = make_column(block, values)
        for i in range(-n, n):
            assert col[i] == values[i]
        for i in (n, n + block, -n - 1):
            with pytest.raises(IndexError):
                col[i]
            with pytest.raises(IndexError):
                col[i] = 0
        with pytest.raises(TypeError):
            col[0:1]

    def test_item_assignment(self, block, n, make):
        values = make(n)
        col = make_column(block, values)
        for i in {0, block - 1, block, n // 2, -1} & set(range(-n, n)):
            values[i] ^= 1  # stays inside int64, unlike += 1
            col[i] ^= 1
        assert list(col) == values
        assert_layout(col, pieces(n, block))

    def test_count(self, block, n, make):
        values = make(n)
        col = make_column(block, values)
        for v in (-1, 10**6, INT64_MAX, *values[n // 2 : n // 2 + 1]):
            assert col.count(v) == values.count(v)

    def test_equality(self, block, n, make):
        # A column compares through list(col), whatever its blocks.
        values = make(n)
        col = make_column(block, values)
        assert list(col) == list(make_column(block + 1, values))
        assert list(col) != list(make_column(block, values + [0]))
        if n:
            assert list(col) != list(make_column(2, values[:-1] + [values[-1] ^ 1]))

    def test_bisect_left(self, block, n, make):
        values = sorted(make(n))
        col = make_column(block, values)
        for x in {INT64_MIN, -505, -1, 0, 504, INT64_MAX, *values[:3]}:
            assert bisect_left(col, x) == bisect_left(values, x)

    def test_array_of_column(self, block, n, make):
        values = make(n)
        col = make_column(block, values)
        assert array("q", col) == array("q", values)

    def test_extend_in_pieces(self, block, n, make):
        # Uneven pieces, some empty: each non-empty one is a new block,
        # whatever the length of the block before it.
        values = make(n)
        col = Column()
        sizes, sizes_of = [], cycle((block, 0, 1, 2 * block + 1))
        while len(col) < n:
            start = len(col)
            sizes.append(len(values[start : start + next(sizes_of)]))
            col.extend(values[start : start + sizes[-1]])
            assert_layout(col, sizes)
            assert list(col) == values[: len(col)]
        assert list(col) == values


@pytest.mark.parametrize("block", BLOCKS)
def test_item_assignment_keeps_each_blocks_type(block):
    # A value the block's type cannot hold is an OverflowError, even
    # inside int64, and nothing changes.
    values = [0] * (3 * block)
    col = make_column(block, values)
    before = list(col.blocks)
    col[block] = values[block] = 127
    col[-1] = values[-1] = -128
    for bad in (128, -129, 1 << 31, INT64_MAX):
        with pytest.raises(OverflowError):
            col[block] = bad
    assert list(col) == values
    assert all(map(is_, col.blocks, before))
    assert [b.typecode for b in col.blocks] == ["b"] * 3


def test_a_real_runs_clock_reading_takes_one_more_ns():
    # A run's clock readings fill int64 blocks, so a reading moved by
    # 1 ns, as the bench's digest self-test moves one, is kept.
    cfg = load_scenario("", seed=1, duration=3600 * NS_PER_SEC)
    trace, _ = Engine(cfg).run()
    first = trace.local_start[0]
    trace.local_start[0] += 1
    assert trace.local_start[0] == first + 1
    assert trace.local_start.blocks[0].typecode == "q"


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("bad", [INT64_MIN - 1, INT64_MAX + 1])
def test_a_value_outside_int64_changes_nothing(block, bad):
    values = limits(2 * block)
    col = make_column(block, values)
    blocks, ends = list(col.blocks), list(col.ends)
    for rows in ([bad], [0] * (2 * block) + [bad]):
        with pytest.raises(OverflowError):
            col.extend(rows)
    for i in (0, block, -1):
        with pytest.raises(OverflowError):
            col[i] = bad
    assert list(col) == values
    assert col.ends == ends
    assert len(col.blocks) == len(blocks) and all(map(is_, col.blocks, blocks))


def test_a_real_run_never_resizes_a_block(monkeypatch):
    # Six hours of the default pure scenario: one block per window that
    # had uplinks, each packed once.
    sizes = []
    append_rows = Engine._append_rows

    def recording(self, ordered):
        sizes.append(len(ordered))
        append_rows(self, ordered)

    monkeypatch.setattr(Engine, "_append_rows", recording)
    cfg = load_scenario("", seed=1, duration=6 * 3600 * NS_PER_SEC, policy="pure")
    trace, _ = Engine(cfg).run()
    assert len([k for k in sizes if k]) > 2
    for name in INT_COLUMNS:
        col = getattr(trace, name)
        assert col.ends[-1] == len(col) == len(trace), name
        assert_layout(col, sizes)

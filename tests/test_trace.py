"""Trace int columns: ``engine.Column`` against a plain-list oracle at
every block-boundary length, and the block layout of a real run."""

from array import array
from bisect import bisect_left

import pytest

from saloha import engine as engine_module
from saloha.config import load_scenario
from saloha.engine import Column, Engine
from saloha.timebase import NS_PER_SEC

INT_COLUMNS = ("node_id", "true_start", "local_start", "slot_index", "channel",
               "duration")
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def cases():
    for block in (1, 3, engine_module._TRACE_BLOCK):
        for n in sorted({0, block - 1, block, block + 1, 2 * block + 1}):
            yield block, n


CASES = list(cases())
IDS = [f"B={block}-n={n}" for block, n in CASES]


def sample(n):
    """n sorted int64 values, the outermost the int64 extremes; values
    repeat once n passes 1009."""
    values = sorted((i * 7919) % 1009 - 504 for i in range(n))
    if n >= 2:
        values[0], values[-1] = INT64_MIN, INT64_MAX
    return values


def make_column(monkeypatch, block, values):
    monkeypatch.setattr(engine_module, "_TRACE_BLOCK", block)
    col = Column()
    col.extend(values)
    return col


def assert_layout(col, block):
    """Every block is int64 and holds exactly ``block`` rows, except a
    shorter (never empty) last one."""
    assert col.block == block
    for b in col.blocks:
        assert isinstance(b, array) and b.typecode == "q"
    assert all(len(b) == block for b in col.blocks[:-1])
    assert all(0 < len(b) <= block for b in col.blocks[-1:])


@pytest.mark.parametrize("block,n", CASES, ids=IDS)
class TestColumnAgainstList:
    def test_iteration_len_and_layout(self, monkeypatch, block, n):
        values = sample(n)
        col = make_column(monkeypatch, block, values)
        assert list(col) == values
        assert len(col) == n
        assert_layout(col, block)

    def test_indexing_follows_list_semantics(self, monkeypatch, block, n):
        values = sample(n)
        col = make_column(monkeypatch, block, values)
        for i in range(-n, n):
            assert col[i] == values[i]
        for i in (n, n + block, -n - 1):
            with pytest.raises(IndexError):
                col[i]
            with pytest.raises(IndexError):
                col[i] = 0
        with pytest.raises(TypeError):
            col[0:1]

    def test_item_assignment(self, monkeypatch, block, n):
        values = sample(n)
        col = make_column(monkeypatch, block, values)
        for i in {0, block - 1, block, n // 2, -1} & set(range(-n, n)):
            values[i] ^= 1  # stays inside int64, unlike += 1
            col[i] ^= 1
        assert list(col) == values
        assert_layout(col, block)

    def test_count(self, monkeypatch, block, n):
        values = sample(n)
        col = make_column(monkeypatch, block, values)
        for v in (-1, 10**6, INT64_MAX, *values[n // 2 : n // 2 + 1]):
            assert col.count(v) == values.count(v)

    def test_equality(self, monkeypatch, block, n):
        values = sample(n)
        col = make_column(monkeypatch, block, values)
        assert col == make_column(monkeypatch, block, values)
        # Equal contents in a different layout are equal.
        assert col == make_column(monkeypatch, block + 1, values)
        assert col != make_column(monkeypatch, block, values + [0])
        if n:
            assert col != make_column(monkeypatch, 2, values[:-1] + [values[-1] - 1])
        # A column is not a list: compare through list(col).
        assert col != values

    def test_bisect_left(self, monkeypatch, block, n):
        values = sample(n)
        col = make_column(monkeypatch, block, values)
        for x in {INT64_MIN, -505, -1, 0, 504, INT64_MAX, *values[:3]}:
            assert bisect_left(col, x) == bisect_left(values, x)

    def test_array_of_column(self, monkeypatch, block, n):
        values = sample(n)
        col = make_column(monkeypatch, block, values)
        assert array("q", col) == array("q", values)

    def test_extend_in_pieces(self, monkeypatch, block, n):
        values = sample(n)
        monkeypatch.setattr(engine_module, "_TRACE_BLOCK", block)
        col = Column()
        start = 0
        for size in (1, 0, 2, block + 2) * (n + 1):
            col.extend(values[start : start + size])
            start += size
            assert_layout(col, block)
            if start >= n:
                break
        assert list(col) == values


def test_a_real_run_never_resizes_a_block():
    # Six hours of the default pure scenario: several full blocks.
    cfg = load_scenario("", seed=1, duration=6 * 3600 * NS_PER_SEC, policy="pure")
    trace, _ = Engine(cfg).run()
    assert len(trace) > 2 * engine_module._TRACE_BLOCK
    for name in INT_COLUMNS:
        col = getattr(trace, name)
        assert len(col) == len(trace), name
        assert_layout(col, engine_module._TRACE_BLOCK)

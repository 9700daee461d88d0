"""Reporting: independent duty-cycle audit, ratios, CSV emitters."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saloha.engine import Engine, Metrics, Trace
from saloha.report import (
    emit_conflict_series,
    scan_duty_cycle,
    steady_ratio,
    write_summary,
)
from saloha.config import load_scenario
from saloha.timebase import NS_PER_SEC

from oracles import scan_duty_cycle_oracle


def synthetic_trace(entries):
    """entries: (node_id, true_start, duration, collided) tuples."""
    entries = list(entries)
    n = len(entries)
    nodes, starts, durations, hits = ([e[k] for e in entries] for k in range(4))
    trace = Trace()
    trace.node_id.extend(nodes)
    trace.true_start.extend(starts)
    trace.local_start.extend(starts)
    trace.slot_index.extend([-1] * n)
    trace.channel.extend([0] * n)
    trace.duration.extend(durations)
    trace.collided.extend(hits)
    trace.acked.extend(bytes(n))
    trace.confirmed.extend(bytes(n))
    return trace


class TestScanDutyCycle:
    WINDOW = 3600 * NS_PER_SEC

    def test_detects_planted_violation(self):
        # 40 s of airtime inside one hour exceeds the 36 s budget.
        trace = synthetic_trace(
            [(0, i * 100 * NS_PER_SEC, 4 * NS_PER_SEC, 0) for i in range(10)]
        )
        violations = scan_duty_cycle(trace, 1, 0.01, self.WINDOW)
        assert violations
        node, _, fraction = violations[-1]
        assert node == 0
        assert fraction > 0.01

    def test_accepts_compliant_trace(self):
        trace = synthetic_trace(
            [(0, i * 200 * NS_PER_SEC, 2 * NS_PER_SEC, 0) for i in range(30)]
        )
        assert scan_duty_cycle(trace, 1, 0.01, self.WINDOW) == []

    def test_nodes_audited_independently(self):
        entries = [(0, i * 100 * NS_PER_SEC, 4 * NS_PER_SEC, 0) for i in range(10)]
        entries += [(1, i * 200 * NS_PER_SEC + 50, 2 * NS_PER_SEC, 0) for i in range(5)]
        violations = scan_duty_cycle(synthetic_trace(entries), 2, 0.01, self.WINDOW)
        assert violations and all(node == 0 for node, _, _ in violations)

    @pytest.mark.parametrize("window", [0, -1])
    def test_rejects_non_positive_window(self, window):
        trace = synthetic_trace([(0, 0, 5, 0)])
        with pytest.raises(ValueError, match="window"):
            scan_duty_cycle(trace, 1, 0.01, window)

    @pytest.mark.parametrize("node", [-1, 2])
    def test_rejects_node_outside_range(self, node):
        trace = synthetic_trace([(0, 0, 5, 0), (node, 10, 5, 0)])
        with pytest.raises(ValueError, match="node_id"):
            scan_duty_cycle(trace, 2, 0.01, self.WINDOW)

    @pytest.mark.parametrize("second", [(50, 5), (100, 4)])
    def test_rejects_uplinks_out_of_order(self, second):
        entries = [(0, 100, 5, 0), (1, 60, 5, 0), (0, *second, 0)]
        with pytest.raises(ValueError, match="precedes"):
            scan_duty_cycle(synthetic_trace(entries), 2, 0.01, self.WINDOW)

    def test_memory_bounded_by_window(self):
        # 4 nodes, a 0.5 s uplink per node every 100 s: 0.5 % of each
        # hour, so about 36 entries per node are live at once.
        entries = [
            (i % 4, (i // 4) * 100 * NS_PER_SEC + i % 4, NS_PER_SEC // 2, 0)
            for i in range(100_000)
        ]
        trace = synthetic_trace(entries)
        tracemalloc.start()
        try:
            violations = scan_duty_cycle(trace, 4, 0.01, self.WINDOW)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert violations == []
        assert peak < 1_000_000


@st.composite
def audit_cases(draw):
    """Traces of 1-5 nodes, each node's uplinks in (start, duration)
    order but interleaved at random across nodes, over a window short
    enough for own-uplink overlaps, equal starts and violations."""
    n_nodes = draw(st.integers(1, 5))
    per_node = [
        sorted(
            draw(
                st.lists(
                    st.tuples(st.integers(0, 400), st.integers(0, 60)), max_size=15
                )
            )
        )
        for _ in range(n_nodes)
    ]
    order = draw(
        st.permutations([node for node, txs in enumerate(per_node) for _ in txs])
    )
    nexts = [iter(txs) for txs in per_node]
    entries = [(node, *next(nexts[node]), 0) for node in order]
    cap = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    window = draw(st.integers(1, 200))
    return synthetic_trace(entries), n_nodes, cap, window


class TestScanDutyCycleOracle:
    """The streaming audit against the sort-then-scan oracle."""

    @given(audit_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_oracle(self, case):
        trace, n_nodes, cap, window = case
        assert scan_duty_cycle(trace, n_nodes, cap, window) == scan_duty_cycle_oracle(
            trace, n_nodes, cap, window
        )

    def test_violations_grouped_by_node(self):
        # Node 0 overlaps itself and repeats a start; node 1's violation
        # comes between node 0's in the trace but after them in the list.
        entries = [(0, 0, 30, 0), (1, 5, 15, 0), (0, 0, 40, 0), (0, 20, 5, 0)]
        trace = synthetic_trace(entries)
        violations = scan_duty_cycle(trace, 2, 0.1, 100)
        assert [node for node, _, _ in violations] == [0, 0, 0, 1]
        assert violations == scan_duty_cycle_oracle(trace, 2, 0.1, 100)


class TestRatiosAndSeries:
    def metrics(self, steady):
        return Metrics(
            transmissions=100,
            conflicts=0,
            collision_probability=0.0,
            throughput_fraction=0.0,
            steady_transmissions=100,
            steady_conflicts=0,
            steady_state_collision_probability=steady,
            warmup_transmissions=0,
            warmup_conflicts=0,
            warmup_ns=0,
        )

    def test_steady_ratio(self):
        assert steady_ratio(self.metrics(0.06), self.metrics(0.02)) == pytest.approx(3.0)
        assert math.isinf(steady_ratio(self.metrics(0.06), self.metrics(0.0)))
        assert steady_ratio(self.metrics(0.0), self.metrics(0.0)) == 1.0

    def test_collision_probability_empty_trace(self):
        # The first uplink is drawn within one period, after a 1 ns run.
        cfg = load_scenario("", seed=9, duration=1, warmup=0)
        trace, metrics = Engine(cfg).run()
        assert len(trace) == 0
        assert metrics.collision_probability == 0.0

    def test_conflict_series_format(self, tmp_path):
        trace = synthetic_trace([(0, 10, 5, 1), (1, 20, 5, 0)])
        path = tmp_path / "trace.csv"
        emit_conflict_series(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,node_id,true_start_ns,slot_index,channel,conflict"
        assert lines[1] == "0,0,10,,0,1"
        assert lines[2] == "1,1,20,,0,0"

    def test_summary_echoes_digest_and_seed(self, tmp_path):
        cfg = load_scenario("", seed=9, duration=600 * NS_PER_SEC, warmup=0)
        _, metrics = Engine(cfg).run()
        path = tmp_path / "summary.txt"
        write_summary(cfg, metrics, str(path))
        text = path.read_text()
        assert "config_digest: " in text
        assert "seed: 9" in text
        assert "steady_state_collision_probability:" in text

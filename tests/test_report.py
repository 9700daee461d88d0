"""Reporting: independent duty-cycle audit, ratios, CSV emitters."""

import math

import pytest

from saloha.engine import Engine, Metrics, Trace
from saloha.report import (
    emit_conflict_series,
    scan_duty_cycle,
    steady_ratio,
    write_summary,
)
from saloha.config import load_scenario
from saloha.timebase import NS_PER_SEC


def synthetic_trace(entries):
    """entries: (node_id, true_start, duration, collided) tuples."""
    trace = Trace()
    for node, start, dur, hit in entries:
        trace.node_id.append(node)
        trace.true_start.append(start)
        trace.local_start.append(start)
        trace.slot_index.append(-1)
        trace.channel.append(0)
        trace.duration.append(dur)
        trace.collided.append(hit)
        trace.acked.append(0)
        trace.confirmed.append(0)
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
            duration_ns=1,
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

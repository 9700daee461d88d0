"""Slot geometry, access timing, ALOHA peak constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saloha.mac import (
    PURE_ALOHA_PEAK,
    SLOTTED_ALOHA_PEAK,
    BackoffPolicy,
    MacPolicy,
    SlotPlan,
    max_node_dc,
    plan_slot,
    slot_start,
)
from saloha.config import load_scenario
from saloha.engine import Engine
from saloha.phy import RadioProfile
from saloha.timebase import NS_PER_MS, NS_PER_SEC, drift_error

UPLINK = RadioProfile(
    spreading_factor=7,
    bandwidth_hz=125_000,
    coding_rate_index=1,
    preamble_symbols=6,
    payload_bytes=101,
)
ACK = RadioProfile(
    spreading_factor=7,
    bandwidth_hz=125_000,
    coding_rate_index=1,
    preamble_symbols=6,
    payload_bytes=13,
)
#: The default scenario's [scenario] duty_cycle_cap.
CAP = 0.01


class TestPlanSlot:
    def test_reference_geometry(self):
        # Long-range profile: SF9, BW 250 kHz, 200 B uplink, 13 B ACK.
        up = RadioProfile(
            spreading_factor=9,
            bandwidth_hz=250_000,
            preamble_symbols=6,
            payload_bytes=200,
        )
        ack = RadioProfile(
            spreading_factor=9,
            bandwidth_hz=250_000,
            preamble_symbols=6,
            payload_bytes=13,
        )
        plan = plan_slot(up, ack, NS_PER_SEC, 400 * NS_PER_MS, 100 * NS_PER_MS)
        assert plan.t_r == 1_576_512_000  # uplink + RX1 + ACK
        assert plan.t_b == 400 * NS_PER_MS
        assert plan.t == 2 * NS_PER_SEC  # rounded up to 100 ms multiple

    def test_rounding_never_shrinks(self):
        plan = plan_slot(UPLINK, ACK, NS_PER_SEC, 400 * NS_PER_MS, 100 * NS_PER_MS)
        assert plan.t >= plan.t_r + plan.t_b
        assert plan.t % (100 * NS_PER_MS) == 0

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            plan_slot(UPLINK, ACK, 0, 400 * NS_PER_MS, 100 * NS_PER_MS)
        with pytest.raises(ValueError):
            plan_slot(UPLINK, ACK, NS_PER_SEC, 0, 100 * NS_PER_MS)


class TestGuardInverse:
    def test_reference_guard(self):
        guard = 15 * NS_PER_MS + drift_error(80.0, 4_812_500_000_000)  # 4812.5 s
        assert guard == 400 * NS_PER_MS


class TestPolicies:
    def test_slotted_requires_plan(self):
        with pytest.raises(ValueError):
            MacPolicy("slotted")

    def test_slotted_requires_backoff(self):
        plan = SlotPlan(t_r=1_600_000_000, t_b=400_000_000, t=2_000_000_000)
        with pytest.raises(ValueError, match="BackoffPolicy"):
            MacPolicy("slotted", plan=plan)
        assert MacPolicy("slotted", plan=plan, backoff=BackoffPolicy()).is_slotted

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            MacPolicy("csma")

    def test_backoff_bounds(self):
        with pytest.raises(ValueError):
            BackoffPolicy(max_phase_slots=0)

    def test_slot_plan_consistency(self):
        with pytest.raises(ValueError):
            SlotPlan(t_r=100, t_b=50, t=120)


class TestNextTxTime:
    """When an uplink starts: ``slot_start`` on the grid, and the
    engine's use of it (pure and unsynced uplinks start when ready)."""

    PLAN = SlotPlan(t_r=1_600_000_000, t_b=400_000_000, t=2_000_000_000)

    def test_pure_transmits_immediately(self):
        cfg = load_scenario(
            "[scenario]\nn_nodes = 1\nconfirmed_uplinks = none\n",
            seed=1,
            duration=3600 * NS_PER_SEC,
            policy="pure",
        )
        trace, _ = Engine(cfg).run()
        assert len(trace) > 100
        assert set(trace.slot_index) == {-1}
        starts = list(trace.local_start)
        gaps = {b - a for a, b in zip(starts, starts[1:])}
        assert gaps == {cfg.app_period}

    def test_slotted_aligns_to_next_boundary(self):
        t = self.PLAN.t
        assert slot_start(1, t) == t
        assert slot_start(t, t) == t  # already on the grid
        assert slot_start(t + 1, t) == 2 * t

    def test_phase_shifts_whole_slots(self):
        t = self.PLAN.t
        assert slot_start(1, t, phase=3) == 4 * t

    def test_unsynced_cannot_use_slots(self):
        cfg = load_scenario("", seed=2, duration=3600 * NS_PER_SEC)
        trace, _ = Engine(cfg).run()
        synced = set()
        for i in range(len(trace)):
            node = trace.node_id[i]
            if node not in synced:
                assert trace.slot_index[i] == -1
            if trace.acked[i]:
                synced.add(node)
        assert synced == set(range(cfg.n_nodes))
        assert max(trace.slot_index) >= 0

    @given(st.integers(0, 10**15), st.integers(0, 100))
    @settings(max_examples=300)
    def test_grid_membership_and_causality(self, ready, phase):
        tx = slot_start(ready, self.PLAN.t, phase)
        assert tx % self.PLAN.t == 0
        assert tx >= ready


class TestThroughput:
    def test_peaks(self):
        assert 0.5 * math.exp(-2 * 0.5) == pytest.approx(PURE_ALOHA_PEAK)
        assert 1.0 * math.exp(-1.0) == pytest.approx(SLOTTED_ALOHA_PEAK)

    def test_peak_constants(self):
        assert PURE_ALOHA_PEAK == pytest.approx(1 / (2 * math.e))
        assert SLOTTED_ALOHA_PEAK == pytest.approx(1 / math.e)


class TestMaxNodeDc:
    def test_flat_at_cap_for_small_networks(self):
        assert max_node_dc("pure", 1, CAP) == 0.01
        assert max_node_dc("slotted", 10, CAP) == 0.01

    def test_decays_past_crossover(self):
        # 1/(2e)/N drops below 1% at N = 19; 1/e/N at N = 37.
        assert max_node_dc("pure", 18, CAP) == 0.01
        assert max_node_dc("pure", 19, CAP) == pytest.approx(PURE_ALOHA_PEAK / 19)
        assert max_node_dc("slotted", 36, CAP) == 0.01
        assert max_node_dc("slotted", 37, CAP) == pytest.approx(SLOTTED_ALOHA_PEAK / 37)

    def test_slotted_dominates_pure(self):
        for n in range(1, 200):
            assert max_node_dc("slotted", n, CAP) >= max_node_dc("pure", n, CAP)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            max_node_dc("pure", 0, CAP)
        with pytest.raises(ValueError):
            max_node_dc("pure", 5, 0.0)

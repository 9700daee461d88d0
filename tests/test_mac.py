"""Slot geometry, access timing, analytic throughput."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saloha.mac import (
    PURE_ALOHA_PEAK,
    SLOTTED_ALOHA_PEAK,
    BackoffPolicy,
    MacError,
    MacPolicy,
    SlotPlan,
    max_node_dc,
    plan_slot,
    required_guard,
    slot_start,
    throughput,
)
from saloha.config import load_scenario
from saloha.engine import Engine
from saloha.phy import RadioProfile
from saloha.sync import max_resync_interval
from saloha.timebase import NS_PER_MS, NS_PER_SEC

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
        plan = plan_slot(up, ack, NS_PER_SEC, 400 * NS_PER_MS)
        assert plan.t_r == 1_576_512_000  # uplink + RX1 + ACK
        assert plan.t_b == 400 * NS_PER_MS
        assert plan.t == 2 * NS_PER_SEC  # rounded up to 100 ms multiple

    def test_rounding_never_shrinks(self):
        plan = plan_slot(UPLINK, ACK, NS_PER_SEC, 400 * NS_PER_MS, 100 * NS_PER_MS)
        assert plan.t >= plan.t_r + plan.t_b
        assert plan.t % (100 * NS_PER_MS) == 0

    def test_positive_inputs_required(self):
        with pytest.raises(MacError):
            plan_slot(UPLINK, ACK, 0, 400 * NS_PER_MS)
        with pytest.raises(MacError):
            plan_slot(UPLINK, ACK, NS_PER_SEC, 0)


class TestGuardInverse:
    def test_reference_guard(self):
        interval = 4_812_500_000_000  # 4812.5 s
        assert required_guard(15 * NS_PER_MS, 80.0, interval) == 400 * NS_PER_MS

    @given(
        st.integers(1, 15 * NS_PER_MS),
        st.floats(1.0, 200.0, allow_nan=False),
        st.integers(NS_PER_SEC, 10 * 3600 * NS_PER_SEC),
    )
    @settings(max_examples=300)
    def test_inverse_of_max_resync_interval(self, residual, ppm, interval):
        guard = required_guard(residual, ppm, interval)
        if guard <= residual:
            return  # zero drift accrual, interval unbounded
        back = max_resync_interval(guard, residual, ppm)
        # each direction rounds once; slack is below 1 ns of drift input
        assert abs(back - interval) * ppm <= 1e6


class TestPolicies:
    def test_slotted_requires_plan(self):
        with pytest.raises(MacError):
            MacPolicy("slotted")

    def test_slotted_requires_backoff(self):
        plan = SlotPlan(t_r=1_600_000_000, t_b=400_000_000, t=2_000_000_000)
        with pytest.raises(MacError, match="BackoffPolicy"):
            MacPolicy("slotted", plan=plan)
        assert MacPolicy("slotted", plan=plan, backoff=BackoffPolicy()).is_slotted

    def test_unknown_variant(self):
        with pytest.raises(MacError):
            MacPolicy("csma")

    def test_backoff_bounds(self):
        with pytest.raises(MacError):
            BackoffPolicy(max_phase_slots=0)

    def test_slot_plan_consistency(self):
        with pytest.raises(MacError):
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
        gaps = {b - a for a, b in zip(trace.local_start, trace.local_start[1:])}
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
        assert throughput("pure", 0.5) == pytest.approx(PURE_ALOHA_PEAK)
        assert throughput("slotted", 1.0) == pytest.approx(SLOTTED_ALOHA_PEAK)

    def test_peak_constants(self):
        assert PURE_ALOHA_PEAK == pytest.approx(1 / (2 * math.e))
        assert SLOTTED_ALOHA_PEAK == pytest.approx(1 / math.e)

    def test_zero_load_zero_throughput(self):
        assert throughput("pure", 0.0) == 0.0
        assert throughput("slotted", 0.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(MacError):
            throughput("pure", -0.1)
        with pytest.raises(MacError):
            throughput("csma", 0.5)


class TestMaxNodeDc:
    def test_flat_at_cap_for_small_networks(self):
        assert max_node_dc("pure", 1) == 0.01
        assert max_node_dc("slotted", 10) == 0.01

    def test_decays_past_crossover(self):
        # 1/(2e)/N drops below 1% at N = 19; 1/e/N at N = 37.
        assert max_node_dc("pure", 18) == 0.01
        assert max_node_dc("pure", 19) == pytest.approx(PURE_ALOHA_PEAK / 19)
        assert max_node_dc("slotted", 36) == 0.01
        assert max_node_dc("slotted", 37) == pytest.approx(SLOTTED_ALOHA_PEAK / 37)

    def test_slotted_dominates_pure(self):
        for n in range(1, 200):
            assert max_node_dc("slotted", n) >= max_node_dc("pure", n)

    def test_rejects_bad_inputs(self):
        with pytest.raises(MacError):
            max_node_dc("pure", 0)
        with pytest.raises(MacError):
            max_node_dc("pure", 5, regulatory_cap=0.0)

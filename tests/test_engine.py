"""Event engine: collision semantics, duty enforcement, determinism,
whole-run invariants against independent trace checks, the engine's
fused clock and sync arithmetic against the oracles in ``oracles`` and
``sync``, the window driver against the reference event loop in every
mode, and the schedule's float pre-filter against the exact clock map."""

import errno
import gc
import math
import os
import random
import signal
import threading
import tracemalloc
import warnings
import weakref
from array import array
from bisect import bisect_right
from collections import Counter, deque
from contextlib import ExitStack
from dataclasses import replace
from fractions import Fraction
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saloha import engine as engine_module
from saloha.config import load_scenario, pure_baseline
from saloha.engine import (
    ConfigError,
    Engine,
    ScenarioConfig,
    _merge_window,
    _Node,
    enforce_duty_cycle,
)
from saloha.mac import BackoffPolicy, MacPolicy, plan_slot
from saloha.phy import ALLOWED_BANDWIDTHS_HZ, RadioProfile, time_on_air
from saloha.report import scan_duty_cycle
from saloha.sync import (
    MAX_TIMESTAMP_ERROR_NS,
    SyncAck,
    SyncError,
    SyncState,
    current_uncertainty,
    gateway_record_rx_end,
    needs_resync,
)
from saloha.timebase import (
    MAX_ABS_DRIFT_PPM,
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    drift_error,
    ppm_ratio,
    round_half_away_div,
)

from oracles import (
    channel_arbitrate,
    enforce_duty_cycle_oracle,
    heap_pop_order,
    local_now,
    local_to_true,
    metrics_oracle,
    narrowest_typecode,
    run_event_loop,
    scan_duty_cycle_oracle,
)
from test_golden import GOLDEN, run_digests
from test_golden import SCENARIOS as GOLDEN_SCENARIOS

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


PURE_SCENARIO = (
    "[scenario]\nn_nodes = 1\nn_channels = 1\nconfirmed_uplinks = none\n"
    "duration = 1 h\nwarmup = 0 s\n[mac]\npolicy = pure\n"
)


def pure_config(**overrides) -> ScenarioConfig:
    """One unconfirmed pure-ALOHA node for an hour, on one channel and
    otherwise the scenario defaults; ``overrides`` are not validated."""
    return replace(load_scenario(PURE_SCENARIO, seed=1), **overrides)


class TestChannelArbitrate:
    """The test-side arbitration oracle; transmissions are
    ``(start, duration, channel)``."""

    def test_touching_intervals_do_not_collide(self):
        # [0, 10) and [10, 20): half-open, no shared instant.
        assert channel_arbitrate([(0, 10, 0), (10, 10, 0)]) == [False, False]

    def test_one_ns_overlap_collides_all_parties(self):
        assert channel_arbitrate([(0, 10, 0), (9, 10, 0)]) == [True, True]

    def test_channels_are_isolated(self):
        assert channel_arbitrate([(0, 10, 0), (0, 10, 1)]) == [False, False]

    def test_three_way_pileup(self):
        txs = [(0, 100, 0), (50, 100, 0), (120, 100, 0), (500, 10, 0)]
        assert channel_arbitrate(txs) == [True, True, True, False]


@st.composite
def duty_cases(draw):
    """Sorted, non-overlapping, equal-duration histories that start no
    later than the proposal, with the window start drawn directly: on an
    entry's start or end, or anywhere up to the proposal."""
    duration = draw(st.integers(1, 50))
    t = draw(st.integers(-1000, 1000))
    starts = []
    for _ in range(draw(st.integers(0, 30))):
        starts.append(t)
        t += duration + draw(st.integers(0, 3 * duration))
    proposed = (starts[-1] if starts else t) + draw(st.integers(0, 200))
    edges = [e for s in starts for e in (s, s + duration) if e <= proposed]
    if edges and draw(st.booleans()):
        win_start = draw(st.sampled_from(edges))
    else:
        win_start = draw(st.integers(proposed - 2000, proposed))
    window = proposed + duration - win_start
    budget = draw(st.integers(duration, window))
    return starts, duration, proposed, window, budget


class TestEnforceDutyCycle:
    """``enforce_duty_cycle`` takes the trimmed history, its airtime sum
    and the budget; every history here meets its precondition."""

    WINDOW = 3600 * NS_PER_SEC
    BUDGET = round(0.01 * WINDOW)  # 36 s per hour

    def check(self, history, proposed, duration):
        airtime = sum(d for _s, d in history)
        return enforce_duty_cycle(
            deque(history), airtime, proposed, duration, self.BUDGET, self.WINDOW
        )

    def test_legal_proposal_passes(self):
        history = [(0, 10 * NS_PER_SEC)]
        assert self.check(history, self.WINDOW // 2, NS_PER_SEC) is None

    def test_defers_to_earliest_legal_start(self):
        # 36 s of budget per hour; 30 s already spent at t=0, so a 10 s
        # transmission must wait until 4 s of the old airtime has left
        # the window.
        history = [(0, 30 * NS_PER_SEC)]
        proposed = 30 * NS_PER_SEC
        deferred = self.check(history, proposed, 10 * NS_PER_SEC)
        assert deferred is not None and deferred > proposed
        assert self.check(history, deferred, 10 * NS_PER_SEC) is None
        assert self.check(history, deferred - 1, 10 * NS_PER_SEC) is not None

    def test_oversized_transmission_rejected(self):
        with pytest.raises(ValueError):
            enforce_duty_cycle(deque(), 0, 0, self.WINDOW, self.BUDGET, self.WINDOW)
        with pytest.raises(ValueError):
            enforce_duty_cycle_oracle([], 0, self.WINDOW, 0.01, self.WINDOW)
        # One nanosecond over a 20 ns budget, as the oracle also rules.
        with pytest.raises(ValueError):
            enforce_duty_cycle(deque(), 0, 0, 21, 20, 100)
        with pytest.raises(ValueError):
            enforce_duty_cycle_oracle([], 0, 21, 0.2, 100)

    @given(duty_cases())
    # Four 10 ns uplinks, window 100: with budget 20 the window start
    # walks across three entries (deferral 140); then window starts on
    # an entry's start and on an entry's end.
    @example(([0, 20, 40, 60], 10, 70, 100, 20))
    @example(([0, 20, 40, 60], 10, 70, 60, 20))
    @example(([0, 20, 40, 60], 10, 70, 50, 20))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_equals_oracle(self, case):
        starts, duration, proposed, window, budget = case
        cap = budget / window
        assert round(cap * window) == budget

        def both(at):
            # The engine's trim: only entries that end after the window
            # start are passed.
            win_start = at + duration - window
            history = [(s, duration) for s in starts if s + duration > win_start]
            airtime = duration * len(history)
            got = enforce_duty_cycle(
                deque(history), airtime, at, duration, budget, window
            )
            assert got == enforce_duty_cycle_oracle(
                history, at, duration, cap, window
            )
            return got

        deferred = both(proposed)
        if deferred is not None:
            # The deferral is an exact fit: legal there, not 1 ns before.
            assert deferred > proposed
            assert both(deferred) is None
            assert both(deferred - 1) is not None

    def test_equals_oracle_on_every_engine_call(self, monkeypatch):
        # The capped golden scenario defers thousands of times within its
        # 10 min window; every call sees the engine's real deque.
        text, seed = GOLDEN_SCENARIOS["capped-60-nodes"]
        cfg = load_scenario(text, seed=seed)
        real = engine_module.enforce_duty_cycle
        deferrals = []

        def checked(history, airtime, proposed_start, duration, budget, window):
            entries = list(history)
            assert airtime == sum(d for _s, d in entries)
            got = real(history, airtime, proposed_start, duration, budget, window)
            assert got == enforce_duty_cycle_oracle(
                entries, proposed_start, duration, cfg.duty_cycle_cap, window
            )
            if got is not None:
                deferrals.append(got)
            return got

        monkeypatch.setattr(engine_module, "enforce_duty_cycle", checked)
        Engine(cfg).run()
        assert deferrals


class TestEngineBasics:
    def test_single_node_never_collides(self):
        trace, metrics = Engine(pure_config()).run()
        assert metrics.transmissions > 0
        assert metrics.conflicts == 0
        assert sum(trace.collided) == 0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: an unconfirmed uplink reschedules from its "
        "start, not its end, so the next one can start inside it",
    )
    def test_a_node_never_starts_inside_its_own_uplink(self):
        # Today: 85 uplinks, of which 10 start inside their predecessor,
        # and one 60 s window at 5.18 % of airtime.
        cfg = pure_config(
            app_period=3_445_760_000,
            jitter=3 * NS_PER_SEC,
            duty_cycle_cap=0.05,
            dc_window=60 * NS_PER_SEC,
            duration=5 * 60 * NS_PER_SEC,
            seed=0,
        )
        trace, _ = Engine(cfg).run()
        starts = list(trace.true_start)
        inside = [b - a < d for a, b, d in zip(starts, starts[1:], trace.duration)]
        assert not any(inside)
        assert scan_duty_cycle(trace, 1, cfg.duty_cycle_cap, cfg.dc_window) == []

    def test_forced_overlap_collides(self):
        # Two nodes on one channel with the period barely above the
        # airtime: every pair of consecutive uplinks must overlap.
        cfg = pure_config(
            n_nodes=2,
            app_period=time_on_air(UPLINK) + 20 * NS_PER_MS,
            duration=60 * NS_PER_SEC,
            duty_cycle_cap=1.0,
            drift_ppm_range=(0.0, 0.0),
            initial_offset_max=0,
        )
        trace, metrics = Engine(cfg).run()
        assert metrics.transmissions > 100
        assert metrics.collision_probability == 1.0

    def test_channels_isolate_forced_overlap(self):
        cfg = pure_config(
            n_nodes=2,
            app_period=time_on_air(UPLINK) + 20 * NS_PER_MS,
            duration=60 * NS_PER_SEC,
            duty_cycle_cap=1.0,
            drift_ppm_range=(0.0, 0.0),
            initial_offset_max=0,
            n_channels=2,
            channel_selection="round-robin",
        )
        _, metrics = Engine(cfg).run()
        assert metrics.conflicts == 0

    def test_determinism_same_seed(self):
        cfg = pure_config(n_nodes=5, duration=7200 * NS_PER_SEC)
        t1, m1 = Engine(cfg).run()
        t2, m2 = Engine(cfg).run()
        assert t1.node_id == t2.node_id
        assert t1.true_start == t2.true_start
        assert t1.collided == t2.collided
        assert m1 == m2

    def test_different_seeds_differ(self):
        t1, _ = Engine(pure_config(n_nodes=5, seed=1)).run()
        t2, _ = Engine(pure_config(n_nodes=5, seed=2)).run()
        assert t1.true_start != t2.true_start

    @pytest.mark.parametrize("mode", ["none", "on-demand"])
    def test_a_finished_engine_is_freed_without_the_cycle_collector(self, mode):
        # A cycle would keep every engine's trace alive until a
        # collection, and so raise the peak memory of a batch of runs.
        gc.disable()
        try:
            engine = Engine(pure_config(confirmed_mode=mode, duration=600 * NS_PER_SEC))
            engine.run()
            freed = weakref.ref(engine)
            del engine
            assert freed() is None
        finally:
            gc.enable()

    def test_engine_is_single_use(self):
        engine = Engine(pure_config(duration=60 * NS_PER_SEC))
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()

    def test_per_node_counts_are_conserved(self):
        _, metrics = Engine(pure_config(n_nodes=4, seed=3)).run()
        assert sum(tx for tx, _ in metrics.per_node) == metrics.transmissions
        assert sum(hit for _, hit in metrics.per_node) == metrics.conflicts

    def test_warmup_split_is_conserved(self):
        cfg = pure_config(n_nodes=4, warmup=1800 * NS_PER_SEC)
        _, metrics = Engine(cfg).run()
        assert metrics.steady_transmissions + metrics.warmup_transmissions == (
            metrics.transmissions
        )
        assert metrics.steady_conflicts + metrics.warmup_conflicts == metrics.conflicts


class TestDutyEnforcementInRun:
    def test_aggressive_period_gets_throttled_not_violated(self):
        # A 5 s period wants 12x more airtime than the 1% cap allows;
        # the engine must defer, and an independent scan of the emitted
        # trace must find no window over the cap.
        cfg = pure_config(
            app_period=5 * NS_PER_SEC,
            duration=4 * 3600 * NS_PER_SEC,
        )
        trace, metrics = Engine(cfg).run()
        toa = time_on_air(UPLINK)
        expected_max = int(0.01 * cfg.duration / toa) + 2
        assert metrics.transmissions <= expected_max
        assert scan_duty_cycle(trace, cfg.n_nodes, 0.01, cfg.dc_window) == []


class TestSlottedRun:
    def test_synced_records_sit_on_the_grid(self):
        cfg = load_scenario("", seed=11, duration=2 * 3600 * NS_PER_SEC)
        engine = Engine(cfg)
        trace, metrics = engine.run()
        plan = cfg.policy.plan
        slotted = [i for i in range(len(trace)) if trace.slot_index[i] >= 0]
        assert slotted, "no node ever reached slotted operation"
        for i in slotted:
            assert trace.local_start[i] % plan.t == 0
            # RTC grid position stays within the guard of the true start
            assert abs(trace.true_start[i] - trace.local_start[i]) < plan.t_b

    def test_sync_leaves_the_clock_within_the_sync_error_budget(self):
        cfg = load_scenario("", seed=4, duration=3600 * NS_PER_SEC)
        engine = Engine(cfg)
        engine.run()
        budget = cfg.residual_max + MAX_TIMESTAMP_ERROR_NS
        for nd in engine.nodes:
            assert nd.n_syncs > 0
            assert 0 < nd.max_mis_post_sync <= budget
            assert nd.max_mis_pre_sync < cfg.policy.plan.t_b

    def test_validation_rejects_unconfirmable_slotted(self):
        plan = plan_slot(UPLINK, ACK, NS_PER_SEC, 400 * NS_PER_MS, 100 * NS_PER_MS)
        with pytest.raises(ConfigError, match="confirmed uplinks"):
            pure_config(
                policy=MacPolicy("slotted", plan=plan, backoff=BackoffPolicy()),
                duration=NS_PER_SEC,
            ).validate()

    def test_validation_collects_problems(self):
        with pytest.raises(ConfigError) as exc:
            pure_config(
                n_nodes=0, duration=-1, n_channels=0, channel_selection="magic"
            ).validate()
        msg = str(exc.value)
        for fragment in ("n_nodes", "duration", "n_channels", "channel_selection"):
            assert fragment in msg


@st.composite
def short_scenarios(draw) -> ScenarioConfig:
    """Short valid scenarios, pure and slotted, with offered duty
    ``toa / app_period`` at or below the cap.

    An unslotted duty deferral can map its instant to local time and
    back 1 ns early and retry it forever.  Pure periods therefore leave
    room in every window for the window edge and the jitter, so pure
    uplinks never defer; slotted ones defer to a later slot."""
    cap = draw(st.sampled_from([0.01, 0.05]))
    window = draw(st.sampled_from([60, 300, 3600])) * NS_PER_SEC
    jitter = draw(st.sampled_from([0, 500 * NS_PER_MS, 3 * NS_PER_SEC]))
    toa = time_on_air(UPLINK)
    slotted = draw(st.booleans())
    if slotted:
        min_period = math.ceil(toa / cap)
        plan = plan_slot(UPLINK, ACK, NS_PER_SEC, 400 * NS_PER_MS, 100 * NS_PER_MS)
        phases = draw(st.integers(1, 20))
        policy = MacPolicy("slotted", plan=plan, backoff=BackoffPolicy(phases))
        modes = ["all", "on-demand"]
    else:
        # At most (window + 2 * jitter) / period + 2 uplinks touch a window.
        min_period = math.ceil((window + 2 * jitter) / (cap * window / toa - 2))
        policy = MacPolicy("pure")
        modes = ["all", "on-demand", "none"]
    duration = draw(st.integers(5, 30)) * 60 * NS_PER_SEC
    return pure_config(
        policy=policy,
        n_nodes=draw(st.integers(1, 20)),
        app_period=draw(st.integers(min_period, 3 * min_period)),
        jitter=jitter,
        n_channels=draw(st.integers(1, 6)),
        channel_selection=draw(
            st.sampled_from(["fixed", "round-robin", "uniform-random"])
        ),
        confirmed_mode=draw(st.sampled_from(modes)),
        duty_cycle_cap=cap,
        dc_window=window,
        duration=duration,
        warmup=draw(st.integers(0, duration)),
        seed=draw(st.integers(0, 2**32)),
    )


@st.composite
def dense_slotted(draw) -> ScenarioConfig:
    """The default slotted scenario with 20 to 60 nodes on 1 to 8
    channels, fixed, round-robin or drawn per uplink, for 10 to 30
    minutes: collisions in every window, so the schedule's guesses fail
    and its conservative step runs, its one frontier over nodes that
    never share a channel as well as over nodes that do."""
    n_channels = draw(st.integers(1, 8))
    selection = draw(st.sampled_from(["fixed", "round-robin", "uniform-random"]))
    return load_scenario(
        f"[scenario]\nn_nodes = {draw(st.integers(20, 60))}\n"
        f"n_channels = {n_channels}\nchannel_selection = {selection}\n"
        f"confirmed_uplinks = {draw(st.sampled_from(['all', 'on-demand']))}\n"
        f"duration = {draw(st.integers(10, 30))} min\nwarmup = 5 min\n",
        seed=draw(st.integers(0, 2**32)),
    )


class TestWholeRunOracle:
    """Whole-run invariants of random short scenarios, each against an
    independent check of the finished trace."""

    # Derandomized: the same 150 scenarios run every time.
    @given(short_scenarios())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_trace_invariants(self, cfg):
        self.check_invariants(cfg)

    @given(dense_slotted())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_dense_slotted_trace_invariants(self, cfg):
        self.check_invariants(cfg)

    @staticmethod
    def check_invariants(cfg):
        trace, metrics = Engine(cfg).run()
        n = len(trace)
        expected = channel_arbitrate(
            list(zip(trace.true_start, trace.duration, trace.channel))
        )
        assert [bool(c) for c in trace.collided] == expected
        # The metrics fold relies on the log being in start order.
        starts = list(trace.true_start)
        assert all(a <= b for a, b in zip(starts, starts[1:]))
        assert metrics == metrics_oracle(trace, cfg.n_nodes, cfg.warmup, cfg.duration)
        cap, window = cfg.duty_cycle_cap, cfg.dc_window
        violations = scan_duty_cycle(trace, cfg.n_nodes, cap, window)
        assert violations == []
        assert violations == scan_duty_cycle_oracle(trace, cfg.n_nodes, cap, window)
        for i in range(n):
            if trace.acked[i]:
                assert trace.confirmed[i] and not trace.collided[i]
        assert sum(tx for tx, _ in metrics.per_node) == n
        assert metrics.transmissions == n


DAY = 86400 * NS_PER_SEC
PPM = st.floats(-MAX_ABS_DRIFT_PPM, MAX_ABS_DRIFT_PPM, allow_nan=False)
OFFSET = st.integers(-10 * NS_PER_SEC, 10 * NS_PER_SEC)


def clock_node(ppm: float, offset: int, corrections: int) -> _Node:
    nd = _Node(ppm, offset)
    nd.base += corrections
    return nd


class TestClockMapOracle:
    """``Engine._local_at``/``_true_at`` against the exact-fraction
    clock map in ``oracles``."""

    @given(PPM, OFFSET, OFFSET, st.integers(0, 30 * DAY))
    # 500 ppm over 1000 ns is a drift of exactly +-0.5 ns.
    @example(500.0, 0, 0, 1000)
    @example(-500.0, 0, 0, 1000)
    @settings(max_examples=500)
    def test_local_at_equals_local_now(self, ppm, offset, corrections, t):
        nd = clock_node(ppm, offset, corrections)
        assert Engine._local_at(nd, t) == local_now(ppm, offset + corrections, t)

    @given(PPM, OFFSET, OFFSET, st.integers(0, 31 * DAY))
    @settings(max_examples=500)
    def test_true_at_equals_local_to_true(self, ppm, offset, corrections, elapsed):
        nd = clock_node(ppm, offset, corrections)
        base = offset + corrections
        local = base + elapsed
        assert Engine._true_at(nd, local) == local_to_true(ppm, base, local)

    @given(PPM, OFFSET, st.integers(-30 * DAY, 30 * DAY))
    @example(500.0, 0, -1000)
    @example(-500.0, 0, -1000)
    # At 64 ppm the inverse slope is 15625/15626: 7813 local ns map to
    # exactly 7812.5 true ns.
    @example(64.0, 0, 7813)
    @example(64.0, 0, -7813)
    @settings(max_examples=500)
    def test_rounding_matches_for_both_signs(self, ppm, offset, x):
        # Negative instants never occur in a run; they reach the other
        # sign of the rounded numerator.
        nd = clock_node(ppm, offset, 0)
        assert Engine._local_at(nd, x) == local_now(ppm, offset, x)
        assert Engine._true_at(nd, offset + x) == local_to_true(ppm, offset, offset + x)

    @pytest.mark.parametrize("num,den", [(1, 2), (-1, 2), (3, 4), (-3, 4), (1, 3), (5, 10)])
    def test_rounding_ties_go_away_from_zero(self, num, den):
        nd = clock_node(0.0, 0, 0)
        nd.drift_num, nd.drift_den, nd.inv_den = num, den, den + num
        for x in range(-3 * den, 3 * den + 1):
            assert Engine._local_at(nd, x) == x + round_half_away_div(x * num, den)
            assert Engine._true_at(nd, x) == round_half_away_div(x * den, den + num)


def on_demand_engine(**overrides) -> Engine:
    """One on-demand slotted node whose clock reads 0 at true 0;
    ``overrides`` replace scenario fields."""
    cfg = load_scenario(
        "[scenario]\nn_nodes = 1\nconfirmed_uplinks = on-demand\n",
        seed=1,
        duration=40 * DAY,
    )
    engine = Engine(replace(cfg, **overrides))
    engine.nodes[0].base = 0
    return engine


def first_uplink_wants_ack(engine: Engine, tx_local: int) -> bool:
    """Whether the node's first uplink, made ready at ``tx_local``, a
    non-negative node-local instant on the slot grid, requests an ACK,
    as its schedule decides it."""
    nd = engine.nodes[0]
    nd.next_ready_local = tx_local
    row = engine._resume(nd, None)(None)
    assert row[1] == tx_local
    return bool(row[4])


class TestSyncOracle:
    """The engine's inline sync arithmetic against ``sync``."""

    @given(
        # Validation admits bounds in [0, MAX_ABS_DRIFT_PPM] only.
        st.floats(0.0, MAX_ABS_DRIFT_PPM, allow_nan=False),
        st.integers(-DAY, DAY),
        st.integers(0, 20 * NS_PER_MS),
        st.integers(-DAY, 30 * DAY),
    )
    @settings(max_examples=300)
    def test_uncertainty_equals_current_uncertainty(self, ppm, last, u0, local):
        engine = Engine(pure_config(drift_bound_ppm=ppm))
        nd = engine.nodes[0]
        nd.synced, nd.last_sync_local, nd.uncertainty_at_sync = True, last, u0
        state = SyncState(
            drift_bound_ppm=ppm, synced=True, last_sync_local=last, uncertainty_at_sync=u0
        )
        assert engine._uncertainty_at(nd, local) == current_uncertainty(state, local)

    @pytest.mark.parametrize("ppm,elapsed", [(80.0, 6250), (80.0, 18750), (20.0, 25_000)])
    def test_uncertainty_rounds_ties_up(self, ppm, elapsed):
        # elapsed * ppm * 1e-6 lands exactly on half a nanosecond.
        engine = Engine(pure_config(drift_bound_ppm=ppm))
        nd = engine.nodes[0]
        nd.synced, nd.last_sync_local, nd.uncertainty_at_sync = True, 0, 0
        state = SyncState(drift_bound_ppm=ppm, synced=True)
        got = engine._uncertainty_at(nd, elapsed)
        assert got == current_uncertainty(state, elapsed) == elapsed * int(ppm) // 10**6 + 1

    def test_on_demand_resync_threshold_is_inclusive(self):
        plan = load_scenario("", seed=1).policy.plan
        elapsed = 600 * NS_PER_SEC
        at_guard = plan.t_b - drift_error(80.0, elapsed)
        tx_local = 600 * plan.t
        for u0, expected in ((at_guard, True), (at_guard - 1, False)):
            engine = on_demand_engine()
            nd = engine.nodes[0]
            nd.synced = True
            nd.last_sync_local = tx_local + engine._resync_lookahead - elapsed
            nd.uncertainty_at_sync = u0
            assert first_uplink_wants_ack(engine, tx_local) == expected

    @given(
        st.floats(0.0, MAX_ABS_DRIFT_PPM, allow_nan=False),
        st.integers(0, 19),
        st.integers(NS_PER_MS, 5 * NS_PER_SEC),
    )
    @settings(max_examples=100)
    def test_sync_bound_folds_in_the_ack_window_drift(self, ppm, ts_us, rx1):
        engine = Engine(
            pure_config(drift_bound_ppm=ppm, timestamp_error_max_us=ts_us, rx1_delay=rx1)
        )
        ack_lag = rx1 + time_on_air(ACK)
        assert engine._sync_uncertainty == ts_us * NS_PER_US + drift_error(ppm, ack_lag)

    @given(
        st.integers(-DAY, DAY),
        st.integers(0, 3 * NS_PER_SEC),
        st.integers(0, 400 * NS_PER_MS),
        st.integers(0, DAY),
    )
    @settings(max_examples=300)
    def test_on_demand_resync_equals_needs_resync(self, last, u0, guard_extra, tx_local):
        engine = on_demand_engine()
        tx_local -= tx_local % engine._slot_t
        assert first_uplink_wants_ack(engine, tx_local)  # unsynced nodes always ask
        engine = on_demand_engine()
        nd = engine.nodes[0]
        nd.synced, nd.last_sync_local, nd.uncertainty_at_sync = True, last, u0
        cfg = engine.config
        state = SyncState(
            drift_bound_ppm=cfg.drift_bound_ppm,
            synced=True,
            last_sync_local=last,
            uncertainty_at_sync=u0,
        )
        horizon = tx_local + engine._resync_lookahead
        expected = needs_resync(state, horizon, cfg.policy.plan.t_b)
        assert first_uplink_wants_ack(engine, tx_local) == expected

    @given(
        st.integers(-NS_PER_SEC, 10**16),
        st.integers(-MAX_TIMESTAMP_ERROR_NS, MAX_TIMESTAMP_ERROR_NS),
    )
    @settings(max_examples=500)
    def test_gateway_timestamp_equals_library_path(self, t, err):
        gw_ns = gateway_record_rx_end(t, err)
        try:
            expected = SyncAck(gw_ns // NS_PER_US).gateway_timestamp_us
        except SyncError:
            with pytest.raises(SyncError, match="8 bytes"):
                Engine._gateway_timestamp_us(t, err)
        else:
            assert Engine._gateway_timestamp_us(t, err) == expected

    @pytest.mark.parametrize(
        "t,err", [(-500, 0), (-499, 0), (-1500, 0), (1500, 0), (499, 0), (500, 0), (0, 1)]
    )
    def test_gateway_timestamp_ties_and_negative_instants(self, t, err):
        gw_ns = gateway_record_rx_end(t, err)
        if gw_ns < 0:
            with pytest.raises(SyncError):
                Engine._gateway_timestamp_us(t, err)
        else:
            assert Engine._gateway_timestamp_us(t, err) * NS_PER_US == gw_ns

    def test_gateway_timestamp_rejects_unrepresentable_instants(self):
        with pytest.raises(SyncError, match="8 bytes"):
            Engine._gateway_timestamp_us((1 << 64) * NS_PER_US, 0)

    @pytest.mark.parametrize("err", [MAX_TIMESTAMP_ERROR_NS + 1, -MAX_TIMESTAMP_ERROR_NS - 1])
    def test_gateway_timestamp_rejects_out_of_spec_error(self, err):
        with pytest.raises(SyncError, match="timestamp error"):
            Engine._gateway_timestamp_us(NS_PER_SEC, err)

    def test_out_of_spec_timestamp_error_raises_from_a_run(self, monkeypatch):
        # Validation keeps the configured bound under 20 us; skip it so
        # the drawn gateway errors reach up to 1 ms.
        cfg = replace(
            load_scenario("", seed=1, duration=600 * NS_PER_SEC),
            timestamp_error_max_us=1000,
        )
        monkeypatch.setattr(ScenarioConfig, "validate", lambda self: None)
        with pytest.raises(SyncError, match="timestamp error"):
            Engine(cfg).run()

    def test_a_validated_run_cannot_raise_a_sync_error(self):
        # Validation admits gateway errors up to 19 us.  Every uplink
        # starts at 0 or later, and so ends one airtime or more after 0,
        # and it starts by the run's duration and lasts less than a
        # period, so it ends below the horizon the int64 check admits.
        # At each extreme the gateway's timestamp is in range.
        cfg = replace(load_scenario("", seed=1), initial_offset_max=0, jitter=0)
        replace(cfg, timestamp_error_max_us=19).validate()
        with pytest.raises(ConfigError, match="timestamp_error_max_us"):
            replace(cfg, timestamp_error_max_us=20).validate()
        # Airtime grows with the preamble and the payload.
        shortest = min(
            time_on_air(
                RadioProfile(
                    sf,
                    bw,
                    cr,
                    preamble_symbols=1,
                    explicit_header=header,
                    crc_enabled=crc,
                    low_data_rate_optimize=de,
                )
            )
            for sf in range(6, 13)
            for bw in ALLOWED_BANDWIDTHS_HZ
            for cr in range(1, 5)
            for header in (False, True)
            for crc in (False, True)
            for de in (False, True)
        )
        # The largest horizon with horizon * (scale + num) < 2^63 * scale.
        num, scale = ppm_ratio(MAX_ABS_DRIFT_PPM)
        horizon = -(-engine_module._INT64_LIMIT * scale // (scale + num)) - 1
        longest = replace(cfg, duration=horizon - cfg.app_period)
        longest.validate()
        with pytest.raises(ConfigError, match="2\\^63"):
            replace(longest, duration=longest.duration + 1).validate()
        for end in (shortest, horizon - 1):
            for err in (-19 * NS_PER_US, 19 * NS_PER_US):
                Engine._gateway_timestamp_us(end, err)


INT_COLUMNS = ("node_id", "true_start", "local_start", "slot_index", "channel",
               "duration")
FLAG_COLUMNS = ("collided", "acked", "confirmed")


def assert_columns_complete(trace) -> None:
    for name in INT_COLUMNS + FLAG_COLUMNS:
        assert len(getattr(trace, name)) == len(trace), name


class TestCompactTrace:
    def test_int_columns_are_arrays_of_the_narrowest_type(self):
        trace, _ = Engine(pure_config(n_nodes=3)).run()
        for name in INT_COLUMNS:
            blocks = getattr(trace, name).blocks
            assert blocks, name
            for block in blocks:
                assert isinstance(block, array), name
                assert block.typecode == narrowest_typecode(block), name
        # Node ids, channels and a pure run's slot index (-1) take a byte.
        for name in ("node_id", "channel", "slot_index"):
            assert {b.typecode for b in getattr(trace, name).blocks} == {"b"}, name
        for name in FLAG_COLUMNS:
            assert isinstance(getattr(trace, name), bytearray), name
        assert_columns_complete(trace)

    @pytest.mark.parametrize("block", [1, 3, engine_module._TRACE_BLOCK])
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_block_size_leaves_every_golden_digest(self, monkeypatch, name, block):
        # The trace digest covers every column's length and content.
        monkeypatch.setattr(engine_module, "_TRACE_BLOCK", block)
        assert run_digests(name) == GOLDEN[name]

    def test_a_run_ending_on_a_block_boundary_is_complete(self, monkeypatch):
        cfg = pure_config(n_nodes=3)
        reference, _ = Engine(cfg).run()
        assert len(reference) > 0
        # One full block packed inside the loop, then an empty final pack.
        monkeypatch.setattr(engine_module, "_TRACE_BLOCK", len(reference))
        trace, _ = Engine(cfg).run()
        assert_columns_complete(trace)
        for name in INT_COLUMNS + FLAG_COLUMNS:
            assert getattr(trace, name) == getattr(reference, name), name

    def test_a_run_without_uplinks_has_empty_columns(self):
        trace, metrics = Engine(pure_config(duration=1)).run()
        assert len(trace) == metrics.transmissions == 0
        assert_columns_complete(trace)

    @staticmethod
    def peak_bytes_per_uplink(path) -> float:
        """The traced heap's peak per uplink of the 1-day default
        slotted run, in this process, under the patches ``path``."""
        cfg = load_scenario("", seed=1, duration=86_400 * NS_PER_SEC)
        tracemalloc.start()
        try:
            with path:
                trace, _ = Engine(cfg).run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / len(trace)

    def test_trace_costs_at_most_50_bytes_per_uplink(self):
        # Columns as lists of boxed ints peaked at about 157 B per uplink,
        # and as int64 blocks at about 63 B.
        assert self.peak_bytes_per_uplink(cpus(1)) <= 50

    def test_a_split_run_costs_at_most_50_bytes_per_uplink_in_the_parent(self):
        # The child's uplinks reach the parent one window at a time.
        forks: list = []
        assert self.peak_bytes_per_uplink(splitting(forks)) <= 50
        assert len(forks) == 1


def run_exact_clock_map(engine: Engine):
    """``engine.run()`` with the float pre-filter off, so that every
    clock map of the schedule takes ``Engine._local_at``/``_true_at``."""
    with mock.patch.object(engine_module, "_FLOAT_EXACT", 0.0):
        return engine.run()


def assert_same_run(got, want) -> None:
    (trace, metrics), (ref_trace, ref_metrics) = got, want
    for name in INT_COLUMNS:
        assert list(getattr(trace, name)) == list(getattr(ref_trace, name)), name
    for name in FLAG_COLUMNS:
        assert getattr(trace, name) == getattr(ref_trace, name), name
    assert metrics == ref_metrics


NODE_STATE = (
    "base",
    "phase",
    "synced",
    "last_sync_local",
    "uncertainty_at_sync",
    "n_syncs",
    "max_mis_pre_sync",
    "max_mis_post_sync",
)


def assert_equals_the_event_loop(cfg: ScenarioConfig) -> Engine:
    """Run ``cfg`` through ``Engine.run`` and the reference event loop
    and check that the trace, the metrics, every node's sync state and
    the gateway's ACK airtime agree; returns the engine."""
    engine, reference = Engine(cfg), Engine(cfg)
    assert_same_run(engine.run(), run_event_loop(reference))
    for nd, ref in zip(engine.nodes, reference.nodes):
        for name in NODE_STATE:
            assert getattr(nd, name) == getattr(ref, name), name
    assert engine.gateway_airtime == reference.gateway_airtime
    return engine


def deferring(n_nodes, jitter, selection, n_channels) -> ScenarioConfig:
    """Pure nodes that want 20 uplinks a minute where the cap allows
    3, so most uplinks are deferred; seed 0 runs to its end."""
    return pure_config(
        n_nodes=n_nodes,
        app_period=3 * NS_PER_SEC,
        jitter=jitter,
        channel_selection=selection,
        n_channels=n_channels,
        duty_cycle_cap=0.01,
        dc_window=60 * NS_PER_SEC,
        duration=10 * 60 * NS_PER_SEC,
        warmup=60 * NS_PER_SEC,
        seed=0,
    )


DEFERRING = [
    deferring(1, 0, "fixed", 1),
    deferring(2, 0, "fixed", 1),
    deferring(3, 500 * NS_PER_MS, "uniform-random", 2),
    deferring(5, 3 * NS_PER_SEC, "round-robin", 3),
]

#: Feedback-free scenarios: the schedule consumes no bit and takes no
#: snapshot.
UNCONFIRMED = (
    short_scenarios()
    .filter(lambda cfg: not cfg.policy.is_slotted)
    .map(lambda cfg: replace(cfg, confirmed_mode="none"))
)


def lossy(n_nodes: int = 30, **overrides) -> ScenarioConfig:
    """The default slotted scenario crowded onto one channel for 20
    minutes: about a fifth of the uplinks collide."""
    cfg = load_scenario(
        f"[scenario]\nn_nodes = {n_nodes}\nn_channels = 1\nduration = 20 min\n"
        "warmup = 5 min\n",
        seed=5,
    )
    return replace(cfg, **overrides)


#: One scenario for each width of the schedule's integer draws, which
#: the event loop takes with ``randint`` and ``randrange``: a gateway
#: error of width 1, one and five random channels, a jitter of width 3,
#: and the loss branch's draws, a slotted run's phase redraws and a pure
#: confirmed run's grid shifts, each with the number of lost uplinks
#: that make them.
DRAW_WIDTHS = [
    pytest.param(lossy(10, timestamp_error_max_us=0), 0, 0, id="gateway-error-0us"),
    pytest.param(
        lossy(10, channel_selection="uniform-random"), 0, 0, id="1-random-channel"
    ),
    pytest.param(
        lossy(20, channel_selection="uniform-random", n_channels=5),
        0,
        0,
        id="5-random-channels",
    ),
    pytest.param(lossy(10, jitter=1), 0, 0, id="jitter-1ns"),
    pytest.param(lossy(), 100, 0, id="phase-redraws"),
    pytest.param(
        pure_config(n_nodes=20, confirmed_mode="all", duration=20 * 60 * NS_PER_SEC),
        0,
        10,
        id="grid-shifts",
    ),
]


class DrawsAtTheWidth(random.Random):
    """A generator whose ``getrandbits(k)``, for a ``k`` in ``widths``,
    returns on about one call in four that width of ``k`` bits, the
    least value a rejection loop on ``k`` bits must draw again.  An
    extra draw from the stream picks those calls, so the generator's
    state decides them and ``getstate``/``setstate`` keep them."""

    widths: dict[int, int] = {}

    def getrandbits(self, k: int) -> int:
        width = self.widths.get(k)
        if width is not None and super().getrandbits(2) == 0:
            return width
        return super().getrandbits(k)


def drawing_at_the_width(engine: Engine) -> Engine:
    """``engine`` with every node's generator a ``DrawsAtTheWidth`` in
    its state, for the widths of the schedule's integer draws."""
    cfg = engine.config
    widths = (
        2 * cfg.timestamp_error_max_us + 1,
        2 * cfg.jitter + 1,
        cfg.n_channels,
        engine._max_phase,
        cfg.app_period + 1,
    )
    for nd in engine.nodes:
        rng = DrawsAtTheWidth(0)
        rng.setstate(nd.rng.getstate())
        rng.widths = {width.bit_length(): width for width in widths}
        nd.rng = rng
    return engine


class TestEventLoopDifferential:
    """``Engine.run`` against the reference event loop
    (``oracles.run_event_loop``), in every mode: merge order, channel
    draws, the channel rule, every ACK's branch, the guesses, the
    restores from snapshots and the conservative step."""

    @pytest.mark.parametrize("cfg, redraws, shifts", DRAW_WIDTHS)
    def test_every_draw_width_equals_the_event_loop(self, cfg, redraws, shifts):
        trace = assert_equals_the_event_loop(cfg).trace
        lost = Counter(
            slot >= 0
            for slot, confirmed, collided in zip(
                trace.slot_index, trace.confirmed, trace.collided
            )
            if confirmed and collided
        )
        assert lost[True] >= redraws and lost[False] >= shifts
        # A draw of exactly the width is drawn again, as randrange does.
        assert_same_run(
            drawing_at_the_width(Engine(cfg)).run(),
            run_event_loop(drawing_at_the_width(Engine(cfg))),
        )

    # Derandomized: the same 150 scenarios run every time.
    @given(short_scenarios())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equals_the_event_loop(self, cfg):
        assert_equals_the_event_loop(cfg)

    @given(dense_slotted())
    # The drawn round-robin examples never reach the conservative step;
    # here its one frontier runs over eight channels of five nodes each.
    @example(
        load_scenario(
            "[scenario]\nn_nodes = 40\nn_channels = 8\n"
            "channel_selection = round-robin\nconfirmed_uplinks = all\n"
            "duration = 20 min\nwarmup = 5 min\n",
            seed=1,
        )
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_dense_slotted_runs_equal_the_event_loop(self, cfg):
        assert_equals_the_event_loop(cfg)

    def test_a_window_reaches_the_pass_bound_and_the_conservative_step(
        self, monkeypatch
    ):
        # Every node restarts from a snapshot (a fresh schedule), and the
        # conservative step bounds stopped nodes in the first window.
        resumed, bounded = [], []
        resume, bound = Engine._resume, Engine._next_start_bound

        def counted_resume(engine, nd, row):
            resumed.append(row)
            return resume(engine, nd, row)

        def counted_bound(engine, nd, row):
            bounded.append(row[0])
            return bound(engine, nd, row)

        monkeypatch.setattr(Engine, "_resume", counted_resume)
        monkeypatch.setattr(Engine, "_next_start_bound", counted_bound)
        cfg = lossy()
        engine = assert_equals_the_event_loop(cfg)
        first_window = cfg.app_period * max(
            engine_module._WINDOW_PERIODS, engine_module._WINDOW_ROWS // cfg.n_nodes
        )
        assert sum(row is not None for row in resumed) >= cfg.n_nodes
        assert min(bounded) < first_window

    def test_no_node_resumes_twice_from_one_row(self, monkeypatch):
        # A window restores each guessing node once, and no row's bit is
        # guessed in two windows.
        resumed = []
        resume = Engine._resume

        def counted_resume(engine, nd, row):
            if row is not None:
                resumed.append((nd.index, row))
            return resume(engine, nd, row)

        monkeypatch.setattr(Engine, "_resume", counted_resume)
        Engine(lossy()).run()
        assert resumed
        assert max(Counter(resumed).values()) == 1

    @pytest.mark.parametrize("mode", ["on-demand", "all"])
    @pytest.mark.parametrize("window_rows", [1, 64])
    def test_any_window_gives_the_same_run(self, monkeypatch, window_rows, mode):
        monkeypatch.setattr(engine_module, "_WINDOW_ROWS", window_rows)
        monkeypatch.setattr(engine_module, "_WINDOW_PERIODS", 1)
        assert_equals_the_event_loop(lossy(20, confirmed_mode=mode))

    def test_next_start_bound_never_passes_the_next_uplink(self, monkeypatch):
        bounds = []
        bound = Engine._next_start_bound

        def recorded(engine, nd, row):
            bounds.append((engine.nodes.index(nd), row[0], bound(engine, nd, row)))
            return bounds[-1][2]

        monkeypatch.setattr(Engine, "_next_start_bound", recorded)
        cfg = lossy(jitter=2 * NS_PER_SEC)
        trace, _ = Engine(cfg).run()
        starts: dict[int, list[int]] = {}
        for node, start in zip(trace.node_id, trace.true_start):
            starts.setdefault(node, []).append(start)
        assert len(bounds) > 100
        for node, start, low in bounds:
            later = starts[node][bisect_right(starts[node], start) :]
            assert not later or later[0] >= low


class TestNodeState:
    """``_node_state`` is the one record of a node's state: a window's
    snapshot and a split child's final message."""

    def test_a_loaded_state_restores_every_slot_and_the_next_draws(self):
        engine = Engine(lossy())
        nd = engine.nodes[0]
        send = engine._resume(nd, None)
        row = send(None)
        for bit in (0, 1, 0, 0):
            row = send(bit)
        state = engine_module._node_state(nd)
        names = [n for n in engine_module._Node.__slots__ if n not in ("rng", "duty")]
        slots = {name: getattr(nd, name) for name in names}
        rng, history, duty = nd.rng, nd.duty, list(nd.duty)
        assert nd.synced and duty

        def next_rows() -> list[tuple]:
            # Lost and delivered uplinks: phase redraws, syncs, draws.
            send = engine._resume(nd, row)
            return [send(bit) for bit in (1, 0, 1, 0, 0, 0)]

        expected = next_rows()
        assert list(nd.duty) != duty
        for name in slots:
            setattr(nd, name, None)
        engine_module._load_node_state(nd, state)
        assert {name: getattr(nd, name) for name in slots} == slots
        assert nd.rng is rng and nd.duty is history and list(history) == duty
        assert next_rows() == expected


class TestFeedbackFreeRun:
    """A run without confirmed uplinks generates each node's schedule a
    window at a time, with no guess and no snapshot; the event loop is
    its reference for every uplink and for the duty slow path, and the
    exact clock map for the float pre-filter."""

    # Derandomized: the same 150 scenarios run every time.
    @given(UNCONFIRMED)
    @example(DEFERRING[0])
    @example(DEFERRING[1])
    @example(DEFERRING[2])
    @example(DEFERRING[3])
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equals_the_event_loop(self, cfg):
        assert_equals_the_event_loop(cfg)

    @pytest.mark.parametrize("cfg", DEFERRING)
    def test_duty_slow_path_sees_the_event_loops_calls(self, monkeypatch, cfg):
        real = engine_module.enforce_duty_cycle
        calls = []

        def recorded(history, airtime, proposed_start, duration, budget, window):
            got = real(history, airtime, proposed_start, duration, budget, window)
            calls.append(
                (tuple(history), airtime, proposed_start, duration, budget, window, got)
            )
            return got

        monkeypatch.setattr(engine_module, "enforce_duty_cycle", recorded)
        run_event_loop(Engine(cfg))
        reference = Counter(calls)
        calls.clear()
        Engine(cfg).run()
        assert Counter(calls) == reference
        assert sum(n for call, n in reference.items() if call[-1] is not None) >= 28

    def test_jitter_wider_than_the_period_clamps_and_ties(self):
        # A ready instant drawn before the node's clock reading is
        # clamped to it, so a node sends twice at one instant.  The
        # exact clock map checks the pre-filter that skips the reading.
        cfg = pure_config(
            n_nodes=6,
            app_period=2 * NS_PER_SEC,
            jitter=5 * NS_PER_SEC,
            duty_cycle_cap=1.0,
            n_channels=2,
            channel_selection="uniform-random",
            duration=20 * 60 * NS_PER_SEC,
        )
        trace, metrics = Engine(cfg).run()
        rows = list(zip(trace.true_start, trace.node_id))
        assert len(set(rows)) < len(rows)
        assert_same_run((trace, metrics), run_event_loop(Engine(cfg)))
        assert_same_run((trace, metrics), run_exact_clock_map(Engine(cfg)))

    def test_instants_past_the_float_filter_take_the_integer_clock_map(
        self, monkeypatch
    ):
        # At 500 ppm the drift term of an instant passes 2**40 ns after
        # about 25 days, where the schedule's clock map falls back to
        # Engine._true_at and Engine._local_at.
        cfg = pure_config(
            n_nodes=2,
            app_period=6 * 3600 * NS_PER_SEC,
            drift_ppm_range=(500.0, 500.0),
            duration=40 * DAY,
        )
        late = []
        true_at = Engine._true_at

        def counted(nd, local):
            if local > 25 * DAY:
                late.append(local)
            return true_at(nd, local)

        reference = run_exact_clock_map(Engine(cfg))
        monkeypatch.setattr(Engine, "_true_at", staticmethod(counted))
        assert_same_run(Engine(cfg).run(), reference)
        assert late

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rounding_ties_of_the_fused_clock_map(self, seed):
        # At +-192 ppm a true instant is (local - base) * (1 - a/b) with
        # a/b = 3/15628 or -3/15622.  With the period a multiple of both
        # denominators and every ready instant on a residue where the
        # drift term is exactly half an integer, each uplink's true start
        # is a tie, and the double product often lands off the half on
        # either side: the pre-filter must leave all of them to the
        # integer formula.
        cfg = pure_config(
            n_nodes=4,
            app_period=15628 * 15622 * 123,
            drift_ppm_range=(192.0, 192.0),
            initial_offset_max=0,
            seed=seed,
        )

        def tie_every_uplink(engine):
            for nd in engine.nodes:
                slope = Fraction(nd.drift_num, nd.inv_den)
                a, b = slope.numerator, slope.denominator
                assert b in (15628, 15622)
                nd.next_ready_local = nd.base + b * 1007 + b // 2 * pow(a, -1, b) % b
            return engine

        assert_same_run(
            tie_every_uplink(Engine(cfg)).run(),
            run_exact_clock_map(tie_every_uplink(Engine(cfg))),
        )

    def test_trace_costs_at_most_50_bytes_per_uplink(self):
        # As the slotted bound in TestCompactTrace; 35 B at the event loop.
        cfg = pure_baseline(load_scenario("", seed=1, duration=DAY))
        tracemalloc.start()
        try:
            trace, _ = Engine(cfg).run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(trace) <= 50


def node_at(engine: Engine, ppm: float) -> _Node:
    """The engine's first node, its clock reading 0 at true 0 and
    drifting by ``ppm``."""
    nd = engine.nodes[0]
    exact = _Node(ppm, 0)
    nd.base, nd.drift_num, nd.drift_den, nd.inv_den = (
        0,
        exact.drift_num,
        exact.drift_den,
        exact.inv_den,
    )
    return nd


#: At 13 ppm the drift over these instants is 2047.5 and 8388607.5 ns
#: exactly, while their doubles come out 2**-42 and 2**-30 below the
#: half: a margin of 0.5 would round them down, not away from zero.
TIE_13_PPM = (157_500_000, 645_277_500_000)


class TestFloatPreFilter:
    """The float pre-filter serves every run's schedule: confirmed runs
    against the exact clock map (feedback-free ones are in
    ``TestFeedbackFreeRun``); ties whose doubles land just inside the
    margin, at a clamp, a sync or a deferral, where only the integer
    formula rounds right, and drift bounds that reach a guard exactly,
    where only the integer bound decides right; and the reach, past
    which a schedule leaves every map and bound to the integer formula."""

    # Derandomized: the same 150 scenarios run every time.
    @given(short_scenarios().filter(lambda cfg: cfg.confirmed_mode != "none"))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_confirmed_runs_equal_the_exact_clock_map(self, cfg):
        assert_same_run(Engine(cfg).run(), run_exact_clock_map(Engine(cfg)))

    @pytest.mark.parametrize("t", TIE_13_PPM)
    def test_the_tie_instants_round_the_other_way_in_doubles(self, t):
        num, den = _Node(13.0, 0).drift_num, _Node(13.0, 0).drift_den
        v = t * (num / den)
        assert Fraction(t * num, den).denominator == 2
        assert 0.499 < v - round(v) < 0.5
        assert round(v) != round_half_away_div(t * num, den)

    @pytest.mark.parametrize("t", TIE_13_PPM)
    def test_a_clamp_at_a_tie_reads_the_exact_clock(self, t):
        # After an unconfirmed uplink at t, the node's next grid instant,
        # 0, lies before its clock's reading at t: the next uplink is
        # clamped to that reading.
        engine = Engine(pure_config(duration=DAY))
        nd = node_at(engine, 13.0)
        nd.next_ready_local = 0
        row = engine._resume(nd, (t, 0, -1, 0, 0))(None)
        assert row[1] == Engine._local_at(nd, t)

    @pytest.mark.parametrize("t", TIE_13_PPM)
    def test_a_deferral_at_a_tie_reads_the_exact_clock(self, monkeypatch, t):
        # The node's duty history is full at its first uplink, and the
        # duty check defers it to t: the uplink starts at the clock's
        # reading at t.
        engine = Engine(pure_config(duration=DAY))
        nd = node_at(engine, 13.0)
        nd.next_ready_local = 0
        dur = engine._uplink_toa
        nd.duty.extend([(0, dur)] * (engine._budget // dur))
        answers = iter([t, None])
        monkeypatch.setattr(engine_module, "enforce_duty_cycle", lambda *_: next(answers))
        row = engine._resume(nd, None)(None)
        assert row[1] == Engine._local_at(nd, t)

    @pytest.mark.parametrize("lands", ["ack", "end"])
    def test_a_sync_at_a_tie_reads_the_exact_clock(self, lands):
        # The ACK of a delivered uplink lands at the tie instant, or the
        # uplink ends there: the sync reads the clock at both instants.
        def synced(engine):
            nd = node_at(engine, 13.0)
            t = TIE_13_PPM[1]
            lag = engine._uplink_toa + engine._ack_lag
            start = t - lag if lands == "ack" else t - engine._uplink_toa
            engine._resume(nd, (start, 0, -1, 0, start + lag))(0)
            return [getattr(nd, name) for name in NODE_STATE]

        fast = synced(Engine(pure_config(duration=DAY)))
        with mock.patch.object(engine_module, "_FLOAT_EXACT", 0.0):
            assert fast == synced(Engine(pure_config(duration=DAY)))

    @pytest.mark.parametrize("check", ["slot", "resync"])
    def test_a_bound_at_a_tie_reads_the_exact_bound(self, check):
        # At a 13 ppm bound the drift over 157.5 ms is 2047.5 ns exactly
        # and rounds up to 2048, while its double lies 2**-42 below the
        # half.  With the guard 2048 ns past the bound at the sync, the
        # bound reaches the guard exactly: the node may not use the slot
        # grid, and it resyncs (the threshold is inclusive).  Doubles
        # without a band around the threshold decide both the other way.
        engine = on_demand_engine(drift_bound_ppm=13.0)
        nd = engine.nodes[0]
        elapsed = TIE_13_PPM[0]
        assert 2047.5 - 2**-40 < elapsed * engine._bound_ratio < 2047.5
        assert engine._float_margin(nd) == engine_module._FLOAT_MARGIN
        tx_local = 600 * engine._slot_t
        nd.synced = True
        if check == "slot":
            nd.last_sync_local = tx_local - elapsed
            nd.uncertainty_at_sync = engine._guard - 2048
            assert engine._uncertainty_at(nd, tx_local) == engine._guard
            nd.next_ready_local = tx_local
            assert engine._resume(nd, None)(None)[2] == -1
        else:
            nd.last_sync_local = tx_local + engine._resync_lookahead - elapsed
            nd.uncertainty_at_sync = engine._resync_guard - 2048
            assert first_uplink_wants_ack(engine, tx_local)

    def test_a_sync_past_the_checked_instant_bounds_it_at_the_sync(self):
        # The bound takes a negative elapsed time as 0: with the bound at
        # the sync past the guard, the node neither uses the slot grid
        # nor skips the resync, however far past the instant the sync is.
        engine = on_demand_engine()
        nd = engine.nodes[0]
        tx_local = 600 * engine._slot_t
        nd.synced, nd.last_sync_local, nd.uncertainty_at_sync = (
            True,
            tx_local + DAY,
            NS_PER_SEC,
        )
        nd.next_ready_local = tx_local
        row = engine._resume(nd, None)(None)
        assert row[2] == -1 and row[4]

    def test_the_exact_switch_sends_both_checks_to_the_bound(self, monkeypatch):
        # Far from either threshold the doubles decide both checks alone,
        # until _FLOAT_EXACT = 0 (run_exact_clock_map) turns the
        # pre-filter off.
        calls = []
        uncertainty_at = Engine._uncertainty_at

        def counted(engine, nd, local):
            calls.append(local)
            return uncertainty_at(engine, nd, local)

        def checks_of_a_first_uplink() -> int:
            engine = on_demand_engine()
            nd = engine.nodes[0]
            tx_local = 600 * engine._slot_t
            nd.synced, nd.last_sync_local, nd.uncertainty_at_sync = True, tx_local, 0
            calls.clear()
            assert not first_uplink_wants_ack(engine, tx_local)
            return len(calls)

        monkeypatch.setattr(Engine, "_uncertainty_at", counted)
        assert checks_of_a_first_uplink() == 0
        monkeypatch.setattr(engine_module, "_FLOAT_EXACT", 0.0)
        assert checks_of_a_first_uplink() == 2

    def test_default_week_runs_keep_the_pre_filter(self):
        # Every node of the 7-day default runs, slotted and its pure
        # baseline, at each of the benchmark's scenario seeds, stays
        # within the reach: no clock map or bound of theirs goes to the
        # integer formula for it.
        for seed in range(1, 9):
            slotted = load_scenario("", seed=seed, duration=7 * DAY)
            for cfg in (slotted, pure_baseline(slotted)):
                engine = Engine(cfg)
                for nd in engine.nodes:
                    assert engine._float_margin(nd) == engine_module._FLOAT_MARGIN

    def test_a_run_past_the_reach_takes_the_integer_formula(self, monkeypatch):
        # At 500 ppm a drift term passes 2**40 ns after about 25.5 days:
        # a 40-day run may reach past that, so every clock map and bound
        # of its schedules takes the integer formula from the start.
        cfg = load_scenario(
            "[scenario]\nn_nodes = 3\napp_period = 6 h\ndrift_ppm = 500 .. 500\n"
            "confirmed_uplinks = on-demand\nduration = 40 d\nwarmup = 0 s\n"
            "[sync]\ndrift_bound_ppm = 500\n",
            seed=1,
        )
        engine = Engine(cfg)
        assert {engine._float_margin(nd) for nd in engine.nodes} == {-math.inf}
        reference = run_exact_clock_map(Engine(cfg))
        maps = []
        true_at = Engine._true_at

        def counted(nd, local):
            maps.append(local)
            return true_at(nd, local)

        monkeypatch.setattr(Engine, "_true_at", staticmethod(counted))
        trace, metrics = engine.run()
        assert_same_run((trace, metrics), reference)
        assert len(maps) >= len(trace) > 300

    @given(short_scenarios())
    @example(DEFERRING[3])
    @example(pure_config(n_nodes=4, app_period=2 * NS_PER_SEC, jitter=5 * NS_PER_SEC))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_instant_a_schedule_maps_lies_within_the_reach(self, cfg):
        # With the pre-filter off every map and bound goes through the
        # engine's helpers: each true instant, each local one past
        # `base` and each elapsed time of a bound stays within _reach.
        engine = Engine(cfg)
        seen = []
        local_at, true_at = Engine._local_at, Engine._true_at
        uncertainty_at = Engine._uncertainty_at

        def local_at_seen(nd, t):
            seen.append(t)
            return local_at(nd, t)

        def true_at_seen(nd, local):
            seen.append(local - nd.base)
            return true_at(nd, local)

        def uncertainty_at_seen(engine, nd, local):
            seen.append(local - nd.last_sync_local)
            return uncertainty_at(engine, nd, local)

        with mock.patch.multiple(
            Engine,
            _local_at=staticmethod(local_at_seen),
            _true_at=staticmethod(true_at_seen),
            _uncertainty_at=uncertainty_at_seen,
        ):
            trace, _ = run_exact_clock_map(engine)
        assert len(seen) >= len(trace)
        assert max(map(abs, seen)) < engine._reach


def merge_in_windows(
    starts: list[list[int]], bounds: list[int], acks: Optional[list[list]] = None
):
    """``(node, k)`` of every row of ``starts[node][k]`` in the order
    ``_merge_window`` gives, with the windows cut at ``bounds``, where
    ``acks[node][k]`` is the instant the row's ACK lands or None."""
    n = len(starts)
    carried = [(-1, node) for node in range(n)]
    due = [math.inf] * n
    taken = [0] * n
    order = []
    for w_end in [*bounds, math.inf]:
        flat, first, owner, flat_acks = [], [], [], []
        for node, rows in enumerate(starts):
            first.append(len(flat))
            while taken[node] < len(rows) and rows[taken[node]] < w_end:
                k = taken[node]
                flat.append(rows[k])
                owner.append((node, k))
                flat_acks.append((acks[node][k] if acks else None) or 0)
                taken[node] += 1
        first.append(len(flat))
        order += [
            owner[f] for f in _merge_window(flat, first, flat_acks, carried, due, w_end)
        ]
    return order


@st.composite
def tied_rows(draw):
    """Per-node start lists drawn from a few instants, so rows share
    instants across nodes and within one node, and window bounds."""
    n = draw(st.integers(1, 6))
    starts = [sorted(draw(st.lists(st.integers(0, 8), max_size=6))) for _ in range(n)]
    bounds = sorted(set(draw(st.lists(st.integers(1, 9), max_size=4))))
    return starts, bounds


@st.composite
def tied_rows_with_acks(draw):
    """As ``tied_rows``, with some rows confirmed: an ACK lands 1 to 3
    after its row, and the node's next row starts no earlier, at times
    at that very instant, so ACKs share instants with rows and ACKs."""
    n = draw(st.integers(1, 5))
    starts, acks = [], []
    for _ in range(n):
        t = draw(st.integers(0, 4))
        rows, lands = [], []
        for _ in range(draw(st.integers(0, 5))):
            rows.append(t)
            ack = t + draw(st.integers(1, 3)) if draw(st.booleans()) else None
            lands.append(ack)
            t = (ack if ack is not None else t) + draw(st.integers(0, 2))
        starts.append(rows)
        acks.append(lands)
    bounds = sorted(set(draw(st.lists(st.integers(1, 14), max_size=4))))
    return starts, acks, bounds


#: Exact clocks and syncs, and three nodes on three channels (see
#: ``ready_together``).
TIED = load_scenario(
    "[scenario]\nn_nodes = 3\nchannel_selection = round-robin\n"
    "drift_ppm = 0 .. 0\ninitial_offset = 0 s\njitter = 0 s\nduration = 1 h\n"
    "[sync]\nresidual_mean = 0 s\nresidual_std = 0 s\n"
    "timestamp_error_max = 0 us\n",
    seed=1,
)


def ready_together(engine: Engine) -> Engine:
    """``engine`` with every node ready at one instant, 5 s."""
    for nd in engine.nodes:
        nd.next_ready_local = 5 * NS_PER_SEC
    return engine


class TestWindowMerge:
    """``_merge_window`` against a replay of the event heap."""

    @given(tied_rows())
    # Node 1's first row pops before node 0's second at instant 5.
    @example(([[0, 5], [5]], []))
    # Node 0 sends three times at instant 3; node 2's second row there
    # goes before node 0's second, whose previous row popped later.
    @example(([[3, 3, 3], [3], [1, 3]], [2]))
    # A tie at instant 2 decides the order of the next tie, a window on.
    @example(([[1, 2, 7], [2, 7]], [2, 5]))
    @settings(max_examples=500, derandomize=True)
    def test_equals_the_heap_replay(self, case):
        starts, bounds = case
        assert merge_in_windows(starts, bounds) == heap_pop_order(starts)

    @given(tied_rows_with_acks())
    # Node 0's ACK at 2 pops after node 1's row there, so node 0's row
    # at 2, pushed by that ACK, goes last.
    @example(([[0, 2], [1, 2], [2]], [[2, None], [None, None], [None]], []))
    # An ACK scheduled in one window lands in the next and orders the
    # rows it shares an instant with there.
    @example(([[0, 4], [1, 4]], [[3, None], [4, None]], [2]))
    @settings(max_examples=500, derandomize=True)
    def test_acks_equal_the_heap_replay(self, case):
        starts, acks, bounds = case
        assert merge_in_windows(starts, bounds, acks) == heap_pop_order(starts, acks)

    def test_a_stable_sort_by_start_is_not_the_rule(self):
        starts = [[0, 5], [5]]
        rows = [(t, node, k) for node, ts in enumerate(starts) for k, t in enumerate(ts)]
        stable = [(node, k) for _t, node, k in sorted(rows, key=lambda row: row[0])]
        assert stable != heap_pop_order(starts) == merge_in_windows(starts, [])

    def test_a_row_scheduled_by_an_ack_takes_the_acks_place(self):
        # Node 0's row at 3 is pushed when its ACK lands at 2, node 1's
        # when its row at 1 pops: node 1's pops first, although node 0's
        # previous row popped before node 1's.
        starts, acks = [[0, 3], [1, 3]], [[2, None], [None, None]]
        assert heap_pop_order(starts, acks) == [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert merge_in_windows(starts, [], acks) == heap_pop_order(starts, acks)
        assert merge_in_windows(starts, []) != heap_pop_order(starts, acks)
        # An ACK sharing its instant with a row, and no row with a row,
        # in one window: their places there order their successors'
        # rows at 5, a window on.
        starts, acks = [[0, 5], [2, 5]], [[2, None], [None, None]]
        assert heap_pop_order(starts, acks) == [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert merge_in_windows(starts, [3], acks) == heap_pop_order(starts, acks)

    def test_slotted_rows_sharing_instants_pop_as_the_event_loop(self):
        # Every uplink and every ACK shares its instant with two others,
        # all run long.
        engine, reference = ready_together(Engine(TIED)), ready_together(Engine(TIED))
        trace, metrics = engine.run()
        assert_same_run((trace, metrics), run_event_loop(reference))
        starts = list(trace.true_start)
        assert len(set(starts)) * 3 == len(starts) > 300
        assert metrics.conflicts == 0


def cpus(n: int):
    """Patch the process's CPU affinity set to ``n`` CPUs."""
    return mock.patch.object(os, "sched_getaffinity", lambda _pid: set(range(n)))


def splitting(forks: Optional[list] = None, waits: Optional[list] = None):
    """Patches under which every run with two or more channel groups
    splits: two CPUs and no uplink threshold.  ``forks`` collects the
    pid of each fork, ``waits`` the (pid, status) of each child reaped."""
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        pid = fork()
        if forks is not None and pid:
            forks.append(pid)
        return pid

    def counted_waitpid(pid, options):
        got = waitpid(pid, options)
        if waits is not None and got[0]:
            waits.append(got)
        return got

    stack = ExitStack()
    stack.enter_context(cpus(2))
    stack.enter_context(mock.patch.object(engine_module, "_SPLIT_MIN_UPLINKS", 0))
    stack.enter_context(mock.patch.object(os, "fork", counted_fork))
    stack.enter_context(mock.patch.object(os, "waitpid", counted_waitpid))
    return stack


def channel_groups(cfg: ScenarioConfig) -> int:
    return len({nd.channel for nd in Engine(cfg).nodes})


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_engine(got: Engine, want: Engine) -> None:
    """The two finished engines agree on the trace, the metrics, every
    slot of every node, the generator's state included, and the
    gateway's ACK airtime."""
    assert_same_run((got.trace, got.metrics()), (want.trace, want.metrics()))
    for nd, ref in zip(got.nodes, want.nodes):
        for name in NODE_STATE + ("next_ready_local", "duty", "channel"):
            assert getattr(nd, name) == getattr(ref, name), name
        assert nd.rng.getstate() == ref.rng.getstate()
    assert got.gateway_airtime == want.gateway_airtime


def split_and_in_process(cfg: ScenarioConfig) -> tuple[Engine, Engine, int]:
    """``cfg`` run with the split forced, and on one CPU; returns both
    engines and the number of forks the first made."""
    forks: list = []
    split = Engine(cfg)
    with splitting(forks):
        split.run()
    assert_no_child_left()
    alone = Engine(cfg)
    with cpus(1):
        alone.run()
    return split, alone, len(forks)


@st.composite
def grouped_scenarios(draw, mode: str) -> ScenarioConfig:
    """``short_scenarios`` on 2 to 8 fixed or round-robin channels, in
    confirmed mode ``mode`` (pure, for ``none``)."""
    cfg = draw(
        short_scenarios().filter(lambda c: mode != "none" or not c.policy.is_slotted)
    )
    return replace(
        cfg,
        channel_selection=draw(st.sampled_from(["fixed", "round-robin"])),
        n_channels=draw(st.integers(2, 8)),
        confirmed_mode=mode,
    )


class TestSplitRun:
    """A run split over two processes by channel group
    (``Engine._split``, ``Engine._run_split``) against the same run in
    one process, and against the reference event loop."""

    @pytest.mark.parametrize("mode", ["all", "on-demand", "none"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_grouped_runs_equal_the_one_process_run(self, mode, data):
        cfg = data.draw(grouped_scenarios(mode))
        split, alone, forks = split_and_in_process(cfg)
        assert forks == (channel_groups(cfg) >= 2)
        assert_same_engine(split, alone)

    @given(
        dense_slotted().filter(
            lambda c: c.channel_selection != "uniform-random" and c.n_channels > 1
        )
    )
    @example(
        load_scenario(
            "[scenario]\nn_nodes = 40\nn_channels = 8\n"
            "channel_selection = round-robin\nconfirmed_uplinks = all\n"
            "duration = 20 min\nwarmup = 5 min\n",
            seed=1,
        )
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_dense_slotted_runs_equal_the_one_process_run(self, cfg):
        split, alone, forks = split_and_in_process(cfg)
        assert forks == (channel_groups(cfg) >= 2)
        assert_same_engine(split, alone)

    def test_the_parent_takes_the_conservative_step_for_its_own_nodes(
        self, monkeypatch
    ):
        # Fifteen nodes crowd each of two channels, so windows end
        # conservatively; the parent bounds only its own stopped nodes.
        bounded = []
        bound = Engine._next_start_bound

        def counted(engine, nd, row):
            bounded.append(nd.index)
            return bound(engine, nd, row)

        cfg = lossy(n_channels=2, channel_selection="round-robin")
        with splitting():
            parent, child = Engine(cfg)._split()
        assert len(parent) == len(child) == 15
        monkeypatch.setattr(Engine, "_next_start_bound", counted)
        forks: list = []
        split = Engine(cfg)
        with splitting(forks):
            split.run()
        assert len(forks) == 1 and bounded and set(bounded) <= set(parent)
        alone = Engine(cfg)
        with cpus(1):
            alone.run()
        assert_same_engine(split, alone)
        # In one process the child's nodes are bounded too.
        assert set(bounded) & set(child)

    def test_tied_instants_across_the_halves_equal_the_event_loop(self):
        # Every uplink and ACK of the child's node shares its instant
        # with the parent's two nodes; the heap replay orders them.
        with splitting():
            assert Engine(TIED)._split() == ([0, 2], [1])
        forks: list = []
        split = ready_together(Engine(TIED))
        with splitting(forks):
            split.run()
        assert len(forks) == 1
        alone = ready_together(Engine(TIED))
        with cpus(1):
            alone.run()
        assert_same_engine(split, alone)
        reference = ready_together(Engine(TIED))
        assert_same_run((split.trace, split.metrics()), run_event_loop(reference))
        starts = list(split.trace.true_start)
        assert len(set(starts)) * 3 == len(starts) > 300
        assert split.metrics().conflicts == 0


#: A 2-hour default run: 4,800 expected uplinks on three fixed channels.
TWO_HOURS = load_scenario("", seed=3, duration=2 * 3600 * NS_PER_SEC)


@pytest.fixture(scope="module")
def two_hours_split() -> Engine:
    engine = Engine(TWO_HOURS)
    forks: list = []
    with splitting(forks):
        engine.run()
    assert len(forks) == 1
    return engine


class TestSplitFallback:
    """Each condition that keeps a run in one process gives the bytes
    of the split run, and forks no child or leaves none."""

    @staticmethod
    def run_unsplit(patch) -> Engine:
        forks: list = []
        engine = Engine(TWO_HOURS)
        with splitting(forks), patch:
            engine.run()
        assert forks == []
        assert_no_child_left()
        return engine

    @pytest.mark.parametrize(
        "error", [OSError(errno.ENOMEM, "no memory"), OSError(errno.EMFILE, "no fds")]
    )
    def test_a_pipe_error_runs_in_one_process(self, two_hours_split, error):
        patch = mock.patch.object(os, "pipe", side_effect=error)
        assert_same_engine(self.run_unsplit(patch), two_hours_split)

    @pytest.mark.parametrize(
        "error",
        [BlockingIOError(errno.EAGAIN, "no process"), OSError(errno.ENOMEM, "no memory")],
    )
    def test_a_fork_error_runs_in_one_process_and_closes_the_pipe(
        self, two_hours_split, error
    ):
        pipes = []
        pipe = os.pipe

        def recorded():
            pipes.extend(pipe())
            return pipes[-2:]

        with mock.patch.object(os, "pipe", recorded):
            patch = mock.patch.object(os, "fork", side_effect=error)
            assert_same_engine(self.run_unsplit(patch), two_hours_split)
        assert len(pipes) == 2
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_a_live_thread_runs_in_one_process(self, two_hours_split):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            engine = self.run_unsplit(ExitStack())
        finally:
            stop.set()
            thread.join()
        assert_same_engine(engine, two_hours_split)

    def test_a_fork_warning_reaps_the_child_and_runs_in_one_process(
        self, two_hours_split
    ):
        # As Python 3.12+ warns when it forks beside a thread that
        # `threading` does not list.
        waits = []
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("fork with threads", DeprecationWarning)
            return pid

        engine = Engine(TWO_HOURS)
        with splitting(waits=waits), mock.patch.object(os, "fork", warning_fork):
            engine.run()
        assert_no_child_left()
        ((_, status),) = waits
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert_same_engine(engine, two_hours_split)

    def test_one_cpu_runs_in_one_process(self, two_hours_split):
        assert_same_engine(self.run_unsplit(cpus(1)), two_hours_split)

    @pytest.mark.parametrize("count, splits", [(1, False), (None, False), (2, True)])
    def test_without_an_affinity_set_the_cpu_count_decides(
        self, monkeypatch, count, splits
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setattr(engine_module, "_SPLIT_MIN_UPLINKS", 0)
        assert (Engine(TWO_HOURS)._split() is not None) == splits

    def test_a_run_under_the_threshold_or_on_random_channels_stays(self):
        with cpus(2):
            assert Engine(TWO_HOURS)._split() is None
            assert Engine(load_scenario("", seed=3, duration=DAY))._split()
            random_channels = replace(TWO_HOURS, channel_selection="uniform-random")
            with mock.patch.object(engine_module, "_SPLIT_MIN_UPLINKS", 0):
                assert Engine(random_channels)._split() is None
                assert Engine(replace(TWO_HOURS, n_channels=1))._split() is None


class TestSplitChild:
    """The child of a split run leaves through ``os._exit`` on every
    path, and the parent reaps it whichever side fails."""

    def test_a_finished_split_run_reaps_its_child(self, two_hours_split):
        waits: list = []
        engine = Engine(TWO_HOURS)
        with splitting(waits=waits):
            engine.run()
        assert_no_child_left()
        ((_, status),) = waits
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert_same_engine(engine, two_hours_split)

    def test_a_child_error_is_raised_in_the_parent(self, monkeypatch):
        with splitting():
            _, child = Engine(TWO_HOURS)._split()
        uplinks = Engine._uplinks

        def failing(engine, nd, row=None):
            if nd.index == child[0] and row is not None:
                raise SyncError(f"node {nd.index} lost its clock")
            return uplinks(engine, nd, row)

        monkeypatch.setattr(Engine, "_uplinks", failing)
        waits: list = []
        with splitting(waits=waits), pytest.raises(SyncError) as raised:
            Engine(TWO_HOURS).run()
        assert str(raised.value) == f"node {child[0]} lost its clock"
        assert_no_child_left()
        ((_, status),) = waits
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 1

    def test_an_unpicklable_child_error_keeps_its_type_name_and_message(
        self, monkeypatch
    ):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        with splitting():
            _, child = Engine(TWO_HOURS)._split()
        uplinks = Engine._uplinks

        def failing(engine, nd, row=None):
            if nd.index == child[0]:
                raise Unpicklable("this", "that")
            return uplinks(engine, nd, row)

        monkeypatch.setattr(Engine, "_uplinks", failing)
        with splitting(), pytest.raises(RuntimeError) as raised:
            Engine(TWO_HOURS).run()
        assert str(raised.value) == "Unpicklable: this and that"
        assert_no_child_left()

    def test_a_parent_error_kills_and_reaps_the_child(self, monkeypatch):
        with splitting():
            parent, _ = Engine(TWO_HOURS)._split()
        uplinks = Engine._uplinks

        def failing(engine, nd, row=None):
            if nd.index == parent[0] and row is not None:
                raise ValueError("the parent fails")
            return uplinks(engine, nd, row)

        monkeypatch.setattr(Engine, "_uplinks", failing)
        waits: list = []
        with splitting(waits=waits), pytest.raises(ValueError, match="the parent"):
            Engine(TWO_HOURS).run()
        assert_no_child_left()
        ((_, status),) = waits
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    def test_a_deadline_in_the_parent_kills_and_reaps_the_child(self):
        # As the benchmark's SIGALRM deadline does, 0.2 s into a 7-day
        # run, which takes seconds.
        class Deadline(Exception):
            pass

        def fire(_signum, _frame):
            raise Deadline

        cfg = load_scenario("", seed=1, duration=7 * DAY)
        waits: list = []
        previous = signal.signal(signal.SIGALRM, fire)
        try:
            with splitting(waits=waits), pytest.raises(Deadline):
                signal.setitimer(signal.ITIMER_REAL, 0.2)
                Engine(cfg).run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()
        ((_, status),) = waits
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

"""Event engine: collision semantics, duty enforcement, determinism,
whole-run invariants against independent trace checks, and the
engine's fused clock and sync arithmetic against the oracles in
``oracles`` and ``sync``."""

import math
import tracemalloc
from array import array
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saloha import engine as engine_module
from saloha.config import load_scenario
from saloha.engine import (
    Engine,
    ScenarioConfig,
    SimConfigError,
    _Node,
    enforce_duty_cycle,
)
from saloha.mac import BackoffPolicy, MacPolicy, plan_slot
from saloha.phy import RadioProfile, time_on_air
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
    round_half_away_div,
)

from oracles import (
    channel_arbitrate,
    enforce_duty_cycle_oracle,
    local_now,
    local_to_true,
    metrics_oracle,
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
        with pytest.raises(SimConfigError):
            enforce_duty_cycle(deque(), 0, 0, self.WINDOW, self.BUDGET, self.WINDOW)
        with pytest.raises(SimConfigError):
            enforce_duty_cycle_oracle([], 0, self.WINDOW, 0.01, self.WINDOW)
        # One nanosecond over a 20 ns budget, as the oracle also rules.
        with pytest.raises(SimConfigError):
            enforce_duty_cycle(deque(), 0, 0, 21, 20, 100)
        with pytest.raises(SimConfigError):
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
        plan = plan_slot(UPLINK, ACK, NS_PER_SEC, 400 * NS_PER_MS)
        with pytest.raises(SimConfigError, match="confirmed uplinks"):
            pure_config(
                policy=MacPolicy("slotted", plan=plan, backoff=BackoffPolicy()),
                duration=NS_PER_SEC,
            ).validate()

    def test_validation_collects_problems(self):
        with pytest.raises(SimConfigError) as exc:
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
        plan = plan_slot(UPLINK, ACK, NS_PER_SEC, 400 * NS_PER_MS)
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


class TestWholeRunOracle:
    """Whole-run invariants of random short scenarios, each against an
    independent check of the finished trace."""

    # Derandomized: the same 150 scenarios run every time.
    @given(short_scenarios())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_trace_invariants(self, cfg):
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
        cfg = load_scenario(
            "[scenario]\nconfirmed_uplinks = on-demand\n", seed=1, duration=NS_PER_SEC
        )
        engine = Engine(cfg)
        nd = engine.nodes[0]
        guard = cfg.policy.plan.t_b
        elapsed = 600 * NS_PER_SEC
        tx_local = 10**12
        nd.synced = True
        nd.last_sync_local = tx_local + engine._resync_lookahead - elapsed
        at_guard = guard - drift_error(cfg.drift_bound_ppm, elapsed)
        nd.uncertainty_at_sync = at_guard
        assert engine._wants_ack(nd, tx_local)
        nd.uncertainty_at_sync = at_guard - 1
        assert not engine._wants_ack(nd, tx_local)

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
        cfg = load_scenario(
            "[scenario]\nconfirmed_uplinks = on-demand\n", seed=1, duration=NS_PER_SEC
        )
        engine = Engine(cfg)
        nd = engine.nodes[0]
        assert engine._wants_ack(nd, tx_local)  # unsynced nodes always ask
        nd.synced, nd.last_sync_local, nd.uncertainty_at_sync = True, last, u0
        state = SyncState(
            drift_bound_ppm=cfg.drift_bound_ppm,
            synced=True,
            last_sync_local=last,
            uncertainty_at_sync=u0,
        )
        horizon = tx_local + engine._resync_lookahead
        expected = needs_resync(state, horizon, cfg.policy.plan.t_b)
        assert engine._wants_ack(nd, tx_local) == expected

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


INT_COLUMNS = ("node_id", "true_start", "local_start", "slot_index", "channel",
               "duration")
FLAG_COLUMNS = ("collided", "acked", "confirmed")


def assert_columns_complete(trace) -> None:
    for name in INT_COLUMNS + FLAG_COLUMNS:
        assert len(getattr(trace, name)) == len(trace), name


class TestCompactTrace:
    def test_int_columns_are_int64_arrays(self):
        trace, _ = Engine(pure_config(n_nodes=3)).run()
        for name in INT_COLUMNS:
            blocks = getattr(trace, name).blocks
            assert blocks, name
            for block in blocks:
                assert isinstance(block, array) and block.typecode == "q", name
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

    def test_trace_costs_at_most_80_bytes_per_uplink(self):
        # Columns as lists of boxed ints peaked at about 157 B per uplink.
        cfg = load_scenario("", seed=1, duration=86_400 * NS_PER_SEC)
        tracemalloc.start()
        try:
            trace, _ = Engine(cfg).run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(trace) <= 80

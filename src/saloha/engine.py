"""Deterministic discrete-event engine.

Hosts node and gateway agents on a shared multi-channel medium with
pure interval-overlap collision semantics (no capture), LoRaWAN Class A
ACK timing (RX1 opens 1 s after the uplink ends), sliding-window
duty-cycle enforcement, and the ACK-piggybacked synchronization loop.

Everything is a pure function of (config, seed): event ties are broken
by a sequence counter, every node owns an RNG stream derived from
(seed, node_id), and no wall clock or hash order is consulted anywhere.

Clock map: each node keeps ``base = initial_offset + corrections`` and
its drift as an exact integer ratio; ``Engine._local_at`` and
``Engine._true_at`` are the only true<->local conversions.  The tests
check them against ``local = base + t * (1 + ppm * 1e-6)`` and its
inverse, evaluated as exact fractions (``tests/oracles.py``).  Every
division in them, in the drift bound and in the gateway's microsecond
quantization rounds half away from zero by one rule: with
``q, r = divmod(x, den)``, the result is ``q + 1`` when
``2*r + (x >= 0) > den`` and ``q`` otherwise (the drift bound, whose
numerator is never negative, tests ``2*r >= den``).

The sync exchange runs inline in ``Engine._on_ack_event``: it keeps the
checks of ``sync.gateway_record_rx_end`` (timestamp error within
±20 µs) and of ``sync.SyncAck`` (timestamp fits 8 bytes of µs), each
raising ``SyncError``.  The uncertainty bound (``Engine._uncertainty_at``)
equals ``sync.current_uncertainty`` with the slope precomputed, and
drives both the slot-use check and the on-demand resync decision.

Slot alignment: a node that may use the grid transmits at
``mac.slot_start(ready, T, phase)``, the one implementation of the
global-grid rule; every other uplink starts when it is ready, unless the
duty cycle defers it.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, compress
from operator import eq
from typing import Iterable, Iterator, Optional

from .mac import MacPolicy, slot_start
from .phy import RadioProfile, time_on_air
from .sync import MAX_RESIDUAL_ERROR_NS, MAX_TIMESTAMP_ERROR_NS, SyncError
from .timebase import MAX_ABS_DRIFT_PPM, NS_PER_SEC, NS_PER_US

# The engine fuses these into its own clock map and drift bound and no
# longer calls them; the names stay importable from here, so a tracer
# that wraps them sees zero calls rather than a missing attribute.
from .timebase import drift_error, round_half_away_div  # noqa: F401

#: The ACK carries the gateway timestamp as 8 unsigned bytes of µs.
_ACK_TIMESTAMP_LIMIT = 1 << 64

#: Every stored instant must fit the trace's int64 columns.
_INT64_LIMIT = 1 << 63

#: Rows per ``array('q')`` block of a trace column.  The engine buffers
#: this many rows in plain lists, since a list append is several times
#: cheaper than an array append of a large int, and then packs each
#: column's rows into one new block.
_TRACE_BLOCK = 4096


class SimConfigError(ValueError):
    """Scenario validation failure; message lists every offending field."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation run.  Durations are integer
    nanoseconds; the seed is mandatory (no ambient entropy).  The class
    has no defaults of its own: ``config.load_scenario("", seed=...)``
    fills every field from ``config.DEFAULT_SCENARIO``."""

    n_nodes: int
    app_period: int
    uplink_profile: RadioProfile
    ack_profile: RadioProfile
    policy: MacPolicy
    duration: int
    seed: int
    jitter: int
    n_channels: int
    channel_selection: str  # fixed | round-robin | uniform-random
    drift_ppm_range: tuple[float, float]
    initial_offset_max: int
    confirmed_mode: str  # all | on-demand | none
    duty_cycle_cap: float
    dc_window: int
    rx1_delay: int
    warmup: int
    drift_bound_ppm: float
    residual_mean: int
    residual_std: int
    residual_max: int
    timestamp_error_max_us: int
    capture_effect: bool = False

    def validate(self) -> None:
        problems = []
        if self.n_nodes < 1:
            problems.append("n_nodes must be >= 1")
        if self.app_period <= time_on_air(self.uplink_profile):
            problems.append("app_period must exceed the uplink time-on-air")
        if self.duration <= 0:
            problems.append("duration must be positive")
        if self.jitter < 0:
            problems.append("jitter must be non-negative")
        if self.initial_offset_max < 0:
            problems.append("initial_offset_max must be non-negative")
        if self.n_channels < 1:
            problems.append("n_channels must be >= 1")
        if self.channel_selection not in ("fixed", "round-robin", "uniform-random"):
            problems.append(f"unknown channel_selection {self.channel_selection!r}")
        lo, hi = self.drift_ppm_range
        # Checked here, not per node, so validity cannot depend on the
        # drifts the seed happens to draw; NaN and inf fail it too.
        if not 0 <= lo <= hi <= MAX_ABS_DRIFT_PPM:
            problems.append(
                "drift_ppm_range must satisfy "
                f"0 <= low <= high <= {MAX_ABS_DRIFT_PPM:g}"
            )
        if self.confirmed_mode not in ("all", "on-demand", "none"):
            problems.append(f"unknown confirmed_mode {self.confirmed_mode!r}")
        if self.policy.is_slotted and self.confirmed_mode == "none":
            problems.append("slotted policy needs confirmed uplinks to synchronize")
        if not 0.0 < self.duty_cycle_cap <= 1.0:
            problems.append("duty_cycle_cap must be in (0, 1]")
        if self.dc_window <= 0:
            problems.append("dc_window must be positive")
        if time_on_air(self.uplink_profile) > self.duty_cycle_cap * self.dc_window:
            problems.append("a single uplink already violates the duty-cycle cap")
        if self.rx1_delay <= 0:
            problems.append("rx1_delay must be positive")
        if self.warmup < 0:
            problems.append("warmup must be non-negative")
        # NaN fails both comparisons, so it lands here too.
        if not 0 <= self.drift_bound_ppm <= MAX_ABS_DRIFT_PPM:
            problems.append(
                f"drift_bound_ppm must be a finite value in [0, {MAX_ABS_DRIFT_PPM:g}]"
            )
        if not 0 < self.residual_max <= MAX_RESIDUAL_ERROR_NS:
            problems.append("residual_max must be in (0, 15 ms]")
        # Checked here, or the engine's clamp would silently turn every
        # drawn residual into residual_max (or 0).
        if not 0 <= self.residual_mean <= self.residual_max:
            problems.append("residual_mean must be in [0, residual_max]")
        if self.residual_std < 0:
            problems.append("residual_std must be non-negative")
        if not 0 <= self.timestamp_error_max_us * 1000 < MAX_TIMESTAMP_ERROR_NS:
            problems.append("timestamp_error_max_us must be in [0, 20)")
        # Every instant the trace stores, a node's clock reading included,
        # must fit int64 even on the fastest clock the drift limit allows.
        horizon = (
            self.initial_offset_max + self.duration + self.app_period + self.jitter
        )
        ppm_num, ppm_den = MAX_ABS_DRIFT_PPM.as_integer_ratio()
        scale = ppm_den * 1_000_000
        if horizon * (scale + ppm_num) >= _INT64_LIMIT * scale:
            problems.append(
                "initial_offset_max + duration + app_period + jitter, at the "
                f"±{MAX_ABS_DRIFT_PPM:g} ppm clock limit, must stay below 2^63 ns"
            )
        if self.capture_effect:
            problems.append("capture effect modelling is a disabled hook")
        if problems:
            raise SimConfigError("; ".join(problems))


def enforce_duty_cycle(
    history: Iterable[tuple[int, int]],
    airtime: int,
    proposed_start: int,
    duration: int,
    budget: int,
    window: int,
) -> Optional[int]:
    """Sliding-window duty-cycle check for one node.

    ``history`` holds the node's past (start, duration) pairs sorted by
    start, and ``airtime`` is the sum of their durations; ``budget`` is
    the airtime the cap allows in one ``window``.  Precondition: every
    entry ends after the window start ``proposed_start + duration -
    window`` and no later than the window end ``proposed_start +
    duration``.  Only the entries that start before the window start
    then lie partly outside it, so the cost is O(entries leaving the
    window), not O(len(history)).

    Returns None when the proposal is legal, else the earliest start
    instant at which it becomes legal.
    """
    if budget < duration:
        raise SimConfigError("transmission longer than the duty-cycle budget")
    win_start = proposed_start + duration - window
    excess = airtime + duration - budget
    for s, _d in history:
        if s >= win_start:
            break
        excess -= win_start - s
    if excess <= 0:
        return None
    # Slide the window start forward until `excess` ns of old airtime
    # have left it; removal grows linearly while the window edge crosses
    # an entry and pauses in the gaps.
    for s, d in history:
        lo = s if s > win_start else win_start
        avail = s + d - lo
        if avail >= excess:
            return lo + excess + window - duration
        excess -= avail
    raise AssertionError("unreachable: budget check bounds the walk")


class _Node:
    __slots__ = (
        "base",
        "drift_num",
        "drift_den",
        "inv_den",
        "rng",
        "channel",
        "phase",
        "next_ready_local",
        "synced",
        "last_sync_local",
        "uncertainty_at_sync",
        "pending_rec",
        "pending_tx_local",
        "pending_use_slots",
        "retry_shift",
        "duty",
        "duty_sum",
        "n_syncs",
        "max_mis_pre_sync",
        "max_mis_post_sync",
    )

    def __init__(self, drift_ppm: float, offset: int) -> None:
        self.base = offset  # plus the corrections applied so far
        # Exact integer ratio of the ppm value, scaled so that the drift
        # over `t` is t * drift_num / drift_den with drift_den > 0.
        num, den = float(drift_ppm).as_integer_ratio()
        self.drift_num = num
        self.drift_den = den * 1_000_000
        self.inv_den = self.drift_den + num
        self.phase = 0
        self.synced = False
        self.last_sync_local = 0
        self.uncertainty_at_sync = 0
        self.pending_use_slots = False
        self.retry_shift = 0
        self.duty: deque = deque()
        self.duty_sum = 0
        self.n_syncs = 0
        self.max_mis_pre_sync = 0
        self.max_mis_post_sync = 0


class Column:
    """One int64 trace column: ``array('q')`` blocks of exactly
    ``block`` rows, of which only the last may be shorter.

    A block is never resized.  A growing run allocates equal blocks one
    by one instead of reallocating one large buffer, which would leave
    holes in the heap that stay resident.  Indexing and item assignment
    take an integer and follow list semantics; there is no slicing."""

    __slots__ = ("block", "blocks")

    def __init__(self) -> None:
        # Read once, so a column keeps one layout for its whole life.
        self.block = _TRACE_BLOCK
        self.blocks: list[array] = []

    def __len__(self) -> int:
        blocks = self.blocks
        return (len(blocks) - 1) * self.block + len(blocks[-1]) if blocks else 0

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.blocks)

    def _locate(self, index: int) -> tuple[array, int]:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace column index out of range")
        b, i = divmod(index, self.block)
        return self.blocks[b], i

    def __getitem__(self, index: int) -> int:
        block, i = self._locate(index)
        return block[i]

    def __setitem__(self, index: int, value: int) -> None:
        block, i = self._locate(index)
        block[i] = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def count(self, value: int) -> int:
        return sum(block.count(value) for block in self.blocks)

    def extend(self, values: Iterable[int]) -> None:
        """Append ``values`` as new blocks; a short last block is
        replaced by a merged one, never resized."""
        new = array("q", values)
        blocks, size = self.blocks, self.block
        if blocks and len(blocks[-1]) < size:
            new = blocks.pop() + new
        if 0 < len(new) <= size:
            blocks.append(new)  # the engine's case: one block, no copy
        else:
            blocks.extend(new[i : i + size] for i in range(0, len(new), size))


class Trace:
    """Column-oriented transmission log: one entry per uplink in every
    column, in transmission-start order.

    The six int columns are ``Column`` objects of int64 blocks and the
    three flags are ``bytearray``; compare a column with a list through
    ``list(col)``.  During a run the engine packs the int columns a
    block at a time, so they are complete once ``Engine.run`` returns;
    the flag columns, and so ``len``, are current throughout."""

    def __init__(self) -> None:
        self.node_id = Column()
        self.true_start = Column()
        self.local_start = Column()
        self.slot_index = Column()  # -1 when not applicable
        self.channel = Column()
        self.duration = Column()
        self.collided = bytearray()
        self.acked = bytearray()
        self.confirmed = bytearray()

    def __len__(self) -> int:
        return len(self.collided)


@dataclass
class Metrics:
    """Run summary; steady-state figures exclude the warm-up window."""

    transmissions: int
    conflicts: int
    collision_probability: float
    throughput_fraction: float
    steady_transmissions: int
    steady_conflicts: int
    steady_state_collision_probability: float
    warmup_transmissions: int
    warmup_conflicts: int
    warmup_ns: int
    duration_ns: int
    per_node: list[tuple[int, int]] = field(default_factory=list)

    @property
    def warmup_collision_probability(self) -> float:
        if self.warmup_transmissions == 0:
            return 0.0
        return self.warmup_conflicts / self.warmup_transmissions


class Engine:
    """One simulation run.  Construct, call :meth:`run`, inspect."""

    _TX_START = 0
    _ACK_EVENT = 1

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.trace = Trace()
        self.gateway_airtime = 0
        self._seq = 0
        self._heap: list[tuple[int, int, int, int]] = []
        self._uplink_toa = time_on_air(config.uplink_profile)
        self._ack_toa = time_on_air(config.ack_profile)
        plan = config.policy.plan
        self._slotted = config.policy.is_slotted
        self._slot_t = plan.t if plan is not None else 0
        self._guard = plan.t_b if plan is not None else 0
        self._max_phase = config.policy.backoff.max_phase_slots if self._slotted else 1
        # Headroom used when deciding whether the *next* opportunity
        # would already breach the guard: one period plus the time for
        # the sync round itself.
        self._resync_lookahead = (
            config.app_period
            + config.jitter
            + config.rx1_delay
            + self._ack_toa
            + self._slot_t
            + NS_PER_SEC
        )
        self._resync_guard = self._guard if self._guard else config.app_period
        self._confirm_all = config.confirmed_mode == "all"
        self._on_demand = config.confirmed_mode == "on-demand"
        # Worst-case drift slope as an exact integer ratio, so that
        # drift over `elapsed` is elapsed * num / den, rounded once.
        num, den = float(config.drift_bound_ppm).as_integer_ratio()
        self._bound_num = num
        self._bound_den = den * 1_000_000
        # An ACK lands exactly rx1_delay + ack airtime after its uplink
        # ends, so the drift folded into every sync's bound is constant.
        self._ack_lag = config.rx1_delay + self._ack_toa
        self._sync_uncertainty = (
            config.timestamp_error_max_us * NS_PER_US
            + self._drift_bound(self._ack_lag)
        )
        self._budget = round(config.duty_cycle_cap * config.dc_window)
        self._app_period = config.app_period
        self._jitter = config.jitter
        self._dc_window = config.dc_window
        self._duration = config.duration
        self._n_channels = config.n_channels
        # (end, rec) of the uplinks on air, per channel, in end order.
        self._active: list[deque[tuple[int, int]]] = [
            deque() for _ in range(config.n_channels)
        ]
        # Rows not yet packed into the trace's int columns, in the order
        # node_id, true_start, local_start, slot_index, channel, duration.
        self._rows: tuple[list[int], ...] = ([], [], [], [], [], [])
        self.nodes = [self._make_node(i) for i in range(config.n_nodes)]
        self._ran = False

    def _make_node(self, node_id: int) -> _Node:
        cfg = self.config
        rng = random.Random(f"{cfg.seed}:{node_id}")
        lo, hi = cfg.drift_ppm_range
        magnitude = rng.uniform(lo, hi)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        offset = (
            rng.randint(-cfg.initial_offset_max, cfg.initial_offset_max)
            if cfg.initial_offset_max > 0
            else 0
        )
        nd = _Node(sign * magnitude, offset)
        nd.rng = rng
        phase_true = nd.rng.randint(0, cfg.app_period - 1)
        nd.next_ready_local = self._local_at(nd, phase_true)
        if cfg.channel_selection == "fixed":
            nd.channel = nd.rng.randrange(cfg.n_channels)
        elif cfg.channel_selection == "round-robin":
            nd.channel = node_id % cfg.n_channels
        else:
            nd.channel = -1  # drawn per transmission
        return nd

    # -- clock helpers ---------------------------------------------------

    @staticmethod
    def _local_at(nd: _Node, t: int) -> int:
        """Node RTC reading at true instant ``t``."""
        x = t * nd.drift_num
        q, r = divmod(x, nd.drift_den)
        return nd.base + t + q + (2 * r + (x >= 0) > nd.drift_den)

    @staticmethod
    def _true_at(nd: _Node, local: int) -> int:
        """True instant at which the node RTC reads ``local``."""
        x = (local - nd.base) * nd.drift_den
        q, r = divmod(x, nd.inv_den)
        # Return q itself unless rounding up: every uplink stores this
        # value, and an int built by addition keeps a spare digit.
        return q + 1 if 2 * r + (x >= 0) > nd.inv_den else q

    def ground_truth_misalignment(self, node_id: int, t: int) -> int:
        """Omniscient node-RTC minus gateway-time at instant ``t``."""
        return self._local_at(self.nodes[node_id], t) - t

    def _drift_bound(self, elapsed: int) -> int:
        """Worst-case drift over ``elapsed >= 0`` ns at the configured bound."""
        q, r = divmod(elapsed * self._bound_num, self._bound_den)
        return q + (2 * r >= self._bound_den)

    def _uncertainty_at(self, nd: _Node, local: int) -> int:
        """Worst-case clock error bound at a future local instant."""
        elapsed = local - nd.last_sync_local
        if elapsed < 0:
            elapsed = 0
        return nd.uncertainty_at_sync + self._drift_bound(elapsed)

    @staticmethod
    def _gateway_timestamp_us(uplink_end: int, ts_err: int) -> int:
        """The ACK's timestamp: the gateway's end-of-reception instant,
        off by at most the hardware timestamping error, quantized to
        1 µs and carried as 8 unsigned bytes of microseconds."""
        if not -MAX_TIMESTAMP_ERROR_NS <= ts_err <= MAX_TIMESTAMP_ERROR_NS:
            raise SyncError(
                f"timestamp error {ts_err} ns exceeds ±{MAX_TIMESTAMP_ERROR_NS} ns"
            )
        observed = uplink_end + ts_err
        q, r = divmod(observed, NS_PER_US)
        us = q + (2 * r + (observed >= 0) > NS_PER_US)
        if not 0 <= us < _ACK_TIMESTAMP_LIMIT:
            raise SyncError(f"timestamp {us} not representable in 8 bytes")
        return us

    # -- scheduling ------------------------------------------------------

    def _wants_ack(self, nd: _Node, tx_local: int) -> bool:
        """Whether the uplink starting at ``tx_local`` requests an ACK."""
        if self._confirm_all:
            return True
        if not self._on_demand:
            return False
        if not nd.synced:
            return True
        # Resync once the bound at the next opportunity reaches the
        # guard (threshold inclusive).
        horizon = tx_local + self._resync_lookahead
        return self._uncertainty_at(nd, horizon) >= self._resync_guard

    def _schedule_next_tx(
        self, node_id: int, nd: _Node, now_true: int, now_local: int
    ) -> None:
        ready = nd.next_ready_local
        nd.next_ready_local = ready + self._app_period
        if self._jitter > 0:
            ready += nd.rng.randint(-self._jitter, self._jitter)
        if nd.retry_shift:
            # Shift the whole ready grid, not just this attempt, so two
            # nodes that booted in lockstep stay decorrelated.
            ready += nd.retry_shift
            nd.next_ready_local += nd.retry_shift
            nd.retry_shift = 0
        if ready < now_local:
            ready = now_local
        use_slots = (
            self._slotted and nd.synced and self._uncertainty_at(nd, ready) < self._guard
        )
        dur = self._uplink_toa
        window = self._dc_window
        duty = nd.duty
        while True:
            tx_local = slot_start(ready, self._slot_t, nd.phase) if use_slots else ready
            tx_true = self._true_at(nd, tx_local)
            if tx_true < now_true:
                tx_true = now_true
            # Fast path: duty_sum counts whole durations of entries that
            # still touch the window, so it only over-estimates.  Near
            # the cap, enforce_duty_cycle takes duty_sum and clips only
            # the head entries that straddle the window start: O(k) in
            # the entries leaving the window, with no copy of the deque.
            win_start = tx_true + dur - window
            while duty and duty[0][0] + duty[0][1] <= win_start:
                _s, d = duty.popleft()
                nd.duty_sum -= d
            if nd.duty_sum + dur <= self._budget:
                break
            defer = enforce_duty_cycle(
                duty, nd.duty_sum, tx_true, dur, self._budget, window
            )
            if defer is None:
                break
            ready = self._local_at(nd, defer)
        if tx_true > self._duration:
            return
        nd.pending_tx_local = tx_local
        nd.pending_use_slots = use_slots
        self._seq += 1
        heappush(self._heap, (tx_true, self._seq, self._TX_START, node_id))

    # -- event handlers --------------------------------------------------

    def run(self) -> tuple[Trace, Metrics]:
        if self._ran:
            raise RuntimeError("engine instances are single-use")
        self._ran = True
        for node_id, nd in enumerate(self.nodes):
            self._schedule_next_tx(node_id, nd, 0, self._local_at(nd, 0))
        heap = self._heap
        pop = heappop
        on_tx_start = self._on_tx_start
        on_ack_event = self._on_ack_event
        tx_start = self._TX_START
        while heap:
            now, _seq, kind, node_id = pop(heap)
            if kind == tx_start:
                on_tx_start(node_id, now)
            else:
                on_ack_event(node_id, now)
        self._pack_rows()
        return self.trace, self.metrics()

    def _pack_rows(self) -> None:
        """Move the buffered rows into the trace's int columns: one new
        block per column."""
        t = self.trace
        columns = (
            t.node_id,
            t.true_start,
            t.local_start,
            t.slot_index,
            t.channel,
            t.duration,
        )
        for column, rows in zip(columns, self._rows):
            column.extend(rows)
            rows.clear()

    def _on_tx_start(self, node_id: int, now: int) -> None:
        nd = self.nodes[node_id]
        trace = self.trace
        dur = self._uplink_toa
        end = now + dur
        tx_local = nd.pending_tx_local
        use_slots = nd.pending_use_slots
        confirmed = self._wants_ack(nd, tx_local)
        channel = nd.channel
        if channel < 0:
            channel = nd.rng.randrange(self._n_channels)

        rec = len(trace.collided)
        # Every uplink lasts _uplink_toa and starts in time order, so
        # each channel's ends are sorted and the expired ones are a head.
        active = self._active[channel]
        while active and active[0][0] <= now:
            active.popleft()
        collided = 1 if active else 0
        for _end, idx in active:
            trace.collided[idx] = 1
        active.append((end, rec))

        node_ids, true_starts, local_starts, slot_indices, channels, durations = (
            self._rows
        )
        node_ids.append(node_id)
        true_starts.append(now)
        local_starts.append(tx_local)
        slot_indices.append((tx_local // self._slot_t) if use_slots else -1)
        channels.append(channel)
        durations.append(dur)
        if len(node_ids) >= _TRACE_BLOCK:
            self._pack_rows()
        trace.collided.append(collided)
        trace.acked.append(0)
        trace.confirmed.append(1 if confirmed else 0)

        # The window trim waits for the next _schedule_next_tx, whose
        # window starts no earlier than this uplink's would.
        nd.duty.append((now, dur))
        nd.duty_sum += dur

        if confirmed:
            nd.pending_rec = rec
            self._seq += 1
            heappush(
                self._heap, (end + self._ack_lag, self._seq, self._ACK_EVENT, node_id)
            )
        else:
            self._schedule_next_tx(node_id, nd, now, self._local_at(nd, now))

    def _on_ack_event(self, node_id: int, now: int) -> None:
        cfg = self.config
        nd = self.nodes[node_id]
        rec = nd.pending_rec
        # Drawn whether or not the uplink collided, and here rather than
        # at its start: nothing else draws from the node's RNG or
        # corrects its clock in between.  The residual is the measured
        # execution-time jitter of the sync procedure, which the node's
        # end-of-transmission timestamp carries on top of its RTC.
        residual = min(
            cfg.residual_max,
            max(0, round(nd.rng.gauss(cfg.residual_mean, cfg.residual_std))),
        )
        residual = residual if nd.rng.random() < 0.5 else -residual
        ts_err = (
            nd.rng.randint(-cfg.timestamp_error_max_us, cfg.timestamp_error_max_us)
            * NS_PER_US
        )
        now_local = self._local_at(nd, now)
        if self.trace.collided[rec]:
            # ACK never sent: uplink was lost.  Slotted senders pick a
            # new slot phase so persistent same-slot pairs break up;
            # un-slotted senders (not yet synced, or clock bound grown
            # past the guard) randomize the retry instead, otherwise two
            # nodes that boot in lockstep would collide every period.
            if nd.pending_use_slots and self._max_phase > 1:
                nd.phase = nd.rng.randrange(self._max_phase)
            elif not nd.pending_use_slots:
                nd.retry_shift = nd.rng.randint(0, self._app_period)
        else:
            uplink_end = now - self._ack_lag
            end_local = self._local_at(nd, uplink_end)
            gw_us = self._gateway_timestamp_us(uplink_end, ts_err)
            offset = gw_us * NS_PER_US - (end_local + residual)
            mis = abs(now_local - now)
            if mis > nd.max_mis_pre_sync and nd.synced:
                nd.max_mis_pre_sync = mis
            nd.base += offset
            now_local += offset
            nd.synced = True
            nd.last_sync_local = now_local
            # The correction is referenced to the uplink-end timestamp
            # exchange; its error budget is the execution residual plus
            # the gateway timestamping error, and the drift accrued over
            # the RX1 window until the ACK lands is folded in up front.
            nd.uncertainty_at_sync = abs(residual) + self._sync_uncertainty
            nd.n_syncs += 1
            mis = abs(end_local + offset - uplink_end)
            if mis > nd.max_mis_post_sync:
                nd.max_mis_post_sync = mis
            self.trace.acked[rec] = 1
            self.gateway_airtime += self._ack_toa
        self._schedule_next_tx(node_id, nd, now, now_local)

    # -- reporting -------------------------------------------------------

    def metrics(self) -> Metrics:
        cfg = self.config
        trace = self.trace
        n = len(trace)
        collided = trace.collided
        conflicts = collided.count(1)
        # Uplinks are logged in start order: the steady ones are a suffix.
        first_steady = bisect_left(trace.true_start, cfg.warmup)
        steady_n = n - first_steady
        steady_c = collided.count(1, first_steady)
        sent = Counter(trace.node_id)
        lost = Counter(compress(trace.node_id, collided))
        success_airtime = sum(trace.duration) - sum(compress(trace.duration, collided))
        return Metrics(
            transmissions=n,
            conflicts=conflicts,
            collision_probability=(conflicts / n) if n else 0.0,
            throughput_fraction=success_airtime / cfg.duration,
            steady_transmissions=steady_n,
            steady_conflicts=steady_c,
            steady_state_collision_probability=(steady_c / steady_n)
            if steady_n
            else 0.0,
            warmup_transmissions=n - steady_n,
            warmup_conflicts=conflicts - steady_c,
            warmup_ns=cfg.warmup,
            duration_ns=cfg.duration,
            per_node=[(sent[i], lost[i]) for i in range(cfg.n_nodes)],
        )


def run(config: ScenarioConfig) -> tuple[Trace, Metrics]:
    """Execute one scenario to its horizon.  Identical (config, seed)
    pairs produce bit-identical traces."""
    return Engine(config).run()

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

One rule, two drivers.  Each node's schedule is one coroutine,
``Engine._uplinks``: sent the instant of the node's last event (its
uplink's start, or its ACK's arrival), it yields the true start of the
node's next uplink.  A run with confirmed uplinks (``confirmed_mode``
``all`` or ``on-demand``) drives the coroutines from the event loop: a
heap of (instant, seq) events, where an ACK can move a node's clock,
slot phase or ready grid, so no node's next uplink is known before the
channel has ruled on its last.  A feedback-free run (``confirmed_mode
= "none"``, pure ALOHA only) has no ACK, so every node's schedule is a
function of its own RNG stream: ``Engine._run_windows`` drives each
node's coroutine through one time window at a time, with the node's
draws in the event loop's order (the jitter draw while scheduling, the
channel draw at the uplink's start).  ``_merge_window`` then orders
each window's uplinks as the heap would pop them.  Both drivers rule on
a channel alike: every uplink lasts the same airtime, so an uplink
overlaps another on its channel iff it overlaps the latest one.

The tie rule: rows sort by true start.  At one instant the heap pops by
seq, and a row's seq is taken when the node's previous row pops, so
rows at one instant go in the pop order of their previous rows: every
node's first row before all others, in node order; a row whose previous
row popped at the same instant goes after every row that instant
already holds, in the order those previous rows popped.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, compress, count, repeat
from operator import eq
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence

from .mac import MacPolicy, slot_start
from .phy import RadioProfile, time_on_air
from .sync import (
    ACK_TIMESTAMP_LIMIT,
    MAX_RESIDUAL_ERROR_NS,
    MAX_TIMESTAMP_ERROR_NS,
    SyncError,
)
from .timebase import MAX_ABS_DRIFT_PPM, NS_PER_SEC, NS_PER_US, ppm_ratio

# The engine fuses these into its own clock map and drift bound and no
# longer calls them; the names stay importable from here, so a tracer
# that wraps them sees zero calls rather than a missing attribute.
from .timebase import drift_error, round_half_away_div  # noqa: F401

#: Every stored instant must fit the trace's int64 columns.
_INT64_LIMIT = 1 << 63

#: Rows per block of a trace column.  The engine buffers this many rows
#: in plain lists, since a list append is several times cheaper than an
#: array append of a large int, and then packs each column's rows into
#: one new block of the narrowest array type that holds them.
_TRACE_BLOCK = 4096

#: Uplinks per merge window of a feedback-free run, on average.  The
#: window's rows are buffered as lists of boxed ints; the trace still
#: packs one block of ``_TRACE_BLOCK`` rows at a time.  A window spans
#: at least ``_WINDOW_PERIODS`` application periods, since it costs
#: every node one pass of ``Engine._run_windows``' node loop.
_WINDOW_ROWS = 1024
_WINDOW_PERIODS = 8

#: Float pre-filter of the clock map fused into ``Engine._uplinks``.
#: The drift term of an instant, ``t * num / den`` in ``_local_at`` and
#: ``(local - base) * num / (den + num)`` in ``_true_at``, is computed
#: as ``v``, an int times the ratio in doubles.  Three roundings (the
#: ratio, the int-to-float conversion, the product) leave ``v`` within
#: ``|v| * 2**-51`` of the exact term, under 5e-4 for ``|v| < 2**40``.
#: There, a ``v`` whose fractional part lies more than 0.001 from one
#: half rounds to the same integer as the exact term; any other ``v``
#: takes the integer formula.
_FLOAT_EXACT = float(1 << 40)
_FLOAT_MARGIN = 0.499


def _narrowest(rows: Sequence[int]) -> array:
    """``rows`` as an array of the narrowest signed type of ``b``, ``h``,
    ``i`` and ``q`` that holds them; ``OverflowError`` if not even
    int64 does."""
    for typecode in "bhi":
        try:
            return array(typecode, rows)
        except OverflowError:
            pass
    return array("q", rows)


class ConfigError(ValueError):
    """A bad scenario: malformed text, an unparsable value or a field
    ``ScenarioConfig.validate`` rejects (the message lists each one)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation run.  Durations are integer
    nanoseconds; the seed is mandatory (no ambient entropy).  The class
    has no defaults of its own: ``config.load_scenario("", seed=...)``
    fills every field from ``config.DEFAULT_SCENARIO``, the ACK profile
    as the uplink profile with the ``[ack]`` payload."""

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
        ppm_num, scale = ppm_ratio(MAX_ABS_DRIFT_PPM)
        if horizon * (scale + ppm_num) >= _INT64_LIMIT * scale:
            problems.append(
                "initial_offset_max + duration + app_period + jitter, at the "
                f"±{MAX_ABS_DRIFT_PPM:g} ppm clock limit, must stay below 2^63 ns"
            )
        if self.capture_effect:
            problems.append("capture effect modelling is a disabled hook")
        if problems:
            raise ConfigError("; ".join(problems))


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
        raise ValueError("transmission longer than the duty-cycle budget")
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


def _merge_window(
    starts: list[int], first: list[int], carried: list[tuple[int, int]]
) -> list[int]:
    """Indices of one window's rows in the order the event queue pops them.

    ``starts`` holds the true start of every row of the window, node by
    node: node ``i``'s rows are ``starts[first[i]:first[i + 1]]``, in
    time order.  ``carried[i]`` is the key of node ``i``'s last row
    before the window, ``(true start, place among the rows at that
    instant)``, or ``(-1, i)`` while it has none; it is updated to the
    node's last row in the window.  Rows go by start, and rows at one
    instant by the key of their previous rows (the module's tie rule).
    """
    m = len(starts)
    order = sorted(range(m), key=starts.__getitem__)
    place: dict[int, int] = {}  # rank of a tied row among the rows at its instant
    if len(set(starts)) < m:
        firsts = set(first)
        groups: dict[int, list[int]] = {}
        for f in order:
            groups.setdefault(starts[f], []).append(f)
        at = 0
        for group in groups.values():
            if len(group) > 1:
                members = set(group)
                # A row whose previous row shares its instant is pushed
                # when that one pops: after every row already waiting.
                chained = {f for f in group if f - 1 in members and f not in firsts}
                waiting = sorted(
                    (
                        carried[bisect_right(first, f) - 1]
                        if f in firsts
                        else (starts[f - 1], place.get(f - 1, 0)),
                        f,
                    )
                    for f in group
                    if f not in chained
                )
                popped = [f for _key, f in waiting]
                for f in popped:  # grows while it is walked
                    if f + 1 in chained:
                        popped.append(f + 1)
                place.update((f, rank) for rank, f in enumerate(popped))
                order[at : at + len(group)] = popped
            at += len(group)
    for i, end in enumerate(first[1:]):
        if end > first[i]:
            carried[i] = (starts[end - 1], place.get(end - 1, 0))
    return order


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
        "n_syncs",
        "max_mis_pre_sync",
        "max_mis_post_sync",
    )

    def __init__(self, drift_ppm: float, offset: int) -> None:
        self.base = offset  # plus the corrections applied so far
        # Exact integer ratio of the ppm value, scaled so that the drift
        # over `t` is t * drift_num / drift_den with drift_den > 0.
        self.drift_num, self.drift_den = ppm_ratio(drift_ppm)
        self.inv_den = self.drift_den + self.drift_num
        self.phase = 0
        self.synced = False
        self.last_sync_local = 0
        self.uncertainty_at_sync = 0
        self.pending_use_slots = False
        self.retry_shift = 0
        self.duty: deque = deque()
        self.n_syncs = 0
        self.max_mis_pre_sync = 0
        self.max_mis_post_sync = 0


class Column:
    """One trace column of int64 values: array blocks of exactly
    ``block`` rows, of which only the last may be shorter.

    Each block is packed in the narrowest signed type of ``b``, ``h``,
    ``i`` and ``q`` that holds its rows, so node ids and channels cost
    one byte a row and an airtime four.  A block is never resized.  A
    growing run allocates blocks one by one instead of reallocating one
    large buffer, which would leave holes in the heap that stay
    resident.  Indexing and item assignment take an integer and follow
    list semantics over the int64 range; there is no slicing."""

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

    def _locate(self, index: int) -> tuple[int, int]:
        """(block number, row within it) of a list-style ``index``."""
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace column index out of range")
        return divmod(index, self.block)

    def __getitem__(self, index: int) -> int:
        b, i = self._locate(index)
        return self.blocks[b][i]

    def __setitem__(self, index: int, value: int) -> None:
        b, i = self._locate(index)
        block = self.blocks[b]
        try:
            block[i] = value
        except OverflowError:
            # Too wide for this block: widen a copy, so that a value
            # outside int64 still raises and leaves the column unchanged.
            block = array("q", block)
            block[i] = value
            self.blocks[b] = block

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def count(self, value: int) -> int:
        return sum(block.count(value) for block in self.blocks)

    def extend(self, values: Sequence[int]) -> None:
        """Append ``values`` as new blocks; a short last block is
        replaced by one packed from its rows and the first new ones,
        never resized.  Nothing changes if a value is outside int64."""
        blocks, size = self.blocks, self.block
        short = bool(blocks) and len(blocks[-1]) < size
        rows = [*blocks[-1], *values] if short else values
        if len(rows) <= size:
            new = [_narrowest(rows)] if rows else []  # the engine's case: no copy
        else:
            new = [_narrowest(rows[i : i + size]) for i in range(0, len(rows), size)]
        blocks[len(blocks) - short :] = new


class Trace:
    """Column-oriented transmission log: one entry per uplink in every
    column, in transmission-start order.

    The six int columns are ``Column`` objects, each block packed in the
    narrowest signed array type that holds it, and the three flags are
    ``bytearray``; compare a column with a list through
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
    per_node: list[tuple[int, int]] = field(default_factory=list)


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
        self._feedback_free = config.confirmed_mode == "none"
        # Worst-case drift slope as an exact integer ratio, so that
        # drift over `elapsed` is elapsed * num / den, rounded once.
        self._bound_num, self._bound_den = ppm_ratio(config.drift_bound_ppm)
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
        # Start and record of the latest uplink on each channel.  Every
        # uplink lasts _uplink_toa, so an uplink overlaps another on its
        # channel iff it overlaps the one that started just before it.
        self._last_start = [-self._uplink_toa] * config.n_channels
        self._last_rec = [0] * config.n_channels
        # Each node's schedule as the send method of its coroutine.
        self._sends: list[Callable[[Optional[int]], int]] = []
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
        if not 0 <= us < ACK_TIMESTAMP_LIMIT:
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

    def _uplinks(self, nd: _Node) -> Generator[int, Optional[int], None]:
        """The node's schedule, one uplink at a time.

        Priming yields the true start of the node's first uplink.  Each
        instant sent in after that, the start of the uplink just sent or
        the arrival of its ACK, yields the true start of the next one,
        or ``duration + 1`` once that lies past the horizon.  A yielded
        uplink leaves its local start and slot use in
        ``pending_tx_local`` and ``pending_use_slots``, and enters the
        node's duty history: nothing reads the history before it starts.

        The rule: the next instant of the node's period grid, plus a
        jitter draw and any retry shift, clamped to the clock's reading
        at the sent instant, aligned to the slot grid when the node may
        use it, and deferred while the duty cycle forbids it.  ``base``,
        ``synced``, ``phase`` and ``retry_shift`` are read for every
        uplink, since an ACK can change them; the clock maps take the
        float pre-filter (see ``_FLOAT_EXACT``)."""
        ratio = nd.drift_num / nd.drift_den
        inv_ratio = nd.drift_num / nd.inv_den
        rng = nd.rng
        period = self._app_period
        jitter = self._jitter
        horizon = self._duration
        slotted, slot_t, guard = self._slotted, self._slot_t, self._guard
        dur = self._uplink_toa
        window = self._dc_window
        budget = self._budget
        room = budget // dur  # uplinks the cap allows in one window
        duty = nd.duty
        trim = duty.popleft
        log_duty = duty.append
        lim, margin = _FLOAT_EXACT, _FLOAT_MARGIN
        # The node keeps the grid's first instant; only this coroutine
        # advances the grid, so it holds the rest.
        next_ready = nd.next_ready_local
        now = 0
        while True:
            base = nd.base
            ready = next_ready
            next_ready += period
            if jitter:
                ready += rng.randint(-jitter, jitter)
            shift = nd.retry_shift
            if shift:
                # Shift the whole ready grid, not just this attempt, so
                # two nodes that booted in lockstep stay decorrelated.
                ready += shift
                next_ready += shift
                nd.retry_shift = 0
            v = now * ratio
            # The clock reads base + now + v, rounded, at `now`: a ready
            # instant more than v + 1 past base + now needs no clamp, so
            # the reading is worked out only for one that may.
            if ready - base - now <= v + 1.0 or not -lim < v < lim:
                q = round(v)
                if -margin < v - q < margin and -lim < v < lim:
                    now_local = base + now + q
                else:
                    now_local = self._local_at(nd, now)
                if ready < now_local:
                    ready = now_local
            use_slots = (
                slotted and nd.synced and self._uncertainty_at(nd, ready) < guard
            )
            while True:
                tx_local = slot_start(ready, slot_t, nd.phase) if use_slots else ready
                elapsed = tx_local - base
                v = elapsed * inv_ratio
                q = round(v)
                if -margin < v - q < margin and -lim < v < lim:
                    tx_true = elapsed - q
                else:
                    tx_true = self._true_at(nd, tx_local)
                if tx_true < now:
                    tx_true = now
                # Every entry lasts `dur`, so the history's airtime is
                # len(duty) * dur; the slow path clips only the head
                # entries that straddle the window start.
                cut = tx_true - window
                while duty and duty[0][0] <= cut:
                    trim()
                if len(duty) < room:
                    break
                defer = enforce_duty_cycle(
                    duty, len(duty) * dur, tx_true, dur, budget, window
                )
                if defer is None:
                    break
                ready = self._local_at(nd, defer)
            if tx_true > horizon:
                break
            nd.pending_tx_local = tx_local
            nd.pending_use_slots = use_slots
            log_duty((tx_true, dur))
            now = yield tx_true
        yield horizon + 1

    def _schedule_next_tx(self, node_id: int, now: Optional[int]) -> None:
        """Send ``now`` to the node's schedule and push its next uplink,
        if any; ``now`` is None for a fresh schedule, which starts at 0."""
        tx_true = self._sends[node_id](now)
        if tx_true <= self._duration:
            self._seq += 1
            heappush(self._heap, (tx_true, self._seq, self._TX_START, node_id))

    # -- event handlers --------------------------------------------------

    def run(self) -> tuple[Trace, Metrics]:
        if self._ran:
            raise RuntimeError("engine instances are single-use")
        self._ran = True
        if self._feedback_free:
            self._run_windows()
        else:
            self._run_events()
        self._pack_rows()
        return self.trace, self.metrics()

    def _run_events(self) -> None:
        """The event loop: every run's reference schedule."""
        self._sends = [self._uplinks(nd).send for nd in self.nodes]
        for node_id in range(len(self.nodes)):
            self._schedule_next_tx(node_id, None)
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
        # Each coroutine's frame holds the engine: drop the cycle, so
        # that the trace is freed as soon as its last user lets go.
        self._sends = []

    def _run_windows(self) -> None:
        """A feedback-free run, one time window at a time: each node's
        uplinks from its schedule, logged as ``_on_tx_start`` logs them,
        merged by ``_merge_window`` and ruled on by the channel."""
        nodes = self.nodes
        n = len(nodes)
        sends = [self._uplinks(nd).send for nd in nodes]
        pending = [send(None) for send in sends]  # each node's next uplink
        done = self._duration + 1
        carried = [(-1, i) for i in range(n)]
        span = self._app_period * max(_WINDOW_PERIODS, _WINDOW_ROWS // n)
        dur = self._uplink_toa
        n_channels = self._n_channels
        last_start, last_rec = self._last_start, self._last_rec
        trace = self.trace
        collided = trace.collided
        node_ids, true_starts, local_starts, slot_indices, channels, durations = (
            self._rows
        )
        w_end = 0
        while w_end < done:
            w_end = min(w_end + span, done)
            starts: list[int] = []
            locals_: list[int] = []
            chans: list[int] = []
            nids: list[int] = []
            first = []
            add_start, add_local, add_channel = (
                starts.append,
                locals_.append,
                chans.append,
            )
            for node_id, nd in enumerate(nodes):
                first.append(len(starts))
                tx_true = pending[node_id]
                if tx_true < w_end:
                    send = sends[node_id]
                    channel = nd.channel
                    draw = nd.rng.randrange
                    while tx_true < w_end:
                        add_start(tx_true)
                        add_local(nd.pending_tx_local)
                        add_channel(channel if channel >= 0 else draw(n_channels))
                        tx_true = send(tx_true)
                    pending[node_id] = tx_true
                    nids.extend(repeat(node_id, len(starts) - first[-1]))
            first.append(len(starts))
            order = _merge_window(starts, first, carried)
            m = len(order)
            starts = list(map(starts.__getitem__, order))
            chans = list(map(chans.__getitem__, order))
            first_rec = len(collided)
            collided.extend(bytes(m))
            for rec, t, c in zip(count(first_rec), starts, chans):
                if t - last_start[c] < dur:
                    collided[rec] = 1
                    collided[last_rec[c]] = 1
                last_start[c] = t
                last_rec[c] = rec
            trace.acked.extend(bytes(m))
            trace.confirmed.extend(bytes(m))
            node_ids.extend(map(nids.__getitem__, order))
            true_starts.extend(starts)
            local_starts.extend(map(locals_.__getitem__, order))
            slot_indices.extend(repeat(-1, m))
            channels.extend(chans)
            durations.extend(repeat(dur, m))
            while len(node_ids) >= _TRACE_BLOCK:
                self._pack_rows(_TRACE_BLOCK)

    def _pack_rows(self, n: Optional[int] = None) -> None:
        """Move the first ``n`` buffered rows, or all of them, into the
        trace's int columns: one new block per column."""
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
            column.extend(rows if n is None else rows[:n])
            del rows[:n]

    def _on_tx_start(self, node_id: int, now: int) -> None:
        nd = self.nodes[node_id]
        trace = self.trace
        dur = self._uplink_toa
        tx_local = nd.pending_tx_local
        use_slots = nd.pending_use_slots
        confirmed = self._wants_ack(nd, tx_local)
        channel = nd.channel
        if channel < 0:
            channel = nd.rng.randrange(self._n_channels)

        rec = len(trace.collided)
        collided = 0
        if now - self._last_start[channel] < dur:
            collided = 1
            trace.collided[self._last_rec[channel]] = 1
        self._last_start[channel] = now
        self._last_rec[channel] = rec

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

        if confirmed:
            nd.pending_rec = rec
            self._seq += 1
            heappush(
                self._heap,
                (now + dur + self._ack_lag, self._seq, self._ACK_EVENT, node_id),
            )
        else:
            self._schedule_next_tx(node_id, now)

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
        self._schedule_next_tx(node_id, now)

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
            per_node=[(sent[i], lost[i]) for i in range(cfg.n_nodes)],
        )


def run(config: ScenarioConfig) -> tuple[Trace, Metrics]:
    """Execute one scenario to its horizon.  Identical (config, seed)
    pairs produce bit-identical traces."""
    return Engine(config).run()

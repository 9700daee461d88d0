"""Deterministic discrete-event engine.

Hosts node and gateway agents on a shared multi-channel medium with
pure interval-overlap collision semantics (no capture), LoRaWAN Class A
ACK timing (RX1 opens 1 s after the uplink ends), sliding-window
duty-cycle enforcement, and the ACK-piggybacked synchronization loop.

Everything is a pure function of (config, seed): events at one instant
follow the tie rule below, every node owns an RNG stream derived from
(seed, node_id), and no wall clock or hash order is consulted anywhere.

Clock map: each node keeps ``base = initial_offset + corrections`` and
its drift as an exact integer ratio.  ``Engine._local_at`` is the
true->local map and ``Engine._uplinks`` holds the one local->true map,
its inverse; the tests check both against ``local = base + t * (1 + ppm
* 1e-6)`` and its inverse, evaluated as exact fractions, and the event
loop of ``tests/oracles.py`` maps back with ``true_at``, the inverse
written out as a function.  Every division in them, in the drift bound
and in the gateway's microsecond quantization rounds half away from
zero, and each is one floor division: ``x / den`` rounds to
``(2*x + den - 1 + (x >= 0)) // (2*den)``.  ``Engine._uplinks`` inlines
the maps and the drift bound of both its uncertainty checks with the
sign term set once per schedule: every instant a schedule maps is at
least 0, so the drift term has the sign of the node's drift and the
inverse map's numerator is never negative.  No clock map or bound of a
schedule takes a double.

The sync exchange runs inline in ``Engine._uplinks``: it keeps the
checks of ``sync.gateway_record_rx_end`` (timestamp error within
±20 µs) and of ``sync.SyncAck`` (timestamp fits 8 bytes of µs), each
raising ``SyncError``.  ``ScenarioConfig.validate`` keeps both out of
reach of a run: it bounds the gateway error to 19 µs, and every uplink
ends between one airtime and 2^63 ns.  The uncertainty bound,
``sync.current_uncertainty`` with the slope as an exact ratio, drives
both the slot-use check and the on-demand resync decision.

Slot alignment: a node that may use the grid transmits at
``mac.slot_start(ready, T, phase)``, the one implementation of the
global-grid rule; every other uplink starts when it is ready, unless the
duty cycle defers it.

One schedule, one driver.  Each node's schedule is one coroutine,
``Engine._uplinks``.  It yields the node's uplinks one at a time, each
with its channel and whether it requests an ACK.  For a confirmed
uplink it takes one bit back, whether the uplink collided, and runs the
ACK's branch: the sync on success, a new slot phase or a retry shift on
a loss.  That bit is all a node learns from the rest of the network, and
every draw happens in the order an event queue would make it.

``Engine._run_windows`` drives the coroutines one time window at a time.
A window is first generated optimistically, node by node: a confirmed
uplink's bit is the one the medium has already ruled or, while it has
not, a guess of 0 (success), and the pass records each uplink whose bit
it guessed.  The window's uplinks go in the tie rule's order, and
``_Medium``, which holds the whole channel ruling, rules on them.  A bit
is final once every uplink that starts before that uplink's end has been
ruled on.  The pass is wrong iff the ruling lost a recorded uplink;
otherwise every guess was right, and the window is the event queue's
schedule, byte for byte: an uplink depends only on the bits of uplinks
that ended an ACK delay before it starts.  A feedback-free run
(``confirmed_mode = "none"``) consumes no bit and takes no snapshot.

If a guess was wrong, the ruling is rewound, every node that guessed
restarts from its snapshot (``_node_state``, its state just before it
consumed its first bit that was not final), and the window is finished
conservatively: each node stops at its next confirmed uplink until that
uplink's bit is final.  A stopped node sends nothing before that
uplink's ACK lands, so one frontier runs over every stopped node, the
earliest pending ACK: the medium rules on every uplink before it, which
makes the bit of every stopped uplink that ends by then final.  A window
whose predecessor had a lost confirmed uplink starts conservatively.  A
window gets one optimistic pass: a second saved no time on any bench
workload.  The trace takes each window once, in the tie rule's order.

The tie rule: uplinks go by true start; uplinks that start together go
by node index, and a node's own in the order it sent them.

Two processes, by channel group.  Under ``_Medium``'s assumptions a node
learns of the rest of the network only through its own channel; each
node keeps its own duty history and sync state, and under ``fixed`` and
``round-robin`` selection one channel.  So the nodes of disjoint channel
sets are independent runs.  When a run has two or more such groups, two
or more CPUs, no other thread and more than ``_SPLIT_MIN_UPLINKS``
expected uplinks (``Engine._split``), a forked child drives the smaller
half of the groups through ``_run_windows`` over the same windows and
sends each window's ordered uplinks down a pipe.  The parent drives the
other half and takes the child's uplinks at the start of the same
window: they join its ruling, on channels none of its nodes use, and
its trace.  At the end the child sends its nodes' state.  A run whose
pipe or fork fails runs in one process; the bytes are the same either
way.
"""

from __future__ import annotations

import os
import random
import threading
import warnings
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from operator import attrgetter, gt, itemgetter
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

#: The most nodes a scenario may hold.  Each costs about 3.9 KB of
#: resident memory and 15 µs to build, so this many take about 390 MB.
_MAX_NODES = 100_000

#: The most channels a scenario may hold (US915 has 72 uplink channels).
#: Each costs the channel ruling about 220 bytes and 0.5 µs to build,
#: and a list copy per window, so this many take about 0.2 MB.
_MAX_CHANNELS = 1_000

#: The fields of ``ScenarioConfig`` that hold a duration in ns.
_DURATION_FIELDS = (
    "app_period", "duration", "jitter", "initial_offset_max", "dc_window",
    "rx1_delay", "warmup", "residual_mean", "residual_std", "residual_max",
)

#: Uplinks per window of ``Engine._run_windows``, on average.  The
#: window's rows are buffered as lists of tuples, and each int column of
#: the trace takes them as one new block.  A window spans at least
#: ``_WINDOW_PERIODS`` application periods, since every pass over it
#: visits every node.
_WINDOW_ROWS = 768
_WINDOW_PERIODS = 8

#: A run whose nodes fall into two or more channel groups splits over
#: two processes when it expects more uplinks than this
#: (``n_nodes * duration / app_period``; see ``Engine._split``).  The
#: fork and the child cost a few milliseconds: on a 2-core host a split
#: default run gained from about 2,500 uplinks slotted and from about
#: 16,000 pure.
_SPLIT_MIN_UPLINKS = 20_000

_START, _LOCAL, _SLOT, _CHANNEL, _ACK, _NODE = map(itemgetter, range(6))


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
        # Checked first, as the load does: the checks below take floats
        # of some durations, and the engine of most.
        for name in _DURATION_FIELDS:
            if abs(getattr(self, name)) >= _INT64_LIMIT:
                raise ConfigError(f"{name} must be below 2^63 ns in magnitude")
        problems = []
        if not 1 <= self.n_nodes <= _MAX_NODES:
            problems.append(f"n_nodes must be in [1, {_MAX_NODES}]")
        if self.app_period <= time_on_air(self.uplink_profile):
            problems.append("app_period must exceed the uplink time-on-air")
        if self.duration <= 0:
            problems.append("duration must be positive")
        if self.jitter < 0:
            problems.append("jitter must be non-negative")
        if self.initial_offset_max < 0:
            problems.append("initial_offset_max must be non-negative")
        if not 1 <= self.n_channels <= _MAX_CHANNELS:
            problems.append(f"n_channels must be in [1, {_MAX_CHANNELS}]")
        if self.channel_selection not in ("fixed", "round-robin", "uniform-random"):
            problems.append(f"unknown channel_selection {self.channel_selection!r}")
        lo, hi = self.drift_ppm_range
        # Checked here, not per node, so validity cannot depend on the
        # drifts the seed happens to draw; NaN and infinities fail it too.
        if not 0 <= lo <= hi <= MAX_ABS_DRIFT_PPM:
            problems.append(
                "drift_ppm_range must satisfy "
                f"0 <= low <= high <= {MAX_ABS_DRIFT_PPM:g}"
            )
        if self.confirmed_mode not in ("all", "on-demand", "none"):
            problems.append(f"unknown confirmed_mode {self.confirmed_mode!r}")
        if self.policy.is_slotted and self.confirmed_mode == "none":
            problems.append("slotted policy needs confirmed uplinks to synchronize")
        if self.policy.is_slotted and self.policy.plan.t > self.app_period:
            # A node would have no whole slot in its period to move to.
            problems.append(
                f"slot T = {self.policy.plan.t} ns must not exceed "
                f"app_period = {self.app_period} ns"
            )
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
    starts: Sequence[int],
    proposed_start: int,
    duration: int,
    budget: int,
    window: int,
) -> Optional[int]:
    """Sliding-window duty-cycle check for one node.

    ``starts`` holds the node's past uplink starts in order, each uplink
    lasting ``duration`` as the proposal does; ``budget`` is the airtime
    the cap allows in one ``window``.  Precondition: every entry ends
    after the window start ``proposed_start + duration - window`` and no
    later than the window end ``proposed_start + duration``.  Only the
    entries that start before the window start then lie partly outside
    it, so the cost is O(entries leaving the window), not O(len(starts)).

    Returns None when the proposal is legal, else the earliest start
    instant at which it becomes legal.
    """
    if budget < duration:
        raise ValueError("transmission longer than the duty-cycle budget")
    win_start = proposed_start + duration - window
    excess = (len(starts) + 1) * duration - budget
    for s in starts:
        if s >= win_start:
            break
        excess -= win_start - s
    if excess <= 0:
        return None
    # Slide the window start forward until `excess` ns of old airtime
    # have left it; removal grows linearly while the window edge crosses
    # an entry and pauses in the gaps.
    for s in starts:
        lo = s if s > win_start else win_start
        avail = s + duration - lo
        if avail >= excess:
            return lo + excess + window - duration
        excess -= avail
    raise AssertionError("unreachable: budget check bounds the walk")


class _Medium:
    """The gateway's channels: the one ruling on which uplinks collide.

    Two uplinks collide iff they share a channel and their airtimes
    overlap; every party to a collision is lost (no capture).  The ruling,
    and ``Engine._split``'s independence of channel groups, rest on two
    assumptions: the channel alone is the shared resource, and every
    uplink lasts the same airtime ``dur``, so an uplink overlaps another
    on its channel iff it overlaps the latest one that started before it.

    ``rule`` takes uplinks in start order; the order of uplinks that start
    together changes no flag.  ``lost`` holds each ruled row found collided
    that a reader may still ask about, by identity, since two rows may be
    equal tuples; it holds the row, so no other object takes its id.  The
    trace's flags are written only once a window is final, so ``rewind``
    touches no trace."""

    __slots__ = ("dur", "collided", "last_row", "tails", "lost")

    def __init__(self, n_channels: int, dur: int, collided: bytearray) -> None:
        self.dur = dur
        self.collided = collided  # the trace's flags
        # Each channel's latest ruled row, at first a stand-in that ends
        # at 0, and its latest (record, row) in the trace.
        self.last_row = [(-dur, 0, -1, c, 0) for c in range(n_channels)]
        self.tails = [(-1, row) for row in self.last_row]
        self.lost: dict[int, tuple] = {}

    def rule(self, batch: list[tuple]) -> None:
        """Rule on ``batch``, uplinks sorted by start that start after
        every uplink ruled on so far."""
        last_row, lost, dur = self.last_row, self.lost, self.dur
        for row in batch:
            c = row[3]
            prev = last_row[c]
            if row[0] - prev[0] < dur:
                lost[id(row)] = row
                lost[id(prev)] = prev
            last_row[c] = row

    def mark(self) -> tuple:
        """What ``rewind`` needs to take back the rulings to come."""
        return self.last_row[:], self.lost.copy()

    def rewind(self, mark: tuple) -> None:
        """Take back every ruling since ``mark`` was taken."""
        self.last_row[:], self.lost = mark

    def settle(self, ordered: list[tuple], heads: Iterable) -> None:
        """Close the ruling of a window whose uplinks, all ruled on, go
        into the trace as ``ordered``: write their flags and each earlier
        tail's that this window overlapped, take each channel's latest
        uplink as its tail, and keep in ``lost`` only the rows a later
        window may ask about, each channel's latest and the nodes'
        ``heads``."""
        collided, tails, last_row = self.collided, self.tails, self.last_row
        lost = self.lost
        first = len(collided)
        collided.extend(map(lost.__contains__, map(id, ordered)))
        left = 0
        for c, (rec, row) in enumerate(tails):
            if id(row) in lost:
                collided[rec] = 1
            left += row is not last_row[c]
        at = len(ordered)
        while left:
            at -= 1
            row = ordered[at]
            if row is last_row[row[3]]:
                tails[row[3]] = (first + at, row)
                left -= 1
        kept = [row for row in chain(last_row, heads) if id(row) in lost]
        self.lost = dict(zip(map(id, kept), kept))


class _Node:
    __slots__ = (
        "base",
        "drift_num",
        "drift_den",
        "inv_den",
        "index",
        "rng",
        "channel",
        "phase",
        "next_ready_local",
        "synced",
        "last_sync_local",
        "uncertainty_at_sync",
        "duty",
        "n_syncs",
        "max_mis_pre_sync",
        "max_mis_post_sync",
    )

    def __init__(self, drift_ppm: float, offset: int, index: int = 0) -> None:
        self.index = index  # in the engine's nodes
        self.base = offset  # plus the corrections applied so far
        # Exact integer ratio of the ppm value, scaled so that the drift
        # over `t` is t * drift_num / drift_den with drift_den > 0.
        self.drift_num, self.drift_den = ppm_ratio(drift_ppm)
        self.inv_den = self.drift_den + self.drift_num
        self.phase = 0
        self.synced = False
        self.last_sync_local = 0
        self.uncertainty_at_sync = 0
        self.duty: deque = deque()  # uplink starts in the cap's window
        self.n_syncs = 0
        self.max_mis_pre_sync = 0
        self.max_mis_post_sync = 0


#: Every slot of a `_Node` but its generator and its duty history.
_PLAIN_SLOTS = tuple(name for name in _Node.__slots__ if name not in ("rng", "duty"))
_plain_slots = attrgetter(*_PLAIN_SLOTS)


def _node_state(nd: _Node) -> tuple:
    """One record of ``nd``'s state: its generator's state, with the
    words as an ``array("I")`` (a tenth of the tuple's size), its duty
    history's uplink starts as a tuple of ints, and every other slot."""
    version, words, gauss_next = nd.rng.getstate()
    return (version, array("I", words), gauss_next), tuple(nd.duty), _plain_slots(nd)


def _load_node_state(nd: _Node, state: tuple) -> None:
    """Give ``nd`` the state ``_node_state`` took, in its own generator
    and duty history."""
    (version, words, gauss_next), duty, values = state
    nd.rng.setstate((version, tuple(words), gauss_next))
    nd.duty.clear()
    nd.duty.extend(duty)
    for name, value in zip(_PLAIN_SLOTS, values):
        setattr(nd, name, value)


class Column:
    """One trace column of int64 values: a list of array ``blocks``, one
    per non-empty ``extend``, and ``ends``, the row count up to the end
    of each block.  The engine extends every column once per window of
    ``Engine._run_windows``, so a block holds one window's uplinks.

    Each block is packed in the narrowest signed type of ``b``, ``h``,
    ``i`` and ``q`` that holds its rows, so node ids and channels cost
    one byte a row and an airtime four.  A block is never resized.  A
    growing run allocates blocks one by one instead of reallocating one
    large buffer, which would leave holes in the heap that stay
    resident.  Indexing and item assignment take an integer and follow
    list semantics, but an assigned value must fit its block's type:
    any other raises ``OverflowError`` and leaves the column unchanged.
    There is no slicing."""

    __slots__ = ("blocks", "ends")

    def __init__(self) -> None:
        self.blocks: list[array] = []
        self.ends: list[int] = []

    def __len__(self) -> int:
        ends = self.ends
        return ends[-1] if ends else 0

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.blocks)

    def _locate(self, index: int) -> tuple[int, int]:
        """(block number, row within it) of a list-style ``index``."""
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace column index out of range")
        b = bisect_right(self.ends, index)
        return b, (index - self.ends[b - 1]) if b else index

    def __getitem__(self, index: int) -> int:
        b, i = self._locate(index)
        return self.blocks[b][i]

    def __setitem__(self, index: int, value: int) -> None:
        b, i = self._locate(index)
        self.blocks[b][i] = value

    def count(self, value: int) -> int:
        return sum(block.count(value) for block in self.blocks)

    def extend(self, values: Sequence[int]) -> None:
        """Append ``values``, if there are any, as one new block; nothing
        changes if a value is outside int64 (``OverflowError``)."""
        block = _narrowest(values)
        if block:
            self.ends.append(len(self) + len(block))
            self.blocks.append(block)


class Trace:
    """Column-oriented transmission log: one entry per uplink in every
    column, in transmission-start order.

    The six int columns are ``Column`` objects, each block packed in the
    narrowest signed array type that holds it, and the three flags are
    ``bytearray``; compare a column through ``list(col)``.  During a run
    every column but ``acked``, and so ``len``, grows a window at a
    time; the engine fills ``acked`` at the end, so every column is
    complete once ``Engine.run`` returns."""

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

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.trace = Trace()
        self.gateway_airtime = 0
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
        # Bits per draw of the schedule's integer draws, in its order:
        # the gateway error, the jitter, the channel, the slot phase and
        # the grid shift (see `_uplinks`).
        self._draw_bits = tuple(
            width.bit_length()
            for width in (
                2 * config.timestamp_error_max_us + 1,
                2 * config.jitter + 1,
                config.n_channels,
                self._max_phase,
                config.app_period + 1,
            )
        )
        # Every event of the run comes before this instant: no uplink
        # starts past the horizon, and an ACK lands at most the uplink's
        # airtime plus `_ack_lag` after its uplink starts.
        self._end = config.duration + self._uplink_toa + self._ack_lag + 1
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
        nd = _Node(sign * magnitude, offset, node_id)
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
        den = nd.drift_den
        x = t * nd.drift_num
        return nd.base + t + (2 * x + den - 1 + (x >= 0)) // (2 * den)

    def _drift_bound(self, elapsed: int) -> int:
        """Worst-case drift over ``elapsed >= 0`` ns at the configured bound."""
        return (2 * elapsed * self._bound_num + self._bound_den) // (2 * self._bound_den)

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
        us = (2 * observed + NS_PER_US - 1 + (observed >= 0)) // (2 * NS_PER_US)
        if not 0 <= us < ACK_TIMESTAMP_LIMIT:
            raise SyncError(f"timestamp {us} not representable in 8 bytes")
        return us

    # -- scheduling ------------------------------------------------------

    def _uplinks(
        self, nd: _Node, row: Optional[tuple] = None
    ) -> Generator[tuple, Optional[int], None]:
        """The node's schedule, one uplink at a time.

        Each uplink is a row ``(true start, local start, slot index or
        -1, channel, ACK, node index)``, where ``ACK`` is the instant its
        ACK lands, ``_uplink_toa + _ack_lag`` after its start, or 0 if it
        is unconfirmed; at a confirmed uplink, ``nd.next_ready_local``
        keeps the node's next ready instant on its period grid.  Primed
        with ``next``, the coroutine waits for the outcome of ``row``,
        the node's last uplink (None for a fresh schedule, which starts
        at 0): ``send`` it the bit, 1 if a confirmed uplink collided
        (anything for an unconfirmed one), and it yields the next row,
        or a row starting at ``_end`` once that lies past the horizon.
        A yielded uplink enters the node's duty history: nothing reads
        the history before it starts.

        For a confirmed uplink, the ACK's draws are made either way
        (residual, its sign, gateway error); a lost uplink then redraws
        the slot phase of a slotted sender or shifts an unslotted
        sender's grid, and a delivered one syncs the clock.  The next
        uplink is the next instant of the grid, plus a jitter draw and
        any shift, clamped to the clock's reading at the ACK's arrival
        (at the last uplink's start if it was unconfirmed), aligned to
        the slot grid when the node may use it, and deferred while the
        duty cycle forbids it; whether it asks for an ACK is decided and
        its channel drawn after that.  ``base``, ``synced`` and
        ``phase`` are read per uplink.

        Each integer draw (the gateway error, the jitter, the channel,
        the slot phase, the grid shift) is ``randrange``'s own: CPython
        computes ``randrange(a, b)`` as ``a + _randbelow(b - a)``, which
        draws ``getrandbits((b - a).bit_length())`` until the value falls
        below ``b - a``.  The schedule runs that loop inline, so every
        draw, and the stream after it, stays the same.

        Every clock map, the duty deferral's included, is ``_local_at``
        or its inverse written as one floor division (see the module
        docstring), and both uncertainty checks compare the sync's bound
        plus ``_drift_bound`` of the elapsed local time, 0 if negative,
        with a guard.  A local map takes a true instant ``t >= 0``, so
        its sign term is the drift's, ``half``, set once.  The true map
        takes a local start at or past ``base``, since every start lies
        at or past the clock's reading at ``now``, itself at least
        ``base``, so its sign term is 1.  The clock's reading at ``now``
        is worked out only where it may pass the ready instant."""
        num, den, inv_den = nd.drift_num, nd.drift_den, nd.inv_den
        # x * num / den rounds to (x * num2 + half) // den2 for x >= 0.
        num2, den2, inv_den2 = 2 * num, 2 * den, 2 * inv_den
        half = den - 1 + (num >= 0)
        bound_num2, bound_den = 2 * self._bound_num, self._bound_den
        bound_den2 = 2 * bound_den
        rng = nd.rng
        gauss, uniform, getrandbits = rng.gauss, rng.random, rng.getrandbits
        gateway_us = self._gateway_timestamp_us
        period = self._app_period
        jitter = self._jitter
        horizon = self._duration
        slotted, slot_t, guard = self._slotted, self._slot_t, self._guard
        max_phase = self._max_phase
        confirm_all, on_demand = self._confirm_all, self._on_demand
        lookahead, resync_guard = self._resync_lookahead, self._resync_guard
        dur = self._uplink_toa
        ack_lag = self._ack_lag
        cfg = self.config
        r_max, r_mean, r_std = cfg.residual_max, cfg.residual_mean, cfg.residual_std
        ts_max = cfg.timestamp_error_max_us
        ts_width, jitter_width = 2 * ts_max + 1, 2 * jitter + 1
        ts_bits, jitter_bits, channel_bits, phase_bits, shift_bits = self._draw_bits
        sync_uncertainty = self._sync_uncertainty
        fixed_channel, n_channels = nd.channel, self._n_channels
        window = self._dc_window
        budget = self._budget
        room = budget // dur  # uplinks the cap allows in one window
        duty = nd.duty
        trim = duty.popleft
        log_duty = duty.append
        lag = dur + ack_lag
        next_ready = nd.next_ready_local
        node = nd.index
        if row is None:
            tx_true, use_slots, ack = 0, False, 0
        else:
            tx_true, use_slots, ack = row[0], row[2] >= 0, row[4]
        bit = yield
        while True:
            shift = 0
            if not ack:
                now = tx_true
            else:
                now = ack
                # The residual is the measured execution-time jitter of
                # the sync procedure, which the node's end-of-transmission
                # timestamp carries on top of its RTC.
                residual = round(gauss(r_mean, r_std))
                if residual < 0:
                    residual = 0
                elif residual > r_max:
                    residual = r_max
                residual = residual if uniform() < 0.5 else -residual
                draw = getrandbits(ts_bits)
                while draw >= ts_width:
                    draw = getrandbits(ts_bits)
                ts_err = (draw - ts_max) * NS_PER_US
                if bit:
                    # ACK never sent: the uplink was lost.  Slotted
                    # senders pick a new slot phase so persistent
                    # same-slot pairs break up; un-slotted senders (not
                    # yet synced, or clock bound grown past the guard)
                    # shift their grid instead, otherwise two nodes that
                    # boot in lockstep would collide every period.
                    if use_slots and max_phase > 1:
                        phase = getrandbits(phase_bits)
                        while phase >= max_phase:
                            phase = getrandbits(phase_bits)
                        nd.phase = phase
                    elif not use_slots:
                        shift = getrandbits(shift_bits)
                        while shift >= period + 1:
                            shift = getrandbits(shift_bits)
                else:
                    base = nd.base
                    uplink_end = tx_true + dur
                    end_local = base + uplink_end + (uplink_end * num2 + half) // den2
                    now_local = base + now + (now * num2 + half) // den2
                    gw_us = gateway_us(uplink_end, ts_err)
                    offset = gw_us * NS_PER_US - (end_local + residual)
                    mis = abs(now_local - now)
                    if mis > nd.max_mis_pre_sync and nd.synced:
                        nd.max_mis_pre_sync = mis
                    nd.base = base + offset
                    nd.synced = True
                    nd.last_sync_local = now_local + offset
                    # The correction is referenced to the uplink-end
                    # timestamp exchange; its error budget is the
                    # execution residual plus the gateway timestamping
                    # error, and the drift accrued over the RX1 window
                    # until the ACK lands is folded in up front.
                    nd.uncertainty_at_sync = abs(residual) + sync_uncertainty
                    nd.n_syncs += 1
                    mis = abs(end_local + offset - uplink_end)
                    if mis > nd.max_mis_post_sync:
                        nd.max_mis_post_sync = mis
            base = nd.base
            ready = next_ready
            next_ready += period
            if jitter:
                draw = getrandbits(jitter_bits)
                while draw >= jitter_width:
                    draw = getrandbits(jitter_bits)
                ready += draw - jitter
            if shift:
                # Shift the whole ready grid, not just this attempt, so
                # two nodes that booted in lockstep stay decorrelated.
                ready += shift
                next_ready += shift
            # The clock reads base + now plus now * num / den, rounded, at
            # `now`: a ready instant more than 1 past that term needs no
            # clamp, so the reading is worked out only for one that may.
            if (ready - base - now - 1) * den <= now * num:
                now_local = base + now + (now * num2 + half) // den2
                if ready < now_local:
                    ready = now_local
            use_slots = slotted and nd.synced
            if use_slots:
                # Use the slot grid while the bound at `ready` is under
                # the guard.
                elapsed = ready - nd.last_sync_local
                if elapsed < 0:
                    elapsed = 0
                use_slots = (
                    nd.uncertainty_at_sync
                    + (elapsed * bound_num2 + bound_den) // bound_den2
                    < guard
                )
            while True:
                tx_local = slot_start(ready, slot_t, nd.phase) if use_slots else ready
                tx_true = ((tx_local - base) * den2 + inv_den) // inv_den2
                if tx_true < now:
                    tx_true = now
                # The history keeps each uplink's start, since every
                # uplink lasts `dur`; the slow path clips only the head
                # entries that straddle the window start.
                cut = tx_true - window
                while duty and duty[0] <= cut:
                    trim()
                if len(duty) < room:
                    break
                defer = enforce_duty_cycle(duty, tx_true, dur, budget, window)
                if defer is None:
                    break
                ready = base + defer + (defer * num2 + half) // den2
            if tx_true > horizon:
                break
            if on_demand and nd.synced:
                # Resync once the bound at the next opportunity reaches
                # the guard (threshold inclusive).
                elapsed = tx_local + lookahead - nd.last_sync_local
                if elapsed < 0:
                    elapsed = 0
                confirm = (
                    nd.uncertainty_at_sync
                    + (elapsed * bound_num2 + bound_den) // bound_den2
                    >= resync_guard
                )
            else:
                # Every uplink asks under "all", an unsynced node's
                # under "on-demand".
                confirm = confirm_all or on_demand
            if confirm:
                ack = tx_true + lag
                # A schedule resumes only at a confirmed uplink: the node
                # keeps the grid from there.
                nd.next_ready_local = next_ready
            else:
                ack = 0
            if fixed_channel >= 0:
                channel = fixed_channel
            else:
                channel = getrandbits(channel_bits)
                while channel >= n_channels:
                    channel = getrandbits(channel_bits)
            log_duty(tx_true)
            bit = yield (
                tx_true,
                tx_local,
                tx_local // slot_t if use_slots else -1,
                channel,
                ack,
                node,
            )
        done = (self._end, 0, -1, 0, 0)
        while True:
            yield done

    def _resume(self, nd: _Node, row: Optional[tuple]) -> Callable:
        """The send method of a primed schedule of ``nd`` that waits
        for the outcome of ``row`` (see ``_uplinks``)."""
        schedule = self._uplinks(nd, row)
        next(schedule)
        return schedule.send

    # -- the driver ------------------------------------------------------

    def run(self) -> tuple[Trace, Metrics]:
        if self._ran:
            raise RuntimeError("engine instances are single-use")
        self._ran = True
        halves = self._split()
        if halves is None or not self._run_split(*halves):
            self._run_windows(range(len(self.nodes)))
        trace = self.trace
        # Every confirmed uplink's ACK is sent unless the uplink collided.
        trace.acked = bytearray(map(gt, trace.confirmed, trace.collided))
        self.gateway_airtime = self._ack_toa * trace.acked.count(1)
        return trace, self.metrics()

    def _split(self) -> Optional[tuple[list[int], list[int]]]:
        """The nodes the parent and the child drive if the run splits
        over two processes, or None if it runs in this one.  A run
        splits when its nodes keep fixed channels that fall into two or
        more groups, which ``_Medium``'s assumptions make independent,
        two or more CPUs are free to it, no other thread is alive, and
        it expects more than ``_SPLIT_MIN_UPLINKS`` uplinks.
        Whole groups go to the two halves, largest first to the smaller
        half.  The child takes the smaller half, since the parent also
        orders and packs every uplink."""
        cfg = self.config
        if (
            cfg.n_nodes * cfg.duration <= _SPLIT_MIN_UPLINKS * cfg.app_period
            or not hasattr(os, "fork")
            or threading.active_count() > 1
        ):
            return None
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        if cpus < 2:
            return None
        # Nodes that draw a channel per uplink all hold channel -1: one
        # group.
        groups: dict[int, list[int]] = {}
        for nd in self.nodes:
            groups.setdefault(nd.channel, []).append(nd.index)
        if len(groups) < 2:
            return None
        halves: tuple[list[int], list[int]] = ([], [])
        for group in sorted(groups.values(), key=len, reverse=True):
            min(halves, key=len).extend(group)
        child, parent = sorted(halves, key=len)
        return sorted(parent), sorted(child)

    def _run_split(self, mine: list[int], theirs: list[int]) -> bool:
        """Drive ``mine`` here and ``theirs`` in a forked child, window
        by window: the child sends each window's ordered uplinks down a
        pipe, and this process takes them into the same window's ruling,
        order and trace.  At the end the child sends its nodes' state,
        which is copied into ``self.nodes``.  False, with nothing run, if
        the pipe or the process cannot be made."""
        # Imported here, since only a split run needs them: they add
        # about 0.5 MB to the resident set.
        import pickle
        import signal

        try:
            r, w = os.pipe()
        except OSError:
            return False
        try:
            # Python 3.12+ warns, in the parent, of a fork while another
            # thread is alive, one ``threading`` does not know of since
            # ``_split`` checks those; the run then stays here.
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always", DeprecationWarning)
                pid = os.fork()
            if pid and warned:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise OSError("fork with threads alive")
        except OSError:
            os.close(r)
            os.close(w)
            return False
        if pid == 0:  # the child: it leaves only through os._exit
            status = 1
            try:
                os.close(r)
                with open(w, "wb") as out:

                    def send(message: object) -> None:
                        pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
                        out.flush()

                    try:
                        self._run_windows(
                            theirs,
                            put=lambda ordered: send(
                                array("q", chain.from_iterable(ordered))
                            ),
                        )
                        send([_node_state(self.nodes[i]) for i in theirs])
                        status = 0
                    except BaseException as exc:
                        # Raised again in the parent, which reaps this
                        # process whatever the error: as a RuntimeError
                        # with its type and message if pickle cannot
                        # carry it.
                        try:
                            pickle.loads(pickle.dumps(exc))
                        except Exception:
                            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                        send(exc)
            finally:
                os._exit(status)
        sent: list[BaseException] = []  # the child's error, once it sent one
        try:
            with open(r, "rb") as feed:

                def receive():
                    try:
                        message = pickle.load(feed)
                    except EOFError:
                        raise RuntimeError(
                            "the child process of a split run ended early"
                        ) from None
                    if isinstance(message, BaseException):
                        sent.append(message)
                        raise message
                    return message

                def take() -> Iterator[tuple]:
                    return zip(*[iter(receive())] * 6)

                try:
                    os.close(w)
                    self._run_windows(mine, take)
                    for i, state in zip(theirs, receive()):
                        _load_node_state(self.nodes[i], state)
                except BaseException:
                    # A child that sent its error exits 1 by itself.  Any
                    # other is killed while the pipe is still open, so
                    # that it cannot exit on a closed pipe first.
                    if not sent:
                        os.kill(pid, signal.SIGKILL)
                    raise
        finally:
            os.waitpid(pid, 0)
        return True

    def _run_windows(
        self,
        driven: Iterable[int],
        take: Optional[Callable[[], Iterable[tuple]]] = None,
        put: Optional[Callable[[list[tuple]], None]] = None,
    ) -> None:
        """Every run, one time window at a time (see the module
        docstring): the uplinks of the nodes ``driven`` from their
        schedules, ruled on by the medium, then put in the trace in the
        tie rule's order.  The windows span the same time whichever
        nodes are driven.  ``take``, if given, returns the next window's
        final uplinks of the other nodes, which join that window's
        ruling and order; ``put`` receives each window's ordered uplinks
        (by default they go into the trace's int columns)."""
        nodes = self.nodes
        n = len(nodes)
        driven = list(driven)
        put = put or self._append_rows
        dur = self._uplink_toa
        ack_lag = self._ack_lag
        stop = self._end
        span = self._app_period * max(_WINDOW_PERIODS, _WINDOW_ROWS // n)
        collided, confirmed = self.trace.collided, self.trace.confirmed
        medium = _Medium(self._n_channels, dur, collided)
        ruled_to = 0  # every uplink that starts before it is ruled
        # Each driven node's schedule and latest row.
        sends: list[Optional[Callable]] = [None] * n
        heads: list[Optional[tuple]] = [None] * n
        for i in driven:
            send = sends[i] = self._resume(nodes[i], None)
            heads[i] = send(None)
        waiting = [0] * n  # while a node waits for its head's bit, its ACK
        rows: list[list[tuple]] = [[] for _ in range(n)]  # not yet in the trace
        # This window's guesses: each guessing node's (state, row, rows
        # kept) just before its first guess, and the guessed rows' ids,
        # each row held in `rows` or `snaps` until both are cleared.
        snaps: dict[int, tuple] = {}
        guessed: set[int] = set()
        feedback = self._confirm_all or self._on_demand  # any ACK at all

        def advance(i: int, end: int, speculate: bool) -> None:
            # Drive node i's schedule up to `end`.  Each bit fed back is
            # final, or if `speculate` a guess: 0, a success.  Without
            # `speculate`, stop at a bit that is not final.
            row = heads[i]
            send = sends[i]
            out = rows[i]
            lost = medium.lost
            wait = waiting[i]
            while True:
                if wait:
                    if row[4] >= end:
                        break
                    bit = id(row) in lost
                    if not bit and row[0] + dur > ruled_to:
                        if not speculate:
                            break
                        if i not in snaps:
                            snaps[i] = (_node_state(nodes[i]), row, len(out))
                        guessed.add(id(row))
                    wait = 0
                    row = send(bit)
                if row[0] >= end:
                    break
                out.append(row)
                wait = row[4]
                if not wait:
                    row = send(None)
            waiting[i] = wait
            heads[i] = row

        def merge() -> list[tuple]:
            # Every uplink not yet in the trace in the tie rule's order:
            # `rows` goes node by node, each node's in time order, so a
            # stable sort by start leaves those that start together in
            # node order.
            flat = list(chain.from_iterable(rows))
            flat.sort(key=_START)
            return flat

        optimistic = True
        lo = 0  # every uplink before lo is in the trace
        while lo < stop:
            hi = min(lo + span, stop)
            window_start = len(collided)
            if take is not None:
                for row in take():
                    rows[row[5]].append(row)
            if optimistic:
                for i in driven:
                    advance(i, hi, True)
                mark = medium.mark()
                ordered = merge()
                medium.rule(ordered)
                ruled_to = hi
                # Every guess is a success: one is wrong iff the channel
                # lost its uplink.
                if not guessed.isdisjoint(medium.lost):
                    medium.rewind(mark)
                    ruled_to = lo
                    optimistic = False
            if not optimistic:
                for i, (state, row, keep) in snaps.items():
                    _load_node_state(nodes[i], state)
                    del rows[i][keep:]
                    sends[i] = self._resume(nodes[i], row)
                    heads[i] = row
                    waiting[i] = row[4]
                # Every uplink not yet in the trace waits for the channel,
                # in a heap by start.
                out = list(chain.from_iterable(rows))
                heapify(out)
                # Each node stops where its next bit is not final, and
                # sends nothing more before that uplink's ACK lands.  The
                # channel rules on every uplink before the earliest
                # pending ACK, and releases every stopped node whose
                # uplink ends by then.  Uplinks that start together may
                # be ruled in any order: it changes no flag.
                waits: list[tuple] = []  # a heap of (ACK, node), one per stopped node
                todo: Iterable[int] = driven
                while todo:
                    for i in todo:
                        mine = rows[i]
                        had = len(mine)
                        advance(i, hi, False)
                        for row in mine[had:]:
                            heappush(out, row)
                        ack = heads[i][4]
                        if waiting[i] and ack < hi:
                            heappush(waits, (ack, i))
                    cut = waits[0][0] if waits else hi
                    batch = []
                    while out and out[0][0] < cut:
                        batch.append(heappop(out))
                    medium.rule(batch)
                    ruled_to = cut
                    # An uplink ends `ack_lag` before its ACK lands.
                    todo = []
                    while waits and waits[0][0] - ack_lag <= cut:
                        todo.append(heappop(waits)[1])
                ordered = merge()
            # Put the window's uplinks, each ruled on, in the trace.
            medium.settle(ordered, heads)
            m = len(ordered)
            confirmed.extend(map(bool, map(_ACK, ordered)) if feedback else bytes(m))
            put(ordered)
            for out in rows:
                out.clear()
            del ordered  # free the window's rows before the next window
            # A lost confirmed uplink makes the next window conservative.
            missed = int.from_bytes(collided[window_start:], "big") & int.from_bytes(
                confirmed[window_start:], "big"
            )
            optimistic = not missed
            snaps.clear()
            guessed.clear()
            lo = hi

    def _append_rows(self, ordered: list[tuple]) -> None:
        """Pack a window's ordered rows into the trace's int columns: one
        new block per column."""
        t = self.trace
        t.node_id.extend(list(map(_NODE, ordered)))
        t.true_start.extend(list(map(_START, ordered)))
        t.local_start.extend(list(map(_LOCAL, ordered)))
        t.slot_index.extend(list(map(_SLOT, ordered)))
        t.channel.extend(list(map(_CHANNEL, ordered)))
        t.duration.extend([self._uplink_toa] * len(ordered))

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

"""Deterministic discrete-event engine.

Hosts node and gateway agents on a shared multi-channel medium with
pure interval-overlap collision semantics (no capture), LoRaWAN Class A
ACK timing (RX1 opens 1 s after the uplink ends), sliding-window
duty-cycle enforcement, and the ACK-piggybacked synchronization loop.

Everything is a pure function of (config, seed): events at one instant
follow the tie rule below, every node owns an RNG stream derived from
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
numerator is never negative, tests ``2*r >= den``).  ``Engine._uplinks``
takes every clock map, and the drift bound of both its uncertainty
checks, through a float pre-filter (``_FLOAT_EXACT``) that computes the
drift term in doubles and calls these integer formulas only where a
double could come out on the other side of a rounding or a threshold.

The sync exchange runs inline in ``Engine._uplinks``: it keeps the
checks of ``sync.gateway_record_rx_end`` (timestamp error within
±20 µs) and of ``sync.SyncAck`` (timestamp fits 8 bytes of µs), each
raising ``SyncError``.  ``ScenarioConfig.validate`` keeps both out of
reach of a run: it bounds the gateway error to 19 µs, and every uplink
ends between one airtime and 2^63 ns.  The uncertainty bound
(``Engine._uncertainty_at``) equals ``sync.current_uncertainty`` with
the slope precomputed, and drives both the slot-use check and the
on-demand resync decision.

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
uplink's bit is the one the channel has already ruled, or 0 (success)
while it has not.  ``_merge_window`` orders the window's uplinks as an
event queue would pop them and the channel rules on them.  A bit is
final once every uplink that starts before that uplink's end has been
ruled on.  If the ruling loses no uplink whose bit was guessed, every
guess was right, and the window is the event queue's schedule, byte for
byte: an uplink depends only on the bits of uplinks that ended an ACK
delay before it starts.  A feedback-free run
(``confirmed_mode = "none"``) consumes no bit and takes no snapshot.

If a guess was wrong, the ruling is undone, every node that guessed
restarts from its snapshot (``_node_state``, its state just before it
consumed its first bit that was not final), and the window is finished
conservatively by the same handlers: each node stops at its next
confirmed uplink until that uplink's bit is final.  The conservative
step keeps one frontier over every stopped node: the channel rules on
every uplink before the earliest instant at which a stopped node could
send again (``Engine._next_start_bound``), which makes the bit of every
stopped uplink that ends by then final.  A window whose predecessor had
a lost confirmed uplink starts conservatively.  A window gets one
optimistic pass: optimism pays while wrong guesses are rare and cheap,
and a second pass saved no time on any bench workload.

The channel rules on uplinks in start order; the order of uplinks that
start together does not change a flag.  Every uplink lasts the same
airtime, so an uplink overlaps another on its channel iff it overlaps
the latest one.  The ruling is kept per row, so a bit can be read before
its row is in the trace, and a window goes into the trace once, in the
event queue's order.

The tie rule: uplinks sort by true start.  An event queue pops the
events at one instant by sequence number, which an event takes when the
event that scheduled it pops: an uplink is scheduled by the node's
previous uplink, or by that uplink's ACK if it was confirmed, and an
ACK by its uplink.  So the events at one instant go in the pop order of
the events that scheduled them: every node's first uplink before all
others, in node order; an event scheduled at the same instant goes after
every event that instant already holds.

Two processes, by channel group.  A node learns of the rest of the
network only through its own channel's ruling: there is no capture,
each node keeps its own duty history and its own sync state, and under
``fixed`` and ``round-robin`` selection a node keeps one channel.  So
the nodes of disjoint channel sets are independent runs.  When such a
run has two or more channel groups, two or more CPUs, no other thread
and more than ``_SPLIT_MIN_UPLINKS`` expected uplinks
(``Engine._split``), a forked child drives the smaller half of the
groups through ``_run_windows`` over the same windows, and sends each
window's merged uplinks down a pipe.  The parent drives the other half
and takes the child's uplinks at the start of the same window: they
join its ruling, on channels none of its nodes use, its
``_merge_window`` order and its trace, where a one-process run puts
them.  At the end the child sends its nodes' state.  A run whose pipe
or fork fails runs in one process; the bytes are the same either way.
"""

from __future__ import annotations

import os
import random
import threading
import warnings
from math import inf
from array import array
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain, compress, count, repeat
from operator import attrgetter, eq, ge, gt, itemgetter
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

#: Uplinks per window of ``Engine._run_windows``, on average.  The
#: window's rows are buffered as lists of tuples; the trace still packs
#: one block of ``_TRACE_BLOCK`` rows at a time.  A window spans at
#: least ``_WINDOW_PERIODS`` application periods, since every pass over
#: it visits every node.
_WINDOW_ROWS = 768
_WINDOW_PERIODS = 8

#: A run whose nodes fall into two or more channel groups splits over
#: two processes when it expects more uplinks than this
#: (``n_nodes * duration / app_period``; see ``Engine._split``).  The
#: fork and the child cost a few milliseconds: on a 2-core host a split
#: default run gained from about 2,500 uplinks slotted and from about
#: 16,000 pure.
_SPLIT_MIN_UPLINKS = 20_000

#: Float pre-filter of the clock map and the drift bound fused into
#: ``Engine._uplinks``.  The drift term of an instant, ``t * num / den``
#: in ``_local_at``, ``(local - base) * num / (den + num)`` in
#: ``_true_at`` and ``elapsed * num / den`` in ``_drift_bound``, is
#: computed as ``v``, an int times the ratio in doubles.  Three roundings
#: (the ratio, the int-to-float conversion, the product) leave ``v``
#: within ``|v| * 2**-51`` of the exact term, under 5e-4 for
#: ``|v| < 2**40``.  There, a ``v`` whose fractional part lies more than
#: 0.001 from one half rounds to the same integer as the exact term, and
#: a ``v`` more than 0.001 from a half-integer threshold lies on the same
#: side of it as the exact term; any other ``v`` takes the integer
#: formula.  A schedule checks once that every drift term it can reach
#: stays below ``_FLOAT_EXACT`` (``Engine._float_margin``); if one may
#: not, its margin is -inf and every map and bound takes the integer
#: formula.  ``_FLOAT_EXACT = 0`` turns the pre-filter off everywhere.
_FLOAT_EXACT = float(1 << 40)
_FLOAT_MARGIN = 0.499

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
    starts: list[int],
    first: list[int],
    acks: list[int],
    carried: list[tuple[int, int]],
    due: list[int],
    end: int,
) -> list[int]:
    """Indices of one window's uplinks in the order an event queue pops them.

    ``starts`` holds the true start of every uplink of the window, node
    by node: node ``i``'s are ``starts[first[i]:first[i + 1]]``, in time
    order, and ``acks[f]`` is the instant uplink ``f``'s ACK lands, or 0
    if it is unconfirmed; the window holds the events before ``end``.
    ``carried[i]`` is the key of node ``i``'s last event before the
    window, ``(instant, place among the events at that instant)``, or
    ``(-1, i)`` while it has none, and ``due[i]`` is the instant of its
    ACK still to land, or ``inf``.  Both are updated to the window's end.
    When no two events share an instant, the uplinks go by start and
    every place is 0.  Otherwise the window's events, ACKs included, are
    replayed through a heap, each keyed by its instant and then by the
    key of the event that scheduled it (the module's tie rule): a
    node's first event by ``carried``, every later one by the node's
    event that popped before it.
    """
    n = len(first) - 1
    leads = [d for d in due if d < end]
    instants = set(starts)
    instants.update(leads)
    if len(instants) == len(starts) + len(leads) and instants.isdisjoint(
        filter(None, acks)
    ):
        merged = sorted(range(len(starts)), key=starts.__getitem__)
        # A node's last event before `end` becomes its key.
        for i in range(n):
            f = first[i + 1] - 1
            s = due[i] if f < first[i] else acks[f] if 0 < acks[f] < end else starts[f]
            if s < end:
                carried[i] = (s, 0)
    else:
        # Each node has one event in the heap, ``(instant, key, node, f,
        # is_ack)``: uplink ``f``, or the ACK before it.  Keys are
        # distinct, so the heap never compares further.
        heap = []
        for i in range(n):
            f = first[i]
            if due[i] < end:
                heap.append((due[i], carried[i], i, f, True))
            elif f < first[i + 1]:
                heap.append((starts[f], carried[i], i, f, False))
        heapify(heap)
        merged = []
        at = place = -1
        while heap:
            t, _, i, f, is_ack = heappop(heap)
            place = place + 1 if t == at else 0
            at = t
            carried[i] = key = (t, place)
            if not is_ack:
                merged.append(f)
                if 0 < acks[f] < end:
                    heappush(heap, (acks[f], key, i, f + 1, True))
                    continue
                f += 1
            if f < first[i + 1]:
                heappush(heap, (starts[f], key, i, f, False))
    # The ACK of a node's last uplink stays due if it lands later.
    for i in range(n):
        f = first[i + 1] - 1
        d = due[i] if f < first[i] else acks[f] or inf
        due[i] = d if d >= end else inf
    return merged


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
        self.duty: deque = deque()
        self.n_syncs = 0
        self.max_mis_pre_sync = 0
        self.max_mis_post_sync = 0


#: Every slot of a `_Node` but its generator and its duty history.
_PLAIN_SLOTS = tuple(name for name in _Node.__slots__ if name not in ("rng", "duty"))
_plain_slots = attrgetter(*_PLAIN_SLOTS)


def _node_state(nd: _Node) -> tuple:
    """One record of ``nd``'s state: its generator's state, with the
    words as an ``array("I")`` (a tenth of the tuple's size), its duty
    history by value, and every other slot."""
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
        """Append ``values`` as new blocks.  Only a column whose last
        block is full can grow (``ValueError`` otherwise), and nothing
        changes if a value is outside int64."""
        blocks, size = self.blocks, self.block
        if blocks and len(blocks[-1]) < size:
            raise ValueError("the column's last block is short")
        if len(values) <= size:
            new = [_narrowest(values)] if values else []  # the engine's case: no copy
        else:
            starts = range(0, len(values), size)
            new = [_narrowest(values[i : i + size]) for i in starts]
        blocks += new


class Trace:
    """Column-oriented transmission log: one entry per uplink in every
    column, in transmission-start order.

    The six int columns are ``Column`` objects, each block packed in the
    narrowest signed array type that holds it, and the three flags are
    ``bytearray``; compare a column with a list through
    ``list(col)``.  During a run the engine packs the int columns a
    block at a time and fills ``acked`` at the end, so they are complete
    once ``Engine.run`` returns; ``collided`` and ``confirmed``, and so
    ``len``, grow a window at a time."""

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
        self._bound_ratio = self._bound_num / self._bound_den
        # An ACK lands exactly rx1_delay + ack airtime after its uplink
        # ends, so the drift folded into every sync's bound is constant.
        self._ack_lag = config.rx1_delay + self._ack_toa
        self._sync_uncertainty = (
            config.timestamp_error_max_us * NS_PER_US
            + self._drift_bound(self._ack_lag)
        )
        # A sync moves a node's clock by the gateway's reading of the
        # uplink's end less the node's: at most this much past the
        # node's own clock error, the gateway's rounding to 1 us included.
        self._sync_slack = (
            config.timestamp_error_max_us * NS_PER_US
            + NS_PER_US // 2
            + config.residual_max
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
        # Every instant a schedule maps, true or local past `base`, and
        # every elapsed time its drift bound takes lie below this: the
        # horizon; the initial offset and the sync slack, by which a
        # sync can move `base`; the ACK lag and the resync look-ahead;
        # twice the period, the jitter and the phase span, since a ready
        # instant lies at most a period, a grid shift and two jitters
        # past the node's last uplink, and an aligned start at most the
        # phase span past its ready instant, before and after a
        # deferral; and one duty window, the most a deferral adds.  All
        # of it is stretched by 1 % for the drift of both clocks.
        self._reach = 1.01 * (
            config.duration
            + config.initial_offset_max
            + self._sync_slack
            + self._ack_lag
            + self._resync_lookahead
            + 2 * (config.app_period + config.jitter + self._max_phase * self._slot_t)
            + config.dc_window
        )
        # Every event of the run comes before this instant: no uplink
        # starts past the horizon, and an ACK lands at most the uplink's
        # airtime plus `_ack_lag` after its uplink starts.
        self._end = config.duration + self._uplink_toa + self._ack_lag + 1
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

    def _float_margin(self, nd: _Node) -> float:
        """The float pre-filter's margin in ``nd``'s schedule (see
        ``_FLOAT_EXACT``): ``_FLOAT_MARGIN`` if the drift terms of every
        instant the schedule can reach (``_reach``), at the node's slope
        either way and at the bound's, stay below ``_FLOAT_EXACT``, and
        -inf otherwise, which leaves every clock map and bound of the
        schedule to the integer formula."""
        slope = max(
            abs(nd.drift_num / nd.drift_den),
            abs(nd.drift_num / nd.inv_den),
            self._bound_ratio,
        )
        return _FLOAT_MARGIN if self._reach * slope < _FLOAT_EXACT else -inf

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
        draw, and the stream after it, stays the same.  Every clock map,
        the duty deferral's included, and both uncertainty checks take
        the float pre-filter (see ``_FLOAT_EXACT``).  A check compares
        ``_uncertainty_at``, ``u0 + drift_bound(e)``, with a guard ``g``;
        the bound rounds half up, so it lies below ``g`` iff the exact
        drift term of ``e`` lies below ``g - u0 - 1/2``, and only a term
        within the band around that threshold takes ``_uncertainty_at``."""
        ratio = nd.drift_num / nd.drift_den
        inv_ratio = nd.drift_num / nd.inv_den
        rng = nd.rng
        gauss, uniform, getrandbits = rng.gauss, rng.random, rng.getrandbits
        local_at, true_at = self._local_at, self._true_at
        uncertainty_at, gateway_us = self._uncertainty_at, self._gateway_timestamp_us
        period = self._app_period
        jitter = self._jitter
        horizon = self._duration
        slotted, slot_t, guard = self._slotted, self._slot_t, self._guard
        max_phase = self._max_phase
        confirm_all, on_demand = self._confirm_all, self._on_demand
        lookahead, resync_guard = self._resync_lookahead, self._resync_guard
        bound_ratio = self._bound_ratio
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
        margin = self._float_margin(nd)
        # The half-width of a bound's band around its threshold, and how
        # far past the drift term a ready instant needs no clamp.
        band, skip = 0.5 - margin, 1.0 - margin
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
                    v = uplink_end * ratio
                    q = round(v)
                    if -margin < v - q < margin:
                        end_local = base + uplink_end + q
                    else:
                        end_local = local_at(nd, uplink_end)
                    v = now * ratio
                    q = round(v)
                    if -margin < v - q < margin:
                        now_local = base + now + q
                    else:
                        now_local = local_at(nd, now)
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
            v = now * ratio
            # The clock reads base + now + v, rounded, at `now`: a ready
            # instant more than `skip` past base + now + v needs no
            # clamp, so the reading is worked out only for one that may.
            if ready - base - now <= v + skip:
                q = round(v)
                if -margin < v - q < margin:
                    now_local = base + now + q
                else:
                    now_local = local_at(nd, now)
                if ready < now_local:
                    ready = now_local
            use_slots = slotted and nd.synced
            if use_slots:
                # Use the slot grid while the bound at `ready` is under
                # the guard.
                elapsed = ready - nd.last_sync_local
                v = elapsed * bound_ratio if elapsed > 0 else 0.0
                v -= guard - nd.uncertainty_at_sync - 0.5
                if -band <= v <= band:
                    use_slots = uncertainty_at(nd, ready) < guard
                else:
                    use_slots = v < 0
            while True:
                tx_local = slot_start(ready, slot_t, nd.phase) if use_slots else ready
                elapsed = tx_local - base
                v = elapsed * inv_ratio
                q = round(v)
                if -margin < v - q < margin:
                    tx_true = elapsed - q
                else:
                    tx_true = true_at(nd, tx_local)
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
                v = defer * ratio
                q = round(v)
                if -margin < v - q < margin:
                    ready = base + defer + q
                else:
                    ready = local_at(nd, defer)
            if tx_true > horizon:
                break
            if on_demand and nd.synced:
                # Resync once the bound at the next opportunity reaches
                # the guard (threshold inclusive).
                elapsed = tx_local + lookahead - nd.last_sync_local
                v = elapsed * bound_ratio if elapsed > 0 else 0.0
                v -= resync_guard - nd.uncertainty_at_sync - 0.5
                if -band <= v <= band:
                    confirm = uncertainty_at(nd, tx_local + lookahead) >= resync_guard
                else:
                    confirm = v > 0
            else:
                # Every uplink asks under "all", an unsynced node's
                # under "on-demand".
                confirm = confirm_all or on_demand
            if confirm:
                ack = tx_true + lag
                # A schedule resumes, and is bounded, only at a confirmed
                # uplink: the node keeps the grid from there.
                nd.next_ready_local = next_ready
            else:
                ack = 0
            if fixed_channel >= 0:
                channel = fixed_channel
            else:
                channel = getrandbits(channel_bits)
                while channel >= n_channels:
                    channel = getrandbits(channel_bits)
            log_duty((tx_true, dur))
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

    def _next_start_bound(self, nd: _Node, row: tuple) -> int:
        """The earliest instant at which the node could start the uplink
        after ``row``, a confirmed uplink whose ACK has not landed, for
        either outcome: not before the ACK, and not before its grid's
        next instant less the jitter, read on the clock as far ahead as
        the sync could set it (retry shifts, slot phases, clamps and
        duty deferrals only delay an uplink).  A sync sets ``base`` to
        the gateway's reading of the uplink's end less the node's drift
        term there, off by at most ``_sync_slack``.  The drift terms are
        taken in doubles, within 4 ns for every instant an int64 holds,
        and the bound gives up that much on each."""
        end = row[0] + self._uplink_toa
        drift_at_end = int(end * (nd.drift_num / nd.drift_den))
        base = max(nd.base, self._sync_slack + 4 - drift_at_end)
        x = nd.next_ready_local - self._jitter - base
        return max(row[4], x - int(x * (nd.drift_num / nd.inv_den)) - 8)

    # -- the driver ------------------------------------------------------

    def run(self) -> tuple[Trace, Metrics]:
        if self._ran:
            raise RuntimeError("engine instances are single-use")
        self._ran = True
        halves = self._split()
        if halves is None or not self._run_split(*halves):
            self._run_windows(range(len(self.nodes)))
        self._pack_rows()
        trace = self.trace
        # Every confirmed uplink's ACK is sent unless the uplink collided.
        trace.acked = bytearray(map(gt, trace.confirmed, trace.collided))
        self.gateway_airtime = self._ack_toa * trace.acked.count(1)
        return trace, self.metrics()

    def _split(self) -> Optional[tuple[list[int], list[int]]]:
        """The nodes the parent and the child drive if the run splits
        over two processes, or None if it runs in this one.  A run
        splits when its nodes keep fixed channels that fall into two or
        more groups, two or more CPUs are free to it, no other thread is
        alive, and it expects more than ``_SPLIT_MIN_UPLINKS`` uplinks.
        Whole groups go to the two halves, largest first to the smaller
        half.  The child takes the smaller half, since the parent also
        merges and packs every uplink."""
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
        by window: the child sends each window's merged uplinks down a
        pipe, and this process takes them into the same window's ruling,
        merge and trace.  At the end the child sends its nodes' state,
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
        schedules, ruled on by the channel, then put in the trace in
        ``_merge_window``'s order.  The windows span the same time
        whichever nodes are driven.  ``take``, if given, returns the
        next window's final uplinks of the other nodes, which join that
        window's ruling and merge; ``put`` receives each window's merged
        uplinks (by default they go into the trace's int columns)."""
        nodes = self.nodes
        n = len(nodes)
        driven = list(driven)
        put = put or self._append_rows
        dur = self._uplink_toa
        stop = self._end
        span = self._app_period * max(_WINDOW_PERIODS, _WINDOW_ROWS // n)
        trace = self.trace
        collided, confirmed = trace.collided, trace.confirmed
        n_channels = self._n_channels
        # Each channel's latest ruled uplink: its start, its row, and its
        # trace record once `commit` has put it in the trace.  Every
        # uplink lasts `dur`, so an uplink overlaps another on its
        # channel iff it overlaps the one that started just before it.
        # A channel starts with a stand-in that ends at 0, which no
        # uplink overlaps.
        last_start = [-dur] * n_channels
        last_row = [(-dur, 0, -1, c, 0) for c in range(n_channels)]
        last_rec = [-1] * n_channels
        # The ruling: every row the channel found collided and that is
        # not yet in the trace or whose bit a node may still read, by
        # identity, since two nodes' rows may be equal tuples.  The dict
        # holds each row, so no other object can take its identity.
        lost: dict[int, tuple] = {}
        ruled_to = 0  # every uplink that starts before it is ruled
        # Each driven node's schedule and latest row.
        sends: list[Optional[Callable]] = [None] * n
        heads: list[Optional[tuple]] = [None] * n
        for i in driven:
            send = sends[i] = self._resume(nodes[i], None)
            heads[i] = send(None)
        waiting = [False] * n  # whether a node waits for its head's bit
        rows: list[list[tuple]] = [[] for _ in range(n)]  # not yet in the trace
        carried = [(-1, i) for i in range(n)]
        due = [inf] * n
        snaps: list[Optional[tuple]] = [None] * n
        feedback = self._confirm_all or self._on_demand  # any ACK at all

        def advance(i: int, end: int, speculate: bool) -> None:
            # Drive node i's schedule up to `end`.  Each bit fed back is
            # final, or if `speculate` a guess: 0, a success.  Without
            # `speculate`, stop at a bit that is not final.
            row = heads[i]
            send = sends[i]
            out = rows[i]
            if waiting[i]:
                if row[4] >= end:
                    return
                hit = id(row) in lost
                if hit or row[0] + dur <= ruled_to:
                    bit = hit
                elif speculate:
                    if snaps[i] is None:
                        snaps[i] = (_node_state(nodes[i]), row, len(out))
                    bit = 0
                else:
                    return
                waiting[i] = False
                row = send(bit)
            while row[0] < end:
                out.append(row)
                if not row[4]:
                    row = send(None)
                elif row[4] >= end or not speculate:
                    waiting[i] = True
                    break
                else:
                    if snaps[i] is None:
                        # The node's state just before it consumes its
                        # first bit that is not final, the bit of `row`.
                        snaps[i] = (_node_state(nodes[i]), row, len(out))
                    row = send(0)
            heads[i] = row

        def rule(batch: list[tuple]) -> None:
            # Let the channel rule on `batch`, uplinks of this window
            # sorted by start that start after every uplink it has ruled
            # on.  An uplink before the window is in the trace.
            for row in batch:
                t, c = row[0], row[3]
                if t - last_start[c] < dur:
                    lost[id(row)] = row
                    prev = last_row[c]
                    lost[id(prev)] = prev
                    if prev[0] < lo:
                        collided[last_rec[c]] = 1
                last_start[c] = t
                last_row[c] = row

        def save() -> tuple:
            # What `undo` needs to take back the rulings to come.
            flags = [id(row) in lost for row in last_row]
            return last_start[:], last_row[:], flags

        def undo(batch: list[tuple], saved: tuple) -> None:
            # Take back the ruling of `batch`; `saved` is the state
            # before it.
            for row in batch:
                lost.pop(id(row), None)
            last_start[:], last_row[:], flags = saved
            for c, row, flag in zip(count(), last_row, flags):
                if flag:
                    lost[id(row)] = row
                else:
                    lost.pop(id(row), None)
                if row[0] >= 0:  # not the stand-in
                    collided[last_rec[c]] = flag

        def merge(end: int) -> tuple:
            # Every uplink not yet in the trace, all before `end`, in the
            # event queue's order; `commit` puts them in the trace.
            first = [0]
            flat: list[tuple] = []
            for out in rows:
                flat += out
                first.append(len(flat))
            acks = list(map(_ACK, flat)) if feedback else [0] * len(flat)
            keys, dues = carried[:], due[:]
            order = _merge_window(list(map(_START, flat)), first, acks, keys, dues, end)
            return list(map(flat.__getitem__, order)), keys, dues

        def commit(merged: tuple) -> None:
            # Put the merged uplinks, each ruled on, in the trace.
            ordered, carried[:], due[:] = merged
            m = len(ordered)
            base = len(collided)
            collided.extend(map(lost.__contains__, map(id, ordered)))
            confirmed.extend(map(bool, map(_ACK, ordered)) if feedback else bytes(m))
            put(ordered)
            # Each channel's latest uplink of the window is in the trace
            # now.  The rows that leave keep no place in the ruling.
            left = sum(map(ge, last_start, repeat(lo)))
            at = m
            while left:
                at -= 1
                row = ordered[at]
                if row is last_row[row[3]]:
                    last_rec[row[3]] = base + at
                    left -= 1
            kept = [row for row in chain(last_row, heads) if id(row) in lost]
            lost.clear()
            lost.update(zip(map(id, kept), kept))
            for out in rows:
                out.clear()

        def guessed_wrong(end: int) -> bool:
            # Whether the channel's ruling contradicts a guess: every
            # guess is a success, so one is wrong iff the channel lost a
            # confirmed uplink whose bit a node consumed since its
            # snapshot.
            for i in {row[5] for row in lost.values()}:
                snap = snaps[i]
                if snap is not None:
                    _, head, keep = snap
                    if id(head) in lost or any(
                        0 < r[4] < end and id(r) in lost for r in rows[i][keep:]
                    ):
                        return True
            return False

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
                saved = save()
                merged = merge(hi)
                rule(merged[0])
                ruled_to = hi
                if guessed_wrong(hi):
                    undo(merged[0], saved)
                    ruled_to = lo
                    optimistic = False
            if not optimistic:
                for i in range(n):
                    if snaps[i] is not None:
                        state, row, keep = snaps[i]
                        _load_node_state(nodes[i], state)
                        del rows[i][keep:]
                        sends[i] = self._resume(nodes[i], row)
                        heads[i] = row
                        waiting[i] = True
                # Every uplink not yet in the trace waits for the channel.
                out = list(chain.from_iterable(rows))
                # Each node stops where its next bit is not final.  The
                # channel rules on every uplink before the earliest
                # instant at which a stopped node could send again, and
                # releases every stopped node whose uplink ends by then.
                bound = self._next_start_bound
                waits: list[tuple] = []  # (bound, end, node) of each stopped node
                todo: Iterable[int] = driven
                while todo:
                    for i in todo:
                        mine = rows[i]
                        had = len(mine)
                        advance(i, hi, False)
                        out += mine[had:]
                        row = heads[i]
                        if waiting[i] and row[4] < hi:
                            waits.append((bound(nodes[i], row), row[0] + dur, i))
                    cut = min(waits)[0] if waits else hi
                    if cut > hi:
                        cut = hi
                    out.sort(key=_START)
                    k = bisect_left(out, cut, key=_START)
                    rule(out[:k])
                    del out[:k]
                    ruled_to = cut
                    todo = [i for _, end, i in waits if end <= cut]
                    waits = [w for w in waits if w[1] > cut]
                merged = merge(hi)
            commit(merged)
            del merged  # free the window's rows before the next window
            # A lost confirmed uplink makes the next window conservative.
            missed = int.from_bytes(collided[window_start:], "big") & int.from_bytes(
                confirmed[window_start:], "big"
            )
            optimistic = not missed
            snaps[:] = repeat(None, n)
            lo = hi

    def _append_rows(self, ordered: list[tuple]) -> None:
        """Buffer a window's merged rows for the trace's int columns,
        packing each block as it fills."""
        node_ids, true_starts, local_starts, slot_indices, channels, durations = (
            self._rows
        )
        dur = self._uplink_toa
        at, m = 0, len(ordered)
        while at < m:
            # Fill the buffer to one block at most, then pack it.
            stop_at = at + _TRACE_BLOCK - len(node_ids)
            piece = ordered[at:stop_at]
            node_ids.extend(map(_NODE, piece))
            true_starts.extend(map(_START, piece))
            local_starts.extend(map(_LOCAL, piece))
            slot_indices.extend(map(_SLOT, piece))
            channels.extend(map(_CHANNEL, piece))
            durations.extend(repeat(dur, len(piece)))
            at = stop_at
            if len(node_ids) >= _TRACE_BLOCK:
                self._pack_rows()

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

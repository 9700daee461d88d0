"""Independent reference implementations the engine is checked against.

They restate a rule from its definition, with none of the engine's
incremental bookkeeping, and exist only for the tests.
"""

import math
from array import array
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from typing import Optional

from saloha import engine as engine_module
from saloha.engine import Engine, Metrics, Trace
from saloha.mac import slot_start
from saloha.timebase import NS_PER_US


def _round_half_away(x: Fraction) -> int:
    q = math.floor(abs(x) + Fraction(1, 2))
    return q if x >= 0 else -q


def local_now(ppm: float, base: int, t: int) -> int:
    """Node RTC reading at true instant ``t``.

    ``base`` is the initial offset plus the corrections applied so far;
    the drift term ``t * ppm * 1e-6`` is evaluated exactly and rounded
    half away from zero.
    """
    return base + t + _round_half_away(t * Fraction(ppm) / 1_000_000)


def local_to_true(ppm: float, base: int, local: int) -> int:
    """True instant at which the RTC reads ``local``: the exact inverse
    ``(local - base) / (1 + ppm * 1e-6)``, rounded half away from zero."""
    return _round_half_away((local - base) / (1 + Fraction(ppm) / 1_000_000))


def true_at(nd, local: int) -> int:
    """True instant at which an engine node's RTC reads ``local``: the
    inverse of ``Engine._local_at`` as one floor division, rounded half
    away from zero, as the schedule inlines it."""
    inv_den = nd.inv_den
    x = (local - nd.base) * nd.drift_den
    return (2 * x + inv_den - 1 + (x >= 0)) // (2 * inv_den)


def uncertainty_at(engine: Engine, node, local: int) -> int:
    """Worst-case clock error bound of an engine node at its local
    instant ``local``: the bound at its last sync plus the drift at the
    configured bound over the local time since, 0 if negative, evaluated
    exactly and rounded half away from zero."""
    elapsed = max(0, local - node.last_sync_local)
    drift = elapsed * Fraction(engine.config.drift_bound_ppm) / 1_000_000
    return node.uncertainty_at_sync + _round_half_away(drift)


def node_misalignment(node, t: int) -> int:
    """Omniscient node-RTC minus gateway time at true instant ``t``, for
    an engine node: its base plus the drift ``t * drift_num / drift_den``
    evaluated exactly and rounded half away from zero."""
    return node.base + _round_half_away(Fraction(t * node.drift_num, node.drift_den))


def narrowest_typecode(rows) -> str:
    """The narrowest signed array type of ``b``, ``h``, ``i`` and ``q``
    that holds every value of the non-empty ``rows``, from each type's
    item size."""
    lo, hi = min(rows), max(rows)
    for typecode in "bhiq":
        limit = 1 << (8 * array(typecode).itemsize - 1)
        if -limit <= lo and hi < limit:
            return typecode
    raise OverflowError("rows do not fit int64")


def run_event_loop(engine: Engine) -> tuple[Trace, Metrics]:
    """``engine.run()`` as the event loop that every schedule is checked
    against: a heap of ``(instant, seq, kind, node)`` events with one
    counter for every push, each node's next uplink decided when its
    previous event pops, the ACK's branch when the ACK lands, and every
    clock map through ``Engine._local_at`` or ``true_at``.  The trace
    takes the uplinks sorted by ``(true_start, node_id)``, the tie rule
    of ``saloha.engine``, not in the heap's pop order.

    It fills the engine's trace, nodes and ``gateway_airtime`` as a run
    does, sharing the engine's clock maps, gateway timestamp and duty
    check (looked up at call time, so that a patch applies) and nothing
    of its schedule or driver; its uncertainty bound is
    ``uncertainty_at``.
    """
    cfg = engine.config
    nodes = engine.nodes
    trace = engine.trace
    dur = engine._uplink_toa
    period, jitter, horizon = cfg.app_period, cfg.jitter, cfg.duration
    slot_t, guard, max_phase = engine._slot_t, engine._guard, engine._max_phase
    window = cfg.dc_window
    budget = engine._budget
    heap: list[tuple[int, int, int, int]] = []
    seq = count(1)
    tx_start, ack_event = 0, 1
    grid = [nd.next_ready_local for nd in nodes]  # each node's next ready instant
    shift = [0] * len(nodes)  # a lost unslotted uplink's retry shift
    pending: list[tuple] = [()] * len(nodes)  # (tx_true, tx_local, use_slots, rec)
    last_start = [-dur] * cfg.n_channels
    last_rec = [0] * cfg.n_channels
    columns: tuple[list[int], ...] = ([], [], [], [], [], [])

    def wants_ack(nd, tx_local: int) -> bool:
        if cfg.confirmed_mode == "all":
            return True
        if cfg.confirmed_mode == "none":
            return False
        if not nd.synced:
            return True
        horizon_local = tx_local + engine._resync_lookahead
        return uncertainty_at(engine, nd, horizon_local) >= engine._resync_guard

    def schedule(i: int, now: int) -> None:
        # The next instant of the node's grid, plus jitter and any shift,
        # no earlier than the clock's reading now, on the slot grid if the
        # node may use it, and deferred while the duty cycle forbids it.
        nd = nodes[i]
        ready = grid[i]
        grid[i] += period
        if jitter:
            ready += nd.rng.randint(-jitter, jitter)
        if shift[i]:
            ready += shift[i]
            grid[i] += shift[i]
            shift[i] = 0
        ready = max(ready, Engine._local_at(nd, now))
        use_slots = (
            engine._slotted and nd.synced and uncertainty_at(engine, nd, ready) < guard
        )
        while True:
            tx_local = slot_start(ready, slot_t, nd.phase) if use_slots else ready
            tx_true = max(true_at(nd, tx_local), now)
            while nd.duty and nd.duty[0] + window <= tx_true:
                nd.duty.popleft()
            if len(nd.duty) < budget // dur:  # room for one more in any window
                break
            defer = engine_module.enforce_duty_cycle(
                nd.duty, tx_true, dur, budget, window
            )
            if defer is None:
                break
            # `defer` can map back 1 ns early: clamp to it, or loop.
            now = defer
            ready = Engine._local_at(nd, defer)
        if tx_true <= horizon:
            pending[i] = (tx_true, tx_local, use_slots)
            nd.duty.append(tx_true)
            heappush(heap, (tx_true, next(seq), tx_start, i))

    def on_tx_start(i: int, now: int) -> None:
        nd = nodes[i]
        tx_true, tx_local, use_slots = pending[i]
        confirmed = wants_ack(nd, tx_local)
        channel = nd.channel if nd.channel >= 0 else nd.rng.randrange(cfg.n_channels)
        rec = len(trace.collided)
        hit = now - last_start[channel] < dur
        if hit:
            trace.collided[last_rec[channel]] = 1
        last_start[channel] = now
        last_rec[channel] = rec
        for column, value in zip(
            columns,
            (i, now, tx_local, tx_local // slot_t if use_slots else -1, channel, dur),
        ):
            column.append(value)
        trace.collided.append(hit)
        trace.acked.append(0)
        trace.confirmed.append(confirmed)
        if confirmed:
            pending[i] = (tx_true, tx_local, use_slots, rec)
            heappush(heap, (now + dur + engine._ack_lag, next(seq), ack_event, i))
        else:
            schedule(i, now)

    def on_ack(i: int, now: int) -> None:
        nd = nodes[i]
        _tx_true, _tx_local, use_slots, rec = pending[i]
        residual = min(
            cfg.residual_max,
            max(0, round(nd.rng.gauss(cfg.residual_mean, cfg.residual_std))),
        )
        residual = residual if nd.rng.random() < 0.5 else -residual
        ts_max = cfg.timestamp_error_max_us
        ts_err = nd.rng.randint(-ts_max, ts_max) * NS_PER_US
        if trace.collided[rec]:
            if use_slots and max_phase > 1:
                nd.phase = nd.rng.randrange(max_phase)
            elif not use_slots:
                shift[i] = nd.rng.randint(0, period)
        else:
            now_local = Engine._local_at(nd, now)
            uplink_end = now - engine._ack_lag
            end_local = Engine._local_at(nd, uplink_end)
            gw_us = Engine._gateway_timestamp_us(uplink_end, ts_err)
            offset = gw_us * NS_PER_US - (end_local + residual)
            if nd.synced:
                nd.max_mis_pre_sync = max(nd.max_mis_pre_sync, abs(now_local - now))
            nd.base += offset
            nd.synced = True
            nd.last_sync_local = now_local + offset
            nd.uncertainty_at_sync = abs(residual) + engine._sync_uncertainty
            nd.n_syncs += 1
            nd.max_mis_post_sync = max(
                nd.max_mis_post_sync, abs(end_local + offset - uplink_end)
            )
            trace.acked[rec] = 1
            engine.gateway_airtime += engine._ack_toa
        schedule(i, now)

    for i in range(len(nodes)):
        schedule(i, 0)
    while heap:
        now, _seq, kind, i = heappop(heap)
        if kind == tx_start:
            on_tx_start(i, now)
        else:
            on_ack(i, now)
    # Records were numbered in pop order; the trace holds them in the
    # tie rule's.
    node_ids, starts = columns[0], columns[1]
    order = sorted(range(len(starts)), key=lambda r: (starts[r], node_ids[r]))
    for name, values in zip(
        ("node_id", "true_start", "local_start", "slot_index", "channel", "duration"),
        columns,
    ):
        getattr(trace, name).extend([values[r] for r in order])
    for flags in (trace.collided, trace.acked, trace.confirmed):
        flags[:] = bytes(flags[r] for r in order)
    return trace, engine.metrics()


def channel_arbitrate(transmissions: list[tuple[int, int, int]]) -> list[bool]:
    """Collision flags for ``(start, duration, channel)`` transmissions.

    Two transmissions conflict iff their half-open intervals
    [start, start+duration) intersect and they share a channel; every
    party to a conflict loses (no capture).
    """
    flags = [False] * len(transmissions)
    order = sorted(range(len(transmissions)), key=lambda i: (transmissions[i][0], i))
    live_by_channel: dict[int, list[int]] = {}
    for i in order:
        start, _duration, channel = transmissions[i]
        peers = live_by_channel.setdefault(channel, [])
        peers[:] = [
            j for j in peers if transmissions[j][0] + transmissions[j][1] > start
        ]
        if peers:
            flags[i] = True
            for j in peers:
                flags[j] = True
        peers.append(i)
    return flags


def enforce_duty_cycle_oracle(
    history: list[tuple[int, int]],
    proposed_start: int,
    duration: int,
    cap: float,
    window: int,
) -> Optional[int]:
    """Sliding-window duty-cycle check for one node.

    ``history`` holds past (start, duration) pairs, non-overlapping and
    sorted by start.  Returns None when the proposal is legal, else the
    earliest start instant at which it becomes legal.
    """
    budget = round(cap * window) - duration
    if budget < 0:
        raise ValueError("transmission longer than the duty-cycle budget")

    def occupancy(win_start: int, win_end: int) -> int:
        total = 0
        for s, d in history:
            total += max(0, min(s + d, win_end) - max(s, win_start))
        return total

    win_end = proposed_start + duration
    excess = occupancy(win_end - window, win_end) - budget
    if excess <= 0:
        return None
    # Slide the window start forward until `excess` ns of old airtime
    # have left it; removal grows linearly while the window edge crosses
    # an entry and pauses in the gaps.
    s0 = win_end - window
    for s, d in history:
        if s + d <= s0:
            continue
        lo = max(s, s0)
        avail = s + d - lo
        if avail >= excess:
            edge = lo + excess
            return edge + window - duration
        excess -= avail
    raise AssertionError("unreachable: budget check bounds the walk")


def metrics_oracle(trace: Trace, n_nodes: int, warmup: int, duration: int) -> Metrics:
    """Run summary folded one uplink at a time; the steady window is
    every uplink that starts at or after ``warmup``."""
    n = len(trace)
    conflicts = sum(trace.collided)
    per_node = [[0, 0] for _ in range(n_nodes)]
    steady_n = steady_c = 0
    success_airtime = 0
    for i in range(n):
        node = trace.node_id[i]
        hit = trace.collided[i]
        per_node[node][0] += 1
        per_node[node][1] += hit
        if trace.true_start[i] >= warmup:
            steady_n += 1
            steady_c += hit
        if not hit:
            success_airtime += trace.duration[i]
    return Metrics(
        transmissions=n,
        conflicts=conflicts,
        collision_probability=(conflicts / n) if n else 0.0,
        throughput_fraction=success_airtime / duration,
        steady_transmissions=steady_n,
        steady_conflicts=steady_c,
        steady_state_collision_probability=(steady_c / steady_n) if steady_n else 0.0,
        warmup_transmissions=n - steady_n,
        warmup_conflicts=conflicts - steady_c,
        warmup_ns=warmup,
        per_node=[tuple(x) for x in per_node],
    )


def scan_duty_cycle_oracle(
    trace: Trace, n_nodes: int, cap: float, window: int
) -> list[tuple[int, int, float]]:
    """Sliding-window duty-cycle audit over per-node copies of the
    trace, each sorted by (start, duration); violations are
    (node_id, window_end_ns, fraction), grouped by node."""
    by_node: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for i in range(len(trace)):
        by_node[trace.node_id[i]].append((trace.true_start[i], trace.duration[i]))
    violations = []
    for node, txs in enumerate(by_node):
        txs.sort()
        lo = 0
        running = 0
        for start, dur in txs:
            end = start + dur
            running += dur
            win_start = end - window
            while lo < len(txs) and txs[lo][0] + txs[lo][1] <= win_start:
                running -= txs[lo][1]
                lo += 1
            # subtract the clipped part of the oldest partially-covered entry
            airtime = running
            if lo < len(txs) and txs[lo][0] < win_start:
                airtime -= win_start - txs[lo][0]
            fraction = airtime / window
            if fraction > cap:
                violations.append((node, end, fraction))
    return violations

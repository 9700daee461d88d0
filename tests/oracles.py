"""Independent reference implementations the engine is checked against.

They restate a rule from its definition, with none of the engine's
incremental bookkeeping, and exist only for the tests.
"""

import math
from array import array
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from saloha.engine import Metrics, Trace


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


def heap_pop_order(starts: list[list[int]]) -> list[tuple[int, int]]:
    """``(node, k)`` for every uplink, in the order the engine's event
    heap pops them, where ``starts[node][k]`` is the true start of the
    node's ``k``-th uplink.

    The heap is keyed ``(start, seq)`` with one counter for every push:
    each node's first uplink is pushed in node order before anything
    pops, and each later one when the node's previous uplink pops.
    """
    heap = []
    seq = 0
    for node, rows in enumerate(starts):
        if rows:
            seq += 1
            heappush(heap, (rows[0], seq, node, 0))
    order = []
    while heap:
        _start, _seq, node, k = heappop(heap)
        order.append((node, k))
        if k + 1 < len(starts[node]):
            seq += 1
            heappush(heap, (starts[node][k + 1], seq, node, k + 1))
    return order


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

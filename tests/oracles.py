"""Independent reference implementations the engine is checked against.

They restate a rule from its definition, with none of the engine's
incremental bookkeeping, and exist only for the tests.
"""

from typing import Optional

from saloha.engine import SimConfigError


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
        raise SimConfigError("transmission longer than the duty-cycle budget")

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

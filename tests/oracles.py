"""Independent reference implementations the engine is checked against.

They restate a rule from its definition, with none of the engine's
incremental bookkeeping, and exist only for the tests.
"""


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

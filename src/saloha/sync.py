"""ACK-piggybacked clock synchronization.

The gateway timestamps the end of every received uplink and returns the
timestamp inside the ACK that opens 1 s later.  The node compares it
with its own end-of-transmission RTC reading, obtains the offset, and
steps its clock.  Between corrections the alignment degrades linearly
with the assumed worst-case crystal drift, so nodes schedule a
confirmed (ACK-requesting) uplink before the uncertainty can reach the
slot guard interval.

Radio flight time is treated as zero; the only error sources are the
gateway's bounded timestamping error (tens of microseconds) and the
node-side residual from variable execution timing (milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass

from .timebase import NS_PER_US, drift_error, round_half_away_div

#: Residual error bound of a single synchronization, measured on real
#: hardware: worst case 15 ms, average 10 ms.
MAX_RESIDUAL_ERROR_NS = 15_000_000
#: Bound on the gateway-side ACK timestamping error.
MAX_TIMESTAMP_ERROR_NS = 20 * NS_PER_US
#: The ACK carries the gateway timestamp as 8 unsigned bytes of µs.
ACK_TIMESTAMP_LIMIT = 1 << 64


class SyncError(ValueError):
    """Contract violation in the synchronization machinery."""


@dataclass(frozen=True)
class SyncState:
    """Node-side synchronization bookkeeping.

    An unsynced node has unbounded uncertainty and must not use the
    slotted grid; it bootstraps with an ACK-requesting uplink first.
    """

    drift_bound_ppm: float
    synced: bool = False
    last_sync_local: int = 0
    uncertainty_at_sync: int = 0


@dataclass(frozen=True)
class SyncAck:
    """Gateway timestamp carried in the ACK: unsigned microseconds of
    gateway (true) time since the run began, in 8 bytes."""

    gateway_timestamp_us: int

    def __post_init__(self) -> None:
        if not 0 <= self.gateway_timestamp_us < ACK_TIMESTAMP_LIMIT:
            raise SyncError(
                f"timestamp {self.gateway_timestamp_us} not representable in 8 bytes"
            )


def gateway_record_rx_end(t: int, timestamp_error: int) -> int:
    """Gateway-observed end-of-reception instant, quantized to 1 µs
    (half away from zero).

    ``timestamp_error`` is the simulator-drawn timestamping error and
    must respect the hardware bound.
    """
    if abs(timestamp_error) > MAX_TIMESTAMP_ERROR_NS:
        raise SyncError(
            f"timestamp error {timestamp_error} ns exceeds ±{MAX_TIMESTAMP_ERROR_NS} ns"
        )
    return round_half_away_div(t + timestamp_error, NS_PER_US) * NS_PER_US


def compute_offset(node_tx_timestamp: int, gateway_timestamp: int) -> int:
    """Clock offset implied by the two end-of-transmission timestamps."""
    return gateway_timestamp - node_tx_timestamp


def current_uncertainty(state: SyncState, now_local: int) -> int:
    """Worst-case misalignment bound at ``now_local``.

    The residual of the last sync plus drift accrued since, using the
    configured worst-case crystal tolerance.  Monotone non-decreasing
    between syncs.
    """
    if not state.synced:
        raise SyncError("node has never synchronized")
    elapsed = max(0, now_local - state.last_sync_local)
    return state.uncertainty_at_sync + drift_error(state.drift_bound_ppm, elapsed)


def needs_resync(state: SyncState, now_local: int, guard: int) -> bool:
    """Whether the node must request an ACK to refresh its clock.

    True when unsynced or when the uncertainty bound has reached the
    guard interval (threshold inclusive).
    """
    if not state.synced:
        return True
    return current_uncertainty(state, now_local) >= guard

"""Channel-access policies and slot geometry.

Pure ALOHA transmits the moment data is ready.  The slotted overlay
divides time into slots of width T = T_r + T_b, where T_r covers the
uplink airtime, the RX1 delay and the ACK airtime, and T_b is the guard
absorbing sync residual plus inter-sync drift.  Slot boundaries form a
single global grid (multiples of T in gateway time) that nodes locate
through their corrected RTCs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .phy import RadioProfile, time_on_air

#: Peak channel utilization of the two access schemes: G·e^(-2G) tops
#: out at 1/(2e), G·e^(-G) at 1/e.
PURE_ALOHA_PEAK = 1.0 / (2.0 * math.e)
SLOTTED_ALOHA_PEAK = 1.0 / math.e


@dataclass(frozen=True)
class SlotPlan:
    """Slot geometry: transmission window, guard, full width."""

    t_r: int
    t_b: int
    t: int

    def __post_init__(self) -> None:
        if self.t_r <= 0 or self.t_b <= 0:
            raise ValueError("t_r and t_b must be positive")
        if self.t < self.t_r + self.t_b:
            raise ValueError("slot width t must cover t_r + t_b")


@dataclass(frozen=True)
class BackoffPolicy:
    """Collision recovery for the slotted overlay: on a missed ACK the
    node re-randomizes its slot phase over the slots of its period."""

    max_phase_slots: int = 1

    def __post_init__(self) -> None:
        if self.max_phase_slots < 1:
            raise ValueError("max_phase_slots must be >= 1")


@dataclass(frozen=True)
class MacPolicy:
    """Either pure ALOHA or the slotted overlay with its geometry and
    backoff."""

    variant: str  # "pure" | "slotted"
    plan: Optional[SlotPlan] = None
    backoff: Optional[BackoffPolicy] = None

    def __post_init__(self) -> None:
        if self.variant not in ("pure", "slotted"):
            raise ValueError(f"unknown MAC variant {self.variant!r}")
        if self.variant == "slotted" and self.plan is None:
            raise ValueError("slotted policy requires a SlotPlan")
        if self.variant == "slotted" and self.backoff is None:
            raise ValueError("slotted policy requires a BackoffPolicy")

    @property
    def is_slotted(self) -> bool:
        return self.variant == "slotted"


def plan_slot(
    uplink: RadioProfile, ack: RadioProfile, rx1_delay: int, guard: int, rounding: int
) -> SlotPlan:
    """Size a slot for the given uplink/ACK profiles.

    ``t_r`` is uplink airtime + RX1 delay + ACK airtime; the full width
    adds the guard and is rounded up to a multiple of ``rounding``.
    """
    if rx1_delay <= 0 or guard <= 0 or rounding <= 0:
        raise ValueError("rx1_delay, guard and rounding must be positive")
    t_r = time_on_air(uplink) + rx1_delay + time_on_air(ack)
    raw = t_r + guard
    t = -(-raw // rounding) * rounding
    return SlotPlan(t_r=t_r, t_b=guard, t=t)


def slot_start(ready_local: int, t: int, phase: int = 0) -> int:
    """Slotted transmission start for data ready at ``ready_local``
    (node-local time): the next boundary of the global grid of slot
    width ``t``, shifted forward by the node's backoff phase in whole
    slots."""
    return (-(-ready_local // t) + phase) * t


def max_node_dc(policy_kind: str, n_nodes: int, regulatory_cap: float) -> float:
    """Maximum per-node duty cycle: flat at the regulatory cap for small
    networks, then the analytic channel ceiling shared across nodes."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if not 0.0 < regulatory_cap <= 1.0:
        raise ValueError(f"regulatory cap must be in (0, 1], got {regulatory_cap}")
    if policy_kind == "pure":
        peak = PURE_ALOHA_PEAK
    elif policy_kind == "slotted":
        peak = SLOTTED_ALOHA_PEAK
    else:
        raise ValueError(f"unknown policy kind {policy_kind!r}")
    return min(regulatory_cap, peak / n_nodes)

"""Slotted-ALOHA overlay simulator for LoRaWAN-class networks.

Deterministic discrete-event simulation of duty-cycle-limited traffic
with drifting node clocks, ACK-piggybacked time synchronization, and
pure vs slotted ALOHA channel access.
"""

from .engine import (
    Engine,
    Metrics,
    ScenarioConfig,
    SimConfigError,
    Trace,
    enforce_duty_cycle,
    run,
)
from .mac import BackoffPolicy, MacPolicy, SlotPlan, plan_slot, required_guard
from .phy import RadioProfile, duty_cycle, min_period_for_dc, symbol_time, time_on_air

__all__ = [
    "BackoffPolicy",
    "Engine",
    "MacPolicy",
    "Metrics",
    "RadioProfile",
    "ScenarioConfig",
    "SimConfigError",
    "SlotPlan",
    "Trace",
    "duty_cycle",
    "enforce_duty_cycle",
    "min_period_for_dc",
    "plan_slot",
    "required_guard",
    "run",
    "symbol_time",
    "time_on_air",
]

__version__ = "0.1.0"

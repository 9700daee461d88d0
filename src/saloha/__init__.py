"""Slotted-ALOHA overlay simulator for LoRaWAN-class networks.

Deterministic discrete-event simulation of duty-cycle-limited traffic
with drifting node clocks, ACK-piggybacked time synchronization, and
pure vs slotted ALOHA channel access.
"""

from .config import ConfigError, load_scenario
from .engine import Engine, Metrics, ScenarioConfig, Trace, run
from .phy import RadioProfile, time_on_air

__all__ = [
    "ConfigError",
    "Engine",
    "Metrics",
    "RadioProfile",
    "ScenarioConfig",
    "Trace",
    "load_scenario",
    "run",
    "time_on_air",
]

__version__ = "0.1.0"

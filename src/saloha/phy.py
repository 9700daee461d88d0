"""LoRa packet timing: symbol time, time-on-air, duty-cycle arithmetic.

Uses the standard LoRa packet-duration relation.  All durations are
integer nanoseconds and exact: for the allowed bandwidths the symbol
time is an integer number of nanoseconds, and the 4.25 preamble tail
symbols contribute an exact quarter-symbol multiple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timebase import NS_PER_SEC, round_half_away_div

ALLOWED_BANDWIDTHS_HZ = (125_000, 250_000, 500_000)


@dataclass(frozen=True)
class RadioProfile:
    """LoRa PHY parameters from which packet airtime is derived.

    ``coding_rate_index`` is 1..4 meaning rate 4/(4+index).
    """

    spreading_factor: int
    bandwidth_hz: int
    coding_rate_index: int = 1
    preamble_symbols: int = 8
    payload_bytes: int = 0
    explicit_header: bool = True
    crc_enabled: bool = True
    low_data_rate_optimize: bool = False

    def __post_init__(self) -> None:
        problems = []
        if not 6 <= self.spreading_factor <= 12:
            problems.append(f"spreading_factor={self.spreading_factor} not in 6..12")
        if self.bandwidth_hz not in ALLOWED_BANDWIDTHS_HZ:
            problems.append(
                f"bandwidth_hz={self.bandwidth_hz} not in {ALLOWED_BANDWIDTHS_HZ}"
            )
        if not 1 <= self.coding_rate_index <= 4:
            problems.append(f"coding_rate_index={self.coding_rate_index} not in 1..4")
        # The SX127x's PreambleLength register holds 16 bits.
        if not 1 <= self.preamble_symbols <= 65535:
            problems.append(f"preamble_symbols={self.preamble_symbols} not in 1..65535")
        if not 0 <= self.payload_bytes <= 255:
            problems.append(f"payload_bytes={self.payload_bytes} not in 0..255")
        if self.spreading_factor - 2 * self.low_data_rate_optimize <= 0:
            problems.append("SF - 2*DE must be positive")
        if problems:
            raise ValueError("; ".join(problems))


def symbol_time(profile: RadioProfile) -> int:
    """Duration of one chirp symbol, ``2^SF / BW``, in exact nanoseconds."""
    # NS_PER_SEC is divisible by every allowed bandwidth.
    return (1 << profile.spreading_factor) * (NS_PER_SEC // profile.bandwidth_hz)


def payload_symbols(profile: RadioProfile) -> int:
    """Number of symbols in the payload section (header, payload, CRC)."""
    sf = profile.spreading_factor
    de = 1 if profile.low_data_rate_optimize else 0
    ih = 0 if profile.explicit_header else 1
    crc = 1 if profile.crc_enabled else 0
    numer = 8 * profile.payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    extra = -(-numer // (4 * (sf - 2 * de))) * (profile.coding_rate_index + 4)
    return 8 + max(extra, 0)


def time_on_air(profile: RadioProfile) -> int:
    """Total packet duration in nanoseconds.

    Preamble (``preamble_symbols`` + 4.25 sync/SFD symbols) plus the
    payload section.  Strictly non-decreasing in payload length and
    exactly halved when the bandwidth doubles.
    """
    ts = symbol_time(profile)
    quarter_symbols = 4 * (profile.preamble_symbols + payload_symbols(profile)) + 17
    return round_half_away_div(quarter_symbols * ts, 4)


def duty_cycle(airtime: int, period: int) -> float:
    """Fraction of channel time occupied: ``airtime / period``."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    return airtime / period

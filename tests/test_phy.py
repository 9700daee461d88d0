"""Packet timing against an independent symbol-sum oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saloha.phy import (
    ALLOWED_BANDWIDTHS_HZ,
    RadioProfile,
    duty_cycle,
    payload_symbols,
    symbol_time,
    time_on_air,
)
from saloha.timebase import NS_PER_SEC


def oracle_time_on_air_ns(profile: RadioProfile) -> int:
    """Bit-budget accounting of the LoRa payload section, independent of
    the closed-form ceil expression used by the implementation.

    The first 8 payload symbols carry ``4*SF - 28 + 20*IH - 16*CRC``
    payload bits at coding rate 4/4; every further group of CR+4 symbols
    carries ``4*(SF - 2*DE)`` bits.  Groups are added until the payload
    bit budget is exhausted, then all symbol counts are turned into time
    with exact rational arithmetic.
    """
    sf = profile.spreading_factor
    de = 1 if profile.low_data_rate_optimize else 0
    ih = 0 if profile.explicit_header else 1
    crc = 16 if profile.crc_enabled else 0
    bits_to_send = 8 * profile.payload_bytes + crc - 20 * ih + 28 - 4 * sf
    symbols = 8
    while bits_to_send > 0:
        bits_to_send -= 4 * (sf - 2 * de)
        symbols += profile.coding_rate_index + 4
    ts = Fraction(1 << sf, profile.bandwidth_hz)
    total = (Fraction(profile.preamble_symbols) + Fraction(17, 4) + symbols) * ts
    ns = total * NS_PER_SEC
    # round half away from zero (total is positive)
    return (ns.numerator * 2 + ns.denominator) // (2 * ns.denominator)


def random_profile(rng: random.Random) -> RadioProfile:
    sf = rng.randint(6, 12)
    return RadioProfile(
        spreading_factor=sf,
        bandwidth_hz=rng.choice(ALLOWED_BANDWIDTHS_HZ),
        coding_rate_index=rng.randint(1, 4),
        preamble_symbols=rng.randint(1, 65535),
        payload_bytes=rng.randint(0, 255),
        explicit_header=rng.random() < 0.5,
        crc_enabled=rng.random() < 0.5,
        low_data_rate_optimize=rng.random() < 0.5 if sf > 2 else False,
    )


class TestSymbolTime:
    def test_sf7_bw125(self):
        p = RadioProfile(spreading_factor=7, bandwidth_hz=125_000)
        assert symbol_time(p) == 1_024_000  # 128/125000 s

    def test_halves_when_bandwidth_doubles(self):
        p1 = RadioProfile(spreading_factor=9, bandwidth_hz=125_000)
        p2 = RadioProfile(spreading_factor=9, bandwidth_hz=250_000)
        assert symbol_time(p1) == 2 * symbol_time(p2)


class TestPayloadSymbols:
    def test_floor_at_eight(self):
        # Tiny payloads cannot go below the 8 mandatory symbols.
        p = RadioProfile(
            spreading_factor=12,
            bandwidth_hz=125_000,
            payload_bytes=0,
            explicit_header=False,
            crc_enabled=False,
        )
        assert payload_symbols(p) == 8

    def test_monotone_in_payload(self):
        prev = 0
        for n in range(0, 256):
            p = RadioProfile(spreading_factor=7, bandwidth_hz=125_000, payload_bytes=n)
            cur = payload_symbols(p)
            assert cur >= prev
            prev = cur


class TestTimeOnAir:
    def test_matches_oracle_on_1000_random_profiles(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            p = random_profile(rng)
            assert time_on_air(p) == oracle_time_on_air_ns(p), p

    @given(st.integers(6, 12), st.integers(0, 255), st.integers(1, 4))
    @settings(max_examples=200)
    def test_matches_oracle_exhaustive_corner(self, sf, payload, cr):
        for ih in (True, False):
            for crc in (True, False):
                p = RadioProfile(
                    spreading_factor=sf,
                    bandwidth_hz=125_000,
                    coding_rate_index=cr,
                    payload_bytes=payload,
                    explicit_header=ih,
                    crc_enabled=crc,
                )
                assert time_on_air(p) == oracle_time_on_air_ns(p)

    def test_halves_when_bandwidth_doubles(self):
        kwargs = dict(spreading_factor=8, coding_rate_index=2, payload_bytes=50)
        slow = time_on_air(RadioProfile(bandwidth_hz=250_000, **kwargs))
        fast = time_on_air(RadioProfile(bandwidth_hz=500_000, **kwargs))
        assert slow == 2 * fast


class TestValidation:
    def test_collects_every_problem(self):
        with pytest.raises(ValueError) as exc:
            RadioProfile(
                spreading_factor=13,
                bandwidth_hz=100_000,
                coding_rate_index=0,
                preamble_symbols=0,
                payload_bytes=300,
            )
        msg = str(exc.value)
        for fragment in (
            "spreading_factor",
            "bandwidth_hz",
            "coding_rate_index",
            "preamble_symbols",
            "payload_bytes",
        ):
            assert fragment in msg

    @pytest.mark.parametrize(
        "symbols,legal",
        [(0, False), (1, True), (65535, True), (65536, False), (10**20, False)],
    )
    def test_preamble_fits_the_16_bit_register(self, symbols, legal):
        if legal:
            RadioProfile(7, 125_000, preamble_symbols=symbols)
        else:
            with pytest.raises(ValueError, match=f"preamble_symbols={symbols} not in"):
                RadioProfile(7, 125_000, preamble_symbols=symbols)

    def test_sf6_with_ldro_rejected(self):
        # SF 6 with DE would make the denominator non-positive at SF-2DE <= 0
        # only for SF <= 4, so SF 6 + LDRO is fine; check SF bound instead.
        RadioProfile(spreading_factor=6, bandwidth_hz=125_000, low_data_rate_optimize=True)
        with pytest.raises(ValueError):
            RadioProfile(spreading_factor=5, bandwidth_hz=125_000)


class TestDutyCycle:
    def test_fraction(self):
        assert duty_cycle(10, 1000) == 0.01

    def test_bad_period(self):
        with pytest.raises(ValueError):
            duty_cycle(10, 0)

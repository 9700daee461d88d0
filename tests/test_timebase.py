"""Clock arithmetic: exactness, inversion, monotonicity.  The clock
map under test is the engine's, ``Engine._local_at``, and its inverse,
``oracles.true_at``, as the engine's schedule inlines it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saloha.engine import Engine, _Node
from saloha.timebase import (
    NS_PER_MS,
    NS_PER_SEC,
    drift_error,
    ppm_ratio,
    round_half_away_div,
)

from oracles import true_at


class TestRoundHalfAwayDiv:
    def test_exact_division(self):
        assert round_half_away_div(10, 5) == 2
        assert round_half_away_div(-10, 5) == -2
        assert round_half_away_div(0, 7) == 0

    def test_half_rounds_away_from_zero(self):
        assert round_half_away_div(1, 2) == 1
        assert round_half_away_div(-1, 2) == -1
        assert round_half_away_div(3, 2) == 2
        assert round_half_away_div(-3, 2) == -2

    def test_below_half_rounds_toward_zero(self):
        assert round_half_away_div(2, 5) == 0
        assert round_half_away_div(-2, 5) == 0

    @given(st.integers(-10**15, 10**15), st.integers(1, 10**9))
    def test_error_at_most_half(self, num, den):
        q = round_half_away_div(num, den)
        assert abs(num - q * den) * 2 <= den


class TestPpmRatio:
    @given(st.floats(-500.0, 500.0, allow_nan=False))
    def test_is_the_exact_ppm_fraction(self, ppm):
        num, den = ppm_ratio(ppm)
        assert den > 0
        assert Fraction(num, den) == Fraction(ppm) / 10**6

    def test_eighty_ppm(self):
        assert ppm_ratio(80) == (80, 1_000_000)


class TestClockModel:
    def test_zero_drift_is_identity_plus_offset(self):
        assert Engine._local_at(_Node(0.0, 123), 10**12) == 10**12 + 123

    def test_drift_ratio_reconstructs_ppm(self):
        nd = _Node(42.7, 0)
        assert nd.drift_num / nd.drift_den == pytest.approx(42.7e-6, rel=0, abs=1e-18)

    def test_eighty_ppm_forty_minutes(self):
        # 80 ppm over 40 min accrues 192 ms.
        elapsed = 40 * 60 * NS_PER_SEC
        assert Engine._local_at(_Node(80.0, 0), elapsed) - elapsed == 192 * NS_PER_MS
        assert drift_error(80.0, elapsed) == 192 * NS_PER_MS


class TestInversion:
    @given(
        st.floats(-200.0, 200.0, allow_nan=False),
        st.integers(-5 * NS_PER_SEC, 5 * NS_PER_SEC),
        st.integers(0, 30 * 86400 * NS_PER_SEC),
    )
    @settings(max_examples=300)
    def test_roundtrip_within_one_ns(self, ppm, offset, t):
        nd = _Node(ppm, offset)
        back = true_at(nd, Engine._local_at(nd, t))
        assert abs(back - t) <= 1

    @given(
        st.floats(-200.0, 200.0, allow_nan=False),
        st.integers(0, 86400 * NS_PER_SEC),
        st.integers(2, 10**6),
    )
    @settings(max_examples=300)
    def test_local_now_strictly_increases_for_two_ns_steps(self, ppm, t, step):
        # With negative drift two distinct true instants 1 ns apart can
        # map to the same RTC reading; from 2 ns on the order is strict.
        nd = _Node(ppm, 0)
        assert Engine._local_at(nd, t + step) > Engine._local_at(nd, t)

    @given(st.floats(-200.0, 200.0, allow_nan=False), st.integers(0, 86400 * NS_PER_SEC))
    def test_local_now_never_decreases(self, ppm, t):
        nd = _Node(ppm, 0)
        assert Engine._local_at(nd, t + 1) >= Engine._local_at(nd, t)


class TestDriftError:
    def test_linear_in_elapsed(self):
        assert drift_error(80.0, 0) == 0
        one_hour = 3600 * NS_PER_SEC
        assert drift_error(80.0, 2 * one_hour) == 2 * drift_error(80.0, one_hour)

    def test_sign_insensitive(self):
        assert drift_error(-40.0, NS_PER_SEC) == drift_error(40.0, NS_PER_SEC)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            drift_error(80.0, -1)

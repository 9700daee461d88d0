"""ACK-piggybacked synchronization: ACK range, offset math, bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saloha.sync import (
    MAX_TIMESTAMP_ERROR_NS,
    SyncAck,
    SyncError,
    SyncState,
    compute_offset,
    current_uncertainty,
    gateway_record_rx_end,
    needs_resync,
)
from saloha.timebase import NS_PER_MS, NS_PER_SEC, NS_PER_US
from saloha.timebase import ppm_ratio, round_half_away_div

#: 400 ms guard, 15 ms residual, 80 ppm: the guard is reached after
#: (400 - 15) ms / 80 ppm = 4812.5 s, 80 minutes and change.
RESYNC_INTERVAL = 4_812_500_000_000


class TestSyncAck:
    def test_rejects_unrepresentable(self):
        with pytest.raises(SyncError):
            SyncAck(1 << 64)
        with pytest.raises(SyncError):
            SyncAck(-1)


class TestTimestamps:
    def test_gateway_quantizes_to_microsecond(self):
        assert gateway_record_rx_end(1_000_499, 0) == 1_000_000
        assert gateway_record_rx_end(1_000_500, 0) == 1_001_000

    def test_gateway_applies_error_before_quantizing(self):
        assert gateway_record_rx_end(5_000_000, 1_700) == 5_002_000

    def test_gateway_rejects_out_of_spec_error(self):
        with pytest.raises(SyncError):
            gateway_record_rx_end(0, MAX_TIMESTAMP_ERROR_NS + 1)

    @given(
        st.integers(0, 10**15),
        st.integers(-MAX_TIMESTAMP_ERROR_NS, MAX_TIMESTAMP_ERROR_NS),
    )
    @settings(max_examples=300)
    def test_gateway_observation_close_to_truth(self, t, err):
        observed = gateway_record_rx_end(t, err)
        assert observed % NS_PER_US == 0
        assert abs(observed - t) <= MAX_TIMESTAMP_ERROR_NS + NS_PER_US // 2


class TestOffsetAndState:
    def test_compute_offset_sign(self):
        # Node clock ahead of gateway: correction must be negative.
        assert compute_offset(node_tx_timestamp=1_500, gateway_timestamp=1_000) == -500

    def test_uncertainty_requires_sync(self):
        state = SyncState(drift_bound_ppm=80.0)
        with pytest.raises(SyncError):
            current_uncertainty(state, 0)

    def test_uncertainty_grows_linearly(self):
        state = SyncState(
            drift_bound_ppm=80.0,
            synced=True,
            last_sync_local=0,
            uncertainty_at_sync=15 * NS_PER_MS,
        )
        forty_min = 40 * 60 * NS_PER_SEC
        assert current_uncertainty(state, 0) == 15 * NS_PER_MS
        assert current_uncertainty(state, forty_min) == 15 * NS_PER_MS + 192 * NS_PER_MS

    def test_needs_resync_threshold_inclusive(self):
        state = SyncState(
            drift_bound_ppm=80.0,
            synced=True,
            last_sync_local=0,
            uncertainty_at_sync=15 * NS_PER_MS,
        )
        guard = 400 * NS_PER_MS
        horizon = RESYNC_INTERVAL
        # 1 ns of uncertainty corresponds to 12.5 us of elapsed time at
        # 80 ppm, so step back past one rounding quantum.
        assert not needs_resync(state, horizon - 12_501, guard)
        assert needs_resync(state, horizon, guard)

    def test_unsynced_always_needs_resync(self):
        assert needs_resync(SyncState(drift_bound_ppm=80.0), 0, 1)


class TestResyncInterval:
    def test_published_checkpoint(self):
        state = SyncState(
            drift_bound_ppm=80.0,
            synced=True,
            last_sync_local=0,
            uncertainty_at_sync=15 * NS_PER_MS,
        )
        assert current_uncertainty(state, RESYNC_INTERVAL) == 400 * NS_PER_MS

    @given(
        st.integers(1, 100 * NS_PER_MS),
        st.integers(0, 15 * NS_PER_MS),
        st.floats(1.0, 200.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_interval_saturates_guard(self, guard, residual, ppm):
        # The uncertainty accrued over the interval that the guard allows,
        # (guard - residual) / drift, lands on the guard to within the
        # 1 ns rounding of each direction.
        if guard <= residual:
            return
        num, den = ppm_ratio(ppm)
        interval = round_half_away_div((guard - residual) * den, num)
        state = SyncState(
            drift_bound_ppm=ppm,
            synced=True,
            last_sync_local=0,
            uncertainty_at_sync=residual,
        )
        assert abs(current_uncertainty(state, interval) - guard) <= 1
